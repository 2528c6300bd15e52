"""Finite abelian groups, small prime-power fields, point labels and difference lists.

Points come in two flavours and are stored as plain tuples so they hash fast
and sort deterministically:

  finite point:   (0, base, copy)  with base a tuple of ints and copy an int,
                  copy == -1 meaning "no copy index"
  infinite point: (1, (index,), -1), fixed under translation

The text grammar is ``INT{.INT}*[_INT]`` for finite points (residues joined
by ".", optional "_copy") and ``infINT`` for infinite points.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter
from dataclasses import dataclass

from .errors import CapExceeded, DegreeZero, GroupMismatch, MissingCopyIndex, NotPrime

Point = tuple
Block = tuple  # sorted tuple of points

GF_CAP = 2 ** 20


def fpoint(base, copy: int = -1) -> Point:
    if isinstance(base, int):
        base = (base,)
    return (0, tuple(base), copy)


def ipoint(index: int) -> Point:
    return (1, (index,), -1)


def is_finite(p: Point) -> bool:
    return p[0] == 0


def copy_of(p: Point) -> int:
    return p[2]


def block(points) -> Block:
    """Canonical block: sorted tuple, duplicates rejected."""
    pts = sorted(points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate point in block: %r" % (pts,))
    return tuple(pts)


_INF_RE = re.compile(r"^inf(\d+)$")
_FIN_RE = re.compile(r"^(\d+(?:\.\d+)*)(?:_(\d+))?$")


def elem_label(elem) -> str:
    """A group or field element as a label: its coordinates joined by dots."""
    return ".".join(str(x) for x in elem)


def format_point(p: Point) -> str:
    if p[0] == 1:
        return "inf%d" % p[1][0]
    s = elem_label(p[1])
    if p[2] >= 0:
        s += "_%d" % p[2]
    return s


def parse_point(s: str) -> Point:
    if not isinstance(s, str):
        raise ValueError("bad point label: %r" % (s,))
    m = _INF_RE.match(s)
    if m:
        return ipoint(int(m.group(1)))
    m = _FIN_RE.match(s)
    if not m:
        raise ValueError("bad point label: %r" % s)
    base = tuple(int(x) for x in m.group(1).split("."))
    copy = int(m.group(2)) if m.group(2) is not None else -1
    return fpoint(base, copy)


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups; elements are tuples of residues."""

    factors: tuple

    def __post_init__(self):
        if not all(isinstance(m, int) and m >= 1 for m in self.factors):
            raise ValueError("moduli must be positive integers")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def order(self) -> int:
        n = 1
        for m in self.factors:
            n *= m
        return n

    def check(self, x: tuple) -> tuple:
        if len(x) != len(self.factors):
            raise GroupMismatch("element arity %d != %d" % (len(x), len(self.factors)))
        return tuple(a % m for a, m in zip(x, self.factors))

    def zero(self) -> tuple:
        return (0,) * len(self.factors)

    def add(self, x: tuple, y: tuple) -> tuple:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.factors))

    def neg(self, x: tuple) -> tuple:
        return tuple((-a) % m for a, m in zip(x, self.factors))

    def sub(self, x: tuple, y: tuple) -> tuple:
        return tuple((a - b) % m for a, b, m in zip(x, y, self.factors))

    def elements(self) -> list:
        return [tuple(reversed(t)) for t in
                itertools.product(*[range(m) for m in reversed(self.factors)])]

    @functools.cached_property
    def addition(self) -> tuple:
        """(elements in sorted order, element -> position, table, negation),
        built once: table[x][y] is the position of the sum of the elements at
        x and y, and negation[x] that of minus the element at x, so the
        difference of the elements at x and y sits at table[x][negation[y]]."""
        elems = list(itertools.product(*map(range, self.factors)))
        table = [[0]]
        for m in self.factors:
            # with a new least significant factor, (x, a) + (y, b) sits at
            # position (x + y) * m + (a + b) % m
            shifts = [[(a + b) % m for b in range(m)] for a in range(m)]
            table = [[s * m + t for s in row for t in shift] for row in table for shift in shifts]
        # zero is the least element, at position 0
        return elems, {e: x for x, e in enumerate(elems)}, table, [row.index(0) for row in table]


def cyclic(m: int) -> AbelianGroup:
    return AbelianGroup((m,))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_prime_power(q: int):
    """Return (p, e) with q == p**e, or None when q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1) if is_prime(q) else None
        if q % p:
            continue
        e, m = 0, q
        while m % p == 0:
            m //= p
            e += 1
        return (p, e) if m == 1 else None
    return None


# Polynomials over Z_p are coefficient tuples, most significant first.

def _poly_trim(c):
    i = 0
    while i < len(c) - 1 and c[i] == 0:
        i += 1
    return tuple(c[i:])


def _poly_mod(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and any(a):
        if a[0] == 0:
            a.pop(0)
            continue
        f = a[0]
        for i in range(len(mod)):
            a[i] = (a[i] - f * mod[i]) % p
        a.pop(0)
    return _poly_trim(tuple(a))


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_mod(tuple(out), mod, p)


def _irreducible(mod, p) -> bool:
    e = len(mod) - 1
    for deg in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            d = (1,) + tail
            if not any(_poly_mod(mod, d, p)):
                return False
    return True


@dataclass(frozen=True)
class FieldGF:
    """GF(p^e) with a fixed monic irreducible modulus and primitive element.

    Elements are length-e coefficient tuples, most significant first, so the
    canonical order is plain tuple order.  Products, powers and inverses are
    read off log and antilog tables of omega, built on first use by the
    polynomial product mod the modulus, which stays the definition.
    """

    p: int
    e: int
    modulus: tuple
    omega: tuple

    @property
    def q(self) -> int:
        return self.p ** self.e

    def zero(self) -> tuple:
        return (0,) * self.e

    def one(self) -> tuple:
        return (0,) * (self.e - 1) + (1,)

    def from_int(self, n: int) -> tuple:
        digs = []
        for _ in range(self.e):
            digs.append(n % self.p)
            n //= self.p
        return tuple(reversed(digs))

    def elements(self) -> list:
        return [self.from_int(n) for n in range(self.q)]

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        return tuple((-a) % self.p for a in x)

    def _poly_mul(self, x, y):
        r = _poly_mulmod(x, y, self.modulus, self.p)
        return (0,) * (self.e - len(r)) + r

    @functools.cached_property
    def _logs(self) -> tuple:
        """(antilog, log): antilog[k] = omega^k for 0 <= k < q - 1, and log
        the position of each nonzero element in it."""
        antilog = [self.one()]
        for _ in range(self.q - 2):
            antilog.append(self._poly_mul(antilog[-1], self.omega))
        return antilog, {x: k for k, x in enumerate(antilog)}

    def mul(self, x, y):
        if not any(x) or not any(y):
            return self.zero()
        antilog, log = self._logs
        return antilog[(log[x] + log[y]) % (self.q - 1)]

    def pow(self, x, n: int):
        if not any(x):
            return self.zero() if n else self.one()
        antilog, log = self._logs
        return antilog[log[x] * n % (self.q - 1)]

    def inv(self, x):
        if not any(x):
            raise ZeroDivisionError("inverse of zero")
        antilog, log = self._logs
        return antilog[-log[x] % (self.q - 1)]

    def mult_order(self, x) -> int:
        """By the polynomial product, so that it serves before omega is known."""
        if x == self.zero():
            return 0
        k, acc = 1, x
        while acc != self.one():
            acc = self._poly_mul(acc, x)
            k += 1
        return k

    def additive_group(self) -> AbelianGroup:
        return AbelianGroup((self.p,) * self.e)


def gf_build(p: int, e: int) -> FieldGF:
    """Deterministic field: least monic irreducible modulus, least primitive omega."""
    if e < 1:
        raise DegreeZero("extension degree must be >= 1")
    if not is_prime(p):
        raise NotPrime("%d is not prime" % p)
    if p ** e > GF_CAP:
        raise CapExceeded("p^e = %d exceeds cap %d" % (p ** e, GF_CAP))
    if e == 1:
        modulus = (1, 0)
    else:
        modulus = None
        for tail in itertools.product(range(p), repeat=e):
            cand = (1,) + tail
            if _irreducible(cand, p):
                modulus = cand
                break
        assert modulus is not None
    fld = FieldGF(p, e, modulus, (0,) * e)
    target = p ** e - 1
    omega = None
    for n in range(1, p ** e):
        x = fld.from_int(n)
        if fld.mult_order(x) == target:
            omega = x
            break
    assert omega is not None
    return FieldGF(p, e, modulus, omega)


def translate_block(b: Block, gamma: tuple, g: AbelianGroup) -> Block:
    """Shift finite points by gamma, fix infinite points.  Neither is checked
    against g: every starter verifier checks its points before any shift."""
    return block(p if p[0] == 1 else (0, g.add(p[1], gamma), p[2]) for p in b)


def difference_list(blocks, g: AbelianGroup, mode="plain") -> Counter:
    """Multiset of within-block differences; infinite points never contribute.

    mode is "plain", ("pure", i) or ("mixed", i, j); the indexed modes read
    point copy indices and collect x - y over ordered pairs of distinct
    points whose copies match the mode.
    """
    out = Counter()
    if mode == "plain":
        for b in blocks:
            fin = [g.check(p[1]) for p in b if is_finite(p)]
            for x, y in itertools.permutations(fin, 2):
                out[g.sub(x, y)] += 1
        return out
    kind = mode[0]
    if kind == "pure":
        i = j = mode[1]
    elif kind == "mixed":
        i, j = mode[1], mode[2]
        if i == j:
            raise ValueError("mixed mode needs distinct copies")
    else:
        raise ValueError("unknown difference mode %r" % (mode,))
    for b in blocks:
        fin = [p for p in b if is_finite(p)]
        if any(copy_of(p) < 0 for p in fin):
            raise MissingCopyIndex("pure/mixed differences need copy-indexed points")
        xs = [p[1] for p in fin if copy_of(p) == i]
        ys = [p[1] for p in fin if copy_of(p) == j]
        # each point of a pair is checked once: permutations and product
        # take in their whole input before the first pair
        if i == j and len(xs) > 1:
            pairs = itertools.permutations(map(g.check, xs), 2)
        elif i != j and xs and ys:
            pairs = itertools.product(map(g.check, xs), map(g.check, ys))
        else:
            continue
        for x, y in pairs:
            out[g.sub(x, y)] += 1
    return out
