"""Starter families, their verifiers, and deterministic development into grids.

Four starter kinds are supported: the triple-system starter over an abelian
group with three point copies, the two incomplete-packing starters over
Z_m x Z_2 and Z_m x Z_4 with infinite points, and the frame starter over
Z_3t x [2].  Each kind has a condition-by-condition verifier and a fixed
placement rule that develops the translates into a full DesignGrid.

Every family is a tuple of blocks in the position order the verifiers and
develops index by: gbtd's A blocks and colors by element, in the sorted
order of `AbelianGroup.addition` (zero first), the frame blocks by slot
(1,0), (1,1), ..., (t-1,1).  Each starter builds its group once.  One table,
`STARTER_KINDS`, dispatches the verifiers, develops and starter files.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .algebra import (
    AbelianGroup,
    block,
    cyclic,
    elem_label,
    factor_prime_power,
    format_point,
    fpoint,
    gf_build,
    ipoint,
    is_finite,
    parse_point,
)
from .designs import DesignGrid, VerifyReport, check_keys
from .errors import MalformedStarter, NotOneMod6, NotPrimePower, StarterInvalid

CLUB, DIAMOND, HEART = 0, 1, 2


class _Translates:
    """Every translate of a block over one group, by element position.

    Positions follow the sorted element order of `g.addition`; `labels`
    holds each element's label, formatted once.  A finite point (0, e, c)
    moves to (0, e + beta, c) and an infinite point stays.
    """

    def __init__(self, g: AbelianGroup):
        self.elems, self.index, self.table, _ = g.addition
        self.labels = [elem_label(e) for e in self.elems]
        self._copies = {}  # copy index -> the finite points of that copy, by position

    def points(self, copy: int) -> list:
        pts = self._copies.get(copy)
        if pts is None:
            pts = self._copies[copy] = [(0, e, copy) for e in self.elems]
        return pts

    def __call__(self, b) -> list:
        """b + beta for every element beta, in element order."""
        moved = [map(self.points(p[2]).__getitem__, self.table[self.index[p[1]]])
                 if p[0] == 0 else itertools.repeat(p, len(self.elems)) for p in b]
        return list(map(tuple, map(sorted, zip(*moved))))


# ---------------------------------------------------------------------------
# triple-system starter: blocks A_alpha (alpha in Gamma) and B_t over Gamma x {0,1,2}


@dataclass
class GbtdStarter:
    kind: ClassVar[str] = "gbtd"
    group: AbelianGroup
    blocks_a: tuple  # A_alpha at alpha's position in sorted element order, zero first
    blocks_b: tuple  # B_1..B_(m-1)/2
    special: bool = False
    colors_a: tuple | None = None  # the color of A_alpha - alpha, by position
    colors_b: tuple | None = None

    @property
    def m(self) -> int:
        return self.group.order


def _off_set(g: AbelianGroup, blocks, where: str, copies, w: int = 0) -> list:
    """The shape witness "point p outside where" for each point of blocks, in
    block order, off its kind's point set: a finite point whose copy is not in
    copies or whose element is not one reduced residue per factor, as
    `g.addition` writes it (read off g.factors: the table costs |g|^2), and
    an infinite point other than inf1..inf<w>."""
    factors = g.factors
    return ["point %s outside %s" % (format_point(p), where) for b in blocks for p in b
            if not (p[2] in copies and len(p[1]) == len(factors)
                    and tuple(map(operator.mod, p[1], factors)) == p[1]
                    if p[0] == 0 else 1 <= p[1][0] <= w)]


def _located(g: AbelianGroup, blocks) -> list:
    """Each block's points as (position, copy), for blocks on their point set
    (see `_off_set`).  A finite point sits at its element's position in the
    sorted element order of `g.addition`, and the infinite point inf<i> at
    |g| + i, after every element."""
    index = g.addition[1]
    return [[(index[p[1]] if p[0] == 0 else len(index) + p[1][0], p[2]) for p in b]
            for b in blocks]


def _difference_counts(g: AbelianGroup, located, copies: int) -> list:
    """Every pure and mixed difference list in one walk over the blocks:
    entry (i * copies + j) * |g| + d counts the ordered pairs of points
    (x, i), (y, j) of one block with x - y at position d, which is
    `difference_list(blocks, g, ("pure", i))` for i == j and
    `("mixed", i, j)` otherwise."""
    _, _, table, neg = g.addition
    order = len(table)
    counts = [0] * (copies * copies * order)
    for b in located:
        for (x, i), (y, j) in itertools.permutations(b, 2):
            counts[(i * copies + j) * order + table[x][neg[y]]] += 1
    return counts


def _count_condition(rep, cid, keys, got: list, want: list) -> None:
    """got against want, key by key in sorted key order: for every key whose
    counts differ, the witness "key: got k want w"."""
    rep.add(cid, [] if got == want else ["%r: got %d want %d" % (key, k, w)
                                         for key, k, w in zip(keys, got, want) if k != w])


def _tally(size: int, slots) -> list:
    """How often each of 0..size-1 occurs in slots."""
    counts = [0] * size
    for x in slots:
        counts[x] += 1
    return counts


def verify_gbtd_starter(s: GbtdStarter) -> VerifyReport:
    rep = VerifyReport()
    g = s.group
    m = s.m
    shape_bad = []
    if m % 2 == 0:
        shape_bad.append("group order %d is even" % m)
    if len(s.blocks_a) != m:
        shape_bad.append("expected %d A blocks" % m)
    if len(s.blocks_b) != (m - 1) // 2:
        shape_bad.append("expected %d B blocks" % ((m - 1) // 2))
    for b in (*s.blocks_a, *s.blocks_b):
        if len(b) != 3:
            shape_bad.append("block size %d" % len(b))
        shape_bad += _off_set(g, [b], "Gamma x {0,1,2}", range(3))
    rep.add("shape", shape_bad)
    if shape_bad:
        return rep

    elems, index, table, neg = g.addition
    located_a = _located(g, s.blocks_a)
    located_b = _located(g, s.blocks_b)
    counts = _difference_counts(g, located_a + located_b, 3)
    for i in range(3):
        _count_condition(rep, "pure-diffs-%d" % i, elems, counts[4 * i * m:(4 * i + 1) * m],
                         [0] + [1] * (m - 1))
    for i, j in itertools.permutations(range(3), 2):
        slot = 3 * i + j
        _count_condition(rep, "mixed-diffs-%d%d" % (i, j), elems,
                         counts[slot * m:(slot + 1) * m], [1] * m)

    cover = _tally(3 * m, (3 * x + c for b in located_a for x, c in b))
    _count_condition(rep, "a-cover", [fpoint(e, c) for e in elems for c in range(3)],
                     cover, [1] * (3 * m))

    b_bad = []
    for t, b in enumerate(s.blocks_b, start=1):
        if {p[2] for p in b} != {0, 1, 2}:
            b_bad.append("B_%d misses a copy" % t)
    rep.add("b-transversal", b_bad)

    # R: each A_alpha (at position a) shifted by -alpha, and the B blocks, at point 3x + c
    shifted = [[3 * table[x][neg[a]] + c for x, c in b] for a, b in enumerate(located_a)]
    shifted += [[3 * x + c for x, c in b] for b in located_b]
    r = _tally(3 * m, itertools.chain.from_iterable(shifted))
    r_bad = []
    if not 1 <= min(r) <= max(r) <= 2:
        for e in g.elements():
            for c in range(3):
                k = r[3 * index[e] + c]
                if k not in (1, 2):
                    r_bad.append("%s appears %d times in R" % (format_point(fpoint(e, c)), k))
    rep.add("row-multiset", r_bad)

    if s.special:  # A_0 sits at position 0
        rep.add("special-a0-once", ["%s appears %d times in R" % (format_point(p), r[3 * x + c])
                                    for p, (x, c) in zip(s.blocks_a[0], located_a[0])
                                    if r[3 * x + c] != 1])

    if s.colors_a is not None:
        by_color = {}
        for col, b in zip((*s.colors_a, *s.colors_b), shifted):
            by_color.setdefault(col, [0] * (3 * m))
            for xc in b:
                by_color[col][xc] += 1
        col_bad = []
        wit_bad = []
        for col, cnt in sorted(by_color.items()):
            if max(cnt) > 1:
                col_bad += ["color %d: %s in %d blocks"
                            % (col, format_point((0, elems[xc // 3], xc % 3)), k)
                            for xc, k in enumerate(cnt) if k > 1]
            if 0 not in cnt:
                wit_bad.append("color %d has no witness" % col)
        rep.add("color-disjoint", col_bad)
        rep.add("color-witness", wit_bad)
    return rep


def develop_gbtd(s: GbtdStarter) -> DesignGrid:
    """Place A_alpha+beta at (alpha+beta, beta) and B_t+alpha at (alpha, t)."""
    rep = verify_gbtd_starter(s)
    if not rep.ok:
        raise StarterInvalid("starter fails verification:\n" + rep.describe())
    tr = _Translates(s.group)
    rows = tuple(tr.labels)
    t_count = len(s.blocks_b)
    cols = rows + tuple("t%d" % t for t in range(1, t_count + 1))
    # the cells of each A block, then of each B block
    placed = [list(zip(map(rows.__getitem__, tr.table[a]), rows)) for a in range(len(rows))]
    placed += [list(zip(rows, itertools.repeat("t%d" % t))) for t in range(1, t_count + 1)]
    cells = {}
    for rcs, b in zip(placed, (*s.blocks_a, *s.blocks_b)):
        cells.update(zip(rcs, tr(b)))
    colors = None if s.colors_a is None else {
        rc: col for rcs, col in zip(placed, (*s.colors_a, *s.colors_b)) for rc in rcs}
    points = tuple(fpoint(e, c) for e in tr.elems for c in range(3))
    special = (rows[0], rows[0]) if s.special else None
    return DesignGrid("GBTD", 1, (3,), points, rows, cols, cells,
                      colors, special=special)


def build_fq_gbtd_starter(q: int) -> GbtdStarter:
    """Prime-power starter: special and 3-colorable with a witness row.

    Needs q = 1 mod 6.  All choices (modulus, omega, gamma) follow the
    canonical element order, so the starter is reproducible.
    """
    if q % 6 != 1:
        raise NotOneMod6("q = %d is not 1 mod 6" % q)
    pe = factor_prime_power(q)
    if pe is None:
        raise NotPrimePower("q = %d is not a prime power" % q)
    fld = gf_build(*pe)
    s = (q - 1) // 6
    w = fld.omega
    cube = [fld.pow(w, 2 * j * s) for j in range(3)]  # the cube roots of unity

    forbidden = {fld.zero()} | {fld.neg(u) for u in cube}
    for t in range(1, s):
        wt = fld.pow(w, t)
        den = fld.inv(fld.sub(wt, fld.one()))
        for a, b in itertools.permutations(range(3), 2):
            forbidden.add(fld.mul(fld.sub(cube[a], fld.mul(cube[b], wt)), den))
    gamma = None
    for x in fld.elements():
        if x not in forbidden:
            gamma = x
            break
    assert gamma is not None

    lam_index = {}
    for t in range(s):
        for i in range(3):
            lam_index[fld.neg(fld.mul(gamma, fld.pow(w, t + 2 * i * s)))] = (t, i)

    group = fld.additive_group()
    blocks_a = []
    colors_a = []
    inv_gamma = fld.inv(gamma)
    for alpha in group.addition[0]:
        if alpha in lam_index:
            t, i = lam_index[alpha]
            blocks_a.append(block(fpoint(fld.pow(w, t + 2 * j * s), i) for j in range(3)))
            colors_a.append(DIAMOND)
        else:
            scale = fld.neg(fld.mul(alpha, inv_gamma))
            blocks_a.append(block(fpoint(fld.mul(scale, cube[i]), i) for i in range(3)))
            colors_a.append(CLUB if alpha == fld.zero() else HEART)
    blocks_b = []
    for t in range(s):
        for j in range(3):
            base = fld.pow(w, t + 2 * j * s)
            blocks_b.append(block(
                fpoint(fld.mul(base, fld.add(cube[i], gamma)), i) for i in range(3)))
    return GbtdStarter(group, tuple(blocks_a), tuple(blocks_b), special=True,
                       colors_a=tuple(colors_a), colors_b=(HEART,) * len(blocks_b))


# ---------------------------------------------------------------------------
# incomplete-packing starter over (Z_m x Z_2) u W_w


@dataclass
class IgbtpStarterZ2:
    kind: ClassVar[str] = "igbtp_z2"
    m: int
    w: int
    blocks_a: tuple  # (w-5)/2 pairs, one point of each parity
    blocks_b: tuple  # (w-1)/2 pairs
    blocks_c: tuple  # m blocks indexed by Z_m, |C_0| = 3
    group: AbelianGroup = field(init=False, repr=False)

    def __post_init__(self):
        self.group = AbelianGroup((self.m, 2))


def _plain_counts(g: AbelianGroup, located) -> list:
    """`difference_list(blocks, g, "plain")` by position: the differences of
    the finite points of each block."""
    order = len(g.addition[0])
    return _difference_counts(g, [[(x, 0) for x, _ in b if x < order] for b in located], 1)


def _point(elems, x: int) -> tuple:
    """The point, with no copy, that `_located` places at position x."""
    return (0, elems[x], -1) if x < len(elems) else (1, (x - len(elems),), -1)


def _holed_cover(rep, cid, g: AbelianGroup, located, w: int) -> None:
    """Every element and inf1..inf<w> once among the located points; position
    |g|, which no point takes, is wanted 0 times."""
    elems = g.addition[0]
    size = len(elems) + w + 1
    _count_condition(rep, cid, [_point(elems, x) for x in range(size)],
                     _tally(size, (x for b in located for x, _ in b)),
                     [int(x != len(elems)) for x in range(size)])


def _holed_rows(g: AbelianGroup, w: int, seeds, moves, name: str) -> list:
    """Witnesses that an element or one of inf1..inf<w> is in the row multiset
    `name` other than once or twice.  It holds each seed, an element, and each
    located block b of moves, pairs (b, beta), moved by the element at beta;
    an infinite point stays."""
    elems, index, table, _ = g.addition
    size = len(elems) + w + 1
    stay = list(range(len(elems), size))
    shift = {beta: table[beta] + stay for _, beta in moves}
    r = _tally(size, [*map(index.__getitem__, seeds),
                      *(shift[beta][x] for b, beta in moves for x, _ in b)])
    return ["%s appears %d times in %s" % (format_point(_point(elems, x)), r[x], name)
            for x in [*map(index.__getitem__, g.elements()), *stay[1:]] if r[x] not in (1, 2)]


def verify_igbtp_z2_starter(s: IgbtpStarterZ2) -> VerifyReport:
    rep = VerifyReport()
    g = s.group
    m, w = s.m, s.w
    shape_bad = []
    if m % 2 == 0:
        shape_bad.append("m must be odd")
    if w % 2 == 0 or w < 5:
        shape_bad.append("w must be odd and >= 5")
    if len(s.blocks_a) != (w - 5) // 2:
        shape_bad.append("expected %d A blocks" % ((w - 5) // 2))
    if len(s.blocks_b) != (w - 1) // 2:
        shape_bad.append("expected %d B blocks" % ((w - 1) // 2))
    if len(s.blocks_c) != m:
        shape_bad.append("expected %d C blocks" % m)
    for i, b in enumerate(s.blocks_c):
        if len(b) != (3 if i == 0 else 2):
            shape_bad.append("C_%d has size %d" % (i, len(b)))
    for b in s.blocks_a + s.blocks_b:
        if len(b) != 2:
            shape_bad.append("A/B block of size %d" % len(b))
    shape_bad += _off_set(g, s.blocks_a + s.blocks_b + s.blocks_c,
                          "Z_%d x Z_2 u {inf1..inf%d}" % (m, w), (-1,), w)
    rep.add("shape", shape_bad)
    if shape_bad:
        return rep
    if m < 11:
        rep.conditions[-1].detail = "m < 11 is outside the stated range"

    elems, _, _, neg = g.addition
    located = _located(g, [*s.blocks_a, *s.blocks_b, *s.blocks_c])
    located_a, located_c = located[:len(s.blocks_a)], located[-m:]
    # every element but (0, 0) and (0, 1), at positions 0 and 1
    _count_condition(rep, "difference-list", elems, _plain_counts(g, located),
                     [0, 0] + [1] * (len(elems) - 2))

    a_bad = []
    for i, b in enumerate(s.blocks_a, start=1):
        if any(not is_finite(p) for p in b) or {p[1][1] for p in b} != {0, 1}:
            a_bad.append("A_%d does not meet both parities" % i)
    rep.add("a-parities", a_bad)

    _holed_cover(rep, "bc-cover", g, located[len(s.blocks_a):], w)

    c_bad = []
    for i, b in enumerate(s.blocks_c):
        if sum(1 for p in b if not is_finite(p)) > 1:
            c_bad.append("C_%d has two infinite points" % i)
    rep.add("c-one-infinite", c_bad)

    # R: (0, 0) and (0, 1), each A block moved by both, and C_i moved by
    # -(i, j); the element (i, j) sits at position 2i + j
    moves = [(b, j) for b in located_a for j in (0, 1)]
    moves += [(b, neg[2 * i + j]) for i, b in enumerate(located_c) for j in (0, 1)]
    rep.add("row-multiset", _holed_rows(g, w, ((0, 0), (0, 1)), moves, "R"))
    return rep


def develop_igbtp_z2(s: IgbtpStarterZ2) -> DesignGrid:
    rep = verify_igbtp_z2_starter(s)
    if not rep.ok:
        raise StarterInvalid("starter fails verification:\n" + rep.describe())
    tr = _Translates(s.group)  # element (i, j) at position 2i + j
    m, w = s.m, s.w
    hole_rows = tuple("p%d" % i for i in range(1, (w - 1) // 2 + 1))
    body = tuple(str(i) for i in range(m))
    rows = hole_rows + body
    hole_cols = tuple("q%d" % j for j in range(1, w - 4 + 1))
    cols = hole_cols + tuple(tr.labels)
    cells = {}
    a_moved = [tr(b) for b in s.blocks_a]
    for i in range(m):
        cells[(body[i], "q1")] = block([fpoint((i, 0)), fpoint((i, 1))])
        for a, moved in enumerate(a_moved, start=1):
            for j in (0, 1):
                cells[(body[i], "q%d" % (2 * a + j))] = moved[2 * i + j]
    for bi, b in enumerate(s.blocks_b, start=1):
        cells.update(zip(zip(itertools.repeat("p%d" % bi), tr.labels), tr(b)))
    c_moved = [tr(b) for b in s.blocks_c]
    for x, (j, _l) in enumerate(tr.elems):
        for rr in range(m):
            cells[(body[rr], tr.labels[x])] = c_moved[(rr - j) % m][x]
    points = tuple(fpoint(e) for e in tr.elems) + tuple(ipoint(i) for i in range(1, w + 1))
    hole = (tuple(sorted(ipoint(i) for i in range(1, w + 1))), hole_rows, hole_cols)
    return DesignGrid("IGBTP", 1, (2, 3), points, rows, cols, cells,
                      hole=hole, star=True)


# ---------------------------------------------------------------------------
# incomplete-packing starter over (Z_m x Z_4) u W_9


@dataclass
class IgbtpStarterZ4:
    kind: ClassVar[str] = "igbtp_z4"
    w: ClassVar[int] = 9
    m: int
    x: int
    y: int
    block_a: tuple  # one pair on parities {0, 2}
    blocks_b: tuple  # four pairs
    blocks_c: tuple  # m blocks, |C_0| = 3
    blocks_d: tuple  # m pairs
    group: AbelianGroup = field(init=False, repr=False)

    def __post_init__(self):
        self.group = AbelianGroup((self.m, 4))


def verify_igbtp_z4_starter(s: IgbtpStarterZ4) -> VerifyReport:
    rep = VerifyReport()
    g = s.group
    m = s.m
    shape_bad = []
    if m % 2 == 0 or m < 5:
        shape_bad.append("m must be odd and >= 5")
    if not (0 <= s.x < m and 0 <= s.y < m):
        shape_bad.append("x = %d and y = %d must lie in 0..%d" % (s.x, s.y, m - 1))
    if len(s.block_a) != 2:
        shape_bad.append("A must be a pair")
    if len(s.blocks_b) != 4:
        shape_bad.append("expected 4 B blocks")
    if len(s.blocks_c) != m or len(s.blocks_d) != m:
        shape_bad.append("expected %d C and D blocks" % m)
    for i, b in enumerate(s.blocks_c):
        if len(b) != (3 if i == 0 else 2):
            shape_bad.append("C_%d has size %d" % (i, len(b)))
    for b in s.blocks_b + s.blocks_d:
        if len(b) != 2:
            shape_bad.append("B/D block of size %d" % len(b))
    shape_bad += _off_set(g, (s.block_a, *s.blocks_b, *s.blocks_c, *s.blocks_d),
                          "Z_%d x Z_4 u {inf1..inf9}" % m, (-1,), 9)
    rep.add("shape", shape_bad)
    if shape_bad:
        return rep

    elems, _, _, neg = g.addition
    located = _located(g, [s.block_a, *s.blocks_b, *s.blocks_c, *s.blocks_d])
    located_c, located_d = located[5:5 + m], located[5 + m:]
    # every element off the subgroup 0 x Z_4, which sits at positions 0..3
    _count_condition(rep, "difference-list", elems, _plain_counts(g, located),
                     [0] * 4 + [1] * (len(elems) - 4))

    a_bad = []
    if any(not is_finite(p) for p in s.block_a) or {p[1][1] for p in s.block_a} != {0, 2}:
        a_bad.append("A must meet parities 0 and 2")
    rep.add("a-parities", a_bad)

    _holed_cover(rep, "bcd-cover", g, located[1:], 9)

    cd_bad = []
    for name, fam in (("C", s.blocks_c), ("D", s.blocks_d)):
        for i, b in enumerate(fam):
            if sum(1 for p in b if not is_finite(p)) > 1:
                cd_bad.append("%s_%d has two infinite points" % (name, i))
    rep.add("cd-one-infinite", cd_bad)

    # R_o and R_b: six seeds each, A moved by (0, j), and C_i and D_i by -(i, j),
    # j of one parity or the other; the element (i, j) sits at position 4i + j
    r_bad = []
    for tag, seeds, ours, theirs in (
            ("o", ((0, 0), (0, 1), (s.x, 0), (s.x, 2), (s.y, 0), (s.y, 3)), (0, 2), (1, 3)),
            ("b", ((0, 2), (0, 3), (s.x, 1), (s.x, 3), (s.y, 1), (s.y, 2)), (1, 3), (0, 2))):
        moves = [(located[0], j) for j in ours]
        for i, (c, d) in enumerate(zip(located_c, located_d)):
            moves += [(c, neg[4 * i + j]) for j in ours] + [(d, neg[4 * i + j]) for j in theirs]
        r_bad += _holed_rows(g, 9, seeds, moves, "R_" + tag)
    rep.add("row-multisets", r_bad)
    return rep


def develop_igbtp_z4(s: IgbtpStarterZ4) -> DesignGrid:
    rep = verify_igbtp_z4_starter(s)
    if not rep.ok:
        raise StarterInvalid("starter fails verification:\n" + rep.describe())
    tr = _Translates(s.group)  # element (i, l) at position 4i + l
    m, x, y = s.m, s.x, s.y
    hole_rows = tuple("p%d" % i for i in range(1, 5))
    o_rows = tuple("%d:0" % i for i in range(m))
    b_rows = tuple("%d:1" % i for i in range(m))
    rows = hole_rows + o_rows + b_rows
    hole_cols = tuple("q%d" % j for j in range(1, 6))
    cols = hole_cols + tuple(tr.labels)
    cells = {}
    a_moved = tr(s.block_a)
    for i in range(m):
        cells[(o_rows[i], "q1")] = block([fpoint((i, 0)), fpoint((i, 1))])
        cells[(b_rows[i], "q1")] = block([fpoint((i, 2)), fpoint((i, 3))])
        cells[(o_rows[i], "q2")] = block([fpoint(((x + i) % m, 0)), fpoint(((x + i) % m, 2))])
        cells[(b_rows[i], "q2")] = block([fpoint(((x + i) % m, 1)), fpoint(((x + i) % m, 3))])
        cells[(o_rows[i], "q3")] = block([fpoint(((y + i) % m, 0)), fpoint(((y + i) % m, 3))])
        cells[(b_rows[i], "q3")] = block([fpoint(((y + i) % m, 1)), fpoint(((y + i) % m, 2))])
        cells[(o_rows[i], "q4")] = a_moved[4 * i]
        cells[(b_rows[i], "q4")] = a_moved[4 * i + 1]
        cells[(o_rows[i], "q5")] = a_moved[4 * i + 2]
        cells[(b_rows[i], "q5")] = a_moved[4 * i + 3]
    for bi, b in enumerate(s.blocks_b, start=1):
        cells.update(zip(zip(itertools.repeat("p%d" % bi), tr.labels), tr(b)))
    c_moved = [tr(b) for b in s.blocks_c]
    d_moved = [tr(b) for b in s.blocks_d]
    for e, (j, l) in enumerate(tr.elems):
        first, second = (c_moved, d_moved) if l in (0, 2) else (d_moved, c_moved)
        for rr in range(m):
            cells[(o_rows[rr], tr.labels[e])] = first[(rr - j) % m][e]
            cells[(b_rows[rr], tr.labels[e])] = second[(rr - j) % m][e]
    points = tuple(fpoint(e) for e in tr.elems) + tuple(ipoint(i) for i in range(1, 10))
    hole = (tuple(sorted(ipoint(i) for i in range(1, 10))), hole_rows, hole_cols)
    return DesignGrid("IGBTP", 1, (2, 3), points, rows, cols, cells,
                      hole=hole, star=True)


# ---------------------------------------------------------------------------
# frame starter over Z_3t x {0,1}


@dataclass
class FrGbtdStarter:
    kind: ClassVar[str] = "frgbtd"
    t: int
    blocks: tuple  # block (i, j) at position 2(i - 1) + j, for i in 1..t-1, j in 0..1
    group: AbelianGroup = field(init=False, repr=False)

    def __post_init__(self):
        self.group = cyclic(3 * self.t)


def verify_frgbtd_starter(s: FrGbtdStarter) -> VerifyReport:
    rep = VerifyReport()
    t = s.t
    g = s.group
    shape_bad = []
    if len(s.blocks) != 2 * (t - 1):
        shape_bad.append("expected %d blocks" % (2 * (t - 1)))
    for x, b in enumerate(s.blocks):
        if len(b) != 3:
            shape_bad.append("block %r has size %d" % ((x // 2 + 1, x % 2), len(b)))
        shape_bad += _off_set(g, [b], "Z_3t x {0,1}", range(2))
    rep.add("shape", shape_bad)
    if shape_bad:
        return rep

    elems = g.addition[0]
    located = _located(g, s.blocks)
    counts = _difference_counts(g, located, 2)
    # every element but the three of the subgroup {0, t, 2t}, at positions 0, t, 2t
    want = [0 if x % t == 0 else 1 for x in range(3 * t)]
    for cid, slot in (("pure-diffs-0", 0), ("pure-diffs-1", 3), ("mixed-diffs-01", 1),
                      ("mixed-diffs-10", 2)):
        _count_condition(rep, cid, elems, counts[3 * t * slot:3 * t * (slot + 1)], want)

    cover = _tally(6 * t, (2 * x + c for b in located for x, c in b))
    _count_condition(rep, "cover", [fpoint(e, c) for e in elems for c in range(2)],
                     cover, [w for w in want for _ in range(2)])

    # R_j: block (i, j), at 2(i - 1) + j, moved by -i, mod t; residue
    # res of copy c at 2 res + c
    r_bad = []
    for j in (0, 1):
        r = _tally(2 * t, (2 * ((x - i) % t) + c
                           for i in range(1, t) for x, c in located[2 * (i - 1) + j]))
        r_bad += ["R_%d hits the zero residue (copy %d)" % (j, c) for c in range(2) if r[c]]
        r_bad += ["R_%d: residue %d copy %d appears %d times" % (j, xc // 2, xc % 2, k)
                  for xc, k in enumerate(r[2:], start=2) if k not in (1, 2)]
    rep.add("row-multisets", r_bad)
    return rep


def develop_frgbtd(s: FrGbtdStarter) -> DesignGrid:
    """Place block (i,j) translated by k at row (i+k mod t, j), column k."""
    rep = verify_frgbtd_starter(s)
    if not rep.ok:
        raise StarterInvalid("starter fails verification:\n" + rep.describe())
    t = s.t
    tr = _Translates(s.group)
    rows = tuple("%d:%d" % (i, j) for i in range(t) for j in (0, 1))
    cols = tuple(tr.labels)
    cells = {}
    for x, b in enumerate(s.blocks):
        i, j = x // 2 + 1, x % 2
        rcs = [(rows[2 * ((i + k) % t) + j], cols[k]) for k in range(3 * t)]
        cells.update(zip(rcs, tr(b)))
    points = tuple(fpoint(e, c) for e in tr.elems for c in range(2))
    groups = []
    rgi = []
    cgi = []
    for i in range(t):
        groups.append(tuple(sorted(fpoint(((u * t + i) % (3 * t),), c)
                                   for u in range(3) for c in range(2))))
        rgi.append(("%d:0" % i, "%d:1" % i))
        cgi.append(tuple(str((u * t + i) % (3 * t)) for u in range(3)))
    return DesignGrid("FrGBTD", 1, (3,), points, rows, cols, cells,
                      groups=tuple(groups), row_group_index=tuple(rgi),
                      col_group_index=tuple(cgi))


# ---------------------------------------------------------------------------
# explicit constructions


FRGBTD_6_8_BLOCKS = {
    1: (2, 3, 5),
    2: (4, 14, 31),
    3: (9, 22, 45),
    4: (15, 34, 43),
    5: (20, 35, 42),
    6: (13, 17, 47),
    7: (1, 6, 12),
}


def frgbtd_6_8_base_blocks() -> list:
    return [block(fpoint(x) for x in FRGBTD_6_8_BLOCKS[i]) for i in sorted(FRGBTD_6_8_BLOCKS)]


def build_frgbtd_6_8() -> DesignGrid:
    """16 x 24 frame of type 6^8 over Z_48; block i+j sits at (i+j mod 16, j mod 24)."""
    tr = _Translates(cyclic(48))
    rows = tuple(str(r) for r in range(16))
    cols = tuple(str(c) for c in range(24))
    cells = {}
    for i, base in sorted(FRGBTD_6_8_BLOCKS.items()):
        rcs = [(rows[(i + j) % 16], cols[j % 24]) for j in range(48)]
        cells.update(zip(rcs, tr(block(fpoint(x) for x in base))))
    assert len(cells) == 48 * len(FRGBTD_6_8_BLOCKS)  # no cell taken twice
    points = tuple(fpoint(x) for x in range(48))
    groups = []
    rgi = []
    cgi = []
    for i in range(8):
        groups.append(tuple(sorted(fpoint(i + 8 * k) for k in range(6))))
        rgi.append(tuple(str(r) for r in range(16) if r % 8 == i))
        cgi.append(tuple(str(c) for c in range(24) if c % 8 == i))
    return DesignGrid("FrGBTD", 1, (3,), points, rows, cols, cells,
                      groups=tuple(groups), row_group_index=tuple(rgi),
                      col_group_index=tuple(cgi))


# 33-point incomplete packing over (Z_3 x Z_8) u W_9: 20 within-row pairs A,
# 4 pairs B, and a C family (one triple, two cross pairs, nine blocks pairing
# a finite point with an infinite one), laid out in a 16 x 29 array.

IGBTP_33_A = [
    ((1, 0), (1, 2)), ((1, 1), (1, 5)), ((0, 0), (0, 4)), ((1, 3), (1, 6)),
    ((0, 3), (0, 5)), ((1, 1), (1, 3)), ((1, 4), (1, 7)), ((0, 1), (0, 6)),
    ((0, 0), (0, 5)), ((0, 2), (0, 4)), ((1, 4), (1, 6)), ((1, 0), (1, 3)),
    ((0, 2), (0, 5)), ((1, 2), (1, 7)), ((0, 1), (0, 7)), ((1, 5), (1, 7)),
    ((0, 2), (0, 6)), ((0, 3), (0, 7)), ((1, 1), (1, 4)), ((1, 0), (1, 6)),
]

IGBTP_33_B = [
    ((0, 4), (2, 0)), ((0, 5), (2, 3)), ((0, 7), (1, 4)), ((1, 6), (2, 4)),
]

# (i, s) -> finite points; slots without a full pair carry one infinite point,
# numbered in slot order
IGBTP_33_C = {
    (1, 0): ((0, 0), (0, 1), (1, 0)),
    (1, 1): ((0, 6),),
    (1, 2): ((0, 3), (2, 2)),
    (2, 0): ((2, 5),),
    (2, 1): ((1, 3), (2, 6)),
    (2, 2): ((1, 5),),
    (3, 0): ((2, 7),),
    (3, 1): ((1, 1),),
    (3, 2): ((1, 7),),
    (4, 0): ((2, 1),),
    (4, 1): ((0, 2),),
    (4, 2): ((1, 2),),
}


def build_igbtp_33() -> DesignGrid:
    """16 x 29 incomplete packing with a 4 x 5 hole on the nine infinite points."""
    tr = _Translates(AbelianGroup((3, 8)))  # element (c, l) at position 8c + l
    hole_rows = tuple("p%d" % i for i in range(1, 5))
    body_rows = tuple("b%d.%d" % (rb, rs) for rb in range(4) for rs in range(3))
    rows = hole_rows + body_rows
    hole_cols = tuple("q%d" % j for j in range(1, 6))
    gcols = [(c, l) for l in range(8) for c in range(3)]
    cols = hole_cols + tuple(elem_label(e) for e in gcols)
    cells = {}
    for rb in range(4):
        for rs in range(3):
            row = "b%d.%d" % (rb, rs)
            for j in range(1, 6):
                moved = tr(block(fpoint(p) for p in IGBTP_33_A[5 * rb + j - 1]))
                cells[(row, "q%d" % j)] = moved[8 * rs]
    for bi, base in enumerate(IGBTP_33_B, start=1):
        moved = tr(block(fpoint(p) for p in base))
        for c, l in gcols:
            cells[("p%d" % bi, tr.labels[8 * c + l])] = moved[8 * c + l]
    inf_index = itertools.count(1)
    for (i, sdx), pts in sorted(IGBTP_33_C.items()):
        members = [fpoint(p) for p in pts]
        if len(members) == 1:
            members.append(ipoint(next(inf_index)))
        moved = tr(block(members))
        for (c, l) in gcols:
            row = "b%d.%d" % ((i - 1 + l) % 4, (sdx + c) % 3)
            cells[(row, tr.labels[8 * c + l])] = moved[8 * c + l]
    points = tuple(fpoint(e) for e in tr.elems) + tuple(ipoint(i) for i in range(1, 10))
    hole = (tuple(sorted(ipoint(i) for i in range(1, 10))), hole_rows, hole_cols)
    return DesignGrid("IGBTP", 1, (2, 3), points, rows, cols, cells,
                      hole=hole, star=True)


# ---------------------------------------------------------------------------
# starter files


@dataclass(frozen=True)
class StarterKind:
    """A starter kind: its class, verifier and develop, and its file's params
    (name -> JSON type), families (name -> field: a tuple of blocks, or one
    block for a name in `single`) and colors (name -> field, one per block of
    that family).  The params in `orders` give a factor of the group's order,
    so they must be positive.  A file's group and params must read back off
    its starter."""

    cls: type
    verify: Callable[..., VerifyReport]
    develop: Callable[..., DesignGrid]
    params: dict
    families: dict
    single: tuple = ()
    colors: dict = field(default_factory=dict)
    orders: tuple = ()


STARTER_KINDS = {
    "gbtd": StarterKind(GbtdStarter, verify_gbtd_starter, develop_gbtd,
                        {"m": int, "special": bool}, {"A": "blocks_a", "B": "blocks_b"},
                        colors={"A": "colors_a", "B": "colors_b"}),
    "igbtp_z2": StarterKind(IgbtpStarterZ2, verify_igbtp_z2_starter, develop_igbtp_z2,
                            {"m": int, "w": int},
                            {"A": "blocks_a", "B": "blocks_b", "C": "blocks_c"},
                            orders=("m",)),
    "igbtp_z4": StarterKind(IgbtpStarterZ4, verify_igbtp_z4_starter, develop_igbtp_z4,
                            {"m": int, "w": int, "x": int, "y": int},
                            {"A": "block_a", "B": "blocks_b", "C": "blocks_c", "D": "blocks_d"},
                            single=("A",), orders=("m",)),
    "frgbtd": StarterKind(FrGbtdStarter, verify_frgbtd_starter, develop_frgbtd,
                          {"t": int}, {"A": "blocks"}, orders=("t",)),
}


def starter_to_obj(s) -> dict:
    kind = STARTER_KINDS[s.kind]
    families = {name: [getattr(s, f)] if name in kind.single else getattr(s, f)
                for name, f in kind.families.items()}
    obj = {"starter_kind": s.kind,
           "group": {"factors": list(s.group.factors)},
           "params": {name: getattr(s, name) for name in kind.params},
           "families": {name: [[format_point(p) for p in b] for b in blocks]
                        for name, blocks in families.items()}}
    colors = {name: getattr(s, f) for name, f in kind.colors.items()}
    if colors and None not in colors.values():
        obj["colors"] = {name: list(c) for name, c in colors.items()}
    return obj


def starter_from_obj(obj: dict):
    check_keys(obj, ("starter_kind",), "starter", MalformedStarter)
    name = obj["starter_kind"]
    if not isinstance(name, str) or name not in STARTER_KINDS:
        raise MalformedStarter("starter_kind %r is not one of %s"
                               % (name, ", ".join(STARTER_KINDS)))
    kind = STARTER_KINDS[name]
    what = "%s starter" % name
    check_keys(obj, ("group", "params", "families"), what, MalformedStarter)
    check_keys(obj["group"], ("factors",), what + " group", MalformedStarter)
    factors = obj["group"]["factors"]
    if type(factors) is not list or any(type(f) is not int or f < 1 for f in factors):
        raise MalformedStarter("%s group 'factors' is not a list of positive integers" % what)
    params = obj["params"]
    check_keys(params, tuple(kind.params), what + " params", MalformedStarter)
    for key, kind_type in kind.params.items():
        if type(params[key]) is not kind_type:
            raise MalformedStarter("%s params %r is not %s" % (
                what, key, "an integer" if kind_type is int else "true or false"))
        if key in kind.orders and params[key] < 1:
            raise MalformedStarter("%s params %r is not a positive integer" % (what, key))
    check_keys(obj["families"], tuple(kind.families), what + " families", MalformedStarter)

    def fam(key):
        entries = obj["families"][key]
        if type(entries) is not list or any(type(e) is not list for e in entries):
            raise MalformedStarter("%s family %r is not a list of blocks" % (what, key))
        try:
            return tuple(block(parse_point(x) for x in entry) for entry in entries)
        except ValueError as exc:  # a bad label or a point twice in a block
            raise MalformedStarter("%s family %r: %s" % (what, key, exc)) from None

    families = {key: fam(key) for key in kind.families}
    args = {f: families[key] for key, f in kind.families.items()}
    for key in kind.single:
        if len(families[key]) != 1:
            raise MalformedStarter("%s family %r must hold exactly one block" % (what, key))
        args[kind.families[key]] = families[key][0]
    colors = obj.get("colors") if kind.colors else None
    if colors:
        check_keys(colors, tuple(kind.colors), what + " colors", MalformedStarter)
        for key, f in kind.colors.items():
            size = len(families[key])
            if (type(colors[key]) is not list or len(colors[key]) != size
                    or any(type(c) is not int for c in colors[key])):
                raise MalformedStarter("%s colors %r is not a list of %d integers"
                                       % (what, key, size))
            args[f] = tuple(colors[key])
    group = AbelianGroup(tuple(factors))
    init = {f.name for f in fields(kind.cls) if f.init}
    args.update((key, v) for key, v in [("group", group), *((k, params[k]) for k in kind.params)]
                if key in init)
    s = kind.cls(**args)
    if s.group != group:
        raise MalformedStarter("%s group 'factors' is %s, not %s"
                               % (what, factors, list(s.group.factors)))
    for key in kind.params:
        if getattr(s, key) != params[key]:
            raise MalformedStarter("%s params %r is %s, not %s"
                                   % (what, key, json.dumps(params[key]), getattr(s, key)))
    return s


def verify_starter(s) -> VerifyReport:
    return STARTER_KINDS[s.kind].verify(s)


def develop_starter(s) -> DesignGrid:
    return STARTER_KINDS[s.kind].develop(s)


def dumps_starter(s) -> str:
    return json.dumps(starter_to_obj(s), sort_keys=True, indent=1) + "\n"


def loads_starter(text: str):
    return starter_from_obj(json.loads(text))
