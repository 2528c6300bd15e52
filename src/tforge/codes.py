"""q-ary code analytics and the grid <-> code correspondence.

Internally symbols are 0-based row indices; a code may carry a label list so
row names print faithfully next to the source array.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .algebra import block
from .designs import DesignGrid, check_keys, json_value, verify_gbtp
from .errors import (
    DistanceTooSmall,
    InconsistentParams,
    MalformedCode,
    MTooSmall,
    NotEquitable,
    NotVerified,
    SymbolOutOfRange,
    TooFewWords,
)


@dataclass(frozen=True)
class Code:
    q: int
    n: int
    words: tuple  # tuple of length-n int tuples
    labels: tuple | None = None  # symbol -> display label
    # the most coordinates two words agree on, set only by gbtp_to_code from
    # the verified grid's pair counts; a code made any other way has None
    agree: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(tuple(w) for w in self.words))
        for w in self.words:
            if len(w) != self.n:
                raise ValueError("word length %d != n=%d" % (len(w), self.n))
            if w and not (0 <= min(w) and max(w) < self.q):
                s = next(s for s in w if not 0 <= s < self.q)
                raise SymbolOutOfRange("symbol %d out of range for q=%d" % (s, self.q))
        if len(set(self.words)) != len(self.words):
            raise ValueError("code words must be distinct")

    @property
    def size(self) -> int:
        return len(self.words)


def symbol_weights(word, q: int) -> tuple:
    """Frequency of each symbol 0..q-1 in the word."""
    out = [0] * q
    for s in word:
        if not 0 <= s < q:
            raise SymbolOutOfRange("symbol %d out of range for q=%d" % (s, q))
        out[s] += 1
    return tuple(out)


def word_equitable(word, q: int) -> bool:
    n = len(word)
    lo, hi = n // q, -(-n // q)
    return all(lo <= w <= hi for w in symbol_weights(word, q))


def is_equitable(c: Code) -> bool:
    return all(word_equitable(w, c.q) for w in c.words)


def hamming(u, v) -> int:
    return sum(1 for a, b in zip(u, v) if a != b)


def min_distance(c: Code) -> int:
    """n minus the most coordinates two words agree on.

    Column by column, the words are bucketed by their symbol there, and
    every pair within a bucket gains one agreement in a flat M x M list, so
    the work is the number of agreeing (word, word, coordinate) triples, not
    C(M,2)·n symbol comparisons.
    """
    if c.size < 2:
        raise TooFewWords("need at least two words")
    M = c.size
    agree = [0] * (M * M)  # agree[a * M + b] for words a < b
    for column in zip(*c.words):
        buckets = [[] for _ in range(c.q)]
        for a, s in enumerate(column):
            buckets[s].append(a)
        for bucket in buckets:
            for a, b in itertools.combinations(bucket, 2):
                agree[a * M + b] += 1
    return c.n - max(agree)


def ec_table(c: Code) -> tuple:
    """E(e) for e = 1..q: largest total weight any e symbols reach in one word.

    For a fixed word the best e symbols are its e most frequent ones, so the
    table is the max over words of sorted-frequency prefix sums.
    """
    prefix = [itertools.accumulate(sorted(symbol_weights(w, c.q), reverse=True))
              for w in c.words]
    return tuple(map(max, zip([0] * c.q, *prefix)))


def equitable_ec_table(q: int, n: int) -> tuple:
    """ec_table of any equitable code of length n over q symbols.

    With n = aq + r every word has r symbols of weight a+1 and q-r of
    weight a, so E(e) = e(a+1) for e <= r and r(a+1) + (e-r)a after.
    """
    a, r = divmod(n, q)
    return tuple(e * a + min(e, r) for e in range(1, q + 1))


def ec_table_exhaustive(c: Code) -> tuple:
    """Oracle: maximize over every symbol subset of each size explicitly."""
    out = []
    syms = range(c.q)
    weights = [symbol_weights(w, c.q) for w in c.words]
    for e in range(1, c.q + 1):
        best = 0
        for gamma in itertools.combinations(syms, e):
            for wt in weights:
                s = sum(wt[g] for g in gamma)
                if s > best:
                    best = s
        out.append(best)
    return tuple(out)


def capability(c: Code, d: int | None = None) -> tuple:
    """(E table, c(C)) with c(C) = min{e : E(e) >= d}; d is min_distance(c) if not given."""
    if d is None:
        d = min_distance(c)
    table = ec_table(c)
    return table, _reaching(table, d)


def _reaching(table: tuple, d: int) -> int:
    """The least e with E(e) >= d."""
    return next((e for e, val in enumerate(table, start=1) if val >= d),
                len(table))  # unreachable: E(q) = n >= d


@dataclass
class PlotkinResult:
    lhs: int
    rhs: int
    holds: bool
    equality: bool


def plotkin_check(n: int, d: int, q: int, M: int) -> PlotkinResult:
    """Generalized Plotkin bound: C(M,2)d <= n * sum_{i<j} M_i M_j, M_i = floor((M+i)/q).

    equality marks the optimality clause: q | M and C(M,2)d = n C(q,2) (M/q)^2.
    """
    for name, x in (("n", n), ("d", d), ("q", q), ("M", M)):
        if x < 1:
            raise InconsistentParams("Plotkin bound needs %s >= 1, got %d" % (name, x))
    lhs = M * (M - 1) // 2 * d
    mi = [(M + i) // q for i in range(q)]
    s = sum(mi)
    s2 = sum(x * x for x in mi)
    rhs = n * (s * s - s2) // 2
    holds = lhs <= rhs
    equality = (M % q == 0) and lhs == n * (q * (q - 1) // 2) * (M // q) ** 2
    return PlotkinResult(lhs, rhs, holds, equality)


@dataclass
class CodeStats:
    n: int
    q: int
    M: int
    d: int
    equitable: bool
    ec: tuple
    capability: int
    plotkin: PlotkinResult

    def describe(self) -> str:
        lines = [
            "n=%d q=%d M=%d d=%d" % (self.n, self.q, self.M, self.d),
            "equitable: %s" % self.equitable,
            "E_C: %s" % (list(self.ec),),
            "c(C): %d" % self.capability,
            "plotkin: lhs=%d rhs=%d holds=%s equality=%s"
            % (self.plotkin.lhs, self.plotkin.rhs, self.plotkin.holds, self.plotkin.equality),
        ]
        return "\n".join(lines)


def code_stats(c: Code) -> CodeStats:
    """Distance, equity, E table, c(C) and the Plotkin check.

    d is n minus the certified agreement count when gbtp_to_code left one,
    and an equitable code's E table is its closed form."""
    if c.size < 2:
        raise TooFewWords("need at least two words")
    d = min_distance(c) if c.agree is None else c.n - c.agree
    equitable = is_equitable(c)
    table = equitable_ec_table(c.q, c.n) if equitable else ec_table(c)
    return CodeStats(c.n, c.q, c.size, d, equitable, table, _reaching(table, d),
                     plotkin_check(c.n, d, c.q, c.size))


def gbtp_to_code(g: DesignGrid) -> Code:
    """One word per point; symbol j is the row holding the point in column j.

    Pair coverage is agreement: two points share a block in column j exactly
    when their words agree at j.  So a grid's verification certifies the
    code, and the code carries its largest pair count as ``agree``.  Both
    are read off g.incidence, and verify_gbtp runs here only if it has not
    passed g already.
    """
    if g.hole is not None:
        raise NotVerified("cannot derive a code from a holed grid")
    inc = g.incidence
    if not inc.gbtp_passed:
        rep = verify_gbtp(g)
        if not rep.ok:
            raise NotVerified("grid fails verify_gbtp:\n" + rep.describe())
    words = tuple(map(tuple, inc.W))
    if len(set(words)) != len(words):
        raise NotVerified("derived words are not distinct")
    code = Code(g.m, g.n, words, labels=tuple(g.rows))
    object.__setattr__(code, "agree", max(inc.pairs, default=0))
    return code


def code_to_gbtp(c: Code, k_set, lam: int, points=None) -> DesignGrid:
    """Reverse correspondence: cell (r, j) collects the points whose word has r at j.

    One verify_gbtp of the grid decides the code too: its row frequencies
    are the words' symbol weights (NotEquitable), and its pair counts their
    agreements, so a pair over λ is a distance below n - λ (DistanceTooSmall).
    """
    if points is None:
        points = tuple((0, (i,), -1) for i in range(c.size))
    points = tuple(points)
    if len(set(points)) != len(points) or len(points) != c.size:
        raise ValueError("need one distinct point per word")
    if c.size < 2 and is_equitable(c):
        raise TooFewWords("need at least two words")
    rows = tuple(c.labels) if c.labels is not None else tuple(str(i + 1) for i in range(c.q))
    cols = tuple(str(j + 1) for j in range(c.n))
    columns = [defaultdict(list) for _ in range(c.n)]
    for p, w in zip(points, c.words):
        for column, s in zip(columns, w):
            column[s].append(p)
    cells = {(rows[r], cols[j]): block(column[r])
             for j, column in enumerate(columns) for r in sorted(column)}
    g = DesignGrid("GBTP", lam, tuple(sorted(set(k_set))), points, rows, cols, cells)
    rep = verify_gbtp(g, exact=False)
    failed = {cond.cid for cond in rep.conditions if not cond.ok}
    if "row-frequency" in failed:
        raise NotEquitable("code is not of equitable symbol weight")
    if "pair-at-most-lambda" in failed:
        raise DistanceTooSmall("minimum distance below n - lambda")
    if failed:
        raise NotVerified("reconstructed grid fails verify_gbtp:\n" + rep.describe())
    return g


@dataclass
class OptimalityCert:
    m: int
    n: int
    d: int
    q: int
    M: int
    lhs: int
    rhs: int
    violated: bool


def optimality_cert_2q3(m: int) -> OptimalityCert:
    """Certify that no equitable (2m-3, 2m-4)_m code of size 2m+2 exists, m >= 7."""
    if m < 7:
        raise MTooSmall("certificate needs m >= 7")
    n, d, q, M = 2 * m - 3, 2 * m - 4, m, 2 * m + 2
    res = plotkin_check(n, d, q, M)
    if res.holds:
        raise AssertionError("expected a bound violation at m=%d" % m)
    return OptimalityCert(m, n, d, q, M, res.lhs, res.rhs, not res.holds)


# ---------------------------------------------------------------------------
# file format


def code_to_obj(c: Code) -> dict:
    obj = {"q": c.q, "n": c.n, "words": [list(w) for w in sorted(c.words)]}
    if c.labels is not None:
        obj["labels"] = list(c.labels)
    return obj


def code_from_obj(obj: dict) -> Code:
    check_keys(obj, ("q", "n", "words"), "code", MalformedCode)
    if type(obj["q"]) is not int or type(obj["n"]) is not int:
        raise MalformedCode("code q and n must be integers")
    words = obj["words"]
    if (type(words) is not list or not set(map(type, words)) <= {list}
            or not set(map(type, itertools.chain.from_iterable(words))) <= {int}):
        raise MalformedCode("code words must be lists of integers")
    labels = obj.get("labels")
    if labels is not None and (type(labels) is not list or len(labels) != obj["q"]
                               or any(isinstance(x, (list, dict)) for x in labels)):
        raise MalformedCode("code 'labels' must be a list of q=%d labels, none a list or object"
                            % obj["q"])
    for x, k in Counter(labels or ()).items():
        if k > 1:
            raise MalformedCode("code label %s is repeated" % json.dumps(x))
    return Code(obj["q"], obj["n"], tuple(tuple(w) for w in obj["words"]),
                None if labels is None else tuple(labels))


def dumps_code(c: Code) -> str:
    """Canonical file text: json.dumps(code_to_obj(c), sort_keys=True, indent=1)
    plus a newline, with "words", the last key, emitted by template."""
    head = {"q": c.q, "n": c.n}
    if c.labels is not None:
        head["labels"] = list(c.labels)
    words = sorted(c.words)
    # int symbols print as int.__repr__; a bool or any other type through json_value
    symbol = (int.__repr__ if set(map(type, itertools.chain.from_iterable(words))) <= {int}
              else functools.partial(json_value, level=3))
    words = ["  [\n   %s\n  ]" % ",\n   ".join(map(symbol, w)) if w else "  []"
             for w in words]
    text = "[\n%s\n ]" % ",\n".join(words) if words else "[]"
    return '%s,\n "words": %s\n}\n' % (json.dumps(head, sort_keys=True, indent=1)[:-2], text)


def loads_code(text: str) -> Code:
    return code_from_obj(json.loads(text))
