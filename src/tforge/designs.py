"""Design grid carrier, class verifiers and the canonical JSON file format.

A DesignGrid is an m x n array of optional blocks plus metadata: index λ,
admissible block sizes K, optional hole (W, P, Q), optional group partition
with per-group row/column index classes, optional block coloring and an
optional special cell.  Row and column indices are opaque strings, listed
explicitly, because the construction rules index them by group elements and
auxiliary symbols rather than 1..m.  Every verifier reads its conditions
off one Incidence, a single counting pass over the cells.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import json
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import MappingProxyType

from .algebra import format_point, parse_point
from .errors import (
    BadGroupSizes,
    BadKind,
    BadParameters,
    BadShape,
    MalformedGrid,
    MissingColoring,
    MissingHole,
    NoSingletonPoint,
)

MAX_WITNESSES = 10


@dataclass
class Condition:
    cid: str
    ok: bool
    witnesses: list = field(default_factory=list)
    detail: str = ""

    def describe(self) -> str:
        s = "%-22s %s" % (self.cid, "ok" if self.ok else "FAIL")
        if self.detail:
            s += "  " + self.detail
        if self.witnesses:
            s += "  witnesses: " + "; ".join(self.witnesses[:MAX_WITNESSES])
        return s


@dataclass
class VerifyReport:
    conditions: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def add(self, cid: str, witnesses, detail: str = "") -> None:
        """Record a condition; only the first MAX_WITNESSES witnesses are drawn."""
        ws = list(itertools.islice(witnesses, MAX_WITNESSES))
        self.conditions.append(Condition(cid, not ws, ws, detail))

    def merge(self, other: "VerifyReport") -> None:
        self.conditions.extend(other.conditions)

    def describe(self) -> str:
        lines = [c.describe() for c in self.conditions]
        lines.append("result: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


@dataclass(frozen=True)
class DesignGrid:
    """A grid is a value: its fields cannot be assigned and its cells and
    colors are read-only, so its Incidence is counted once, on first use,
    and kept.  dataclasses.replace makes a changed grid, counted afresh.

    A dict of cells or colors is copied; a MappingProxyType is kept as it
    is, so it must be a view of a dict that nothing changes."""

    kind: str
    lam: int
    k_set: tuple
    points: tuple
    rows: tuple
    cols: tuple
    cells: Mapping  # (row_label, col_label) -> Block
    colors: Mapping | None = None  # (row_label, col_label) -> int
    hole: tuple | None = None  # (w_points, p_rows, q_cols)
    groups: tuple | None = None  # tuple of point tuples
    row_group_index: tuple | None = None  # parallel to groups
    col_group_index: tuple | None = None
    special: tuple | None = None  # (row_label, col_label)
    star: bool = False

    def __post_init__(self):
        put = functools.partial(object.__setattr__, self)
        put("k_set", tuple(sorted(set(self.k_set))))
        put("points", tuple(sorted(self.points)))
        put("rows", tuple(self.rows))
        put("cols", tuple(self.cols))
        for key in ("cells", "colors"):
            x = getattr(self, key)
            if x is not None and type(x) is not MappingProxyType:
                put(key, MappingProxyType(dict(x)))

    @functools.cached_property
    def incidence(self) -> Incidence:
        return Incidence(self)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.cols)

    @property
    def v(self) -> int:
        return len(self.points)

    def blocks(self) -> list:
        return [b for _, b in self.sorted_cells()]

    def sorted_cells(self) -> list:
        """(cell, block) items in row-major order of the row and column lists."""
        ri = {r: i for i, r in enumerate(self.rows)}
        ci = {c: j for j, c in enumerate(self.cols)}
        return sorted(self.cells.items(), key=lambda kv: (ri[kv[0][0]], ci[kv[0][1]]))

    def row_blocks(self, r) -> list:
        return [b for (rr, _), b in self.cells.items() if rr == r]

    def col_blocks(self, c) -> list:
        return [b for (_, cc), b in self.cells.items() if cc == c]

    def row_cells(self, r) -> list:
        return [(rc, b) for rc, b in self.cells.items() if rc[0] == r]


class Incidence:
    """The array <-> code carrier: one pass over a grid's cells.

    Points are indexed in the order of g.points, listed once each and sorted;
    a point in a cell but not in the list raises MalformedGrid naming the
    cell and the point.  For point index x, row index i and column index j
    (positions in g.rows and g.cols), with v = len(g.points):

      W[x][j]           the row holding x in column j, -1 if x is absent
      rowf[i * v + x]   occurrences of x in row i
      colf[j * v + x]   occurrences of x in column j
      pairs[x * v + y]  blocks holding both x and y, x before y in point order
      sizes[k]          cells holding a block of k points

    One pass counts every cell, with the size-3 case unrolled.  ``by_row``
    holds each cell's indices per row index, in column order.  It is read
    off the grid on first use: only witnesses and the checks and searches
    that walk blocks need it.

    In a GBTP the rows of W are the code words and ``pairs`` holds their
    agreement counts, so "no pair covered more than λ times" and "distance at
    least n - λ" are one check.  ``gbtp_passed`` records that verify_gbtp
    passed the grid, so the code can be read off without checking again.
    The counts are plain lists; tforge does not use numpy, whose import
    alone would double every command's start-up.  A grid keeps its
    Incidence as ``g.incidence``; no count changes after it is made.
    """

    def __init__(self, g: DesignGrid):
        self.row_index = ri = {r: i for i, r in enumerate(g.rows)}
        self.col_index = ci = {c: j for j, c in enumerate(g.cols)}
        self.index = ix = {p: x for x, p in enumerate(g.points)}
        if len(ix) != len(g.points):
            _check_distinct(map(format_point, g.points), "points")
        self.points, self.v = list(ix), len(ix)
        self._count(g.cells, ri, ci, ix)
        self.once = [1] * self.v  # a column partitioning the points
        self._grid_cells, self._by_row, self.gbtp_passed = g.cells, None, False

    @property
    def by_row(self) -> list:
        """Per row index, the (column index, cell, point indices) of its
        cells, in column order."""
        if self._by_row is None:
            ri, ci, ix = self.row_index, self.col_index, self.index
            self._by_row = [[] for _ in ri]
            for rc, b in self._grid_cells.items():
                self._by_row[ri[rc[0]]].append((ci[rc[1]], rc, tuple(map(ix.__getitem__, b))))
            for row in self._by_row:
                row.sort(key=itemgetter(0))
        return self._by_row

    def _count(self, grid_cells, ri, ci, ix) -> None:
        """Count every cell in one pass."""
        v = self.v
        W = self.W = [[-1] * len(ci) for _ in range(v)]
        rowf = self.rowf = [0] * (len(ri) * v)
        colf = self.colf = [0] * (len(ci) * v)
        pairs = self.pairs = [0] * (v * v)
        sizes = self.sizes = Counter()  # block size -> cells
        triples = 0
        try:
            for rc, b in grid_cells.items():
                i, j = ri[rc[0]], ci[rc[1]]
                ro, co = i * v, j * v
                if len(b) == 3:
                    p, q, r = b
                    x, y, z = ix[p], ix[q], ix[r]
                    W[x][j] = W[y][j] = W[z][j] = i
                    rowf[ro + x] += 1
                    rowf[ro + y] += 1
                    rowf[ro + z] += 1
                    colf[co + x] += 1
                    colf[co + y] += 1
                    colf[co + z] += 1
                    pairs[x * v + y] += 1
                    pairs[x * v + z] += 1
                    pairs[y * v + z] += 1
                    triples += 1
                    continue
                xs = tuple(map(ix.__getitem__, b))
                sizes[len(xs)] += 1
                for x in xs:
                    W[x][j] = i
                    rowf[ro + x] += 1
                    colf[co + x] += 1
                for x, y in itertools.combinations(xs, 2):
                    pairs[x * v + y] += 1
        except KeyError as exc:
            if exc.args[0] not in b:  # a cell outside the rows or columns
                raise
            raise MalformedGrid("cell (%s,%s): point %s is not in points"
                                % (*rc, format_point(exc.args[0]))) from None
        if triples:
            sizes[3] = triples

    def without(self, g: DesignGrid, rc) -> Incidence:
        """The Incidence of g, this one's grid with cell rc emptied: the counts
        copied with rc's block taken out, no recount.  The rows of W that the
        block does not touch are shared; neither Incidence changes them."""
        out = copy.copy(self)
        i, j = self.row_index[rc[0]], self.col_index[rc[1]]
        xs = [self.index[p] for p in self._grid_cells[rc]]
        v = self.v
        out.W = W = list(self.W)
        out.rowf, out.colf, out.pairs = rowf, colf, pairs = (
            self.rowf[:], self.colf[:], self.pairs[:])
        out.sizes = sizes = Counter(self.sizes)
        out._grid_cells, out._by_row, out.gbtp_passed = g.cells, None, False
        for x in xs:
            W[x] = W[x][:]
            W[x][j] = -1
            rowf[i * v + x] -= 1
            colf[j * v + x] -= 1
        for x, y in itertools.combinations(xs, 2):
            pairs[x * v + y] -= 1
        sizes[len(xs)] -= 1
        if not sizes[len(xs)]:
            del sizes[len(xs)]
        return out

    def sized_outside(self, k_set) -> list:
        """(cell, point indices) of the cells whose block size is not in
        k_set, row-major; the cells are scanned only when the size tally
        holds such a size."""
        k_set = set(k_set)
        if set(self.sizes) <= k_set:
            return []
        return self.cells_where(lambda xs: len(xs) not in k_set)

    def cells_where(self, keep) -> list:
        """(cell, point indices) of the cells whose indices pass keep, row-major."""
        return [(rc, xs) for row in self.by_row for _, rc, xs in row if keep(xs)]

    def row_counts(self, r) -> list:
        i = self.row_index.get(r)
        return [0] * self.v if i is None else self.rowf[i * self.v:(i + 1) * self.v]

    def col_counts(self, c) -> list:
        j = self.col_index.get(c)
        return [0] * self.v if j is None else self.colf[j * self.v:(j + 1) * self.v]

    def indices(self, points) -> list:
        """Indices of the given points, in point order; unindexed points are left out."""
        return [self.index[p] for p in sorted(points) if p in self.index]

    def misses(self, counts, lo: int, hi: int, skip=()) -> list:
        """(point, count) for points outside skip counted below lo or above hi."""
        test = counts[:]
        for x in self.indices(skip):
            test[x] = lo
        if lo <= min(test, default=lo) and max(test, default=lo) <= hi:
            return []
        return [(self.points[x], k) for x, k in enumerate(test) if not lo <= k <= hi]

    def column_misses(self, c, outside=()) -> list:
        """Witnesses that column c does not partition the points minus outside."""
        counts = self.col_counts(c)
        if not outside and counts == self.once:
            return []
        bad = ["col %s: %s appears %d times" % (c, format_point(p), k)
               for p, k in self.misses(counts, 1, 1, outside)]
        return bad + ["col %s: unexpected point %s" % (c, format_point(self.points[x]))
                      for x in self.indices(outside) if counts[x]]

    def pairs_not(self, lam: int):
        """(p, q, count) for points p < q covered other than lam times."""
        v, pts, pairs = self.v, self.points, self.pairs
        for x in range(v):
            row = pairs[x * v + x + 1:(x + 1) * v]
            if row.count(lam) != len(row):
                for y, k in enumerate(row, x + 1):
                    if k != lam:
                        yield pts[x], pts[y], k

    def group_ids(self, groups) -> list:
        """Group position of every point, -1 for points in no group."""
        gid = [-1] * self.v
        for gi, grp in enumerate(groups):
            for x in self.indices(grp):
                gid[x] = gi
        return gid


def _fmt_pair(p, q) -> str:
    return "{%s,%s}" % (format_point(p), format_point(q))


def _column_partition(g: DesignGrid, w=(), q_cols=()):
    inc = g.incidence
    return (x for c in g.cols for x in inc.column_misses(c, w if c in q_cols else ()))


def _row_frequency(g: DesignGrid, w=(), p_rows=()):
    inc = g.incidence
    lo, hi = g.n // g.m, -(-g.n // g.m)
    for r in g.rows:
        counts, skip = inc.row_counts(r), (w if r in p_rows else ())
        for x in inc.indices(skip):
            if counts[x]:
                yield "hole row %s contains %s" % (r, format_point(inc.points[x]))
        for p, k in inc.misses(counts, lo, hi, skip):
            yield "row %s: %s appears %d times (want %d..%d)" % (r, format_point(p), k, lo, hi)


def _star(rep: VerifyReport, g: DesignGrid, skip=()) -> None:
    triples = [0] * g.n
    for row in g.incidence.by_row:
        for j, _, xs in row:
            if len(xs) == 3:
                triples[j] += 1
    rep.add("star-one-triple", ("col %s has %d size-3 blocks" % (c, t)
                                for c, t in zip(g.cols, triples) if c not in skip and t != 1))


def _gdd_pairs(g: DesignGrid, gid: list) -> list:
    """In-group pairs never covered; cross-group pairs exactly once."""
    inc = g.incidence
    v, pts, pairs = inc.v, inc.points, inc.pairs
    members = defaultdict(list)
    for x, gi in enumerate(gid):
        members[gi].append(x)
    inside = sorted((pts[x], pts[y]) for xs in members.values()
                    for x, y in itertools.permutations(xs, 2) if pairs[x * v + y])
    bad = ["in-group pair %s covered" % _fmt_pair(p, q) for p, q in inside]
    bad += ["%s covered %d times" % (_fmt_pair(pts[x], pts[y]), pairs[x * v + y])
            for x in range(v) for y in range(x + 1, v)
            if gid[x] != gid[y] and pairs[x * v + y] != 1]
    return bad


# ---------------------------------------------------------------------------
# verifiers


EXACT_KINDS = ("GBTD", "RBIBD", "TD", "DRTD")  # kinds that cover every pair exactly λ times


def verify_packing(g: DesignGrid, exact: bool | None = None) -> VerifyReport:
    """K-uniformity plus pairwise coverage <= λ (== λ in exact mode)."""
    if exact is None:
        exact = g.kind in EXACT_KINDS
    inc = g.incidence
    rep = VerifyReport()
    rep.add("k-uniform", ["cell (%s,%s) size %d" % (rc + (len(xs),))
                          for rc, xs in inc.sized_outside(g.k_set)])
    v, pts, lam = inc.v, inc.points, g.lam
    over = [] if max(inc.pairs, default=0) <= lam else sorted(
        (pts[xy // v], pts[xy % v], k) for xy, k in enumerate(inc.pairs) if k > lam)
    rep.add("pair-at-most-lambda", ("%s covered %d times" % (_fmt_pair(p, q), k)
                                    for p, q, k in over))
    if exact:
        rep.add("pair-exactly-lambda", ("%s covered %d times" % (_fmt_pair(p, q), k)
                                        for p, q, k in inc.pairs_not(lam)))
    if lam > 1:
        by_pair = defaultdict(list)
        for (_, c), b in g.cells.items():
            for p, q in itertools.combinations(b, 2):
                by_pair[(p, q)].append(c)
        rep.add("pair-column-distinct", ["%s twice in column %s" % (_fmt_pair(p, q), c)
                                         for (p, q), cols in sorted(by_pair.items())
                                         for c, k in Counter(cols).items() if k > 1])
    return rep


def verify_gbtp(g: DesignGrid, exact: bool | None = None) -> VerifyReport:
    """Columns are parallel classes; rows have near-uniform point frequency.

    A pass at least as strict as g's kind asks for (exact mode implies the
    other) is recorded on g.incidence as ``gbtp_passed``."""
    exact = g.kind in EXACT_KINDS if exact is None else exact
    rep = verify_packing(g, exact)
    rep.add("column-partition", _column_partition(g))
    rep.add("row-frequency", _row_frequency(g))
    if g.star:
        _star(rep, g)
    if rep.ok and (exact or g.kind not in EXACT_KINDS):
        g.incidence.gbtp_passed = True
    return rep


def gbtd_misfit(k_set, v: int, m: int, n: int, lam: int) -> str | None:
    """Why an m x n array of index lam on v points with block sizes k_set is no
    GBTD, or None: a GBTD has one block size k, v = km and n(k-1) = lam(km-1)."""
    if len(k_set) != 1:
        return "GBTD needs a single block size, got %r" % (tuple(k_set),)
    k = k_set[0]
    if v != k * m:
        return "v=%d is not k*m=%d" % (v, k * m)
    if n * (k - 1) != lam * (k * m - 1):
        return "n=%d is not lambda(km-1)/(k-1)" % n


def verify_gbtd(g: DesignGrid) -> VerifyReport:
    """GBTP in exact-λ mode with the single-block-size parameter arithmetic."""
    if misfit := gbtd_misfit(g.k_set, g.v, g.m, g.n, g.lam):
        raise BadParameters(misfit)
    return verify_gbtp(g, exact=True)


def verify_rbibd(g: DesignGrid) -> VerifyReport:
    """Resolvable BIBD arranged v/k x λ(v-1)/(k-1): exact pairs, column classes."""
    if len(g.k_set) != 1:
        raise BadParameters("RBIBD needs a single block size")
    k = g.k_set[0]
    if g.v % k or g.m != g.v // k:
        raise BadParameters("array must have v/k rows")
    if g.n * (k - 1) != g.lam * (g.v - 1):
        raise BadParameters("array must have lambda(v-1)/(k-1) columns")
    rep = verify_packing(g, exact=True)
    rep.add("column-partition", _column_partition(g))
    return rep


def verify_igbtp(g: DesignGrid) -> VerifyReport:
    """Hole conditions of an incomplete GBTP."""
    if g.hole is None:
        raise MissingHole("grid has no hole")
    w_pts, p_rows, q_cols = g.hole
    w = set(w_pts)
    inc = g.incidence
    rep = verify_packing(g, exact=False)
    rep.add("hole-empty", ["cell (%s,%s) occupied" % (r, c)
                           for r in p_rows for c in q_cols if (r, c) in g.cells])
    rep.add("row-frequency", _row_frequency(g, w, p_rows))
    rep.add("column-partition", _column_partition(g, w, q_cols))
    v, pts = inc.v, inc.points
    rep.add("w-pairs-uncovered", ("%s covered" % _fmt_pair(pts[x], pts[y])
                                  for x, y in itertools.combinations(inc.indices(w), 2)
                                  if inc.pairs[x * v + y]))
    if g.star:
        _star(rep, g, skip=q_cols)
    return rep


def _frame_meta(g: DesignGrid):
    if g.groups is None or g.row_group_index is None or g.col_group_index is None:
        raise BadGroupSizes("frame grid needs groups with row/col index classes")
    if not (len(g.groups) == len(g.row_group_index) == len(g.col_group_index)):
        raise BadGroupSizes("groups and index classes must be parallel")
    return list(zip(g.groups, g.row_group_index, g.col_group_index))


def verify_frgbtd(g: DesignGrid) -> VerifyReport:
    """Frame conditions over a group-divisible design."""
    if len(g.k_set) != 1:
        raise BadParameters("FrGBTD needs a single block size")
    k = g.k_set[0]
    if k < 2:
        raise BadParameters("FrGBTD needs a block size of at least 2, got %d" % k)
    meta = _frame_meta(g)
    for grp, ri, ci in meta:
        if len(grp) % (k * (k - 1)):
            raise BadGroupSizes("group size %d not divisible by k(k-1)" % len(grp))
        if len(ri) != len(grp) // k or len(ci) != len(grp) // (k - 1):
            raise BadGroupSizes("index class sizes do not match group size")
    inc = g.incidence
    rep = VerifyReport()
    part_bad = []
    gpts = [p for grp, _, _ in meta for p in grp]
    if sorted(gpts) != list(g.points):
        part_bad.append("groups do not partition the point set")
    if Counter(r for _, ri, _ in meta for r in ri) != Counter(g.rows):
        part_bad.append("row classes do not partition the rows")
    if Counter(c for _, _, ci in meta for c in ci) != Counter(g.cols):
        part_bad.append("column classes do not partition the columns")
    rep.add("frame-partitions", part_bad)

    rep.add("frame-empty", ["cell (%s,%s) occupied" % (r, c)
                            for _, ri, ci in meta for r in ri for c in ci if (r, c) in g.cells])

    row_bad = []
    for grp, ri, _ in meta:
        for r in ri:
            counts = inc.row_counts(r)
            row_bad += ["row %s contains group point %s" % (r, format_point(inc.points[x]))
                        for x in inc.indices(set(grp)) if counts[x]]
            row_bad += ["row %s: %s appears %d times" % (r, format_point(p), k2)
                        for p, k2 in inc.misses(counts, 1, 2, grp)]
    rep.add("frame-row", row_bad)

    rep.add("frame-column", (x for grp, _, ci in meta for c in ci
                             for x in inc.column_misses(c, grp)))
    rep.add("gdd-pairs", _gdd_pairs(g, inc.group_ids(grp for grp, _, _ in meta)))
    rep.add("k-uniform", ["cell (%s,%s) size %d" % (rc + (len(xs),))
                          for rc, xs in inc.sized_outside((k,))])
    return rep


def verify_gdd(g: DesignGrid) -> VerifyReport:
    """GDD axioms: cross-group pairs exactly once, in-group pairs never."""
    if g.groups is None:
        raise BadGroupSizes("GDD needs groups")
    inc = g.incidence
    rep = VerifyReport()
    part_bad = []
    gpts = [p for grp in g.groups for p in grp]
    if sorted(gpts) != list(g.points):
        part_bad.append("groups do not partition the point set")
    rep.add("group-partition", part_bad)
    gid = inc.group_ids(g.groups)
    meet_bad = []
    for _, xs in inc.cells_where(lambda xs: len({gid[x] for x in xs}) < len(xs)):
        name = "".join(format_point(inc.points[x]) for x in xs)
        meet_bad += ["block %s meets group %d twice" % (name, gi)
                     for gi, c in Counter(gid[x] for x in xs).items() if c > 1]
    rep.add("block-meets-group-once", meet_bad)
    rep.add("gdd-pairs", _gdd_pairs(g, gid))
    rep.add("k-uniform", ["block size %d not in K" % len(xs)
                          for _, xs in inc.sized_outside(g.k_set)])
    return rep


def verify_td(g: DesignGrid) -> VerifyReport:
    if g.groups is None:
        raise BadGroupSizes("TD needs groups")
    sizes = {len(grp) for grp in g.groups}
    if len(sizes) != 1:
        raise BadShape("TD groups must share one size")
    if len(g.k_set) != 1 or g.k_set[0] != len(g.groups):
        raise BadShape("TD block size must equal group count")
    return verify_gdd(g)


def verify_drtd(g: DesignGrid) -> VerifyReport:
    inc = g.incidence
    rep = verify_td(g)
    n = len(g.groups[0])
    if g.m != n or g.n != n:
        raise BadShape("DRTD array must be n x n")
    rc_bad = ["row %s: %s appears %d times" % (r, format_point(p), k)
              for r in g.rows for p, k in inc.misses(inc.row_counts(r), 1, 1)]
    rc_bad += ["col %s: %s appears %d times" % (c, format_point(p), k)
               for c in g.cols for p, k in inc.misses(inc.col_counts(c), 1, 1)]
    rep.add("doubly-resolvable", rc_bad)
    return rep


def verify_coloring(g: DesignGrid, c_colors: int, want_pi: bool = False) -> VerifyReport:
    """Same-color blocks in a row are disjoint; optionally find a Π witness row."""
    if g.colors is None:
        raise MissingColoring("grid carries no coloring")
    inc, colors = g.incidence, g.colors
    rep = VerifyReport()
    rep.add("cells-colored", ("cell (%s,%s) uncolored" % rc
                              for row in inc.by_row for _, rc, _ in row if rc not in colors))
    ri, ci = inc.row_index, inc.col_index
    range_bad = sorted(((rc, col) for rc, col in colors.items() if not 0 <= col < c_colors),
                       key=lambda kv: (ri.get(kv[0][0], g.m), ci.get(kv[0][1], g.n)))
    rep.add("colors-in-range", ("cell (%s,%s) color %d out of range" % (rc + (col,))
                                for rc, col in range_bad))
    dis_bad = []
    for r, row in zip(g.rows, inc.by_row):
        by_color = defaultdict(list)
        for _, rc, xs in row:
            by_color[colors.get(rc)].extend(xs)
        for col, xs in sorted(by_color.items(), key=lambda kv: (kv[0] is None, kv[0])):
            if len(set(xs)) < len(xs):
                twice = sorted((inc.points[x], k) for x, k in Counter(xs).items() if k > 1)
                dis_bad += ["row %s color %s: %s in %d blocks" % (r, col, format_point(p), k)
                            for p, k in twice]
    rep.add("row-color-disjoint", dis_bad)
    if want_pi:
        rep.add("pi-witness-row", [] if pi_witness_row(g, c_colors)
                else ["no row has a witness for every color"])
    return rep


def pi_witness_row(g: DesignGrid, c_colors: int):
    """First row with a witness point per color, as (row, {color: point})."""
    inc, every = g.incidence, (1 << g.incidence.v) - 1
    for r, row in zip(g.rows, inc.by_row):
        used = [0] * c_colors
        for _, rc, xs in row:
            col = g.colors.get(rc)
            if col in range(c_colors):
                for x in xs:
                    used[col] |= 1 << x
        free = [every & ~u for u in used]
        if all(free):
            return r, {col: inc.points[(f & -f).bit_length() - 1] for col, f in enumerate(free)}
    return None


def promote_coloring(g: DesignGrid) -> DesignGrid:
    """Recolor one block of the first row to gain a color and property Π.

    Input must carry k-1 colors for block size k; the recolored block is the
    one holding the least point that appears exactly once in the first row.
    """
    if g.colors is None:
        raise MissingColoring("grid carries no coloring")
    if len(g.k_set) != 1:
        raise BadParameters("promote needs a single block size")
    k, used = g.k_set[0], len(set(g.colors.values()))
    if used != k - 1:
        raise BadParameters("expected %d colors, found %d" % (k - 1, used))
    inc, row = g.incidence, g.incidence.by_row[0]
    cnt = Counter(x for _, _, xs in row for x in xs)
    least = min((x for x, c in cnt.items() if c == 1), default=None)
    if least is None:
        raise NoSingletonPoint("no point appears exactly once in the first row")
    target = next(rc for _, rc, xs in row if least in xs)
    return dataclasses.replace(g, colors={**g.colors, target: k - 1})


def demote_special(g: DesignGrid) -> DesignGrid:
    """Empty the special cell; its block becomes the hole W."""
    if g.special is None:
        raise BadParameters("grid has no special cell")
    r, c = g.special
    if (r, c) not in g.cells:
        raise BadParameters("special cell is empty")
    w = g.cells[(r, c)]
    cells = g.cells.copy()
    del cells[(r, c)]
    colors = None
    if g.colors is not None:
        colors = g.colors.copy()
        colors.pop((r, c), None)
    # new dicts, held by no one else: the grid takes them as they are
    return dataclasses.replace(g, kind="IGBTP", cells=MappingProxyType(cells),
                               colors=None if colors is None else MappingProxyType(colors),
                               hole=(tuple(w), (r,), (c,)), special=None)


def verify_special(g: DesignGrid) -> VerifyReport:
    """A special GBTD must reduce to a valid IGBTP when its cell is emptied.

    The IGBTP's Incidence is g's with that cell taken out, not a recount.
    """
    ig = demote_special(g)
    vars(ig)["incidence"] = g.incidence.without(ig, g.special)  # the cached property's slot
    return verify_igbtp(ig)


VERIFIERS = {
    "GBTP": verify_gbtp,
    "GBTD": verify_gbtd,
    "RBIBD": verify_rbibd,
    "IGBTP": verify_igbtp,
    "FrGBTD": verify_frgbtd,
    "TD": verify_td,
    "DRTD": verify_drtd,
    "GDD": verify_gdd,
    "raw": verify_packing,
}


def verify_auto(g: DesignGrid) -> VerifyReport:
    """The verifier of g's kind, then the special-cell check."""
    if g.kind not in VERIFIERS:
        raise BadKind("unknown grid kind %r" % (g.kind,))
    rep = VERIFIERS[g.kind](g)
    if g.special is not None:
        rep.merge(verify_special(g))
    return rep


# ---------------------------------------------------------------------------
# file format


def check_keys(obj, keys, what: str, error) -> None:
    """Raise error naming what when obj is not a JSON object holding every key."""
    if not isinstance(obj, dict):
        raise error("%s is not a JSON object" % what)
    missing = [k for k in keys if k not in obj]
    if missing:
        raise error("%s has no %s" % (what, ", ".join(repr(k) for k in missing)))


def first_repeat(labels):
    """(first, again): the first label that an equal label follows, and the first
    such label, or None.  Labels equal as keys, as 1, 1.0 and true are, repeat."""
    equal: dict = {}
    for x in labels:
        equal.setdefault(x, []).append(x)
    return next(((xs[0], xs[1]) for xs in equal.values() if len(xs) > 1), None)


def _check_distinct(labels, what: str) -> None:
    pair = first_repeat(labels)
    if pair is not None:
        first, again = map(json.dumps, pair)
        raise MalformedGrid("%s lists %s twice" % (what, pair[0]) if first == again else
                            "%s lists %s and %s, which compare equal" % (what, first, again))


def _head_obj(g: DesignGrid, label) -> dict:
    """Every key of g's file object but "cells"."""
    obj = {
        "kind": g.kind,
        "lambda": g.lam,
        "k_set": list(g.k_set),
        "points": list(map(label, g.points)),
        "rows": list(g.rows),
        "cols": list(g.cols),
    }
    if g.hole is not None:
        w, p_rows, q_cols = g.hole
        obj["hole"] = {"w": [label(p) for p in sorted(w)],
                       "p_rows": list(p_rows), "q_cols": list(q_cols)}
    if g.groups is not None:
        obj["groups"] = [[label(p) for p in sorted(grp)] for grp in g.groups]
    if g.row_group_index is not None:
        obj["row_group_index"] = [list(ri) for ri in g.row_group_index]
    if g.col_group_index is not None:
        obj["col_group_index"] = [list(ci) for ci in g.col_group_index]
    if g.special is not None:
        obj["special"] = {"r": g.special[0], "c": g.special[1]}
    if g.star:
        obj["star"] = True
    return obj


def grid_to_obj(g: DesignGrid) -> dict:
    label = functools.cache(format_point)  # each point is in n cells
    cells = []
    for rc, b in g.sorted_cells():
        entry = {"r": rc[0], "c": rc[1], "block": list(map(label, b))}
        if g.colors is not None and rc in g.colors:
            entry["color"] = g.colors[rc]
        cells.append(entry)
    return {**_head_obj(g, label), "cells": cells}


def _list(value, what: str) -> list:
    if type(value) is not list:
        raise MalformedGrid("%s is not a list" % what)
    return value


def _label_list(value, what: str) -> tuple:
    """A list of row or column labels."""
    labels = _list(value, what)
    if any(isinstance(x, (list, dict)) for x in labels):  # a label must be hashable
        raise MalformedGrid("%s holds a list or object" % what)
    return tuple(labels)


def _labels(obj: dict, key: str) -> tuple:
    """A list of distinct row or column labels."""
    labels = _label_list(obj[key], key)
    _check_distinct(labels, key)
    return labels


def _section(obj: dict, key: str, keys) -> dict | None:
    """An optional object entry of a grid file, checked for its keys."""
    sec = obj.get(key)
    if sec is not None:
        check_keys(sec, keys, key, MalformedGrid)
    return sec


def grid_from_obj(obj: dict) -> DesignGrid:
    """Read a grid object; MalformedGrid names an entry the grid cannot hold.

    Rejected: missing keys, a value of the wrong JSON type, a bad point label,
    a list or object where a row or column label belongs, a row, column or
    point listed twice, a cell listed twice, a cell whose row
    or column is not listed, a block holding a point twice or a point that is
    not listed, and a color that is not an integer.
    """
    check_keys(obj, ("kind", "lambda", "k_set", "points", "rows", "cols", "cells"), "grid",
               MalformedGrid)
    if type(obj["kind"]) is not str:
        raise MalformedGrid("kind is not a string")
    if obj["kind"] not in VERIFIERS:
        raise MalformedGrid("kind %s is not one of %s"
                            % (json.dumps(obj["kind"]), ", ".join(VERIFIERS)))
    k_set = _list(obj["k_set"], "k_set")
    if any(type(k) is not int for k in k_set):
        raise MalformedGrid("k_set is not a list of integers")
    if type(obj["lambda"]) is not int:
        raise MalformedGrid("lambda is not an integer")
    rows, cols = _labels(obj, "rows"), _labels(obj, "cols")
    parse = functools.cache(parse_point)

    def sorted_points(labels, what: str) -> tuple:
        try:
            return tuple(sorted(map(parse, _list(labels, what))))
        except (TypeError, ValueError) as exc:  # an unhashable or bad label
            raise MalformedGrid("%s: %s" % (what, exc)) from None

    try:
        points = tuple(map(parse, _list(obj["points"], "points")))
    except (TypeError, ValueError) as exc:
        raise MalformedGrid("points: %s" % exc) from None
    _check_distinct(map(format_point, points), "points")
    row_set, col_set, point_set = set(rows), set(cols), set(points)
    cells = {}
    colors = {}
    for i, entry in enumerate(_list(obj["cells"], "cells")):
        if type(entry) is not dict or "r" not in entry or "c" not in entry or "block" not in entry:
            check_keys(entry, ("r", "c", "block"), "cell entry %d" % i, MalformedGrid)
        rc = r, c = entry["r"], entry["c"]
        if type(entry["block"]) is not list:
            raise MalformedGrid("cell entry %d: block is not a list" % i)
        try:
            if r not in row_set:
                raise MalformedGrid("cell entry %d: row %s is not in rows" % (i, r))
            if c not in col_set:
                raise MalformedGrid("cell entry %d: column %s is not in cols" % (i, c))
            if rc in cells:
                raise MalformedGrid("cell entry %d: cell (%s,%s) is listed twice" % (i, r, c))
            b = cells[rc] = tuple(sorted(map(parse, entry["block"])))
        except (TypeError, ValueError) as exc:  # an unhashable or bad label
            raise MalformedGrid("cell entry %d: %s" % (i, exc)) from None
        if len(distinct := set(b)) != len(b):
            raise MalformedGrid("cell entry %d: block holds a point twice" % i)
        if not distinct <= point_set:
            raise MalformedGrid("cell entry %d: point %s is not in points"
                                % (i, format_point(min(distinct - point_set))))
        if "color" in entry:
            if type(entry["color"]) is not int:
                raise MalformedGrid("cell entry %d: color %s is not an integer"
                                    % (i, json.dumps(entry["color"])))
            colors[rc] = entry["color"]
    hole = _section(obj, "hole", ("w", "p_rows", "q_cols"))
    if hole is not None:
        hole = (sorted_points(hole["w"], "hole w"),
                _label_list(hole["p_rows"], "hole p_rows"),
                _label_list(hole["q_cols"], "hole q_cols"))
    groups = obj.get("groups")
    if groups is not None:
        groups = tuple(sorted_points(grp, "group %d" % gi)
                       for gi, grp in enumerate(_list(groups, "groups")))
    index = {}
    for key in ("row_group_index", "col_group_index"):
        if obj.get(key):
            index[key] = tuple(_label_list(x, key + " entry") for x in _list(obj[key], key))
    special = _section(obj, "special", ("r", "c"))
    if special is not None:
        special = _label_list([special["r"], special["c"]], "special")
    if type(obj.get("star", False)) is not bool:
        raise MalformedGrid("star is not true or false")
    return DesignGrid(
        kind=obj["kind"],
        lam=obj["lambda"],
        k_set=tuple(k_set),
        points=points,
        rows=rows,
        cols=cols,
        cells=MappingProxyType(cells),  # new dicts, held by no one else: not copied
        colors=MappingProxyType(colors) if colors else None,
        hole=hole,
        groups=groups,
        row_group_index=index.get("row_group_index"),
        col_group_index=index.get("col_group_index"),
        special=special,
        star=obj.get("star", False),
    )


def json_value(x, level: int) -> str:
    """x exactly as json.dumps(..., sort_keys=True, indent=1) prints it at
    nesting depth `level`: strings through the C string encoder, the rest
    through json.dumps with every line break indented to that depth."""
    if type(x) is str:
        return encode_basestring_ascii(x)
    if type(x) is int:
        return int.__repr__(x)
    return json.dumps(x, sort_keys=True, indent=1).replace("\n", "\n" + " " * level)


def _cells_json(g: DesignGrid) -> str:
    """The "cells" array of g's canonical file, one fixed template per cell
    (keys block, c, color, r), every label and color value encoded once.

    Cells are walked row-major over the row and column lists; sorted_cells
    takes over, and raises KeyError, when a cell lies outside them."""
    label = functools.cache(lambda p: encode_basestring_ascii(format_point(p)))
    color = functools.lru_cache(None, typed=True)(
        lambda x: '\n   "color": %s,' % json_value(x, 3))
    row = {r: json_value(r, 3) for r in g.rows}
    col = {c: json_value(c, 3) for c in g.cols}
    colors, cells = g.colors or {}, g.cells
    walk = [rc for rc in itertools.product(g.rows, g.cols) if rc in cells]
    if len(walk) != len(cells) or len(row) != g.m or len(col) != g.n:
        walk = [rc for rc, _ in g.sorted_cells()]
    out = []
    for rc in walk:
        b = cells[rc]
        points = '[\n    %s\n   ]' % ',\n    '.join(map(label, b)) if b else '[]'
        out.append('  {\n   "block": %s,\n   "c": %s,%s\n   "r": %s\n  }'
                   % (points, col[rc[1]], color(colors[rc]) if rc in colors else '',
                      row[rc[0]]))
    return '[\n%s\n ]' % ',\n'.join(out) if out else '[]'


def dumps_grid(g: DesignGrid) -> str:
    """Canonical file text: json.dumps(grid_to_obj(g), sort_keys=True, indent=1)
    plus a newline, with "cells", the first key, emitted by template."""
    head = json.dumps(_head_obj(g, functools.cache(format_point)), sort_keys=True, indent=1)
    return '{\n "cells": %s,%s\n' % (_cells_json(g), head[1:])


def loads_grid(text: str) -> DesignGrid:
    return grid_from_obj(json.loads(text))


def save_grid(g: DesignGrid, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_grid(g))


def load_grid(path) -> DesignGrid:
    with open(path, encoding="utf-8") as fh:
        return loads_grid(fh.read())
