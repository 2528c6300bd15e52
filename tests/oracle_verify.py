"""Dict-based reference verifiers: the test oracle for the incidence pass.

These are the verifiers tforge.designs used before its conditions were read
off one incidence pass.  They rescan the cell dict for every condition, so
they are slow, but they share no counting logic with the program.  The
differential tests require ``describe()`` to be byte-identical between the
two on fixtures, constructed arrays and their mutants.  The colour checks
at the end rescan a row's cells once per row and colour; the program reads
each row's cells off its Incidence instead.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter, defaultdict

from tforge.algebra import format_point
from tforge.designs import DesignGrid, VerifyReport, demote_special
from tforge.errors import (
    BadGroupSizes,
    BadParameters,
    BadShape,
    MissingColoring,
    MissingHole,
    NoSingletonPoint,
)


def _freq_in_row(g: DesignGrid, r) -> Counter:
    cnt = Counter()
    for b in g.row_blocks(r):
        for p in b:
            cnt[p] += 1
    return cnt


def pair_counts(blocks) -> Counter:
    cnt = Counter()
    for b in blocks:
        for x, y in itertools.combinations(b, 2):
            cnt[(x, y)] += 1
    return cnt


def _fmt_pair(p, q) -> str:
    return "{%s,%s}" % (format_point(p), format_point(q))


def verify_packing(g: DesignGrid, exact: bool | None = None) -> VerifyReport:
    """K-uniformity plus pairwise coverage <= λ (== λ in exact mode)."""
    if exact is None:
        exact = g.kind in ("GBTD", "RBIBD", "TD", "DRTD")
    rep = VerifyReport()
    pts = set(g.points)
    bad_size = []
    stray = []
    for rc, b in g.sorted_cells():
        if len(b) not in g.k_set:
            bad_size.append("cell (%s,%s) size %d" % (rc[0], rc[1], len(b)))
        for p in b:
            if p not in pts:
                stray.append("cell (%s,%s) point %s" % (rc[0], rc[1], format_point(p)))
    rep.add("k-uniform", bad_size)
    rep.add("points-known", stray)

    cnt = pair_counts(g.blocks())
    over = ["%s covered %d times" % (_fmt_pair(p, q), c)
            for (p, q), c in sorted(cnt.items()) if c > g.lam]
    rep.add("pair-at-most-lambda", over)
    if exact:
        missing = ["%s covered %d times" % (_fmt_pair(p, q), cnt.get((p, q), 0))
                   for p, q in itertools.combinations(g.points, 2)
                   if cnt.get((p, q), 0) != g.lam]
        rep.add("pair-exactly-lambda", missing)
    if g.lam > 1:
        by_pair = defaultdict(list)
        for rc, b in g.cells.items():
            for x, y in itertools.combinations(b, 2):
                by_pair[(x, y)].append(rc[1])
        shared = ["%s twice in column %s" % (_fmt_pair(p, q), c)
                  for (p, q), cols in sorted(by_pair.items())
                  for c, k in Counter(cols).items() if k > 1]
        rep.add("pair-column-distinct", shared)
    return rep


def _column_partition(g: DesignGrid, c, universe: set) -> list:
    cnt = Counter()
    for b in g.col_blocks(c):
        for p in b:
            cnt[p] += 1
    bad = []
    for p in sorted(universe):
        if cnt.get(p, 0) != 1:
            bad.append("col %s: %s appears %d times" % (c, format_point(p), cnt.get(p, 0)))
    for p in sorted(set(cnt) - universe):
        bad.append("col %s: unexpected point %s" % (c, format_point(p)))
    return bad


def verify_gbtp(g: DesignGrid, exact: bool | None = None) -> VerifyReport:
    """Columns are parallel classes; rows have near-uniform point frequency."""
    rep = verify_packing(g, exact=exact)
    pts = set(g.points)
    col_bad = []
    for c in g.cols:
        col_bad.extend(_column_partition(g, c, pts))
    rep.add("column-partition", col_bad)

    lo, hi = g.n // g.m, -(-g.n // g.m)
    row_bad = []
    for r in g.rows:
        cnt = _freq_in_row(g, r)
        for p in g.points:
            k = cnt.get(p, 0)
            if not (lo <= k <= hi):
                row_bad.append("row %s: %s appears %d times (want %d..%d)"
                               % (r, format_point(p), k, lo, hi))
    rep.add("row-frequency", row_bad)
    if g.star:
        star_bad = []
        for c in g.cols:
            t = sum(1 for b in g.col_blocks(c) if len(b) == 3)
            if t != 1:
                star_bad.append("col %s has %d size-3 blocks" % (c, t))
        rep.add("star-one-triple", star_bad)
    return rep


def verify_gbtd(g: DesignGrid) -> VerifyReport:
    """GBTP in exact-λ mode with the single-block-size parameter arithmetic."""
    if len(g.k_set) != 1:
        raise BadParameters("GBTD needs a single block size, got %r" % (g.k_set,))
    k = g.k_set[0]
    if g.v != k * g.m:
        raise BadParameters("v=%d is not k*m=%d" % (g.v, k * g.m))
    if g.n * (k - 1) != g.lam * (k * g.m - 1):
        raise BadParameters("n=%d is not lambda(km-1)/(k-1)" % g.n)
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
    pts = set(g.points)
    col_bad = []
    for c in g.cols:
        col_bad.extend(_column_partition(g, c, pts))
    rep.add("column-partition", col_bad)
    return rep


def verify_igbtp(g: DesignGrid) -> VerifyReport:
    """Hole conditions of an incomplete GBTP."""
    if g.hole is None:
        raise MissingHole("grid has no hole")
    w_pts, p_rows, q_cols = g.hole
    w = set(w_pts)
    rep = verify_packing(g, exact=False)

    empty_bad = ["cell (%s,%s) occupied" % (r, c)
                 for r in p_rows for c in q_cols if (r, c) in g.cells]
    rep.add("hole-empty", empty_bad)

    lo, hi = g.n // g.m, -(-g.n // g.m)
    row_bad = []
    for r in g.rows:
        cnt = _freq_in_row(g, r)
        if r in p_rows:
            for p in sorted(w):
                if cnt.get(p, 0):
                    row_bad.append("hole row %s contains %s" % (r, format_point(p)))
            universe = [p for p in g.points if p not in w]
        else:
            universe = g.points
        for p in universe:
            k = cnt.get(p, 0)
            if not (lo <= k <= hi):
                row_bad.append("row %s: %s appears %d times (want %d..%d)"
                               % (r, format_point(p), k, lo, hi))
    rep.add("row-frequency", row_bad)

    col_bad = []
    pts = set(g.points)
    for c in g.cols:
        universe = pts - w if c in q_cols else pts
        col_bad.extend(_column_partition(g, c, universe))
    rep.add("column-partition", col_bad)

    cnt = pair_counts(g.blocks())
    wpair_bad = ["%s covered" % _fmt_pair(p, q)
                 for p, q in itertools.combinations(sorted(w), 2)
                 if cnt.get((p, q), 0)]
    rep.add("w-pairs-uncovered", wpair_bad)

    if g.star:
        star_bad = []
        for c in g.cols:
            if c in q_cols:
                continue
            t = sum(1 for b in g.col_blocks(c) if len(b) == 3)
            if t != 1:
                star_bad.append("col %s has %d size-3 blocks" % (c, t))
        rep.add("star-one-triple", star_bad)
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
    meta = _frame_meta(g)
    for grp, ri, ci in meta:
        if len(grp) % (k * (k - 1)):
            raise BadGroupSizes("group size %d not divisible by k(k-1)" % len(grp))
        if len(ri) != len(grp) // k or len(ci) != len(grp) // (k - 1):
            raise BadGroupSizes("index class sizes do not match group size")
    rep = VerifyReport()
    part_bad = []
    gpts = [p for grp, _, _ in meta for p in grp]
    if sorted(gpts) != list(g.points):
        part_bad.append("groups do not partition the point set")
    if sorted(r for _, ri, _ in meta for r in ri) != sorted(g.rows):
        part_bad.append("row classes do not partition the rows")
    if sorted(c for _, _, ci in meta for c in ci) != sorted(g.cols):
        part_bad.append("column classes do not partition the columns")
    rep.add("frame-partitions", part_bad)

    empty_bad = []
    for grp, ri, ci in meta:
        for r in ri:
            for c in ci:
                if (r, c) in g.cells:
                    empty_bad.append("cell (%s,%s) occupied" % (r, c))
    rep.add("frame-empty", empty_bad)

    row_bad = []
    for grp, ri, _ in meta:
        gset = set(grp)
        for r in ri:
            cnt = _freq_in_row(g, r)
            for p in sorted(gset):
                if cnt.get(p, 0):
                    row_bad.append("row %s contains group point %s" % (r, format_point(p)))
            for p in g.points:
                if p in gset:
                    continue
                k2 = cnt.get(p, 0)
                if k2 not in (1, 2):
                    row_bad.append("row %s: %s appears %d times" % (r, format_point(p), k2))
    rep.add("frame-row", row_bad)

    col_bad = []
    pts = set(g.points)
    for grp, _, ci in meta:
        for c in ci:
            col_bad.extend(_column_partition(g, c, pts - set(grp)))
    rep.add("frame-column", col_bad)

    group_of = {}
    for idx, (grp, _, _) in enumerate(meta):
        for p in grp:
            group_of[p] = idx
    cnt = pair_counts(g.blocks())
    pair_bad = []
    for (p, q), c in sorted(cnt.items()):
        if group_of.get(p) == group_of.get(q):
            pair_bad.append("in-group pair %s covered" % _fmt_pair(p, q))
    for p, q in itertools.combinations(g.points, 2):
        if group_of.get(p) != group_of.get(q) and cnt.get((p, q), 0) != 1:
            pair_bad.append("%s covered %d times" % (_fmt_pair(p, q), cnt.get((p, q), 0)))
    rep.add("gdd-pairs", pair_bad)

    size_bad = ["cell (%s,%s) size %d" % (rc[0], rc[1], len(b))
                for rc, b in g.sorted_cells() if len(b) != k]
    rep.add("k-uniform", size_bad)
    return rep


def verify_gdd(g: DesignGrid) -> VerifyReport:
    """GDD axioms: cross-group pairs exactly once, in-group pairs never."""
    if g.groups is None:
        raise BadGroupSizes("GDD needs groups")
    rep = VerifyReport()
    part_bad = []
    gpts = [p for grp in g.groups for p in grp]
    if sorted(gpts) != list(g.points):
        part_bad.append("groups do not partition the point set")
    rep.add("group-partition", part_bad)
    group_of = {}
    for idx, grp in enumerate(g.groups):
        for p in grp:
            group_of[p] = idx
    blocks = g.blocks()
    meet_bad = []
    for b in blocks:
        seen = Counter(group_of[p] for p in b)
        for gi, c in seen.items():
            if c > 1:
                meet_bad.append("block %s meets group %d twice"
                                % ("".join(format_point(p) for p in b), gi))
    rep.add("block-meets-group-once", meet_bad)
    cnt = pair_counts(blocks)
    pair_bad = []
    for (p, q), c in sorted(cnt.items()):
        if group_of[p] == group_of[q]:
            pair_bad.append("in-group pair %s covered" % _fmt_pair(p, q))
    for p, q in itertools.combinations(g.points, 2):
        if group_of[p] != group_of[q] and cnt.get((p, q), 0) != 1:
            pair_bad.append("%s covered %d times" % (_fmt_pair(p, q), cnt.get((p, q), 0)))
    rep.add("gdd-pairs", pair_bad)
    size_bad = ["block size %d not in K" % len(b) for b in blocks if len(b) not in g.k_set]
    rep.add("k-uniform", size_bad)
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
    rep = verify_td(g)
    n = len(g.groups[0])
    if g.m != n or g.n != n:
        raise BadShape("DRTD array must be n x n")
    rc_bad = []
    for r in g.rows:
        cnt = _freq_in_row(g, r)
        for p in g.points:
            if cnt.get(p, 0) != 1:
                rc_bad.append("row %s: %s appears %d times" % (r, format_point(p), cnt.get(p, 0)))
    for c in g.cols:
        cnt = Counter(p for b in g.col_blocks(c) for p in b)
        for p in g.points:
            if cnt.get(p, 0) != 1:
                rc_bad.append("col %s: %s appears %d times" % (c, format_point(p), cnt.get(p, 0)))
    rep.add("doubly-resolvable", rc_bad)
    return rep


def verify_special(g: DesignGrid) -> VerifyReport:
    """A special GBTD must reduce to a valid IGBTP when its cell is emptied."""
    return verify_igbtp(demote_special(g))


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
    rep = VERIFIERS.get(g.kind, verify_packing)(g)
    if g.special is not None:
        rep.merge(verify_special(g))
    return rep


# ---------------------------------------------------------------------------
# colour checks


def verify_coloring(g: DesignGrid, c_colors: int, want_pi: bool = False) -> VerifyReport:
    """Same-color blocks in a row are disjoint; optionally find a Π witness row."""
    if g.colors is None:
        raise MissingColoring("grid carries no coloring")
    rep = VerifyReport()
    missing = ["cell (%s,%s) uncolored" % (rc[0], rc[1]) for rc, _ in g.sorted_cells()
               if rc not in g.colors]
    rep.add("cells-colored", missing)
    range_bad = ["cell (%s,%s) color %d out of range" % (rc[0], rc[1], col)
                 for rc, col in sorted(g.colors.items()) if not 0 <= col < c_colors]
    rep.add("colors-in-range", range_bad)
    dis_bad = []
    for r in g.rows:
        by_color = defaultdict(list)
        for rc, b in g.row_cells(r):
            by_color[g.colors.get(rc)].append(b)
        for col, bs in sorted(by_color.items(), key=lambda kv: (kv[0] is None, kv[0])):
            cnt = Counter(p for b in bs for p in b)
            for p, k in sorted(cnt.items()):
                if k > 1:
                    dis_bad.append("row %s color %s: %s in %d blocks"
                                   % (r, col, format_point(p), k))
    rep.add("row-color-disjoint", dis_bad)
    if want_pi:
        if pi_witness_row(g, c_colors) is None:
            rep.add("pi-witness-row", ["no row has a witness for every color"])
        else:
            rep.add("pi-witness-row", [])
    return rep


def pi_witness_row(g: DesignGrid, c_colors: int):
    """First row with a witness point per color, as (row, {color: point})."""
    for r in g.rows:
        wit = {}
        for col in range(c_colors):
            covered = set()
            for rc, b in g.row_cells(r):
                if g.colors.get(rc) == col:
                    covered.update(b)
            free = [p for p in g.points if p not in covered]
            if not free:
                break
            wit[col] = free[0]
        else:
            return r, wit
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
    k = g.k_set[0]
    used = sorted(set(g.colors.values()))
    if len(used) != k - 1:
        raise BadParameters("expected %d colors, found %d" % (k - 1, len(used)))
    r0 = g.rows[0]
    cnt = Counter(p for b in g.row_blocks(r0) for p in b)
    singles = sorted(p for p, c in cnt.items() if c == 1)
    if not singles:
        raise NoSingletonPoint("no point appears exactly once in the first row")
    target = next(rc for rc, b in g.row_cells(r0) if singles[0] in b)
    return dataclasses.replace(g, colors={**g.colors, target: k - 1})
