"""Generator-based row arrangement: the test oracle for `search_gbtp` and
`arrange_resolution`.

These are the two searches as they were before their per-node work moved to
per-point row masks: generators over a row state of per-row counts
(`_row_counts`, whose `fits` loops over the rows one at a time), with
`search_gbtp` drawing partners from `itertools.combinations` and throwing
away the draws whose pairs are used.  They are slow, but they share no row
state with the program.  The differential test requires the same node
counts, stop flags and grid bytes from both on a grid of parameter sets, and
the same arrangements at the budgets around each pinned tick count.
"""

from __future__ import annotations

import itertools

from tforge.algebra import fpoint
from tforge.designs import DesignGrid
from tforge.errors import InconsistentParams
from tforge.search import (
    Budget,
    GbtpSearchResult,
    _array_grid,
    _column_compositions,
    _Exhausted,
)


def _bits(mask: int) -> list:
    """The indices of the set bits of mask, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _row_counts(v: int, m: int, n: int):
    """Row equity of an m x n array in which every column partitions the v
    points: each point ends with floor(n/m) or hi = ceil(n/m) cells in every
    row, so with exactly t_hi = n - m*(hi-1) rows at hi.  Returns closures
    over the counts so far: `fits(xs, r)`, whether every point of xs can take
    one more cell in row r, and `put(xs, r)` and `take(xs, r)`, which add
    that cell and take it back.  No row-deficiency test is needed: a point
    holding at most t_hi rows at hi always has columns enough left to reach
    the floor in every row."""
    hi = -(-n // m)
    t_hi = n - m * (hi - 1)
    cnt = [[0] * m for _ in range(v)]
    hi_rows = [0] * v  # per point: rows at the cap hi

    def fits(xs, r):
        for x in xs:
            c = cnt[x][r]
            if c >= hi or c + 1 == hi and hi_rows[x] >= t_hi:
                return False
        return True

    def put(xs, r):
        for x in xs:
            c = cnt[x][r] = cnt[x][r] + 1
            if c == hi:
                hi_rows[x] += 1

    def take(xs, r):
        for x in xs:
            if cnt[x][r] == hi:
                hi_rows[x] -= 1
            cnt[x][r] -= 1

    return fits, put, take


def arrange_resolution(classes, m: int, n: int,
                       budget: int | None = None) -> DesignGrid | None:
    """Arrange given parallel classes into an m x n array with equitable rows.

    classes: n lists of blocks (each a partition of the same point set).
    Searches row placements column by column; returns the grid or None.
    """
    if len(classes) != n:
        raise InconsistentParams("need one class per column")
    pts = sorted({p for cls in classes for b in cls for p in b})
    index = {p: i for i, p in enumerate(pts)}
    bud = Budget(budget)
    fits, put, take = _row_counts(len(pts), m, n)
    sol: list = []
    # each column's blocks in placing order, as point indices
    col_ids = [[[index[p] for p in b] for b in sorted(cls, key=lambda b: (-len(b), b))]
               for cls in classes]

    def place_col(ci):
        bud.tick()
        if ci == n:
            yield sol
            return
        blocks = col_ids[ci]
        order: list = []

        def rec(bi, used):
            bud.tick()
            if bi == len(blocks):
                sol.append(list(zip(order, blocks)))
                yield from place_col(ci + 1)
                sol.pop()
                return
            xs = blocks[bi]
            for r in range(m):
                if (used >> r) & 1 or not fits(xs, r):
                    continue
                put(xs, r)
                order.append(r)
                yield from rec(bi + 1, used | (1 << r))
                order.pop()
                take(xs, r)

        yield from rec(0, 0)

    try:
        if next(place_col(0), None) is None:
            return None
    except _Exhausted:
        return None
    k_set = tuple(sorted({len(b) for cls in classes for b in cls}))
    return _array_grid("GBTP", 1, k_set, pts, m, sol)


def search_gbtp(params: dict, budget: int | None = None) -> GbtpSearchResult:
    """Column-by-column parallel-class search with pair and row-equity pruning.

    params: K, v, m, n, lambda (must be 1), star3.  The first column is fixed
    canonically, which is sound: any solution can be relabeled (points and
    rows) so one of its columns takes that form.  Exhaustion therefore proves
    nonexistence.  The hole variant is not supported.
    """
    try:
        k_set = tuple(sorted(params["K"]))
        v, m, n = params["v"], params["m"], params["n"]
    except KeyError as exc:
        raise InconsistentParams("missing search parameter %r" % exc.args[0]) from None
    lam = params.get("lambda", 1)
    star3 = bool(params.get("star3", False))
    if lam != 1:
        raise InconsistentParams("only index 1 is supported")
    if params.get("hole"):
        raise InconsistentParams("hole search is not supported")
    if v > m * max(k_set) or m < 1 or n < 1:
        raise InconsistentParams("array cannot hold the point set")
    bud = Budget(budget)

    kmin = min(k_set)
    exact = len(k_set) == 1 and v == k_set[0] * m and n * (k_set[0] - 1) == lam * (v - 1)
    comps = _column_compositions(v, m, k_set, star3)
    if not comps:
        return GbtpSearchResult(None, True, 0)
    min_col_pairs = min(sum(s * (s - 1) // 2 for s in comp) for comp in comps)
    total_pairs = v * (v - 1) // 2

    fits, put, take = _row_counts(v, m, n)
    pair_used = [0] * v  # per point: a bit per partner so far
    columns: list = []

    def place_block(r, b):
        put(b, r)
        for x, y in itertools.combinations(b, 2):
            pair_used[x] |= 1 << y
            pair_used[y] |= 1 << x

    def unplace_block(r, b):
        take(b, r)
        for x, y in itertools.combinations(b, 2):
            pair_used[x] &= ~(1 << y)
            pair_used[y] &= ~(1 << x)

    def feasible(remaining: int) -> bool:
        # row equity needs no test here (see _row_counts); each later column
        # covers at least min_col_pairs new pairs and adds at least kmin-1 new
        # partners to every point, and lambda=1 caps degrees at v-1
        deg = [pu.bit_count() for pu in pair_used]
        return (sum(deg) // 2 + remaining * min_col_pairs <= total_pairs
                and max(deg) + remaining * (kmin - 1) <= v - 1)

    def extend_column(uncovered, triples, used_rows, col, remaining):
        """Anchor the most constrained uncovered point (bitmask `uncovered`),
        pick its block and row jointly."""
        bud.tick()
        if not uncovered:
            if star3 and triples != 1:
                return
            if feasible(remaining):
                columns.append(list(col))
                yield from dfs(len(columns))
                columns.pop()
            return
        # fewest unused partners; min keeps the least index on ties
        p0 = min(_bits(uncovered), key=lambda x: (uncovered & ~pair_used[x]).bit_count())
        rest = uncovered & ~(1 << p0)
        free_rows = [r for r in range(m) if not (used_rows >> r) & 1 and fits((p0,), r)]
        if not free_rows:
            return
        candidates = _bits(rest & ~pair_used[p0])
        for s in sorted(k_set, reverse=True):
            if star3 and s == 3 and triples == 1:
                continue
            for others in itertools.combinations(candidates, s - 1):
                if any(pair_used[x] >> y & 1 for x, y in itertools.combinations(others, 2)):
                    continue
                b = (p0,) + others
                sub = rest & ~sum(1 << x for x in others)
                for r in free_rows:
                    if not fits(others, r):
                        continue
                    place_block(r, b)
                    col.append((r, b))
                    yield from extend_column(sub, triples + (s == 3),
                                             used_rows | (1 << r), col, remaining)
                    col.pop()
                    unplace_block(r, b)

    def dfs(ci):
        if ci == n:
            yield columns
            return
        yield from extend_column((1 << v) - 1, 0, 0, [], n - ci - 1)

    def solutions():
        for comp in comps:
            col0 = []
            x = 0
            for r, s in enumerate(comp):
                b = tuple(range(x, x + s))
                col0.append((r, b))
                place_block(r, b)
                x += s
            if feasible(n - 1):
                columns.append(col0)
                yield from dfs(1)
                columns.pop()
            for r, b in col0:
                unplace_block(r, b)

    try:
        sol = next(solutions(), None)
    except _Exhausted:
        return GbtpSearchResult(None, False, bud.used)
    if sol is None:
        return GbtpSearchResult(None, True, bud.used)
    points = [fpoint(x + 1) for x in range(v)]
    g = _array_grid("GBTD" if exact else "GBTP", lam, k_set, points, m, sol, star=star3)
    return GbtpSearchResult(g, True, bud.used)
