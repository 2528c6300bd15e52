"""Per-row recursive block colouring: the test oracle for `search_coloring`.

This is the colouring search as it was before each row became one call of
the exact-cover engine `_covers`: a recursion over the row's cells in column
order, trying the colours in order, with a set of used points per colour.
It has no budget, so its `exhausted` is always True.  The differential test
requires the program's search to return the same colours wherever it does
not stop at its budget.
"""

from __future__ import annotations

from tforge.designs import DesignGrid
from tforge.search import ColoringResult


def _color_row(g: DesignGrid, row, c_colors: int, need_witnesses: bool):
    """Colorings of one row, lazily: same-color blocks stay disjoint."""
    cells = sorted(g.row_cells(row), key=lambda kv: g.cols.index(kv[0][1]))

    def rec(i, coloring, used_pts):
        if i == len(cells):
            if need_witnesses:
                for col in range(c_colors):
                    if not (set(g.points) - used_pts[col]):
                        return
            yield list(coloring)
            return
        _rc, b = cells[i]
        bset = set(b)
        for col in range(c_colors):
            if used_pts[col] & bset:
                continue
            used_pts[col] |= bset
            coloring.append(col)
            yield from rec(i + 1, coloring, used_pts)
            coloring.pop()
            used_pts[col] -= bset

    for sol in rec(0, [], {c: set() for c in range(c_colors)}):
        yield {rc: col for (rc, _b), col in zip(cells, sol)}


def search_coloring(g: DesignGrid, colors: int, want_pi: bool = False) -> ColoringResult:
    """Row-independent block coloring; optionally force a witness row."""
    base = {}
    for r in g.rows:
        sol = next(_color_row(g, r, colors, False), None)
        if sol is None:
            return ColoringResult(None, True)
        base.update(sol)
    if not want_pi:
        return ColoringResult(base, True)
    for r in g.rows:
        wit = next(_color_row(g, r, colors, True), None)
        if wit is not None:
            out = dict(base)
            out.update(wit)
            return ColoringResult(out, True)
    return ColoringResult(None, True)
