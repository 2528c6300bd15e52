"""The block colouring search against the per-row recursion it replaced
(tests/oracle_coloring.py).

Both must return the same colours and the same `exhausted` on the shipped
fixtures, on developed fq arrays and on small random grids with empty cells
and points missing from the point list, at 1-3 colours, with and without
property Π.  A budget stop is the one way `exhausted` can be False.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_coloring as oracle
from tforge.designs import DesignGrid
from tforge.errors import InconsistentParams
from tforge.search import search_coloring
from tforge.starters import build_fq_gbtd_starter, develop_gbtd


def _agree(g, colors, want_pi):
    got = search_coloring(g, colors, want_pi)
    want = oracle.search_coloring(g, colors, want_pi)
    assert (got.colors, got.exhausted) == (want.colors, want.exhausted)
    assert got.exhausted


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig7", "fig8"])
@pytest.mark.parametrize("colors", [1, 2, 3])
@pytest.mark.parametrize("want_pi", [False, True])
def test_fixtures_match_oracle(request, name, colors, want_pi):
    _agree(request.getfixturevalue(name), colors, want_pi)


@pytest.mark.parametrize("q", [7, 13, 19])
def test_fq_arrays_match_oracle(q):
    g = develop_gbtd(build_fq_gbtd_starter(q))
    for colors in (1, 2, 3):
        for want_pi in (False, True):
            _agree(g, colors, want_pi)


@st.composite
def _grids(draw):
    """1-3 rows by 1-5 columns; each cell absent, empty or a set of points
    drawn from 0..6, of which only some are listed."""
    rows = tuple("r%d" % i for i in range(draw(st.integers(1, 3))))
    cols = tuple("c%d" % j for j in range(draw(st.integers(1, 5))))
    points = draw(st.sets(st.integers(0, 6), max_size=5))
    cells = {}
    for rc in ((r, c) for r in rows for c in cols):
        b = draw(st.none() | st.sets(st.integers(0, 6), max_size=3))
        if b is not None:
            cells[rc] = tuple(sorted(b))
    return DesignGrid("raw", 1, (1, 2, 3), tuple(points), rows, cols, cells)


@settings(max_examples=300, deadline=None)
@given(_grids(), st.integers(1, 3), st.booleans())
def test_random_grids_match_oracle(g, colors, want_pi):
    _agree(g, colors, want_pi)


def test_budget_stop(monkeypatch):
    g = develop_gbtd(build_fq_gbtd_starter(13))
    assert search_coloring(g, 3).exhausted
    monkeypatch.setenv("TFORGE_BUDGET", "50")
    res = search_coloring(g, 3)
    assert (res.colors, res.exhausted) == (None, False)


@pytest.mark.parametrize("colors", [0, -1])
def test_fewer_than_one_color_is_refused(fig3, colors):
    with pytest.raises(InconsistentParams, match="at least one color"):
        search_coloring(fig3, colors)
