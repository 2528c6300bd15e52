"""The row-arrangement searches against their generator-based oracle.

`search_gbtp` and `arrange_resolution` keep their row state as one packed
count per point (`_row_masks`) and search without generators;
tests/oracle_arrange.py keeps the searches they replaced.  Both must explore
in the same order: the same node counts, stop flags and grid bytes on a grid
of `search_gbtp` parameter sets (row caps hi = 1, 2, 3 and 4 among them), and
the same arrangement, tick for tick, of the witness classes, AG(2,3) and
fig2's deletion.  The packed state itself is checked against plain per-row
counts.
"""

import itertools
import random
import sys

import pytest

import oracle_arrange as oracle
import tforge.search
from tforge.algebra import block, fpoint, ipoint
from tforge.designs import dumps_grid
from tforge.errors import InconsistentParams
from tforge.search import _row_masks, _z3_witness_classes, arrange_resolution, search_gbtp

# each K with the number of its parameter sets that pass the search's checks
# (1,836 in all)
K_SETS = {(2,): 192, (3,): 300, (2, 3): 300, (2, 4): 348, (3, 4): 348, (2, 3, 4): 348}


@pytest.mark.parametrize("m,n", [(4, 3), (5, 2), (3, 5), (4, 7), (2, 5), (3, 8), (3, 7),
                                 (2, 7), (3, 10), (3, 11)])
def test_row_masks_match_plain_counts(m, n):
    # random cells put into rows open to their points and taken back in any
    # order; after every step each point's closed rows are the rule's, worked
    # out from plain per-row counts (hi = 1, 2, 3 and 4 among these sizes)
    hi = -(-n // m)
    t_hi = n - m * (hi - 1)
    v, rng = 3, random.Random(m * 100 + n)
    st, shut, inc = _row_masks(v, m, n)
    cnt = [[0] * m for _ in range(v)]

    def rows_at(x, count):
        return sum(1 << r for r, c in enumerate(cnt[x]) if c == count)

    def closed(x):
        cap = rows_at(x, hi)
        return cap | rows_at(x, hi - 1) if cap.bit_count() == t_hi else cap

    puts, near_shut = [], 0
    for _ in range(3_000):
        if puts and rng.random() < 0.4:
            xs, r = puts.pop(rng.randrange(len(puts)))
            for x in xs:
                cnt[x][r] -= 1
                st[x] -= inc[r]
        else:
            xs, r = rng.sample(range(v), rng.randint(1, v)), rng.randrange(m)
            if any(closed(x) >> r & 1 for x in xs):
                continue
            puts.append((xs, r))
            for x in xs:
                cnt[x][r] += 1
                st[x] += inc[r]
        for x in range(v):
            assert shut[st[x]] == closed(x), (m, n, cnt[x])
            near_shut += closed(x) != rows_at(x, hi)
    # the rows at hi - 1 were closed by the t_hi rule in some of the steps
    assert near_shut


def _gbtp_outcome(search, params):
    try:
        res = search(params, budget=2_000)
    except InconsistentParams:
        return None
    return res.nodes, res.exhausted, res.grid and dumps_grid(res.grid)


@pytest.mark.parametrize("k_set", K_SETS, ids=lambda k: "K" + "".join(map(str, k)))
def test_search_gbtp_matches_oracle(k_set):
    searched = 0
    for v, m, n, star3 in itertools.product(range(4, 12), range(2, 6), range(2, 8),
                                            (False, True)):
        params = {"K": list(k_set), "v": v, "m": m, "n": n, "star3": star3}
        want = _gbtp_outcome(oracle.search_gbtp, params)
        assert _gbtp_outcome(search_gbtp, params) == want, params
        searched += want is not None
    assert searched == K_SETS[k_set]


def test_search_gbtp_recursion_depth_matches_oracle():
    # 33 columns of 17 pairs: the search dives past 350 blocks within this
    # budget, so it must recurse no deeper per block than the oracle does
    params = {"K": [2], "v": 34, "m": 17, "n": 33}
    res, want = search_gbtp(params, budget=10_000), oracle.search_gbtp(params, budget=10_000)
    assert (res.nodes, res.exhausted) == (want.nodes, want.exhausted) == (10_001, False)


def _ag23_classes():
    # the four parallel classes of lines of AG(2,3), one per direction
    pts = list(itertools.product(range(3), repeat=2))
    classes = []
    for dx, dy in ((1, 0), (0, 1), (1, 1), (1, 2)):
        lines = {tuple(sorted(((x + t * dx) % 3, (y + t * dy) % 3) for t in range(3)))
                 for x, y in pts}
        classes.append([block(fpoint(p) for p in line) for line in sorted(lines)])
    return classes


def _k4_factors():
    # the three one-factors of K4
    p = [fpoint(i) for i in range(4)]
    return [[block((p[0], p[i])), block(q for q in p[1:] if q != p[i])] for i in (1, 2, 3)]


def _fig2_deletion(fig2):
    inf = ipoint(0)
    return [[tuple(p for p in b if p != inf) for b in fig2.col_blocks(c)] for c in fig2.cols]


class _Counting(tforge.search.Budget):
    """A budget that keeps the ticks of the last one made."""

    last = None

    def __init__(self, limit=None):
        super().__init__(limit)
        _Counting.last = self


def _arrangement(monkeypatch, arrange, classes, m, n, budget):
    monkeypatch.setattr(tforge.search, "Budget", _Counting)
    monkeypatch.setattr(oracle, "Budget", _Counting)
    g = arrange(classes, m, n, budget=budget)
    return g and dumps_grid(g), _Counting.last.used


# each arrangement with its ticks: to the grid, or to exhaustion
@pytest.mark.parametrize("case,m,n,ticks,found", [
    ("witness", 6, 9, 244_166, True),
    ("ag23", 3, 4, 461, False),  # row cap hi = 2
    ("ag23", 4, 4, 114, False),  # hi = 1
    ("k4-twice", 2, 6, 25, True),  # hi = 3
    ("fig2-deletion", 5, 7, 985_711, True),
])
def test_arrange_resolution_matches_oracle(monkeypatch, fig2, case, m, n, ticks, found):
    classes = {"witness": _z3_witness_classes, "ag23": _ag23_classes,
               "k4-twice": lambda: _k4_factors() * 2,
               "fig2-deletion": lambda: _fig2_deletion(fig2)}[case]()
    # a grid found on tick b of budget b means that budget b - 1 runs out
    budget = ticks if found else 1_000_000
    got = _arrangement(monkeypatch, arrange_resolution, classes, m, n, budget)
    assert got == _arrangement(monkeypatch, oracle.arrange_resolution, classes, m, n, budget)
    assert (got[0] is not None, got[1]) == (found, ticks)


def test_arrange_resolution_matches_oracle_on_random_classes(monkeypatch):
    # small classes that need not partition one point set, empty ones among
    # them, at budgets that stop the search and at one that does not
    rng = random.Random(9)
    for _ in range(400):
        n, m, pts = rng.randint(0, 5), rng.randint(1, 4), list(range(rng.randint(0, 7)))
        classes = []
        for _ in range(n):
            rng.shuffle(pts)
            cuts = sorted(rng.sample(range(1, len(pts)), min(3, len(pts) - 1))) if pts else []
            cls = [pts[a:b] for a, b in zip([0] + cuts, cuts + [len(pts)])]
            classes.append([block(fpoint(x) for x in b) for b in cls if rng.random() < 0.9])
        for budget in (rng.randint(1, 60), 100_000):
            assert (_arrangement(monkeypatch, arrange_resolution, classes, m, n, budget)
                    == _arrangement(monkeypatch, oracle.arrange_resolution, classes, m, n,
                                    budget)), (classes, m, n, budget)


class _ColumnEnds(_Counting):
    """A budget that also keeps, per column ci, the ticks at the first time
    the oracle's place_col(ci) ticks: the second of ci's column-end ticks."""

    ends: dict = {}

    def tick(self, n=1):
        super().tick(n)
        frame = sys._getframe(1)
        if frame.f_code.co_name == "place_col":
            _ColumnEnds.ends.setdefault(frame.f_locals["ci"], self.used)


def test_arrange_resolution_budget_at_column_ends(monkeypatch):
    # arrange_resolution adds a column end's two ticks at once: at budgets
    # b - 1, b and b + 1 around the first three column ends of the witness,
    # b the first of the two ticks, it stops where Budget.tick stops the
    # oracle and leaves the same count
    classes = _z3_witness_classes()
    _ColumnEnds.ends = {}
    monkeypatch.setattr(oracle, "Budget", _ColumnEnds)
    assert oracle.arrange_resolution(classes, 6, 9, budget=20_000) is None
    ends = [_ColumnEnds.ends[ci] - 1 for ci in (1, 2, 3)]
    assert ends[0] == 8  # after the root and one node per block of six
    for b in ends:
        for budget in (b - 1, b, b + 1):
            got = _arrangement(monkeypatch, arrange_resolution, classes, 6, 9, budget)
            want = _arrangement(monkeypatch, oracle.arrange_resolution, classes, 6, 9, budget)
            assert got == want == (None, budget + 1), (ends, budget)
