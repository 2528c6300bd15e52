import hashlib

import pytest

from tforge.codes import dumps_code, gbtp_to_code, hamming, is_equitable, min_distance
from tforge.designs import dumps_grid, verify_auto, verify_coloring
from tforge.errors import BadKind, BudgetZero, InconsistentParams
from tforge import search
from tforge.search import (
    DEFAULT_BUDGET,
    Budget,
    _z3_witness_classes,
    arrange_resolution,
    equitable_words,
    eswc_witness,
    max_eswc,
    plotkin_cap,
    search_coloring,
    search_gbtp,
    search_starter,
)
from tforge.starters import develop_starter, dumps_starter


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_equitable_word_enumeration():
    words = list(equitable_words(4, 3))
    assert words[0] == (0, 0, 1, 2)
    assert len(words) == 36
    assert words == sorted(words)
    assert all(len(set(w)) == 3 for w in words)


@pytest.mark.parametrize("n,d,q,want", [
    (3, 2, 2, 3),
    (5, 3, 2, 4),
    (3, 2, 3, 6),
    (4, 3, 3, 6),
    (7, 4, 2, 7),
])
def test_small_exact_values(n, d, q, want):
    res = max_eswc(n, d, q, budget=2_000_000)
    assert res.M == want and res.exact
    assert is_equitable(res.code)
    if res.M >= 2:
        assert min_distance(res.code) >= d


def test_permutation_code_family():
    for q in (2, 3, 4, 5):
        res = max_eswc(q + 1, q + 1, q, budget=500_000)
        assert res.M == q and res.exact


def test_exactness_invariant_under_budget():
    a = max_eswc(4, 3, 3, budget=100_000)
    b = max_eswc(4, 3, 3, budget=10_000_000)
    assert a.exact and b.exact and a.M == b.M


def test_plotkin_prune_soundness():
    res = max_eswc(5, 4, 4, budget=2_000_000)
    assert res.exact and res.M == 12
    assert res.M <= plotkin_cap(5, 4, 4)


def test_max_eswc_oversized_takes_greedy_witness(monkeypatch):
    import tforge.search

    # too many candidate words for the clique search: a first-fit code instead
    monkeypatch.setattr(tforge.search, "MAX_CLIQUE_VERTICES", 10)
    res = max_eswc(5, 4, 4)
    assert not res.exact
    assert is_equitable(res.code) and res.M == res.code.size >= 2
    assert min_distance(res.code) >= 4
    # one tick per word the first-fit pass examines, and it stops at the budget
    assert 0 < res.nodes < 240
    res = max_eswc(5, 4, 4, budget=5)
    assert not res.exact and res.nodes == 6
    assert is_equitable(res.code) and res.M == res.code.size >= 2
    assert min_distance(res.code) >= 4


def test_budget_zero():
    with pytest.raises(BudgetZero):
        Budget(0)
    with pytest.raises(BudgetZero):
        max_eswc(3, 2, 2, budget=0)


@pytest.mark.parametrize("text", ["abc", "1e6", ""])
def test_tforge_budget_not_an_integer(monkeypatch, text):
    monkeypatch.setenv("TFORGE_BUDGET", text)
    with pytest.raises(BudgetZero, match="TFORGE_BUDGET=%r is not an integer" % text):
        Budget()
    monkeypatch.delenv("TFORGE_BUDGET")
    assert Budget().limit == DEFAULT_BUDGET


def test_search_gbtp_finds_star_9():
    res = search_gbtp({"K": [2, 3], "v": 9, "m": 4, "n": 5, "star3": True},
                      budget=3_000_000)
    assert res.grid is not None
    assert verify_auto(res.grid).ok
    assert res.grid.star


def test_search_gbtp_exhausts_nonexistent_gbtd_3_3():
    res = search_gbtp({"K": [3], "v": 9, "m": 3, "n": 4}, budget=3_000_000)
    assert res.grid is None and res.exhausted


def test_search_gbtp_rejects_holes():
    with pytest.raises(InconsistentParams):
        search_gbtp({"K": [2, 3], "v": 9, "m": 4, "n": 5, "hole": {"w": 3}})


def test_search_starter_bad_kind():
    with pytest.raises(BadKind):
        search_starter("nope", {"m": 5})


def test_search_starter_gbtd_m5_exhausts():
    res = search_starter("gbtd", {"m": 5}, budget=5_000_000)
    assert not res.starters and res.exhausted
    assert res.nodes == 70669


def test_search_starter_frgbtd_t5(frgbtd_t5):
    res = frgbtd_t5
    assert res.starters
    assert (res.nodes, res.exhausted) == (73339, True)
    assert [_sha(dumps_starter(s)) for s in res.starters] == [
        "0c1d441fa89f2d13555d7227b66360757f313779132f349e3341400d5880d168"]
    g = develop_starter(res.starters[0])
    assert verify_auto(g).ok
    assert sorted(len(grp) for grp in g.groups) == [6] * 5


def test_search_coloring_fig3(fig3):
    res = search_coloring(fig3, 2)
    assert res.colors is not None
    trial = type(fig3)(fig3.kind, fig3.lam, fig3.k_set, fig3.points, fig3.rows,
                       fig3.cols, dict(fig3.cells), res.colors)
    assert verify_coloring(trial, 2).ok


def test_search_coloring_fig2_pi(fig2):
    res = search_coloring(fig2, 3, want_pi=True)
    assert res.colors is not None
    trial = type(fig2)(fig2.kind, fig2.lam, fig2.k_set, fig2.points, fig2.rows,
                       fig2.cols, dict(fig2.cells), res.colors)
    assert verify_coloring(trial, 3, want_pi=True).ok


def test_search_coloring_one_color_impossible(fig2):
    res = search_coloring(fig2, 1)
    assert res.colors is None


def test_witness_9_8_6(witness_9_8_6):
    code = witness_9_8_6
    assert code.size == 14
    assert is_equitable(code)
    assert min_distance(code) == 8
    assert _sha(dumps_code(code)) == (
        "e6ca9bcf762b1d5d3fe7590fc7d3b192b2a5b490a4321f805bb87c502f09cd68")


def test_eswc_witness_dispatch(witness_9_8_6):
    code = witness_9_8_6
    assert code is not None and code.size == 14
    assert eswc_witness(9, 8, 6, 5).words == tuple(sorted(code.words)[:5])
    for args in ((7, 6, 5, 14), (9, 8, 6, 15)):
        with pytest.raises(InconsistentParams):
            eswc_witness(*args)


def test_arrange_resolution_witness_ticks():
    # the witness arrangement takes exactly 244,166 ticks: one fewer runs out
    assert arrange_resolution(_z3_witness_classes(), 6, 9, budget=244_165) is None
    g = arrange_resolution(_z3_witness_classes(), 6, 9, budget=244_166)
    assert g is not None
    assert _sha(dumps_code(gbtp_to_code(g))) == (
        "e6ca9bcf762b1d5d3fe7590fc7d3b192b2a5b490a4321f805bb87c502f09cd68")


def test_witness_ignores_tforge_budget(monkeypatch):
    # a fixed construction: a low TFORGE_BUDGET neither stops nor shortens it
    made = []

    class Recorded(Budget):
        def __init__(self, limit=None):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setenv("TFORGE_BUDGET", "1000")
    monkeypatch.setattr(search, "Budget", Recorded)
    code = eswc_witness(9, 8, 6, 14)
    assert [(b.limit, b.used) for b in made] == [(DEFAULT_BUDGET, 244_166)]
    assert _sha(dumps_code(code)) == (
        "e6ca9bcf762b1d5d3fe7590fc7d3b192b2a5b490a4321f805bb87c502f09cd68")


def test_arrange_resolution_fig2_deletion(fig2):
    from tforge.algebra import ipoint

    inf = ipoint(0)
    classes = [[tuple(p for p in b if p != inf) for b in fig2.col_blocks(c)]
               for c in fig2.cols]
    g = arrange_resolution(classes, 5, 7, budget=985_711)
    assert g is not None
    assert verify_auto(g).ok
    code = gbtp_to_code(g)
    assert code.size == 14 and min_distance(code) == 6 and is_equitable(code)


# Node counts, stop flags and the sha256 of every canonical output, pinned so
# that a rewrite of a search must keep its exploration order exactly.
_STARTER_PINS = [
    ("gbtd", {"m": 7}, 5_000_000, 1, 32054, True,
     ["8ac4fab9bda2ac7166aba05d3d4908374a02bdfd00c31bf8cadc49a404adfbc8"]),
    ("frgbtd", {"t": 5}, 2_000, 1, 2001, False, []),
    ("igbtp_z2", {"m": 11, "w": 9}, 5_000_000, 1, 104793, True,
     ["3c8de920858c272f2f419fa6e36c7078fc453307decf426c96831945e79924b1"]),
    ("igbtp_z4", {"m": 5}, 5_000_000, 4, 14818, True,
     ["2ab1d8cb6cbfd6a654477560cbf4e4eaba424199bdecf3f6723fc1cabb3b73c9",
      "dc26eed14888301f4ff81e572cafd0ae255a3c9e8f3ef0d56c0c7e5432d1eeaf",
      "19ae253c90d775a84e404cdb774d4263c8ae4ad628d3269d67368e549b074138",
      "37d638417a050719df1fc983223cb3d08e6a87f159aea9b19514b82e66b68e34"]),
    # the special starter's index-0 block: its points unused before, cap 1 after
    ("gbtd", {"m": 7, "special": True}, 5_000_000, 1, 36883, True,
     ["ba0c30353b1e20e2de491295bb5d771c654419c1d9beb6d8e76e6b74198a38a0"]),
    ("igbtp_z4", {"m": 7}, 5_000_000, 1, 63, True,
     ["f3a473ca64f52adda80475785a08d85b6e5618b03703913189b945bd2f28f0c2"]),
    # igbtp_z2 at other orders and w, to the end of the search and to a
    # budget stop: covers that leave the same points over for the B pairs
    ("igbtp_z2", {"m": 11, "w": 7}, 5_000_000, 3, 94670, True,
     ["23c1a4f0b8b0e99e8a15e0b792012566f16ab40330b9211fe84561280807e803",
      "df7e023e1ed44b85de436eae1c13807f175b54f797304d323eb78d34521f1bde",
      "bb16fd9abd16e70ec9f099840a40ee57e4c7fd4b0164b3552aca2b618f9cb841"]),
    ("igbtp_z2", {"m": 9, "w": 7}, 5_000_000, 3, 6664, True,
     ["d73d1b282ccda3db52678f0c4f1f17b410beaa5304b387160e43f351039ad3ef",
      "ff20a0092786f005c35a5534a642ad07a72ba99a122eafafd521af888192838b",
      "59cdc72d0db314604aa92341fd2172b39ab67b8cc0a7f39686886f0d4735de64"]),
    ("igbtp_z2", {"m": 9, "w": 5}, 5_000_000, 2, 789, True,
     ["83bb45f4983af1a0a52bebbb82c940c3c1a2ed183774c074c96137b0f8de7503",
      "82f724e8c12ded837cbb8694d2675bc665ba705eae0e3bbbcbea9fc5c89d616a"]),
    ("igbtp_z2", {"m": 13, "w": 9}, 200_000, 2, 200001, False, []),
]

_GBTP_PINS = [
    ({"K": [3], "v": 9, "m": 3, "n": 4}, 5_000_000, 3484, True, None),
    ({"K": [3], "v": 15, "m": 5, "n": 7}, 2_000, 2001, False, None),
    ({"K": [2, 3], "v": 9, "m": 4, "n": 5, "star3": True}, 3_000_000, 21464, True,
     "68975f7c2afcf89446542320e982d5a2234bd6f059a3fd2f0cb5f4739bfc4f0f"),
    ({"K": [2, 4], "v": 8, "m": 4, "n": 6}, 5_000_000, 1208, True,
     "2ebcdf14b4d2a5141b94840a47eddfdef6d8623a8cf10e6a4ceb30e07027c4ea"),
    # at this budget both rules of the column search's `feasible` fire, the
    # coverage rule and the degree cap, and the empty-row return too
    ({"K": [2, 3], "v": 9, "m": 4, "n": 6}, 50_000, 50001, False, None),
    # exhausted in fewer nodes with the coverage rule than without it (20,903)
    ({"K": [2, 3, 4], "v": 8, "m": 3, "n": 4}, 5_000_000, 20398, True, None),
]


@pytest.mark.parametrize(
    "kind,params,budget,count,nodes,exhausted,digests", _STARTER_PINS,
    ids=["gbtd", "frgbtd", "igbtp_z2", "igbtp_z4", "gbtd-special", "igbtp_z4-m7",
         "igbtp_z2-m11-w7", "igbtp_z2-m9-w7", "igbtp_z2-m9-w5", "igbtp_z2-m13-budget"])
def test_starter_search_pinned(kind, params, budget, count, nodes, exhausted, digests):
    res = search_starter(kind, params, budget=budget, count=count)
    assert (res.nodes, res.exhausted) == (nodes, exhausted)
    assert [_sha(dumps_starter(s)) for s in res.starters] == digests


@pytest.mark.parametrize(
    "params,budget,nodes,exhausted,digest", _GBTP_PINS,
    ids=["gbtp-9", "gbtp-15", "gbtp-9-star", "gbtp-8-k24", "gbtp-9-4x6", "gbtp-8-k234"])
def test_search_gbtp_pinned(params, budget, nodes, exhausted, digest):
    res = search_gbtp(params, budget=budget)
    assert (res.nodes, res.exhausted) == (nodes, exhausted)
    assert (res.grid and _sha(dumps_grid(res.grid))) == digest
