"""`max_eswc` against pinned results and against tests/oracle_eswc.py.

The pins fix the size, node count, exactness and output bytes of eight
searches, so a change to the search's set-up or bound that leaves its tree
alone leaves them all as they are.  The differential tests compare the
search's pieces with references that share no logic with them.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_eswc as oracle
from tforge.codes import dumps_code
from tforge.search import _adjacency, _colour_bound, equitable_words, max_eswc, plotkin_cap

PINS = [
    ((3, 2, 2), 5_000_000, 3, 3, True,
     "2c0eb33a9fac8478b74dfbdb251c70a17526660befe4143e4bb34a1cef61f652"),
    ((5, 3, 2), 5_000_000, 4, 11, True,
     "69dc11e63994a319e9aa6bca8776e1ed2e5ee7d147ed919aba3eab170f8a635d"),
    ((7, 4, 2), 5_000_000, 7, 49, True,
     "74b57e98810247a58ea8fd070ff84726090c282e4d44af28d8d16104ae828040"),
    ((3, 2, 3), 5_000_000, 6, 6, True,
     "daac08822012db932ae95b72c6ae88a979dd593f4572822fd6319da60396f0d2"),
    ((4, 3, 3), 5_000_000, 6, 33, True,
     "1d2febef45c04905e8800239c99d7f0ed32143a1f23c5d4c92608637220c793d"),
    ((5, 4, 4), 5_000_000, 12, 4_321, True,
     "a64971c1b580203a1665dde96c7a0848c2b739427324841b08dc3b991b0dc60f"),
    ((6, 5, 5), 50_000, 14, 50_001, False,
     "f58499caa6b645ddbdb8f9d754231c777590a4ddbd21675d44a0637acb111869"),
    ((7, 6, 5), 20_000, 12, 20_001, False,
     "f524371ebab86f3e7e5a7c96290129d27bdc561edc798138b61309fec79d9f97"),
]


@pytest.mark.parametrize("args,budget,M,nodes,exact,sha", PINS,
                         ids=["%d-%d-%d" % p[0] for p in PINS])
def test_max_eswc_pinned(args, budget, M, nodes, exact, sha):
    res = max_eswc(*args, budget=budget)
    got = hashlib.sha256(dumps_code(res.code).encode("utf-8")).hexdigest()
    assert (res.M, res.nodes, res.exact, got) == (M, nodes, exact, sha)


@st.composite
def word_lists(draw):
    n = draw(st.integers(1, 8))
    q = draw(st.integers(2, 6))
    words = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), min_size=1,
                          max_size=40, unique=True))
    return n, words


@settings(max_examples=200, deadline=None)
@given(word_lists(), st.data())
def test_adjacency_matches_pairwise_hamming(nw, data):
    n, words = nw
    d = data.draw(st.integers(1, n))
    assert _adjacency(words, d) == oracle.adjacency(words, d)


@st.composite
def graphs(draw):
    nv = draw(st.integers(1, 40))
    edges = draw(st.sets(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
                         .filter(lambda e: e[0] != e[1]), max_size=nv * nv // 2))
    adj = [0] * nv
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_colour_bound_matches_first_fit(adj, data):
    nv = len(adj)
    full = (1 << nv) - 1
    mask = data.draw(st.integers(0, full))
    apart = [full ^ a ^ 1 << v for v, a in enumerate(adj)]
    assert _colour_bound(mask, apart) == oracle.first_fit_colours(adj, mask)


@pytest.mark.parametrize("n", range(1, 8))
def test_equitable_words_match_filter(n):
    for q in range(1, 7):
        if q ** n <= 100_000:
            assert list(equitable_words(n, q)) == oracle.equitable_words(n, q)


def test_plotkin_cap_matches_check_loop():
    # for n <= 12 and q <= 8 every cap the bound gives is at most 64, so
    # that limit loses no case; where the bound never binds both return the
    # limit, and the cap's early stop at nq/(4d) must not change that
    for n in range(1, 13):
        for q in range(1, 9):
            for d in range(1, n + 1):
                for limit in (3, 40, 2_000):
                    want = oracle.plotkin_cap(n, d, q, limit=limit)
                    assert plotkin_cap(n, d, q, limit=limit) == want, (n, d, q, limit)

