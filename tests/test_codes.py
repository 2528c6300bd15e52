import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tforge.codes import (
    Code,
    capability,
    code_from_obj,
    code_stats,
    code_to_gbtp,
    code_to_obj,
    dumps_code,
    ec_table,
    ec_table_exhaustive,
    gbtp_to_code,
    hamming,
    is_equitable,
    loads_code,
    min_distance,
    optimality_cert_2q3,
    plotkin_check,
    symbol_weights,
    word_equitable,
)
from tforge.errors import (
    DistanceTooSmall,
    MalformedCode,
    MTooSmall,
    NotEquitable,
    NotVerified,
    SymbolOutOfRange,
    TooFewWords,
)
from tforge.starters import build_fq_gbtd_starter, develop_gbtd


def labeled_words(code):
    """Words as 1-based row numbers via the label map, keyed by point."""
    return [tuple(int(code.labels[s]) for s in w) for w in code.words]


def test_running_example_codewords(fig1):
    code = gbtp_to_code(fig1)
    assert code.q == 3 and code.n == 4 and code.size == 6
    assert labeled_words(code) == [
        (2, 1, 3, 2), (2, 2, 1, 3), (2, 3, 2, 1),
        (3, 1, 2, 3), (3, 2, 3, 1), (3, 3, 1, 2),
    ]


def test_symbol_weights_examples():
    assert symbol_weights((1, 0, 2, 1), 3) == (1, 2, 1)
    assert symbol_weights((0,) * 5, 2) == (5, 0)
    assert symbol_weights((0, 1, 2, 3, 4), 5) == (1, 1, 1, 1, 1)
    with pytest.raises(SymbolOutOfRange):
        symbol_weights((0, 5), 3)


def test_equitable_examples(fig1):
    assert is_equitable(gbtp_to_code(fig1))
    assert not word_equitable((0, 0, 0, 1), 3)
    assert word_equitable(tuple(range(6)), 6)


def test_min_distance_examples(fig1):
    assert min_distance(gbtp_to_code(fig1)) == 3
    assert min_distance(Code(2, 4, ((0, 0, 0, 0), (1, 1, 1, 1)))) == 4
    with pytest.raises(TooFewWords):
        min_distance(Code(2, 2, ((0, 1),)))


def test_capability_running_example(fig1):
    code = gbtp_to_code(fig1)
    stats = code_stats(code)
    assert stats.ec == (2, 3, 4)
    assert stats.capability == 2 == code.q - 1
    assert ec_table(code) == ec_table_exhaustive(code)


def test_capability_single_word_style():
    c = Code(2, 4, ((0, 0, 0, 0), (1, 1, 1, 1)))
    assert ec_table(c) == (4, 4)
    assert code_stats(c).capability == 1


def test_plotkin_examples():
    r = plotkin_check(10, 9, 7, 21)
    assert (r.lhs, r.rhs, r.holds, r.equality) == (1890, 1890, True, True)
    r = plotkin_check(4, 3, 3, 6)
    assert (r.lhs, r.rhs, r.holds, r.equality) == (45, 48, True, False)
    r = plotkin_check(29, 28, 16, 34)
    assert (r.lhs, r.rhs, r.holds) == (15708, 15689, False)


def test_plotkin_trivial_family_sanity():
    for q in range(2, 11):
        for n in range(q, 21):
            assert plotkin_check(n, n, q, q).holds


def test_roundtrip_running_example(fig1):
    code = gbtp_to_code(fig1)
    back = code_to_gbtp(code, fig1.k_set, fig1.lam, points=fig1.points)
    assert back.cells == fig1.cells
    assert back.rows == fig1.rows and back.cols == fig1.cols


def test_roundtrip_fig3(fig3):
    code = gbtp_to_code(fig3)
    back = code_to_gbtp(code, fig3.k_set, fig3.lam, points=fig3.points)
    assert back.cells == fig3.cells


def test_gbtd_7_code_distance():
    g = develop_gbtd(build_fq_gbtd_starter(7))
    code = gbtp_to_code(g)
    assert min_distance(code) == g.n - g.lam == 9


def test_gbtp_to_code_rejects_holes(fig7):
    with pytest.raises(NotVerified):
        gbtp_to_code(fig7)


@pytest.mark.parametrize("q,n,words,k_set,lam,exc", [
    # not equitable, and the distance and the block size are wrong too
    (2, 2, ((0, 0), (0, 1)), (3,), 0, NotEquitable),
    (2, 2, ((0, 0),), (1,), 0, NotEquitable),
    # equitable, one word
    (2, 2, ((0, 1),), (1,), 0, TooFewWords),
    # equitable, two words agreeing once with lambda 0; the block size is wrong too
    (3, 3, ((0, 1, 2), (0, 2, 1)), (3,), 0, DistanceTooSmall),
    # equitable and far enough apart, but blocks of size 1 and 2 against K = {2}
    (3, 3, ((0, 1, 2), (0, 2, 1)), (2,), 1, NotVerified),
])
def test_code_to_gbtp_names_the_first_failure(q, n, words, k_set, lam, exc):
    with pytest.raises(exc):
        code_to_gbtp(Code(q, n, words), k_set, lam)
    if exc is NotVerified:
        code_to_gbtp(Code(q, n, words), (1, 2), lam)


def test_code_to_gbtp_wants_one_distinct_point_per_word():
    c = Code(3, 3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    for points in (("a", "a", "b"), ("a", "b")):
        with pytest.raises(ValueError, match="one distinct point per word"):
            code_to_gbtp(c, (1,), 0, points=points)


def test_optimality_cert_values():
    cert = optimality_cert_2q3(7)
    assert (cert.lhs, cert.rhs, cert.violated) == (1200, 1199, True)
    cert = optimality_cert_2q3(16)
    assert (cert.lhs, cert.rhs, cert.violated) == (15708, 15689, True)
    with pytest.raises(MTooSmall):
        optimality_cert_2q3(6)


def random_code(rng, q, n, m):
    words = set()
    tries = 0
    while len(words) < m and tries < 200:
        words.add(tuple(rng.randrange(q) for _ in range(n)))
        tries += 1
    return Code(q, n, tuple(sorted(words)))


def test_ec_shortcut_matches_exhaustive_oracle():
    rng = random.Random(11)
    for _ in range(100):
        q = rng.randrange(2, 9)
        n = rng.randrange(2, 9)
        c = random_code(rng, q, n, rng.randrange(2, 7))
        assert ec_table(c) == ec_table_exhaustive(c)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(2, 8), st.integers(0, 10 ** 6))
def test_ec_table_monotone_and_ends_at_n(q, n, seed):
    rng = random.Random(seed)
    c = random_code(rng, q, n, 3)
    table = ec_table(c)
    assert all(a <= b for a, b in zip(table, table[1:]))
    assert table[-1] == n


def test_code_file_roundtrip(fig1):
    code = gbtp_to_code(fig1)
    text = dumps_code(code)
    again = loads_code(text)
    assert code_to_obj(again) == code_to_obj(code)
    assert sorted(again.words) == sorted(code.words)


def test_code_loader_names_missing_keys():
    with pytest.raises(MalformedCode, match="'words'"):
        code_from_obj({"q": 3, "n": 4})


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.integers(1, 8), st.data())
def test_min_distance_matches_pairwise_hamming(q, n, data):
    words = data.draw(st.sets(st.tuples(*[st.integers(0, q - 1)] * n), min_size=2, max_size=12))
    c = Code(q, n, tuple(sorted(words)))
    want = min(hamming(u, v) for u, v in itertools.combinations(c.words, 2))
    assert min_distance(c) == want
    assert capability(c) == capability(c, want)


def test_min_distance_when_no_pair_agrees():
    c = Code(4, 3, ((0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)))
    assert min_distance(c) == c.n == 3
    assert capability(c) == (ec_table(c), 3)
    with pytest.raises(TooFewWords):
        min_distance(Code(4, 3, ((0, 1, 2),)))


@st.composite
def equitable_codes(draw):
    """Distinct equitable words: with n = aq + r, each word gives r symbols
    weight a+1 and the others weight a, in any order (n < q and q | n included)."""
    q, n = draw(st.integers(2, 6)), draw(st.integers(1, 13))
    a, r = divmod(n, q)
    word = st.permutations(range(q)).flatmap(  # the first r symbols get weight a+1
        lambda heavy: st.permutations([s for i, s in enumerate(heavy)
                                       for _ in range(a + (i < r))])).map(tuple)
    words = draw(st.lists(word, min_size=2, max_size=6, unique=True))
    return Code(q, n, tuple(sorted(words)))


@settings(max_examples=150, deadline=None)
@given(equitable_codes())
def test_equitable_ec_table_is_closed_form(c):
    assert is_equitable(c)
    a, r = divmod(c.n, c.q)
    closed = tuple(e * (a + 1) if e <= r else r * (a + 1) + (e - r) * a
                   for e in range(1, c.q + 1))
    assert ec_table(c) == ec_table_exhaustive(c) == closed
    assert code_stats(c).ec == closed
