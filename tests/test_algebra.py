from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tforge.algebra import (
    AbelianGroup,
    CapExceeded,
    _poly_mulmod,
    block,
    cyclic,
    difference_list,
    factor_prime_power,
    format_point,
    fpoint,
    gf_build,
    ipoint,
    parse_point,
    translate_block,
)
from tforge.errors import DegreeZero, GroupMismatch, NotPrime


def brute_multiplicative_order(fld, x):
    k, acc = 1, x
    while acc != fld.one():
        acc = fld.mul(acc, x)
        k += 1
        assert k <= fld.q
    return k


def test_gf7_primitive_element_matches_exhaustive_order_check():
    fld = gf_build(7, 1)
    # oracle: scan candidates in canonical order for full multiplicative order
    expected = None
    for n in range(1, 7):
        if brute_multiplicative_order(fld, (n,)) == 6:
            expected = (n,)
            break
    assert expected == (3,)
    assert fld.omega == expected


def test_gf4_modulus_is_unique_irreducible_quadratic():
    fld = gf_build(2, 2)
    assert fld.modulus == (1, 1, 1)
    assert brute_multiplicative_order(fld, fld.omega) == 3


def test_gf_build_rejects_bad_input():
    with pytest.raises(NotPrime):
        gf_build(4, 1)
    with pytest.raises(DegreeZero):
        gf_build(7, 0)
    with pytest.raises(CapExceeded):
        gf_build(2, 25)


def test_gf_build_deterministic():
    a, b = gf_build(5, 2), gf_build(5, 2)
    assert a.modulus == b.modulus and a.omega == b.omega


def test_translate_componentwise():
    g = AbelianGroup((5, 2))
    b = block([fpoint((0, 0)), fpoint((0, 1))])
    assert translate_block(b, (1, 0), g) == block([fpoint((1, 0)), fpoint((1, 1))])


def test_translate_fixes_infinite_points():
    g = AbelianGroup((3, 8))
    b = block([fpoint((2, 7)), ipoint(7)])
    out = translate_block(b, (1, 0), g)
    assert out == block([fpoint((0, 7)), ipoint(7)])


def test_translate_identity():
    g = cyclic(9)
    b = block([fpoint(4, 1)])
    assert translate_block(b, (0,), g) == b


def test_plain_difference_list_covers_z7():
    g = cyclic(7)
    d = difference_list([block([fpoint(1), fpoint(2), fpoint(4)])], g)
    assert d == Counter({(x,): 1 for x in range(1, 7)})


def test_difference_list_singleton_empty():
    g = cyclic(7)
    assert difference_list([block([fpoint(3)])], g) == Counter()


elem_st = st.tuples(st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=60, deadline=None)
@given(st.lists(elem_st, min_size=1, max_size=4, unique=True), elem_st, elem_st)
def test_translation_is_a_group_action(base, g1, g2):
    g = AbelianGroup((7, 7))
    b = block(fpoint(e) for e in base)
    assert translate_block(translate_block(b, g1, g), g2, g) == \
        translate_block(b, g.add(g1, g2), g)
    assert translate_block(b, g.zero(), g) == b


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(elem_st, min_size=2, max_size=3, unique=True),
                min_size=1, max_size=3), elem_st)
def test_difference_list_translation_invariant(blockspecs, gamma):
    g = AbelianGroup((7, 7))
    blocks = [block(fpoint(e) for e in bs) for bs in blockspecs]
    moved = [translate_block(b, gamma, g) for b in blocks]
    assert difference_list(blocks, g) == difference_list(moved, g)


copy_pt_st = st.tuples(st.integers(0, 13), st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(copy_pt_st, min_size=1, max_size=4, unique=True),
                min_size=1, max_size=3),
       st.sampled_from([("pure", 0), ("pure", 2), ("mixed", 0, 1), ("mixed", 2, 0)]))
def test_indexed_difference_list_checks_each_paired_point_once(blockspecs, mode):
    i, j = mode[1], mode[-1]
    want, paired = Counter(), 0
    for bs in blockspecs:
        pairs = [(p, q) for p in bs for q in bs if p != q and (p[1], q[1]) == (i, j)]
        want.update(((p[0] - q[0]) % 7,) for p, q in pairs)
        paired += len({p for pair in pairs for p in pair})
    calls = []
    check = AbelianGroup.check
    blocks = [block([fpoint(x, c) for x, c in bs] + [ipoint(1)]) for bs in blockspecs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AbelianGroup, "check", lambda self, x: calls.append(x) or check(self, x))
        assert difference_list(blocks, cyclic(7), mode) == want
    assert len(calls) == paired


def test_indexed_difference_list_rejects_wrong_arity():
    b = block([fpoint(1, 0), fpoint(2, 1), fpoint((1, 2), 1)])
    for mode in (("pure", 1), ("mixed", 0, 1), ("mixed", 1, 0)):
        with pytest.raises(GroupMismatch):
            difference_list([b], cyclic(7), mode)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]))
def test_omega_has_full_order(pe):
    fld = gf_build(*pe)
    order = brute_multiplicative_order(fld, fld.omega)
    assert order == fld.q - 1
    for d in range(1, order):
        if order % d == 0 and d < order:
            assert fld.pow(fld.omega, d) != fld.one() or d == order


point_st = st.one_of(
    st.builds(fpoint, st.lists(st.integers(0, 40), min_size=1, max_size=3).map(tuple),
              st.integers(-1, 5)),
    st.builds(ipoint, st.integers(0, 30)),
)


@settings(max_examples=100, deadline=None)
@given(point_st)
def test_label_grammar_roundtrip(p):
    assert parse_point(format_point(p)) == p


def test_label_examples():
    assert format_point(fpoint(3, 1)) == "3_1"
    assert parse_point("2.7") == fpoint((2, 7))
    assert parse_point("inf4") == ipoint(4)


@pytest.mark.parametrize("q", (4, 7, 8, 9, 25, 27, 49))
def test_field_arithmetic_matches_polynomial_path(q):
    # the polynomial product mod the modulus is the definition
    p, e = factor_prime_power(q)
    fld = gf_build(p, e)

    def mul(x, y):
        r = _poly_mulmod(x, y, fld.modulus, p)
        return (0,) * (e - len(r)) + r

    elems = fld.elements()
    for x in elems:
        assert [fld.mul(x, y) for y in elems] == [mul(x, y) for y in elems]
        acc = fld.one()
        for n in range(2 * q):
            assert fld.pow(x, n) == acc, (x, n)
            acc = mul(acc, x)
        if x != fld.zero():
            assert mul(x, fld.inv(x)) == fld.one()
    with pytest.raises(ZeroDivisionError):
        fld.inv(fld.zero())
