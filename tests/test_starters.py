from collections import Counter

import pytest

from tforge.algebra import block, cyclic, difference_list, fpoint, gf_build
from tforge.codes import code_stats, gbtp_to_code
from tforge.designs import verify_auto, verify_coloring, verify_igbtp
from tforge.errors import NotOneMod6, NotPrimePower, StarterInvalid
from tforge.starters import (
    GbtdStarter,
    build_fq_gbtd_starter,
    build_frgbtd_6_8,
    build_igbtp_33,
    develop_gbtd,
    develop_starter,
    dumps_starter,
    frgbtd_6_8_base_blocks,
    loads_starter,
    starter_to_obj,
    verify_starter,
)


def test_q7_starter_internals():
    fld = gf_build(7, 1)
    s = (7 - 1) // 6
    assert s == 1 and fld.omega == (3,)
    cube = [fld.pow(fld.omega, 2 * j * s) for j in range(3)]
    forbidden = {fld.zero()} | {fld.neg(u) for u in cube}
    assert forbidden == {(0,), (6,), (5,), (3,)}
    st = build_fq_gbtd_starter(7)
    # gamma = least element outside the forbidden set
    assert st.blocks_a[(0,)] == block([fpoint(0, c) for c in range(3)])
    lam_blocks = [a for a, col in st.colors_a.items() if col == 1]
    assert sorted(lam_blocks) == [(3,), (5,), (6,)]


def test_q7_starter_verifies_all_conditions():
    st = build_fq_gbtd_starter(7)
    rep = verify_starter(st)
    assert rep.ok
    ids = {c.cid for c in rep.conditions}
    assert {"pure-diffs-0", "mixed-diffs-01", "a-cover", "b-transversal",
            "row-multiset", "special-a0-once", "color-disjoint",
            "color-witness"} <= ids


def test_q7_pure_differences_cover_nonzero():
    st = build_fq_gbtd_starter(7)
    blocks = list(st.blocks_a.values()) + list(st.blocks_b)
    d = difference_list(blocks, st.group, ("pure", 0))
    assert d == Counter({(x,): 1 for x in range(1, 7)})


def test_q13_starter_builds_and_verifies():
    st = build_fq_gbtd_starter(13)
    assert verify_starter(st).ok


def test_fq_starter_rejects_bad_q():
    with pytest.raises(NotOneMod6):
        build_fq_gbtd_starter(11)
    with pytest.raises(NotPrimePower):
        build_fq_gbtd_starter(55)


def test_develop_q7():
    g = develop_gbtd(build_fq_gbtd_starter(7))
    assert (g.m, g.n) == (7, 10)
    assert verify_auto(g).ok
    assert verify_coloring(g, 3, want_pi=True).ok
    stats = code_stats(gbtp_to_code(g))
    assert stats.d == 9 and stats.plotkin.equality


def test_develop_trivial_m1():
    group = cyclic(1)
    st = GbtdStarter(group, {(0,): block(fpoint(0, c) for c in range(3))}, (),
                     special=True)
    assert verify_starter(st).ok
    g = develop_gbtd(st)
    assert (g.m, g.n, g.v) == (1, 1, 3)
    assert verify_auto(g).ok


def test_develop_rejects_broken_starter():
    st = build_fq_gbtd_starter(7)
    g = st.group
    bad_blocks = dict(st.blocks_a)
    bad_blocks[(1,)] = bad_blocks[(0,)]
    bad = GbtdStarter(g, bad_blocks, st.blocks_b)
    with pytest.raises(StarterInvalid):
        develop_gbtd(bad)


def test_frgbtd_6_8_base_differences():
    g48 = cyclic(48)
    d = difference_list(frgbtd_6_8_base_blocks(), g48)
    assert d == Counter({(x,): 1 for x in range(48) if x % 8 != 0})


def test_frgbtd_6_8_grid():
    g = build_frgbtd_6_8()
    assert verify_auto(g).ok
    assert len(g.groups) == 8 and all(len(grp) == 6 for grp in g.groups)
    assert (g.m, g.n) == (16, 24)


def test_igbtp_33_grid():
    g = build_igbtp_33()
    rep = verify_igbtp(g)
    assert rep.ok
    assert g.v == 33
    w, p_rows, q_cols = g.hole
    assert len(w) == 9 and len(p_rows) == 4 and len(q_cols) == 5
    for r in p_rows:
        for c in q_cols:
            assert (r, c) not in g.cells
    for c in g.cols:
        if c in q_cols:
            continue
        assert sum(1 for b in g.col_blocks(c) if len(b) == 3) == 1


def test_starter_file_roundtrip():
    st = build_fq_gbtd_starter(7)
    again = loads_starter(dumps_starter(st))
    assert starter_to_obj(again) == starter_to_obj(st)
    assert verify_starter(again).ok


def test_fq_starter_idempotent():
    a = build_fq_gbtd_starter(13)
    b = build_fq_gbtd_starter(13)
    assert starter_to_obj(a) == starter_to_obj(b)


def test_frgbtd_row_multiset_identity(frgbtd_t5):
    st = frgbtd_t5.starters[0]
    g = develop_starter(st)
    t = st.t
    for j in (0, 1):
        row = "0:%d" % j
        actual = Counter(p for b in g.row_blocks(row) for p in b)
        rj = Counter()
        for i in range(1, t):
            for p in st.blocks[(i, j)]:
                rj[((p[1][0] - i) % t, p[2])] += 1
        expected = Counter()
        for (res, c), k in rj.items():
            for u in range(3):
                expected[fpoint((res + u * t) % (3 * t), c)] += k
        assert actual == expected
