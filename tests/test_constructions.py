import pytest

from tforge.algebra import ipoint
from tforge.constructions import (
    _grid_is_star_partial,
    build_td,
    drtd_from_td,
    fill_hole,
    frame_fill,
    fundamental,
    inflate,
    make_w_block,
    run_recipe,
    tripling,
    truncate_td,
    truncate_td_block,
)
from tforge.designs import (
    DesignGrid,
    demote_special,
    promote_coloring,
    verify_auto,
    verify_coloring,
    verify_drtd,
    verify_gdd,
    verify_td,
)
from tforge.errors import ColorMissing, HoleMismatch, KeepOutOfRange, KTooLarge, WMismatch
from tforge.starters import build_frgbtd_6_8


def test_build_td_5_4():
    td = build_td(5, 4)
    assert len(td.cells) == 16
    assert verify_td(td).ok


def test_build_td_5_9():
    assert verify_td(build_td(5, 9)).ok


def test_build_td_rejects_k_too_large():
    with pytest.raises(KTooLarge):
        build_td(6, 4)


def test_drtd_3_4():
    d = drtd_from_td(build_td(5, 4))
    assert (d.m, d.n) == (4, 4)
    assert verify_drtd(d).ok


def test_special_reverse_roundtrip(fig3):
    ig = demote_special(fig3)
    w = ig.hole[0]
    refilled = fill_hole(ig, make_w_block(w))
    assert refilled.cells == fig3.cells
    assert refilled.kind == "GBTD" and refilled.special == fig3.special
    assert verify_auto(refilled).ok


def test_fill_hole_rejects_mismatch(fig7):
    with pytest.raises(HoleMismatch):
        fill_hole(fig7, make_w_block(tuple(ipoint(i) for i in range(3))))


def test_inflate_fig8(fig8):
    frame = inflate(fig8, drtd_from_td(build_td(5, 4)))
    assert frame.v == 144
    assert all(len(grp) == 24 for grp in frame.groups)
    assert verify_auto(frame).ok


def test_frame_fill_without_final_keeps_the_hole(fig8, fig3):
    frame = inflate(fig8, drtd_from_td(build_td(5, 4)))
    out = frame_fill(frame, [fig3] * 6, final=None)
    assert out.kind == "IGBTP" and len(out.hole[0]) == 3
    assert verify_auto(out).ok
    # every block is a triple, so no column is a star's pairs and one triple
    assert out.k_set == (3,) and not out.star


def test_star_partial_answers_star():
    # pairs and triples mixed, one triple in each column outside the 1x1 hole
    pts = tuple(ipoint(i) for i in range(1, 8))
    cells = {("1", "1"): (pts[0], pts[1], pts[2]), ("2", "1"): (pts[3], pts[4]),
             ("1", "2"): (pts[3], pts[5]), ("2", "2"): (pts[0], pts[4], pts[6])}
    g = DesignGrid("IGBTP", 1, (2, 3), pts, ("1", "2", "3"), ("1", "2", "3"), cells,
                   hole=((pts[5], pts[6]), ("3",), ("3",)))
    assert _grid_is_star_partial(g.cells, g.cols, g.hole[2])
    assert not _grid_is_star_partial(g.cells, g.cols, ())  # column 3 has no triple
    del cells[("2", "2")]
    assert not _grid_is_star_partial(cells, g.cols, g.hole[2])  # nor does column 2 now


def test_frame_fill_group_count_check(fig8, fig3):
    with pytest.raises(WMismatch):
        frame_fill(build_frgbtd_6_8(), [fig3] * 8)


def test_tripling_requires_colors(fig3):
    plain = demote_special(fig3)  # wrong shape and no coloring
    uncolored = fig3
    uncolored = type(fig3)(fig3.kind, fig3.lam, fig3.k_set, fig3.points,
                           fig3.rows, fig3.cols, dict(fig3.cells), None)
    with pytest.raises(ColorMissing):
        tripling(uncolored, drtd_from_td(build_td(5, 27)))


def test_truncate_full_deletion():
    gdd = truncate_td(build_td(6, 5), [0])
    assert len(gdd.groups) == 5
    assert gdd.k_set == (5,)
    assert verify_gdd(gdd).ok


def test_truncate_identity():
    gdd = truncate_td(build_td(6, 5), [5])
    assert len(gdd.groups) == 6 and gdd.k_set == (6,)
    assert verify_gdd(gdd).ok


def test_truncate_out_of_range():
    with pytest.raises(KeepOutOfRange):
        truncate_td(build_td(5, 4), [9])


def test_truncate_block_deletion():
    gdd = truncate_td_block(build_td(5, 11), drop=4)
    sizes = sorted(len(grp) for grp in gdd.groups)
    assert sizes == [10, 10, 10, 10, 11]
    assert set(gdd.k_set) == {4, 5}
    assert verify_gdd(gdd).ok


def test_fundamental_uniform_weight(fig8):
    master = truncate_td(build_td(6, 5), [5])
    weights = {p: 6 for p in master.points}
    out = fundamental(master, weights, lambda t: fig8 if t == (6,) * 6 else None)
    assert sorted(len(grp) for grp in out.groups) == [30] * 6
    assert verify_auto(out).ok


def test_fundamental_zero_weight(fig8):
    master = truncate_td(build_td(6, 5), [5])
    weights = {p: 6 for p in master.points}
    dead = sorted(master.groups[0])[0]
    weights[dead] = 0

    def provider(t):
        if t == (6,) * 6:
            return fig8
        return None

    # blocks through the zero-weight point need a type-6^5 frame; skip unless
    # one is supplied -- here we only check the group bookkeeping via a master
    # whose blocks avoid the dead point
    survivors = {p for p in master.points if p != dead}
    blocks = [b for b in master.blocks() if dead not in b]
    from tforge.designs import DesignGrid
    cols = tuple(str(i + 1) for i in range(len(blocks)))
    sub = DesignGrid("GDD", 1, (6,), tuple(sorted(survivors)), ("1",), cols,
                     {("1", c): b for c, b in zip(cols, blocks)},
                     groups=tuple(tuple(sorted(set(g) - {dead})) for g in master.groups))
    out = fundamental(sub, weights, provider)
    assert all(dead not in grp for grp in out.groups)


def test_fundamental_pbd_closure(frgbtd_t5):
    # master: a 25-point pairwise balanced design (transversal blocks plus
    # the groups themselves), viewed as a GDD with singleton groups
    from tforge.designs import DesignGrid
    from tforge.starters import develop_starter

    td = build_td(5, 5)
    blocks = td.blocks() + [tuple(sorted(grp)) for grp in td.groups]
    cols = tuple(str(i + 1) for i in range(len(blocks)))
    master = DesignGrid("GDD", 1, (5,), td.points, ("1",), cols,
                        {("1", c): b for c, b in zip(cols, blocks)},
                        groups=tuple((p,) for p in td.points))
    assert verify_gdd(master).ok

    frame5 = develop_starter(frgbtd_t5.starters[0])
    out = fundamental(master, {p: 6 for p in master.points},
                      lambda t: frame5 if t == (6,) * 5 else None)
    assert sorted(len(grp) for grp in out.groups) == [6] * 25
    assert verify_auto(out).ok


def test_run_recipe_unknown_op():
    with pytest.raises(ValueError, match="unknown recipe op 'nope'"):
        run_recipe({"steps": [{"op": "nope"}]}, ".", None, verbose=lambda _line: None)
