import copy
import dataclasses
import random

import pytest

from tforge.algebra import block, fpoint, ipoint, parse_point
from tforge.designs import (
    DesignGrid,
    demote_special,
    dumps_grid,
    grid_from_obj,
    grid_to_obj,
    loads_grid,
    pi_witness_row,
    promote_coloring,
    verify_auto,
    verify_coloring,
    verify_gbtd,
    verify_gbtp,
    verify_igbtp,
    verify_packing,
    verify_rbibd,
    verify_frgbtd,
    verify_special,
)
from tforge.errors import BadKind, BadParameters, MalformedGrid, MissingColoring, NoSingletonPoint


def test_fixture_verifications(fig1, fig2, fig3, fig7, fig8):
    assert verify_gbtp(fig1).ok
    assert verify_rbibd(fig2).ok
    assert verify_gbtd(fig3).ok
    assert verify_igbtp(fig7).ok
    assert verify_frgbtd(fig8).ok


def test_fig1_mutation_fails_with_pair_witness(fig1):
    cells = dict(fig1.cells)
    assert cells[("1", "4")] == block([fpoint(3), fpoint(5)])
    cells[("1", "4")] = block([fpoint(3), fpoint(6)])
    g = DesignGrid("GBTP", 1, fig1.k_set, fig1.points, fig1.rows, fig1.cols, cells)
    rep = verify_gbtp(g)
    assert not rep.ok
    packing = next(c for c in rep.conditions if c.cid == "pair-at-most-lambda")
    assert not packing.ok
    assert any("{3,6}" in w for w in packing.witnesses)
    cols = next(c for c in rep.conditions if c.cid == "column-partition")
    assert not cols.ok


def test_fig1_column_swap_fails_column_condition(fig1):
    cells = dict(fig1.cells)
    cells[("1", "2")], cells[("1", "3")] = cells[("1", "3")], cells[("1", "2")]
    g = DesignGrid("GBTP", 1, fig1.k_set, fig1.points, fig1.rows, fig1.cols, cells)
    rep = verify_gbtp(g)
    cols = next(c for c in rep.conditions if c.cid == "column-partition")
    assert not cols.ok


def test_fig1_is_not_a_gbtd(fig1):
    with pytest.raises(BadParameters):
        verify_gbtd(fig1)


def test_gbtp_implies_packing(fig1, fig3):
    for g in (fig1, fig3):
        gb = verify_gbtp(g)
        pk = verify_packing(g)
        assert gb.ok and pk.ok
        covered = {c.cid for c in gb.conditions}
        assert {c.cid for c in pk.conditions} <= covered


def test_fig3_column_count_arithmetic(fig3):
    k = fig3.k_set[0]
    assert fig3.n * (k - 1) == fig3.lam * (k * fig3.m - 1)


def test_fig2_coloring_and_witnesses(fig2):
    assert verify_coloring(fig2, 3, want_pi=True).ok
    row, wits = pi_witness_row(fig2, 3)
    assert row == fig2.rows[0]
    # the stated witnesses are valid: 1_0 avoids color 0, the infinite point
    # avoids colors 1 and 2 in the first row
    cov = {c: set() for c in range(3)}
    for rc, b in fig2.row_cells(row):
        cov[fig2.colors[rc]].update(b)
    assert fpoint(1, 0) not in cov[0]
    assert ipoint(0) not in cov[1] and ipoint(0) not in cov[2]


def test_fig2_same_color_intersecting_blocks_fail(fig2):
    colors = dict(fig2.colors)
    row = fig2.rows[0]
    cells_in_row = fig2.row_cells(row)
    # force two intersecting blocks in row 1 to share a color
    a, b = next(((rc1, rc2)
                 for rc1, b1 in cells_in_row for rc2, b2 in cells_in_row
                 if rc1 < rc2 and set(b1) & set(b2)))
    colors[b] = colors[a]
    g = DesignGrid(fig2.kind, fig2.lam, fig2.k_set, fig2.points, fig2.rows,
                   fig2.cols, dict(fig2.cells), colors)
    rep = verify_coloring(g, 3)
    assert not rep.ok


def test_fig3_coloring_two_colors(fig3):
    assert verify_coloring(fig3, 2).ok


def test_fig7_forced_w_pair_fails(fig7):
    w_pts = fig7.hole[0]
    cells = dict(fig7.cells)
    target = next(rc for rc, b in cells.items() if sum(1 for p in b if p[0] == 1) == 1)
    b = cells[target]
    other_inf = next(p for p in w_pts if p not in b)
    fin = next(p for p in b if p[0] == 0)
    cells[target] = block([p for p in b if p != fin] + [other_inf])
    g = DesignGrid(fig7.kind, fig7.lam, fig7.k_set, fig7.points, fig7.rows,
                   fig7.cols, cells, hole=fig7.hole, star=fig7.star)
    rep = verify_igbtp(g)
    wp = next(c for c in rep.conditions if c.cid == "w-pairs-uncovered")
    assert not wp.ok


def test_fig8_block_deletion_fails_column(fig8):
    cells = dict(fig8.cells)
    del cells[next(iter(sorted(cells)))]
    g = DesignGrid(fig8.kind, fig8.lam, fig8.k_set, fig8.points, fig8.rows,
                   fig8.cols, cells, groups=fig8.groups,
                   row_group_index=fig8.row_group_index,
                   col_group_index=fig8.col_group_index)
    rep = verify_frgbtd(g)
    col = next(c for c in rep.conditions if c.cid == "frame-column")
    assert not col.ok


def test_fig3_special_demotes_to_igbtp(fig3):
    ig = demote_special(fig3)
    assert ig.kind == "IGBTP"
    assert verify_igbtp(ig).ok
    assert len(ig.hole[0]) == 3


def test_special_check_leaves_the_grid_counts(fig3):
    # the demoted grid's counts are derived from fig3's, which stay as they were
    inc = fig3.incidence
    before = copy.deepcopy((inc.W, inc.rowf, inc.colf, inc.pairs, inc.sizes))
    assert verify_special(fig3).ok
    assert fig3.incidence is inc
    assert (inc.W, inc.rowf, inc.colf, inc.pairs, inc.sizes) == before


def test_unknown_kind_raises(fig1):
    with pytest.raises(BadKind, match="'Nonsense'"):
        verify_auto(dataclasses.replace(fig1, kind="Nonsense"))


def test_mutation_fuzz_fig3(fig3):
    rng = random.Random(7)
    cells = fig3.sorted_cells()
    failures = 0
    for _ in range(100):
        (r, c), b = cells[rng.randrange(len(cells))]
        old = rng.choice(list(b))
        new = rng.choice(fig3.points)
        if new in b:
            continue
        mutated = dict(fig3.cells)
        mutated[(r, c)] = block([p for p in b if p != old] + [new])
        g = DesignGrid("GBTD", 1, fig3.k_set, fig3.points, fig3.rows, fig3.cols,
                       mutated)
        if not verify_gbtd(g).ok:
            failures += 1
        else:
            pytest.fail("single-point mutation went undetected")
    assert failures > 0


def test_promote_coloring_fig3(fig3):
    promoted = promote_coloring(fig3)
    assert verify_coloring(promoted, 3, want_pi=True).ok
    changed = [rc for rc in fig3.colors if fig3.colors[rc] != promoted.colors[rc]]
    assert len(changed) == 1 and changed[0][0] == fig3.rows[0]
    with pytest.raises(BadParameters):
        promote_coloring(promoted)


def test_promote_requires_coloring(fig7):
    with pytest.raises(MissingColoring):
        promote_coloring(fig7)


def test_file_roundtrip_and_canonical(fig1, fig3, fig7, fig8):
    for g in (fig1, fig3, fig7, fig8):
        text = dumps_grid(g)
        again = loads_grid(text)
        assert grid_to_obj(again) == grid_to_obj(g)
        assert dumps_grid(again) == text


def test_grid_obj_cells_sorted(fig3):
    obj = grid_to_obj(fig3)
    seen = [(obj["rows"].index(e["r"]), obj["cols"].index(e["c"]))
            for e in obj["cells"]]
    assert seen == sorted(seen)
    for e in obj["cells"]:
        pts = [parse_point(s) for s in e["block"]]
        assert pts == sorted(pts)


def test_loader_rejects_what_the_grid_cannot_hold(fig3):
    good = grid_to_obj(fig3)
    first = good["cells"][0]
    with pytest.raises(MalformedGrid, match="'cells'"):
        grid_from_obj({})
    with pytest.raises(MalformedGrid, match="not a JSON object"):
        grid_from_obj([])
    bad = dict(good, cells=[{"r": first["r"], "c": first["c"], "block": ["0_0"]}] + good["cells"])
    with pytest.raises(MalformedGrid, match=r"cell entry 1: cell \(%s,%s\) is listed twice"
                       % (first["r"], first["c"])):
        grid_from_obj(bad)
    with pytest.raises(MalformedGrid, match="cell entry 0: row zz is not in rows"):
        grid_from_obj(dict(good, cells=[dict(first, r="zz")] + good["cells"][1:]))
    with pytest.raises(MalformedGrid, match="cell entry 0: column zz is not in cols"):
        grid_from_obj(dict(good, cells=[dict(first, c="zz")] + good["cells"][1:]))
    with pytest.raises(MalformedGrid, match="cell entry 0 has no 'block'"):
        grid_from_obj(dict(good, cells=[{"r": first["r"], "c": first["c"]}]))
    with pytest.raises(MalformedGrid, match="rows lists"):
        grid_from_obj(dict(good, rows=good["rows"] + good["rows"][:1]))
    with pytest.raises(MalformedGrid, match="points lists"):
        grid_from_obj(dict(good, points=good["points"] + good["points"][:1]))


def test_loader_names_the_first_repeated_label_by_first_place(fig1):
    # "a" is listed first, so it is named, though "b" repeats sooner
    obj = dict(grid_to_obj(fig1), cols=["a", "b", "b", "a"], cells=[])
    with pytest.raises(MalformedGrid, match="^cols lists a twice$"):
        grid_from_obj(obj)
    with pytest.raises(MalformedGrid, match="^cols lists 1 and true, which compare equal$"):
        grid_from_obj(dict(obj, cols=["b", 1, "c", True]))


def test_stray_point_is_refused_by_the_loader(fig3):
    # a point in a cell but not in points has no code word: the grid is malformed
    obj = grid_to_obj(fig3)
    obj["cells"][1]["block"][0] = "99"
    with pytest.raises(MalformedGrid, match="^cell entry 1: point 99 is not in points$"):
        grid_from_obj(obj)


def test_stray_point_is_refused_by_the_incidence(fig3):
    rc = sorted(fig3.cells)[1]
    stray = block([fpoint(99), *fig3.cells[rc][1:]])
    g = dataclasses.replace(fig3, cells={**fig3.cells, rc: stray})
    msg = r"^cell \(%s,%s\): point 99 is not in points$" % rc
    with pytest.raises(MalformedGrid, match=msg):
        g.incidence
    with pytest.raises(MalformedGrid, match=msg):
        verify_auto(g)


def test_incidence_counts_each_listed_point_once(fig1):
    # v is the length of the point list, so a point listed twice is refused
    assert fig1.incidence.v == fig1.v
    twice = dataclasses.replace(fig1, points=fig1.points + fig1.points[:1])
    with pytest.raises(MalformedGrid, match="^points lists 1 twice$"):
        twice.incidence
