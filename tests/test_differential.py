"""The program against its test oracles.

Every base array and every mutant must give a byte-identical ``describe()``
(or raise the same error) under tforge.designs and tests/oracle_verify.py,
and every fq, found and mutant starter under tforge.starters and
tests/oracle_starters.py; each such starter that verifies must develop, by
the reference develop, into an array that verifies.  The colour checks and
promote_coloring must agree with the oracle's on coloured arrays and their
mutants.  An Incidence must hold the counts and per-row cells of a plain
per-cell recount.  The template emitters must print the bytes of
json.dumps, and the indexed develops the cells and colors of the
translate_block develops, of tests/oracle_develop.py.
"""

import dataclasses
import functools
import itertools
import pathlib
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_develop
import oracle_starters
import oracle_verify as oracle
from tforge import designs, starters
from tforge.algebra import (
    block,
    cyclic,
    difference_list,
    factor_prime_power,
    format_point,
    fpoint,
    gf_build,
    ipoint,
)
from tforge.codes import Code, dumps_code, gbtp_to_code
from tforge.constructions import build_td, drtd_from_td, load_recipe, run_recipe
from tforge.errors import MalformedGrid, TforgeError
from tforge.search import search_coloring, search_starter
from tforge.starters import (
    build_fq_gbtd_starter,
    build_frgbtd_6_8,
    build_igbtp_33,
    develop_gbtd,
    develop_starter,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ("fig1.json", "fig2_rbibd_15.json", "fig3_gbtd_3_9.json",
            "fig7_igbtp_29.json", "fig8_frgbtd_6_6.json")
RECIPES = ("gbtd_3_27", "gbtd_3_49", "gbtp_33")
STARTERS = (("gbtd", {"m": 7}), ("igbtp_z2", {"m": 11, "w": 9}), ("igbtp_z4", {"m": 5}))
MUTATIONS = ("point-swap", "cell-swap", "cell-drop", "block-size")
STRAY = fpoint(999)  # a point no base array lists


def _recipe_output(name):
    steps = load_recipe(ROOT / "recipes" / (name + ".json"))
    made = run_recipe(steps, str(ROOT / "recipes"), None, verbose=lambda _line: None)
    return made[steps["steps"][-1]["out"]]


def _starter_grid(kind, params):
    res = search_starter(kind, params, budget=2_000_000, count=1)
    assert res.starters, (kind, params)
    return develop_starter(res.starters[0])


BASES = {
    **{f.split(".")[0]: lambda f=f: designs.load_grid(ROOT / "fixtures" / f) for f in FIXTURES},
    **{"fq%d" % q: lambda q=q: develop_gbtd(build_fq_gbtd_starter(q)) for q in (7, 13, 19)},
    **{"recipe-" + r: lambda r=r: _recipe_output(r) for r in RECIPES},
    **{"starter-" + k: lambda k=k, p=p: _starter_grid(k, p) for k, p in STARTERS},
    "frgbtd-6-8": build_frgbtd_6_8,
    "fig1-lambda-2": lambda: dataclasses.replace(base("fig1"), lam=2),
    "td-4-5": lambda: build_td(4, 5),
    "drtd-3-4": lambda: drtd_from_td(build_td(5, 4)),
}


@functools.cache
def base(name):
    return BASES[name]()


def outcome(verify, g):
    try:
        return verify(g).describe()
    except TforgeError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def assert_same(g):
    pairs = [(oracle.verify_auto, designs.verify_auto),
             (oracle.verify_packing, designs.verify_packing),
             (lambda g: oracle.verify_packing(g, exact=True),
              lambda g: designs.verify_packing(g, exact=True))]
    if g.special is not None:
        pairs.append((oracle.verify_special, designs.verify_special))
    if g.hole is None and g.groups is None:
        pairs.append((oracle.verify_gbtp, designs.verify_gbtp))
    for old, new in pairs:
        assert outcome(new, g) == outcome(old, g)


def mutate(g, kind, rng):
    cells = dict(g.cells)
    keys = sorted(cells)
    rc = rng.choice(keys)
    b = list(cells[rc])
    # GDD-type oracles index groups by point and cannot take a stray point
    pool = list(g.points) + ([STRAY] if g.kind not in ("TD", "DRTD", "GDD") else [])
    outside = [p for p in pool if p not in b]
    if kind == "point-swap" and b and outside:
        b[rng.randrange(len(b))] = rng.choice(outside)
        cells[rc] = block(b)
    elif kind == "cell-swap":  # with any position, so that hole and frame cells fill too
        other = (rng.choice(g.rows), rng.choice(g.cols))
        moved, back = cells.pop(rc), cells.pop(other, None)
        if back is not None:
            cells[rc] = back
        cells[other] = moved
    elif kind == "cell-drop":
        del cells[rc]
    elif len(b) > 1 and (rng.random() < 0.5 or not outside):
        del b[rng.randrange(len(b))]
        cells[rc] = block(b)
    elif outside:
        cells[rc] = block(b + [rng.choice(outside)])
    return dataclasses.replace(g, cells=cells)


@pytest.mark.parametrize("name", sorted(BASES))
def test_bases_agree_with_oracle(name):
    g = base(name)
    assert designs.verify_auto(g).ok
    assert_same(g)


def test_pair_twice_in_a_column_agrees_with_oracle():
    g = base("fig1-lambda-2")
    cells = dict(g.cells)
    (r, c), b = next((rc, b) for rc, b in sorted(cells.items()) if len(b) > 1)
    other = next(rr for rr in g.rows if rr != r)
    cells[(other, c)] = b
    bad = dataclasses.replace(g, cells=cells)
    rep = designs.verify_packing(bad)
    assert not next(x for x in rep.conditions if x.cid == "pair-column-distinct").ok
    assert_same(bad)


@pytest.mark.parametrize("name", sorted(BASES))
@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(MUTATIONS), seed=st.integers(0, 2 ** 32 - 1))
def test_mutants_agree_with_oracle(name, kind, seed):
    assert_same(mutate(base(name), kind, random.Random(seed)))


# ---------------------------------------------------------------------------
# colour checks against the row-scanning oracle

COLORED = tuple(f.split(".")[0] for f in FIXTURES) + ("fq7", "fq13", "fq19")


def coloring_report(verify, g, c_colors, want_pi):
    """describe() with every witness drawn, the colors-in-range ones sorted:
    the program lists them row-major, the oracle in label order."""
    try:
        with mock.patch.object(designs, "MAX_WITNESSES", 10 ** 9):
            rep = verify(g, c_colors, want_pi)
            for cond in rep.conditions:
                if cond.cid == "colors-in-range":
                    cond.witnesses.sort()
            return rep.describe()
    except TforgeError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def promoted(promote, g):
    try:
        return designs.dumps_grid(promote(g))
    except TforgeError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def assert_same_coloring(g, c_colors, want_pi):
    assert (coloring_report(designs.verify_coloring, g, c_colors, want_pi)
            == coloring_report(oracle.verify_coloring, g, c_colors, want_pi))
    if g.colors is not None:
        assert designs.pi_witness_row(g, c_colors) == oracle.pi_witness_row(g, c_colors)
    assert promoted(designs.promote_coloring, g) == promoted(oracle.promote_coloring, g)


@functools.cache
def colored(name, colors, want_pi):
    """Base `name` with its own colours when colors is 0, else search_coloring's."""
    g = base(name)
    if colors:
        res = search_coloring(g, colors, want_pi)
        g = dataclasses.replace(g, colors=res.colors)
    return g


@pytest.mark.parametrize("name", COLORED)
def test_colorings_agree_with_oracle(name):
    for colors, want_pi in [(0, False)] + list(itertools.product((1, 2, 3), (False, True))):
        g = colored(name, colors, want_pi)
        for c_colors in (1, 2, 3):
            for pi in (False, True):
                assert_same_coloring(g, c_colors, pi)


def test_stray_points_go_by_point_not_index():
    """A stray point is indexed after the listed ones but sorts before them
    here: it heads the row-color-disjoint witnesses of its row and colour,
    and promote recolors the block holding it."""
    g = base("fig3_gbtd_3_9")
    stray = fpoint(-1, 0)
    a, b = sorted(rc for rc in g.cells if rc[0] == g.rows[0] and g.colors[rc] == 0)[:2]
    (_, a1, a2), (_, _, b2) = g.cells[a], g.cells[b]
    once = dataclasses.replace(g, cells={**g.cells, a: block([stray, a1, a2])})
    twice = dataclasses.replace(once, cells={**once.cells, b: block([stray, a1, b2])})
    assert once.incidence.index[stray] == twice.incidence.index[stray] == g.v
    assert designs.promote_coloring(once).colors[a] == 2
    rep = designs.verify_coloring(twice, 3)
    assert rep.conditions[2].witnesses == ["row %s color 0: %s in 2 blocks" % (g.rows[0], p)
                                           for p in ("-1_0", format_point(a1))]
    for h in (once, twice):
        assert_same_coloring(h, 3, True)


@st.composite
def coloring_mutants(draw):
    """A coloured base with 1-4 edits: a cell recoloured from -1 to 3, a
    cell uncoloured, a point moved to another listed point or to a stray
    one, or a cell dropped with its colour kept."""
    g = colored(draw(st.sampled_from(COLORED)), draw(st.integers(0, 3)), draw(st.booleans()))
    cells, colors = dict(g.cells), dict(g.colors or {})
    keys = sorted(cells)
    for _ in range(draw(st.integers(1, 4))):
        rc = draw(st.sampled_from(keys))
        edit = draw(st.sampled_from(("recolor", "uncolor", "move", "stray", "drop")))
        b = list(cells.get(rc, ()))
        if edit == "recolor":
            colors[rc] = draw(st.integers(-1, 3))
        elif edit == "uncolor":
            colors.pop(rc, None)
        elif edit == "drop":
            cells.pop(rc, None)
        elif b:
            pool = [STRAY, ipoint(-1)] if edit == "stray" else list(g.points)
            new = draw(st.sampled_from(pool))
            if new not in b:
                b[draw(st.integers(0, len(b) - 1))] = new
                cells[rc] = block(b)
    return dataclasses.replace(g, cells=cells, colors=colors or None)


@settings(max_examples=150, deadline=None)
@given(coloring_mutants(), st.integers(1, 3), st.booleans())
def test_coloring_mutants_agree_with_oracle(g, c_colors, want_pi):
    assert_same_coloring(g, c_colors, want_pi)


# ---------------------------------------------------------------------------
# template emitters against json.dumps, indexed develops against translate_block

FQ = (7, 13, 19, 25, 31, 37, 43, 49, 61, 67, 73, 79, 97, 103, 109, 121, 127)
GRID_FIELDS = ("kind", "lam", "k_set", "points", "rows", "cols", "cells", "colors", "hole",
               "groups", "row_group_index", "col_group_index", "special", "star")


def assert_same_files(g):
    assert designs.dumps_grid(g) == oracle_develop.dumps_grid(g)
    if g.hole is None and g.groups is None and designs.verify_gbtp(g).ok:
        code = gbtp_to_code(g)
        assert dumps_code(code) == oracle_develop.dumps_code(code)


def assert_same_grid(new, old):
    for name in GRID_FIELDS:
        assert getattr(new, name) == getattr(old, name), name
    assert list(new.cells) == list(old.cells)  # the same cell order too


@pytest.mark.parametrize("name", sorted(BASES))
def test_bases_dump_as_json_dumps(name):
    assert_same_files(base(name))


def test_frgbtd_starter_dumps_as_json_dumps(frgbtd_t5):
    assert_same_files(develop_starter(frgbtd_t5.starters[0]))


@pytest.mark.parametrize("q", FQ)
def test_fq_develop_agrees_with_oracle(q):
    s = build_fq_gbtd_starter(q)
    assert_same_grid(develop_gbtd(s), oracle_develop.develop_gbtd(s))


@pytest.mark.parametrize("kind,params", STARTERS, ids=[k for k, _ in STARTERS])
def test_found_starters_develop_as_oracle(kind, params):
    for s in search_starter(kind, params, budget=2_000_000, count=2).starters:
        assert_same_grid(develop_starter(s), oracle_develop.develop_starter(s))


def test_frgbtd_starter_develops_as_oracle(frgbtd_t5):
    s = frgbtd_t5.starters[0]
    assert_same_grid(develop_starter(s), oracle_develop.develop_starter(s))


def test_explicit_builds_agree_with_oracle():
    assert_same_grid(build_frgbtd_6_8(), oracle_develop.build_frgbtd_6_8())
    assert_same_grid(build_igbtp_33(), oracle_develop.build_igbtp_33())


# labels of every JSON scalar type; unique=True keeps 1, 1.0 and True apart
LABELS = st.one_of(st.text(max_size=4), st.integers(-300, 300), st.booleans(), st.none(),
                   st.floats(allow_nan=False, allow_infinity=False))
POINTS = st.one_of(st.builds(fpoint, st.tuples(st.integers(0, 12)), st.integers(-1, 2)),
                   st.builds(fpoint, st.tuples(st.integers(0, 3), st.integers(0, 3))),
                   st.builds(ipoint, st.integers(0, 9)))


@st.composite
def grids(draw):
    rows = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    cols = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    points = draw(st.lists(POINTS, max_size=8, unique=True))
    cells = {}
    for rc in draw(st.lists(st.sampled_from([(r, c) for r in rows for c in cols]),
                            unique=True)):
        cells[rc] = block(draw(st.lists(st.sampled_from(points), unique=True))
                          if points else [])
    colors = {rc: draw(st.integers(-2, 10 ** 20)) for rc in cells if draw(st.booleans())}
    some_points = st.lists(st.sampled_from(points), unique=True) if points else st.just([])
    hole = draw(st.none() | st.tuples(some_points.map(lambda w: tuple(sorted(w))),
                                      st.lists(st.sampled_from(rows)).map(tuple),
                                      st.lists(st.sampled_from(cols)).map(tuple)))
    groups = draw(st.none() | st.lists(some_points.map(lambda grp: tuple(sorted(grp))),
                                       max_size=3).map(tuple))
    index = st.none() | st.lists(st.lists(LABELS, max_size=3).map(tuple),
                                 min_size=1, max_size=3).map(tuple)
    special = draw(st.none() | st.sampled_from(sorted(cells, key=repr) or [(rows[0], cols[0])]))
    return designs.DesignGrid(
        draw(st.sampled_from(sorted(designs.VERIFIERS)) | st.text(max_size=6)),
        draw(st.integers(0, 3)),
        draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)), points, rows, cols, cells,
        colors or None, hole, groups, draw(index), draw(index), special, draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(grids())
def test_generated_grids_dump_as_json_dumps_and_load_back(g):
    text = designs.dumps_grid(g)
    assert text == oracle_develop.dumps_grid(g)
    if g.kind in designs.VERIFIERS:
        assert designs.loads_grid(text) == g
    else:  # a file's kind must name a verifier
        with pytest.raises(MalformedGrid, match="kind"):
            designs.loads_grid(text)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(0, 4), st.data())
def test_generated_codes_dump_as_json_dumps(q, n, data):
    words = data.draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), min_size=1,
                               max_size=6, unique=True))
    labels = data.draw(st.none() | st.lists(LABELS, min_size=q, max_size=q).map(tuple))
    code = Code(q, n, words, labels)
    assert dumps_code(code) == oracle_develop.dumps_code(code)


# ---------------------------------------------------------------------------
# starter verifiers against the difference_list verifiers

FQ_STARTERS = (7, 13, 19, 25, 31, 37, 43, 49)
# found starters by name: the kind and search parameters
FOUND = {"gbtd-plain": ("gbtd", {"m": 7}), "gbtd-special": ("gbtd", {"m": 7, "special": True}),
         "igbtp_z2": STARTERS[1], "igbtp_z4": STARTERS[2]}
# the block families of the incomplete-packing starters; block_a is one block
HOLED_FAMILIES = {starters.IgbtpStarterZ2: ("blocks_a", "blocks_b", "blocks_c"),
                  starters.IgbtpStarterZ4: ("block_a", "blocks_b", "blocks_c", "blocks_d")}


@functools.cache
def found_starters(name):
    kind, params = FOUND[name]
    return tuple(search_starter(kind, params, budget=2_000_000, count=2).starters)


def starter_outcome(verify, s):
    try:
        return verify(s).describe()
    except TforgeError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def assert_same_starter(s):
    assert (starter_outcome(starters.verify_starter, s)
            == starter_outcome(oracle_starters.verify_starter, s))


def holed_blocks(s) -> list:
    """Every block of an incomplete-packing starter, family by family."""
    return [b for name in HOLED_FAMILIES[type(s)]
            for b in ([s.block_a] if name == "block_a" else getattr(s, name))]


def element(g, rng) -> tuple:
    """A random element of g; now and then one of its residues is written
    plus its modulus, which puts it off every starter's point set."""
    e = list(rng.choice(g.elements()))
    if rng.random() < 0.05:
        i = rng.randrange(len(e))
        e[i] += g.factors[i]
    return tuple(e)


def move_holed_point(s, rng):
    """s with one point of one block, of any family, moved to another element,
    onto another of inf1..inf<w>, or onto an infinite point outside them; now
    and then to an element with a copy index, which no such starter has, or
    to an unreduced residue."""
    w = getattr(s, "w", 9)
    name = rng.choice([f for f in HOLED_FAMILIES[type(s)] if getattr(s, f)])
    fam = [s.block_a] if name == "block_a" else list(getattr(s, name))
    i = rng.randrange(len(fam))
    while True:
        roll = rng.random()
        if roll < 0.6:
            new = fpoint(element(s.group, rng), 0 if roll < 0.05 else -1)
        elif roll < 0.85:
            new = ipoint(rng.randint(1, w))
        else:
            new = ipoint(rng.choice((0, w + 1, w + 5)))
        if new not in fam[i]:
            break
    pts = list(fam[i])
    pts[rng.randrange(len(pts))] = new
    fam[i] = block(pts)
    return dataclasses.replace(s, **{name: fam[0] if name == "block_a" else tuple(fam)})


def move_point(s, rng):
    """s with one point of one block moved.  A triple-system or frame starter's
    point goes to another element or copy, now and then to a copy outside the
    range or to an unreduced residue, which fail the shape; an
    incomplete-packing starter's point goes as `move_holed_point` moves it."""
    if type(s) in HOLED_FAMILIES:
        return move_holed_point(s, rng)
    copies = 3 if isinstance(s, starters.GbtdStarter) else 2
    if isinstance(s, starters.GbtdStarter):
        keys = [("A", k) for k in sorted(s.blocks_a)] + [("B", t) for t in range(len(s.blocks_b))]
        fam, key = rng.choice(keys)
        b = s.blocks_a[key] if fam == "A" else s.blocks_b[key]
    else:
        fam, key = "A", rng.choice(sorted(s.blocks))
        b = s.blocks[key]
    while True:
        new = fpoint(element(s.group, rng),
                     copies if rng.random() < 0.1 else rng.randrange(copies))
        if new not in b:
            break
    pts = list(b)
    pts[rng.randrange(len(pts))] = new
    moved = block(pts)
    if isinstance(s, starters.FrGbtdStarter):
        return dataclasses.replace(s, blocks={**s.blocks, key: moved})
    if fam == "A":
        return dataclasses.replace(s, blocks_a={**s.blocks_a, key: moved})
    blocks_b = list(s.blocks_b)
    blocks_b[key] = moved
    return dataclasses.replace(s, blocks_b=tuple(blocks_b))


def starter_base(name, frgbtd_t5):
    if name.startswith("fq"):
        return build_fq_gbtd_starter(int(name[2:]))
    if name == "frgbtd-t5":
        return frgbtd_t5.starters[0]
    found, i = name.rsplit("-", 1)
    return found_starters(found)[int(i)]


STARTER_BASES = (["fq%d" % q for q in FQ_STARTERS] + ["frgbtd-t5"]
                 + ["%s-%d" % (name, i) for name in FOUND for i in range(2)])


@pytest.mark.parametrize("name", STARTER_BASES)
def test_starters_verify_as_oracle(name, frgbtd_t5):
    s = starter_base(name, frgbtd_t5)
    assert starters.verify_starter(s).ok
    assert_same_starter(s)


@pytest.mark.parametrize("name", STARTER_BASES)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), moves=st.integers(1, 3))
def test_starter_mutants_verify_as_oracle(name, frgbtd_t5, seed, moves):
    rng = random.Random(seed)
    s = starter_base(name, frgbtd_t5)
    for _ in range(moves):
        s = move_point(s, rng)
    assert_same_starter(s)


def assert_sound(s):
    """A starter that verifies develops, by the reference develop, which does
    not check the starter, into an array that verifies."""
    if starters.verify_starter(s).ok:
        assert designs.verify_auto(oracle_develop.develop_starter(s)).ok


@pytest.mark.parametrize("x,y", [(5, 0), (-1, 2), (3, 12), (1, 4), (7, 0)])
def test_z4_seeds_off_the_group_verify_as_oracle(x, y):
    # x or y outside 0..m-1 fails the shape
    s = found_starters("igbtp_z4")[0]
    moved = dataclasses.replace(s, x=s.x + x, y=s.y + y)
    assert_same_starter(moved)
    assert_sound(moved)


@pytest.mark.parametrize("name", STARTER_BASES)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), moves=st.integers(1, 3))
def test_starter_verification_is_sound(name, frgbtd_t5, seed, moves):
    rng = random.Random(seed)
    s = starter_base(name, frgbtd_t5)
    for _ in range(moves):
        s = move_point(s, rng)
    assert_sound(s)


def test_copied_point_in_an_a_block_is_off_the_point_set():
    s = found_starters("igbtp_z2")[0]
    first, *rest = s.blocks_a[0]
    copied = fpoint(first[1], 0)
    s = dataclasses.replace(s, blocks_a=(block([copied, *rest]), *s.blocks_a[1:]))
    assert_sound(s)
    shape = starters.verify_starter(s).conditions[0]
    assert shape.cid == "shape" and "point %s outside" % format_point(copied) in shape.witnesses[0]


@pytest.mark.parametrize("name", STARTER_BASES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), moves=st.integers(0, 3))
def test_difference_counts_equal_difference_list(name, frgbtd_t5, seed, moves):
    rng = random.Random(seed)
    s = starter_base(name, frgbtd_t5)
    for _ in range(moves):
        s = move_point(s, rng)
    if not oracle_starters.verify_starter(s).conditions[0].ok:
        return  # the shape condition stops the verifier before any difference
    g = s.group
    elems = g.addition[0]
    if type(s) in HOLED_FAMILIES:  # the plain list, on Z_m x Z_2 or Z_m x Z_4
        blocks = holed_blocks(s)
        want = difference_list(blocks, g, "plain")
        assert starters._plain_counts(g, starters._located(g, blocks)) == [want[e] for e in elems]
        return
    if isinstance(s, starters.GbtdStarter):
        blocks, copies = list(s.blocks_a.values()) + list(s.blocks_b), 3
    else:
        blocks, copies = [s.blocks[k] for k in sorted(s.blocks)], 2
    counts = starters._difference_counts(g, starters._located(g, blocks), copies)
    for i, j in itertools.product(range(copies), repeat=2):
        want = difference_list(
            blocks, g, ("pure", i) if i == j else ("mixed", i, j))
        slot = (i * copies + j) * len(elems)
        assert counts[slot:slot + len(elems)] == [want[e] for e in elems], (i, j)


# the additive groups of the fq starters, and the cyclic groups of the frame starters
STARTER_GROUPS = ([gf_build(*factor_prime_power(q)).additive_group() for q in FQ_STARTERS]
                  + [cyclic(3 * t) for t in range(2, 8)] + [cyclic(48)])


@pytest.mark.parametrize("g", STARTER_GROUPS, ids=lambda g: "x".join(map(str, g.factors)))
def test_addition_table_agrees_with_add_and_neg(g):
    elems, index, table, neg = g.addition
    assert elems == sorted(g.elements())
    assert index == {e: x for x, e in enumerate(elems)}
    zero = index[g.zero()]
    for x, ex in enumerate(elems):
        assert table[x] == [index[g.add(ex, ey)] for ey in elems]
        assert table[x][index[g.neg(ex)]] == zero
        assert neg[x] == index[g.neg(ex)]


# ---------------------------------------------------------------------------
# Incidence against a plain per-cell recount

INC_POINTS = [fpoint(x) for x in range(7)] + [fpoint(x, 1) for x in range(2)] + [ipoint(1)]


@st.composite
def incidence_grids(draw):
    """Grids whose cells hold blocks of 1 to 4 points, shared between cells,
    drawn from more points than the grid lists."""
    rows = ["r%d" % i for i in range(draw(st.integers(1, 4)))]
    cols = ["c%d" % j for j in range(draw(st.integers(1, 4)))]
    listed = draw(st.lists(st.sampled_from(INC_POINTS), unique=True))
    cells = {}
    for rc in draw(st.lists(st.sampled_from([(r, c) for r in rows for c in cols]),
                            unique=True)):
        cells[rc] = block(draw(st.lists(st.sampled_from(INC_POINTS), min_size=1,
                                        max_size=4, unique=True)))
    return designs.DesignGrid("raw", 1, (1, 2, 3, 4), listed, rows, cols, cells)


def recount(g, dropped=None):
    """(points, W, rowf, colf, pairs, cells per block size) as Incidence
    documents them, cell by cell: W holds the row of the last cell of a
    column holding the point, and a dropped cell's points leave its column."""
    index = {p: x for x, p in enumerate(g.points)}
    for b in g.cells.values():
        for p in b:
            index.setdefault(p, len(index))
    V = len(index)
    ri = {r: i for i, r in enumerate(g.rows)}
    ci = {c: j for j, c in enumerate(g.cols)}
    W = [[-1] * len(g.cols) for _ in range(V)]
    rowf, colf, pairs = [0] * (len(g.rows) * V), [0] * (len(g.cols) * V), [0] * (V * V)
    for (r, c), b in g.cells.items():
        if (r, c) == dropped:
            continue
        for p in b:
            W[index[p]][ci[c]] = ri[r]
            rowf[ri[r] * V + index[p]] += 1
            colf[ci[c] * V + index[p]] += 1
        for p, q in itertools.combinations(b, 2):
            pairs[index[p] * V + index[q]] += 1
    if dropped is not None:
        for p in g.cells[dropped]:
            W[index[p]][ci[dropped[1]]] = -1
    sizes = Counter(len(b) for rc, b in g.cells.items() if rc != dropped)
    return list(index), W, rowf, colf, pairs, dict(sizes)


def incidence_counts(inc):
    return inc.points, inc.W, inc.rowf, inc.colf, inc.pairs, dict(inc.sizes)


def recount_cells(g, dropped=None):
    """(row, col) -> (row index, column index, point indices in block
    order), in g.cells order."""
    index = {p: x for x, p in enumerate(recount(g)[0])}
    ri = {r: i for i, r in enumerate(g.rows)}
    ci = {c: j for j, c in enumerate(g.cols)}
    return [(rc, (ri[rc[0]], ci[rc[1]], tuple(index[p] for p in b)))
            for rc, b in g.cells.items() if rc != dropped]


def recount_by_row(g, dropped=None):
    """Incidence.by_row as documented: per row, (column index, cell, point
    indices) of its cells in column order."""
    cells = dict(recount_cells(g, dropped))
    return [[(j, (r, c), cells[(r, c)][2]) for j, c in enumerate(g.cols) if (r, c) in cells]
            for r in g.rows]


@settings(max_examples=300, deadline=None)
@given(incidence_grids(), st.data())
def test_incidence_matches_recount(g, data):
    inc = designs.Incidence(g)
    assert (inc.v, inc.V) == (len(g.points), len(recount(g)[0]))
    assert incidence_counts(inc) == recount(g)
    read_first = data.draw(st.booleans())  # cells read before the drop, or only after
    if read_first:
        assert inc.by_row == recount_by_row(g)
    if g.cells:
        rc = data.draw(st.sampled_from(sorted(g.cells)))
        less = dataclasses.replace(g, cells={k: b for k, b in g.cells.items() if k != rc})
        derived = inc.without(less, rc)
        assert incidence_counts(derived) == recount(g, rc)
        assert derived.by_row == recount_by_row(g, rc)
        assert incidence_counts(inc) == recount(g)  # the parent's counts stay as they were
