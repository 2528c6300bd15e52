"""The incidence verifiers against the dict-based oracle, report for report.

Every base array and every mutant must give a byte-identical ``describe()``
(or raise the same error) under tforge.designs and tests/oracle_verify.py.
"""

import dataclasses
import functools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_verify as oracle
from tforge import designs
from tforge.algebra import block, fpoint
from tforge.constructions import build_td, drtd_from_td, load_recipe, run_recipe
from tforge.errors import TforgeError
from tforge.search import search_starter
from tforge.starters import build_fq_gbtd_starter, build_frgbtd_6_8, develop_starter, develop_gbtd

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
