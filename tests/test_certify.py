"""One certificate from array to code.

A pass of verify_auto on a GBTP or GBTD certifies the code read off its
rows, so gbtp_to_code and code_stats may build on it.  The code of a
verified grid, and its stats, must equal what a fresh verification and a
plain recount give.  A grid cannot be changed in place; a changed copy made
with dataclasses.replace after verify_auto must be verified afresh by
gbtp_to_code, with the same error or the new words.
"""

import dataclasses
import functools
import gc
import operator
import pathlib
import weakref

import pytest

from tforge.codes import Code, code_stats, gbtp_to_code
from tforge.constructions import load_recipe, run_recipe
from tforge.designs import dumps_grid, load_grid, loads_grid, verify_auto
from tforge.errors import NotVerified
from tforge.starters import build_fq_gbtd_starter, develop_gbtd

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ("fig1", "fig2_rbibd_15", "fig3_gbtd_3_9", "fig8_frgbtd_6_6")  # the holeless ones
NOT_GBTP = {"fig2_rbibd_15", "fig8_frgbtd_6_6"}  # verified as their kind, not as a GBTP
FQ = (7, 13, 19, 25, 31, 37, 43, 49)
RECIPES = ("gbtd_3_27", "gbtd_3_49", "gbtp_33")


@functools.cache
def _recipe_text(name):
    steps = load_recipe(ROOT / "recipes" / (name + ".json"))
    made = run_recipe(steps, str(ROOT / "recipes"), None, verbose=lambda _line: None)
    return dumps_grid(made[steps["steps"][-1]["out"]])


def grid(name):
    """A new grid object each call, so no test sees another's verification."""
    if name.startswith("fq"):
        return develop_gbtd(build_fq_gbtd_starter(int(name[2:])))
    if name in RECIPES:
        return loads_grid(_recipe_text(name))
    return load_grid(ROOT / "fixtures" / (name + ".json"))


def fresh(g):
    """An equal grid that no verifier has seen."""
    return dataclasses.replace(g)


def outcome(g):
    """gbtp_to_code's answer on g: its error text, or the code and its stats."""
    try:
        c = gbtp_to_code(g)
    except NotVerified as exc:
        return "raises", str(exc)
    return "code", c.q, c.n, c.words, c.labels, code_stats(c)


@pytest.mark.parametrize("name", FIXTURES + tuple("fq%d" % q for q in FQ) + RECIPES)
def test_code_of_verified_grid_matches_recount(name):
    g = grid(name)
    assert verify_auto(g).ok
    want = outcome(fresh(g))
    assert outcome(g) == want
    if name in NOT_GBTP:
        assert want[0] == "raises"
        return
    c = gbtp_to_code(g)
    assert code_stats(c) == code_stats(Code(c.q, c.n, c.words, c.labels))


def _mutate(g, how):
    """g with one change, made through dataclasses.replace."""
    first = min(g.cells)
    if how == "swap-in-column":  # rows no longer equitable
        other = next(rc for rc in sorted(g.cells) if rc[1] == first[1] and rc != first)
    elif how == "swap-across":
        other = next(rc for rc in sorted(g.cells) if rc[1] != first[1]
                     and set(g.cells[rc]) != set(g.cells[first]))
    if how.startswith("swap"):
        return dataclasses.replace(
            g, cells={**g.cells, first: g.cells[other], other: g.cells[first]})
    if how == "drop":
        return dataclasses.replace(g, cells={rc: b for rc, b in g.cells.items() if rc != first})
    if how == "kind":
        return dataclasses.replace(g, kind="GBTP" if g.kind == "GBTD" else "GBTD")
    if how == "lambda":
        return dataclasses.replace(g, lam=g.lam - 1)
    if how == "k_set":
        return dataclasses.replace(g, k_set=(2,) if g.k_set != (2,) else (3,))
    if how == "points":
        return dataclasses.replace(g, points=g.points[:-1])
    if how == "rows":
        return dataclasses.replace(g, rows=g.rows[::-1])
    if how == "cols":
        return dataclasses.replace(g, cols=g.cols[::-1])
    assert how == "star"
    return dataclasses.replace(g, star=not g.star)


VALID_AFTER = {"rows", "cols"}  # the same grid up to labels: new words


@pytest.mark.parametrize("how", ["swap-in-column", "swap-across", "drop", "kind", "lambda",
                                 "k_set", "points", "rows", "cols", "star"])
@pytest.mark.parametrize("name", ["fig1", "fig3_gbtd_3_9", "fq7", "gbtp_33"])
def test_change_after_verify_is_verified_afresh(name, how):
    g = grid(name)
    assert verify_auto(g).ok
    before = outcome(g)
    g = _mutate(g, how)
    want = outcome(fresh(g))
    assert outcome(g) == want
    if how in VALID_AFTER:
        assert want[0] == "code" and want[3] != before[3]
    elif how == "kind":  # only gbtp_33 covers a pair less than λ times
        assert (want[0] == "raises") == (name == "gbtp_33")
    elif how == "star":  # only gbtp_33 is a star array: it passes without the check
        assert (want[0] == "raises") == (name != "gbtp_33")
    else:
        assert want[0] == "raises"


def test_grid_that_failed_verify_still_raises():
    g = _mutate(grid("fq13"), "swap-across")
    assert not verify_auto(g).ok
    with pytest.raises(NotVerified) as info:
        gbtp_to_code(g)
    assert outcome(fresh(g)) == ("raises", str(info.value))


def test_verified_grid_is_not_kept_alive():
    g = grid("fq13")
    assert verify_auto(g).ok
    gbtp_to_code(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("change", [
    lambda g: setattr(g, "kind", "GBTP"),
    lambda g: setattr(g, "lam", 2),
    lambda g: setattr(g, "star", True),
    lambda g: operator.setitem(g.cells, min(g.cells), ()),
    lambda g: operator.delitem(g.cells, min(g.cells)),
    lambda g: operator.setitem(g.colors, min(g.colors), 1),
], ids=["kind", "lambda", "star", "cell", "cell-del", "color"])
def test_grid_cannot_change_in_place(change):
    g = grid("fq7")
    assert verify_auto(g).ok
    text = dumps_grid(g)
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        change(g)
    assert dumps_grid(g) == text and gbtp_to_code(g) == gbtp_to_code(fresh(g))
