"""Type fuzz through the command line.

Each key of a grid, code, starter or search-spec file, at the top level and
in its nested objects (one cell entry, hole, special, params, group,
families, colors), and each key of a recipe, its steps and their params, is
replaced by each JSON type.  tforge must answer every such file with exit
0, 1 or 2 from ``cli.run``, never an uncaught exception.  A row or column
label that is a number, a boolean or null must leave every exit code as it
is with a string label.
"""

import contextlib
import functools
import io
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LABEL_KEYS, relabel
from tforge import cli
from tforge.codes import dumps_code, gbtp_to_code
from tforge.designs import dumps_grid, load_grid
from tforge.search import search_starter
from tforge.starters import build_fq_gbtd_starter, develop_gbtd, dumps_starter

ROOT = pathlib.Path(__file__).resolve().parents[1]
NAMES = ("fq7", "fig7", "fig8", "code", "gbtd", "igbtp_z2", "igbtp_z4", "frgbtd")
JSON_TYPES = (None, True, 0, 1.5, "abc", [], {}, [[0]], [{}], [0], [1], -1)
COMMANDS = {
    "grid": (("verify", "-"), ("code", "to-code", "-", "-o", "-")),
    "code": (("verify", "-"), ("code", "stats", "-")),
    "starter": (("verify", "-"),),
    "spec": (("search", "design", "--spec", "-", "-o", "-"),),
}
# a spec whose search finds a design in 96 nodes; no value of JSON_TYPES in
# place of one of its keys asks for a larger search
SPEC = {"K": [2, 3], "v": 9, "m": 4, "n": 5}


@functools.cache
def files() -> dict:
    """name -> (file type, canonical text)."""
    fixture = (ROOT / "fixtures").joinpath
    return {
        "fq7": ("grid", dumps_grid(develop_gbtd(build_fq_gbtd_starter(7)))),  # special, colors
        "fig7": ("grid", fixture("fig7_igbtp_29.json").read_text()),  # hole
        "fig8": ("grid", fixture("fig8_frgbtd_6_6.json").read_text()),  # groups, index classes
        "code": ("code", dumps_code(gbtp_to_code(load_grid(fixture("fig1.json"))))),
        "gbtd": ("starter", dumps_starter(build_fq_gbtd_starter(7))),
        "igbtp_z2": ("starter", dumps_starter(
            search_starter("igbtp_z2", {"m": 7, "w": 5}).starters[0])),
        "igbtp_z4": ("starter", dumps_starter(
            search_starter("igbtp_z4", {"m": 5}).starters[0])),
        "frgbtd": ("starter", dumps_starter(
            search_starter("frgbtd", {"t": 5}, budget=5_000_000).starters[0])),
        "spec": ("spec", json.dumps(SPEC)),
    }


def key_paths(obj, path=()):
    """Every key of obj, of its nested objects and of a list's first object."""
    for key, value in obj.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, path + (key,))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield from key_paths(value[0], path + (key, 0))


def replaced(text: str, path: tuple, value) -> str:
    obj = json.loads(text)
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return json.dumps(obj)


def run(args, text: str, err=None):
    """cli.run on args with text as stdin; an uncaught exception propagates.
    Error output goes to err when given."""
    argv, stdin = sys.argv, sys.stdin
    sys.argv, sys.stdin = ["tforge", *args], io.StringIO(text)
    try:
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err or io.StringIO())):
            return cli.run()
    finally:
        sys.argv, sys.stdin = argv, stdin


@pytest.mark.parametrize("name", NAMES + ("spec",))
def test_every_key_as_every_json_type_exits_cleanly(name):
    kind, text = files()[name]
    assert run(COMMANDS[kind][0], text) == 0
    for path in key_paths(json.loads(text)):
        for value in JSON_TYPES:
            for args in COMMANDS[kind]:
                rc = run(args, replaced(text, path, value))
                assert rc in (0, 1, 2), (path, value, args)


@pytest.mark.parametrize("name", ("gbtd_3_27", "gbtd_3_49", "gbtp_33"))
def test_every_recipe_key_as_every_json_type_exits_cleanly(tmp_path, name):
    # a shipped recipe, its input files named by absolute paths
    recipes = ROOT / "recipes"
    recipe = json.loads((recipes / (name + ".json")).read_text())
    for step in recipe["steps"]:
        step["in"] = [str(recipes / ref) if ref.endswith(".json") else ref
                      for ref in step.get("in", [])]
    path, text = tmp_path / "recipe.json", json.dumps(recipe)
    args = ("derive", str(path), "--out-dir", str(tmp_path / "out"))
    path.write_text(text)
    assert run(args, "") == 0
    for key_path in [("steps",)] + [p for i, step in enumerate(recipe["steps"])
                                    for p in key_paths(step, ("steps", i))]:
        for value in JSON_TYPES:
            path.write_text(replaced(text, key_path, value))
            assert run(args, "") in (0, 1, 2), (key_path, value)


@pytest.mark.parametrize("name", ("fq7", "fig7", "fig8"))
def test_unlisted_cell_point_exits_2(name):
    # every cell point must be in points: the file names the entry, not a verdict
    obj = json.loads(files()[name][1])
    assert "999" not in obj["points"]
    obj["cells"][-1]["block"][-1] = "999"
    want = "error: cell entry %d: point 999 is not in points\n" % (len(obj["cells"]) - 1)
    for args in COMMANDS["grid"]:
        err = io.StringIO()
        assert run(args, json.dumps(obj), err) == 2, args
        assert err.getvalue() == want, args


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(NAMES), st.data(), json_values)
def test_any_json_value_at_any_key_exits_cleanly(name, data, value):
    kind, text = files()[name]
    path = data.draw(st.sampled_from(list(key_paths(json.loads(text)))))
    for args in COMMANDS[kind]:
        assert run(args, replaced(text, path, value)) in (0, 1, 2), (path, value, args)


FIXTURES = ("fig1.json", "fig2_rbibd_15.json", "fig3_gbtd_3_9.json",
            "fig7_igbtp_29.json", "fig8_frgbtd_6_6.json")
LABELS = (7, 1.5, True, None)  # JSON scalars that are not strings


def first_label(obj: dict, axis: str):
    """The special cell's row or column label, else the first one listed."""
    return obj.get("special", {}).get(LABEL_KEYS[axis][0], obj[axis][0])


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("axis", ("rows", "cols"))
def test_non_string_labels_exit_as_string_ones(name, axis):
    text = (ROOT / "fixtures" / name).read_text()
    obj = json.loads(text)
    for args in COMMANDS["grid"]:
        want = run(args, text)
        for label in LABELS:
            changed = relabel(obj, axis, first_label(obj, axis), label)
            assert run(args, json.dumps(changed)) == want, (args, label)


def test_tripling_derive_with_a_numeric_row_label(tmp_path):
    """promote -> drtd(3, 27) -> tripling on fig3 with row "3" renamed 3: the
    tripled grid is the one the unmodified fixture gives."""
    recipe = json.loads((ROOT / "recipes" / "gbtd_3_27.json").read_text())
    fig3 = json.loads((ROOT / "fixtures" / "fig3_gbtd_3_9.json").read_text())
    for name, obj in (("plain", fig3), ("mixed", relabel(fig3, "rows", "3", 3))):
        (tmp_path / (name + ".json")).write_text(json.dumps(obj))
        recipe["steps"][0]["in"] = [name + ".json"]
        (tmp_path / "recipe.json").write_text(json.dumps(recipe))
        args = ("derive", str(tmp_path / "recipe.json"), "--out-dir", str(tmp_path / name))
        assert run(args, "") == 0
    assert ((tmp_path / "mixed" / "gbtd_3_27.json").read_bytes()
            == (tmp_path / "plain" / "gbtd_3_27.json").read_bytes())
