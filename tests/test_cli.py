import json
import pathlib
import subprocess
import sys

import pytest

from conftest import relabel

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(*args, cwd=ROOT, **extra_env):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin", **extra_env}
    return subprocess.run([sys.executable, "-m", "tforge.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_verify_passing_fixture():
    res = run_cli("verify", "fixtures/fig3_gbtd_3_9.json")
    assert res.returncode == 0
    assert "PASS" in res.stdout


def test_verify_mutated_fixture(tmp_path, fig3):
    from tforge.algebra import block
    from tforge.designs import DesignGrid, dumps_grid

    cells = dict(fig3.cells)
    rc = next(iter(sorted(cells)))
    b = cells[rc]
    swap = next(p for p in fig3.points if p not in b)
    cells[rc] = block(list(b[:-1]) + [swap])
    bad = DesignGrid(fig3.kind, fig3.lam, fig3.k_set,
                     fig3.points, fig3.rows, fig3.cols, cells)
    path = tmp_path / "mutated.json"
    path.write_text(dumps_grid(bad))
    res = run_cli("verify", str(path))
    assert res.returncode == 1


def test_verify_missing_file():
    res = run_cli("verify", "definitely_missing.json")
    assert res.returncode == 2


def test_construct_fq_gbtd_and_verify(tmp_path):
    out = tmp_path / "g13.json"
    res = run_cli("construct", "fq-gbtd", "--q", "13", "-o", str(out))
    assert res.returncode == 0
    res = run_cli("verify", str(out))
    assert res.returncode == 0


def test_construct_fq_gbtd_rejects_bad_q():
    res = run_cli("construct", "fq-gbtd", "--q", "11")
    assert res.returncode == 2


def test_construct_drtd(tmp_path):
    out = tmp_path / "d4.json"
    res = run_cli("construct", "drtd", "--k", "3", "--q", "4", "-o", str(out))
    assert res.returncode == 0
    assert run_cli("verify", str(out)).returncode == 0


def test_code_pipeline(tmp_path):
    code_path = tmp_path / "c.json"
    res = run_cli("code", "to-code", "fixtures/fig1.json", "-o", str(code_path))
    assert res.returncode == 0
    obj = json.loads(code_path.read_text())
    assert obj["q"] == 3 and obj["n"] == 4 and len(obj["words"]) == 6
    res = run_cli("code", "stats", str(code_path))
    assert res.returncode == 0
    assert "n=4 q=3 M=6 d=3" in res.stdout
    assert "c(C): 2" in res.stdout


def test_code_bound_equality_and_violation():
    res = run_cli("code", "bound", "--n", "10", "--d", "9", "--q", "7", "--m", "21")
    assert res.returncode == 0 and "equality" in res.stdout
    res = run_cli("code", "bound", "--n", "29", "--d", "28", "--q", "16", "--m", "34")
    assert res.returncode == 1 and "violated" in res.stdout


def test_search_eswc_cli(tmp_path):
    out = tmp_path / "code.json"
    res = run_cli("search", "eswc", "--n", "4", "--d", "3", "--q", "3", "-o", str(out))
    assert res.returncode == 0
    assert res.stdout.strip() == "M=6 exact=True nodes=33 plotkin_cap=9"
    assert run_cli("verify", str(out)).returncode == 0


def test_search_eswc_cli_cap_none():
    # the bound excludes no size of a (3, 2) code over three symbols
    res = run_cli("search", "eswc", "--n", "3", "--d", "2", "--q", "3")
    assert res.returncode == 0
    assert res.stdout.strip().endswith(" plotkin_cap=none")


@pytest.mark.parametrize("args", [("--n", "0", "--d", "3", "--q", "3"),
                                  ("--n", "4", "--d", "3", "--q", "3", "--budget", "0")])
def test_search_eswc_cli_bad_args_exit_2(args):
    assert run_cli("search", "eswc", *args).returncode == 2


def test_search_starter_cli(tmp_path):
    out = tmp_path / "starter.json"
    res = run_cli("search", "starter", "--kind", "gbtd", "--m", "7",
                  "--budget", "2000000", "-o", str(out))
    assert res.returncode == 0
    assert json.loads(out.read_text())["starter_kind"] == "gbtd"


def test_derive_recipe_gbtp_33(tmp_path):
    res = run_cli("derive", "recipes/gbtp_33.json", "--out-dir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "gbtp_33.json").exists()
    res = run_cli("verify", str(tmp_path / "gbtp_33.json"))
    assert res.returncode == 0


def test_search_design_cli(tmp_path):
    spec = tmp_path / "params.json"
    spec.write_text(json.dumps({"K": [2, 3], "v": 9, "m": 4, "n": 5, "star3": True}))
    out = tmp_path / "found.json"
    res = run_cli("search", "design", "--spec", str(spec), "-o", str(out))
    assert res.returncode == 0
    assert run_cli("verify", str(out)).returncode == 0


def test_search_coloring_cli(tmp_path):
    out = tmp_path / "colored.json"
    res = run_cli("search", "coloring", "--in", "fixtures/fig2_rbibd_15.json",
                  "--colors", "3", "--pi", "-o", str(out))
    assert res.returncode == 0
    res = run_cli("search", "coloring", "--in", "fixtures/fig2_rbibd_15.json",
                  "--colors", "1")
    assert res.returncode == 1


def test_construct_explicit_objects(tmp_path):
    for sub, name in (("frgbtd-6-8", "f.json"), ("igbtp-33", "i.json")):
        out = tmp_path / name
        assert run_cli("construct", sub, "-o", str(out)).returncode == 0
        assert run_cli("verify", str(out)).returncode == 0


def test_cert_cli():
    res = run_cli("code", "cert-2q3", "--m", "16")
    assert res.returncode == 0
    assert "15708" in res.stdout and "15689" in res.stdout
    assert run_cli("code", "cert-2q3", "--m", "6").returncode == 2


def test_stdout_pipe():
    res = run_cli("construct", "td", "--k", "4", "--q", "3", "-o", "-")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["kind"] == "TD"


def test_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("construct", "fq-gbtd", "--q", "7", "-o", str(a))
    run_cli("construct", "fq-gbtd", "--q", "7", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_derive_recipe_gbtd_27(tmp_path):
    res = run_cli("derive", "recipes/gbtd_3_27.json", "--out-dir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert run_cli("verify", str(tmp_path / "gbtd_3_27.json")).returncode == 0


def test_derive_recipe_gbtd_49(tmp_path):
    res = run_cli("derive", "recipes/gbtd_3_49.json", "--out-dir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert run_cli("verify", str(tmp_path / "gbtd_3_49.json")).returncode == 0


def test_verify_malformed_files_exit_2(tmp_path, fig3):
    from tforge.designs import dumps_grid

    obj = json.loads(dumps_grid(fig3))
    first = obj["cells"][0]
    dup = dict(obj, cells=[{"r": first["r"], "c": first["c"], "block": ["0_0"]}] + obj["cells"])
    unknown = dict(obj, cells=[dict(first, r="no-such-row")] + obj["cells"][1:])
    cases = {"empty": {}, "dup": dup, "unknown": unknown, "code": {"q": 3, "words": []},
             "list": []}
    for name, bad in cases.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(bad))
        res = run_cli("verify", str(path))
        assert res.returncode == 2, (name, res.stdout, res.stderr)
        assert "Traceback" not in res.stderr and res.stderr.startswith("error: ")
    assert "listed twice" in run_cli("verify", str(tmp_path / "dup.json")).stderr
    assert "no-such-row" in run_cli("verify", str(tmp_path / "unknown.json")).stderr


def test_verify_wrongly_typed_entries_exit_2(tmp_path, fig3):
    from tforge.designs import dumps_grid

    obj = json.loads(dumps_grid(fig3))
    first, rest = obj["cells"][0], obj["cells"][1:]
    cases = {"special": (dict(obj, special={"r": "1"}), "special has no 'c'"),
             "special-list": (dict(obj, special={"r": ["1"], "c": "5"}), "special holds a list"),
             "kind": (dict(obj, kind=5), "kind is not a string"),
             "k_set": (dict(obj, k_set=3), "k_set is not a list"),
             "block": (dict(obj, cells=[dict(first, block="0_0")] + rest),
                       "cell entry 0: block is not a list"),
             "color": (dict(obj, cells=[dict(first, color=[1])] + rest),
                       "cell entry 0: color [1] is not an integer"),
             "code-symbol": ({"q": 3, "n": 1, "words": [["a"]]}, "code words must be lists"),
             "code-q": ({"q": "3", "n": 1, "words": [[0]]}, "code q and n must be integers")}
    for name, (bad, entry) in cases.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(bad))
        res = run_cli("verify", str(path))
        assert res.returncode == 2, (name, res.stdout, res.stderr)
        assert "Traceback" not in res.stderr and res.stderr.startswith("error: ")
        assert entry in res.stderr, (name, res.stderr)


def test_verify_malformed_starter_files_exit_2(tmp_path):
    from tforge.search import search_starter
    from tforge.starters import build_fq_gbtd_starter, dumps_starter

    z4 = json.loads(dumps_starter(search_starter("igbtp_z4", {"m": 5}).starters[0]))
    z4["families"]["A"] = []
    fq7 = dumps_starter(build_fq_gbtd_starter(7))
    family_int = json.loads(fq7)
    family_int["families"]["A"] = 5
    colors_str = json.loads(fq7)
    colors_str["colors"]["A"] = "x"
    cases = {"gbtd": ({"starter_kind": "gbtd"}, "'group'"),
             "z4": (z4, "family 'A'"),
             "kind": ({"starter_kind": "nope", "families": {}}, "starter_kind 'nope'"),
             "family-int": (family_int, "family 'A'"),
             "colors-str": (colors_str, "colors 'A'")}
    for name, (bad, entry) in cases.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(bad))
        res = run_cli("verify", str(path))
        assert res.returncode == 2, (name, res.stdout, res.stderr)
        assert "Traceback" not in res.stderr and res.stderr.startswith("error: ")
        assert entry in res.stderr, (name, res.stderr)


def test_search_missing_parameters_exit_2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"v": 9, "m": 4, "n": 5}))
    cases = {"'m'": ("search", "starter", "--kind", "gbtd"),
             "'t'": ("search", "starter", "--kind", "frgbtd"),
             "'K'": ("search", "design", "--spec", str(spec))}
    for key, args in cases.items():
        res = run_cli(*args)
        assert res.returncode == 2, (args, res.stdout, res.stderr)
        assert "Traceback" not in res.stderr and res.stderr.startswith("error: ")
        assert key in res.stderr, (args, res.stderr)


_SPEC = {"K": [2, 3], "v": 9, "m": 4, "n": 5}


@pytest.mark.parametrize("spec,key", [
    (dict(_SPEC, K=3), "'K'"),
    (dict(_SPEC, K=["3"]), "'K'"),
    (dict(_SPEC, K=[]), "'K'"),
    (dict(_SPEC, K=[0, 2]), "'K'"),
    (dict(_SPEC, K=[True, 2]), "'K'"),
    (dict(_SPEC, v="9"), "'v'"),
    (dict(_SPEC, v=0), "'v'"),
    (dict(_SPEC, m=True), "'m'"),
    (dict(_SPEC, n=2.5), "'n'"),
    ([_SPEC], "must be a JSON object"),
    (dict(_SPEC, star3="false"), "'star3'"),
    (dict(_SPEC, **{"lambda": True}), "'lambda'"),
], ids=["K-int", "K-str", "K-empty", "K-zero", "K-bool", "v-str", "v-zero", "m-bool",
        "n-float", "list", "star3-str", "lambda-bool"])
def test_search_design_bad_spec_exit_2(tmp_path, spec, key):
    # a spec of the wrong shape names its key, and no search is run
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = run_cli("search", "design", "--spec", str(path))
    assert res.returncode == 2, (spec, res.stdout, res.stderr)
    assert "Traceback" not in res.stderr and res.stderr.startswith("error: ")
    assert key in res.stderr, (spec, res.stderr)


def test_search_starter_z2_invalid_w_exit_2():
    # an even w, or one below 5, has no starter the verifier would accept
    for w in ("8", "3"):
        res = run_cli("search", "starter", "--kind", "igbtp_z2", "--m", "11", "--w", w,
                      "--budget", "2000000")
        assert res.returncode == 2, (w, res.stdout, res.stderr)
        assert "Traceback" not in res.stderr and res.stderr.startswith("error: ")
        assert "w must be odd and >= 5" in res.stderr, (w, res.stderr)


@pytest.mark.parametrize("kind,params,message", [
    ("gbtd", ("--m", "6"), "m must be odd"),
    ("gbtd", ("--m", "4", "--special"), "m must be odd"),
    ("igbtp_z2", ("--m", "12", "--w", "9"), "m must be odd"),
    ("igbtp_z4", ("--m", "6"), "m must be odd and >= 5"),
    ("igbtp_z4", ("--m", "3"), "m must be odd and >= 5"),
    ("igbtp_z2", ("--m", "7", "--w", "9"), "m must be > w"),  # no room for the C pairs
    ("igbtp_z2", ("--m", "9", "--w", "9"), "m must be > w"),
    # an order below 1 names its parameter, not a failure deeper in the search
    ("gbtd", ("--m", "-1"), "m must be >= 1"),
    ("gbtd", ("--m", "-3", "--special"), "m must be >= 1"),
    ("frgbtd", ("--t", "0"), "t must be >= 1"),
    ("frgbtd", ("--t", "-2"), "t must be >= 1"),
])
def test_search_starter_invalid_m_exit_2(kind, params, message):
    # the verifiers reject these orders by shape, so no search is run
    res = run_cli("search", "starter", "--kind", kind, *params, "--budget", "300000")
    assert res.returncode == 2, (params, res.stdout, res.stderr)
    assert "Traceback" not in res.stderr and res.stderr.startswith("error: ")
    assert message in res.stderr, (params, res.stderr)


def test_verify_starter_wrong_arity_fails_shape(tmp_path):
    from tforge.search import search_starter
    from tforge.starters import build_fq_gbtd_starter, dumps_starter

    gbtd = json.loads(dumps_starter(build_fq_gbtd_starter(7)))
    assert gbtd["group"]["factors"] == [7]
    gbtd["families"]["A"][1][0] = "1.2_0"
    # a finite point alone with an infinite one has no difference to check
    z4 = json.loads(dumps_starter(search_starter("igbtp_z4", {"m": 5}).starters[0]))
    assert z4["families"]["D"][0][1] == "inf5"
    z4["families"]["D"][0][0] = "2.1.0"
    for name, obj, where in (("gbtd", gbtd, "1.2_0 outside Gamma x {0,1,2}"),
                             ("z4", z4, "2.1.0 outside Z_5 x Z_4 u {inf1..inf9}")):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(obj))
        res = run_cli("verify", str(path))
        assert res.returncode == 1, (name, res.stdout, res.stderr)
        assert res.stderr == "verification failed\n"
        assert res.stdout.startswith("shape                  FAIL  witnesses: point " + where)


def _assert_exit_2(path, entry, *command):
    res = run_cli(*(command or ("verify",)), str(path))
    assert res.returncode == 2, (path.name, res.stdout, res.stderr)
    assert "Traceback" not in res.stderr and res.stderr.startswith("error: ")
    assert entry in res.stderr, (path.name, res.stderr)


def test_code_file_bad_labels_exit_2(tmp_path):
    from tforge.codes import code_from_obj, dumps_code, gbtp_to_code
    from tforge.designs import load_grid

    obj = json.loads(dumps_code(gbtp_to_code(load_grid(ROOT / "fixtures" / "fig1.json"))))
    assert len(obj["labels"]) == obj["q"] == 3
    assert code_from_obj(dict(obj, labels=None)).labels is None
    cases = {"bool": True, "int": -1, "float": 1.5, "string": "abc", "short": ["1", "2"],
             "long": ["1", "2", "3", "4"], "empty": [], "nested": ["1", ["2"], "3"],
             "object": ["1", "2", {}]}
    for name, labels in cases.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(dict(obj, labels=labels)))
        _assert_exit_2(path, "code 'labels' must be a list of q=3 labels")
        if name in ("bool", "string", "short"):  # code stats reads through the same loader
            _assert_exit_2(path, "code 'labels'", "code", "stats")


def test_grid_file_hole_label_not_hashable_exit_2(tmp_path, fig7):
    from tforge.designs import dumps_grid

    obj = json.loads(dumps_grid(fig7))
    for key, value in (("p_rows", [["1"]]), ("q_cols", [{}])):
        path = tmp_path / (key + ".json")
        path.write_text(json.dumps(dict(obj, hole=dict(obj["hole"], **{key: value}))))
        _assert_exit_2(path, "hole %s holds a list or object" % key)


def test_frame_block_size_below_2_exit_2(tmp_path, fig8):
    from tforge.designs import dumps_grid

    obj = json.loads(dumps_grid(fig8))
    for k in (0, 1):
        path = tmp_path / ("k%d.json" % k)
        path.write_text(json.dumps(dict(obj, k_set=[k])))
        _assert_exit_2(path, "FrGBTD needs a block size of at least 2, got %d" % k)


def test_starter_file_wrongly_typed_params_exit_2(tmp_path):
    from tforge.search import search_starter
    from tforge.starters import build_fq_gbtd_starter, dumps_starter

    gbtd = json.loads(dumps_starter(build_fq_gbtd_starter(7)))
    z2 = json.loads(dumps_starter(search_starter("igbtp_z2", {"m": 7, "w": 5}).starters[0]))
    cases = {"factors": (dict(gbtd, group={"factors": None}), "group 'factors'"),
             "w": (dict(z2, params=dict(z2["params"], w="abc")), "params 'w' is not an integer")}
    for name, (bad, entry) in cases.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(bad))
        _assert_exit_2(path, entry)


def test_verify_unknown_kind_exit_2(tmp_path, fig1):
    # an unknown kind names itself and runs no verifier, from the option or the file
    from tforge.designs import dumps_grid

    res = run_cli("verify", "fixtures/fig1.json", "--kind", "bogus")
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert "Traceback" not in res.stderr and "'bogus'" in res.stderr and not res.stdout
    path = tmp_path / "nonsense.json"
    path.write_text(json.dumps(dict(json.loads(dumps_grid(fig1)), kind="Nonsense")))
    _assert_exit_2(path, 'kind "Nonsense" is not one of')
    assert run_cli("verify", "fixtures/fig1.json", "--kind", "raw").returncode == 0


def test_derive_malformed_recipe_exit_2(tmp_path):
    step = {"op": "build_td", "params": {"k": 3, "q": 4}, "out": "td"}
    cases = {"empty": ({}, "recipe has no 'steps'"),
             "steps": ({"steps": 5}, "recipe steps is not a list"),
             "step": ({"steps": [step, 5]}, "recipe step 1 is not a JSON object"),
             "op": ({"steps": [dict(step, op=3)]}, "recipe step 0: op is not a string"),
             "in": ({"steps": [dict(step, **{"in": ["a", 1]})]},
                    "recipe step 0: in is not a list of strings"),
             "in-str": ({"steps": [dict(step, **{"in": "a"})]},
                        "recipe step 0: in is not a list of strings"),
             "params": ({"steps": [dict(step, params=[3, 4])]},
                        "recipe step 0: params is not an object"),
             "out": ({"steps": [dict(step, out=None)]}, "recipe step 0: out is not a string"),
             "inputs": ({"steps": [step, {"op": "inflate", "in": ["td"]}]},
                        "recipe step 1: inflate reads 2 inputs, got 1"),
             "param": ({"steps": [dict(step, params={"k": 3})]}, "param 'q' is missing"),
             "param-type": ({"steps": [dict(step, params={"k": 3, "q": "4"})]},
                            "param 'q' is \"4\", not of type int")}
    for name, (bad, entry) in cases.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(bad))
        _assert_exit_2(path, entry, "derive", "--out-dir", str(tmp_path / "out"))


def test_search_coloring_budget_stop_and_color_count(tmp_path):
    grid = tmp_path / "g13.json"
    assert run_cli("construct", "fq-gbtd", "--q", "13", "-o", str(grid)).returncode == 0
    res = run_cli("search", "coloring", "--in", str(grid), "--colors", "3", TFORGE_BUDGET="50")
    assert res.returncode == 1 and not res.stdout
    assert res.stderr.strip() == "budget ran out before a coloring was found"
    for colors in ("0", "-1"):
        _assert_exit_2(grid, "need at least one color, got " + colors,
                       "search", "coloring", "--colors", colors, "--in")


def test_tforge_budget_not_an_integer_exits_2():
    res = run_cli("search", "starter", "--kind", "gbtd", "--m", "7", TFORGE_BUDGET="1e6")
    assert res.returncode == 2 and not res.stdout
    assert res.stderr.strip() == "error: TFORGE_BUDGET='1e6' is not an integer"


@pytest.mark.parametrize("args,name", [
    (("--n", "4", "--d", "3", "--q", "0", "--m", "6"), "q"),
    (("--n", "4", "--d", "3", "--q", "-2", "--m", "6"), "q"),
    (("--n", "-3", "--d", "3", "--q", "3", "--m", "6"), "n"),
    (("--n", "4", "--d", "3", "--q", "3", "--m", "-3"), "M"),
    (("--n", "0", "--d", "0", "--q", "1", "--m", "0"), "n"),
    (("--n", "4", "--d", "0", "--q", "3", "--m", "6"), "d"),
])
def test_code_bound_below_1_exit_2(args, name):
    res = run_cli("code", "bound", *args)
    assert res.returncode == 2 and not res.stdout, (res.stdout, res.stderr)
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: Plotkin bound needs %s >= 1" % name), res.stderr


@pytest.mark.parametrize("k", ["0", "-1"])
def test_construct_td_k_below_1_exit_2(k):
    res = run_cli("construct", "td", "--k", k, "--q", "4")
    assert res.returncode == 2 and not res.stdout
    assert res.stderr == "error: k = %s is below 1\n" % k


def test_code_file_repeated_label_exit_2(tmp_path):
    from tforge.codes import dumps_code, gbtp_to_code
    from tforge.designs import load_grid

    obj = json.loads(dumps_code(gbtp_to_code(load_grid(ROOT / "fixtures" / "fig1.json"))))
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(dict(obj, labels=["1", "a", "a"])))
    for command in (("verify",), ("code", "stats")):
        _assert_exit_2(path, 'code label "a" is repeated', *command)


@pytest.mark.parametrize("labels,entry", [
    ([1, True, "x"], "code labels 1 and true compare equal"),
    ([1, 1.0, "x"], "code labels 1 and 1.0 compare equal"),
    ([0, False, "x"], "code labels 0 and false compare equal"),
    ([1, "x", 1], "code label 1 is repeated"),
])
def test_code_file_equal_labels_exit_2(tmp_path, labels, entry):
    from tforge.codes import dumps_code, gbtp_to_code
    from tforge.designs import load_grid

    obj = json.loads(dumps_code(gbtp_to_code(load_grid(ROOT / "fixtures" / "fig1.json"))))
    path = tmp_path / "equal.json"
    path.write_text(json.dumps(dict(obj, labels=labels)))
    for command in (("verify",), ("code", "stats")):
        _assert_exit_2(path, entry, *command)


@pytest.mark.parametrize("axis", ["rows", "cols"])
@pytest.mark.parametrize("first,second,entry", [
    (1, True, "lists 1 and true, which compare equal"),
    (1, 1.0, "lists 1 and 1.0, which compare equal"),
    (0, False, "lists 0 and false, which compare equal"),
    (1, 1, "lists 1 twice"),
])
def test_equal_row_or_column_labels_exit_2(tmp_path, axis, first, second, entry):
    obj = json.loads((ROOT / "fixtures" / "fig1.json").read_text())
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(relabel(relabel(obj, axis, "1", first), axis, "2", second)))
    _assert_exit_2(path, "error: %s %s\n" % (axis, entry))


@pytest.mark.parametrize("axis", ["rows", "cols"])
@pytest.mark.parametrize("label", [7, 1.5, True, None])
def test_frame_with_a_non_string_label_verifies(tmp_path, axis, label):
    obj = json.loads((ROOT / "fixtures" / "fig8_frgbtd_6_6.json").read_text())
    path = tmp_path / "fig8.json"
    path.write_text(json.dumps(relabel(obj, axis, "1", label)))
    res = run_cli("verify", str(path))
    assert res.returncode == 0, res.stderr
    assert "frame-partitions       ok" in res.stdout
