"""The four benchmark workloads: their set-up, their ops and each op's reference.

Every op is a function of one ``Ctx``.  It calls tforge's public functions
through ``Ctx.call`` (one span per call when tracing), then checks what came
back against its reference with ``Ctx.expect``/``Ctx.output``.  A missed
check, or an exception out of the op, makes the op count as failed.

Span names double as per-layer metric keys: the first dotted part is the
tforge module called (``designs``, ``codes``, ``starters``, ``constructions``,
``search``, ``cli``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tforge import cli
from tforge.algebra import block
from tforge.codes import (
    code_stats,
    code_to_gbtp,
    dumps_code,
    gbtp_to_code,
    is_equitable,
    loads_code,
    min_distance,
    plotkin_check,
)
from tforge.constructions import (
    build_td,
    drtd_from_td,
    fill_hole,
    frame_fill,
    inflate,
    load_recipe,
    run_recipe,
    tripling,
)
from tforge.designs import dumps_grid, load_grid, loads_grid, promote_coloring, verify_auto
from tforge.errors import TforgeError
from tforge.search import (
    EswcResult,
    GbtpSearchResult,
    eswc_witness,
    max_eswc,
    search_gbtp,
    search_starter,
)
from tforge.starters import (
    build_fq_gbtd_starter,
    build_frgbtd_6_8,
    build_igbtp_33,
    develop_gbtd,
    develop_starter,
    dumps_starter,
    verify_starter,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = {
    "fig1": "fig1.json",
    "fig2": "fig2_rbibd_15.json",
    "fig3": "fig3_gbtd_3_9.json",
    "fig7": "fig7_igbtp_29.json",
    "fig8": "fig8_frgbtd_6_6.json",
}
RECIPES = ("gbtd_3_27", "gbtd_3_49", "gbtp_33")
BIG_BUDGET = 30_000_000


# ---------------------------------------------------------------------------
# per-op context


class Ctx:
    """What one op did: counts, search records and missed references."""

    def __init__(self, tracer, reference: dict | None):
        self.call = tracer.call
        self.reference = reference  # None while recording a new reference
        self.problems: list = []
        self.outputs: dict = {}  # output key -> sha256
        self.searches: list = []
        self.cells = 0  # array cells carried through verify (-> code -> stats)
        self.settled = 0  # ops or searches that ended proven
        self.caught = 0  # mutants rejected by the library
        self.verified_cells = 0
        self.json_bytes = 0  # grid JSON through designs.dumps / designs.loads
        self.seconds = 0.0  # the op's wall time, set by the runner
        self.spans = (0, 0)  # the op's range in the tracer's span list

    def expect(self, ok, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return bool(ok)

    def output(self, key: str, text: str) -> None:
        """Canonical JSON must hash to its recorded reference."""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.outputs[key] = digest
        if self.reference is not None:
            self.expect(self.reference["outputs"].get(key) == digest,
                        "output %s is not byte-identical to its reference" % key)

    def verify(self, g, what: str) -> bool:
        rep = self.call("designs.verify", verify_auto, g)
        if self.expect(rep.ok, "%s fails verification" % what):
            self.verified_cells += len(g.cells)
            return True
        return False

    def dumps_grid(self, g) -> str:
        text = self.call("designs.dumps", dumps_grid, g)
        self.json_bytes += len(text)
        return text

    def loads_grid(self, text: str):
        self.json_bytes += len(text)
        return self.call("designs.loads", loads_grid, text)

    def search(self, key: str, label: str, fn, *args, budget: int, want: int = 1, **kwargs):
        """One budgeted search: nodes exactly as returned, and why it stopped."""
        t0 = time.perf_counter()
        res = self.call(key, fn, *args, budget=budget, **kwargs)
        seconds = time.perf_counter() - t0
        if isinstance(res, EswcResult):
            stop = "exhausted" if res.exact else "budget"
        elif isinstance(res, GbtpSearchResult):
            stop = "found" if res.grid is not None else ("exhausted" if res.exhausted else "budget")
        else:
            stop = ("found" if len(res.starters) >= want
                    else "exhausted" if res.exhausted else "budget")
        self.searches.append({"key": key, "search": "%s@%d" % (label, budget),
                              "nodes": res.nodes, "stop": stop,
                              "budget": budget, "seconds": seconds})
        if stop != "budget":
            self.settled += 1
        return res, stop


@dataclass
class Op:
    name: str
    fn: object
    malformed: bool = False  # the input is a file that must be rejected


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    measures: tuple  # end-to-end metrics this workload measures
    workdir: Path | None = None  # files written by set-up, removed by close()

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _certify_code(x: Ctx, key: str, g, want: tuple, equality: bool = True):
    """Grid -> code -> stats, checked against (n, d, q, M); returns the stats."""
    code = x.call("codes.to_code", gbtp_to_code, g)
    st = x.call("codes.stats", code_stats, code)
    x.output(key + "/code", x.call("codes.json", dumps_code, code))
    x.expect((st.n, st.d, st.q, st.M) == want,
             "%s code is (%d,%d)_%d size %d, expected (%d,%d)_%d size %d"
             % ((key, st.n, st.d, st.q, st.M) + want))
    x.expect(st.equitable, "%s code is not equitable" % key)
    if equality:
        x.expect(st.plotkin.equality, "%s code misses Plotkin equality" % key)
    x.cells += len(g.cells)
    return st


def _fq_grid(x: Ctx, q: int):
    s = x.call("starters.build", build_fq_gbtd_starter, q)
    return s, x.call("starters.develop", develop_gbtd, s)


# ---------------------------------------------------------------------------
# fq-build: the paper's direct construction, starter -> array -> code


def _fq_op(q: int):
    def op(x: Ctx):
        s, g = _fq_grid(x, q)
        key = "fq-build/q%d" % q
        x.verify(g, key)
        x.expect(g.special is not None, "%s has no special cell" % key)
        st = _certify_code(x, key, g, ((3 * q - 1) // 2, (3 * q - 3) // 2, q, 3 * q))
        x.expect(st.capability == q - 1, "%s capability %d, expected %d" % (key, st.capability, q - 1))
        text = x.dumps_grid(g)
        back = x.loads_grid(text)
        x.output(key + "/grid", text)
        x.output(key + "/starter", x.call("starters.dumps", dumps_starter, s))
        x.expect(back.cells == g.cells, "%s JSON round trip changed the cells" % key)
        x.settled += not x.problems
    return op


def _fq_build(seed: int, smoke: bool) -> Workload:
    pool = (7, 13, 25) if smoke else (19, 25, 31, 37, 43, 49)
    return Workload("fq-build", seed, [Op("q%d" % q, _fq_op(q)) for q in pool],
                    ("setup_s", "run_s", "cells_per_s", "settled", "fail_ratio", "peak_rss_mb"))


# ---------------------------------------------------------------------------
# chains: recipes and recursive constructions, each output certified


CHAIN_CODES = {
    "gbtd_3_27": (40, 39, 27, 81),
    "gbtd_3_49": (73, 72, 49, 147),
    "gbtp_33": (29, 28, 16, 33),
}


def _recipe_op(name: str, steps: dict):
    base = str(ROOT / "recipes")
    last = steps["steps"][-1]["out"]

    def op(x: Ctx):
        made = x.call("constructions.recipe." + name, run_recipe, steps, base, None,
                      verbose=lambda _line: None)
        g = made[last]
        x.output("chains/recipe-%s/grid" % name, x.dumps_grid(g))
        _certify_code(x, "chains/recipe-" + name, g, CHAIN_CODES[name],
                      equality=name != "gbtp_33")
        x.settled += not x.problems
    return op


def _tripling_op(fig3):
    def op(x: Ctx):
        promoted = x.call("designs.promote", promote_coloring, fig3)
        td = x.call("constructions.td", build_td, 5, 27)
        drtd = x.call("constructions.td", drtd_from_td, td)
        big = x.call("constructions.tripling", tripling, promoted, drtd)
        x.verify(big, "tripled 27x40 array")
        x.expect(big.special is not None, "tripled array has no special cell")
        _certify_code(x, "chains/tripling", big, CHAIN_CODES["gbtd_3_27"])
        x.settled += not x.problems
    return op


def _fill_op(x: Ctx):
    ig = x.call("starters.build", build_igbtp_33)
    x.verify(ig, "33-point holed array")
    res, stop = x.search("search.gbtp", "gbtp(9,4x5,star)", search_gbtp,
                         {"K": [2, 3], "v": 9, "m": 4, "n": 5, "star3": True},
                         budget=BIG_BUDGET)
    if not x.expect(stop == "found", "9-point star filler not found (%s)" % stop):
        return
    full = x.call("constructions.fill_hole", fill_hole, ig, res.grid)
    x.verify(full, "filled 33-point array")
    x.expect(full.star, "filled 33-point array is not a star array")
    _certify_code(x, "chains/fill-33", full, CHAIN_CODES["gbtp_33"], equality=False)
    bound = plotkin_check(29, 28, 16, 34)
    x.expect(not bound.holds and (bound.lhs, bound.rhs) == (15708, 15689),
             "size 34 is not excluded by 15708 > 15689")
    x.output("chains/fill-33/grid", x.dumps_grid(full))
    x.settled += not x.problems


def _frame_op(fig8, side: int, filler, want: tuple):
    """inflate(fig8, DRTD of side `side`), then frame_fill with filler(x) and final="w"."""
    def op(x: Ctx):
        inner = filler(x)
        td = x.call("constructions.td", build_td, 5, side)
        drtd = x.call("constructions.td", drtd_from_td, td)
        frame = x.call("constructions.inflate", inflate, fig8, drtd)
        x.verify(frame, "inflated frame")
        big = x.call("constructions.frame_fill", frame_fill, frame, [inner] * 6, final="w")
        x.verify(big, "filled frame")
        x.expect(big.kind == "GBTD" and big.special is not None,
                 "filled frame is %s without a special cell" % big.kind)
        _certify_code(x, "chains/frame-%d" % side, big, want)
        x.settled += not x.problems
    return op


def _frgbtd_op(x: Ctx):
    g = x.call("starters.build", build_frgbtd_6_8)
    x.verify(g, "16x24 frame of type 6^8")
    x.output("chains/frgbtd-6-8/grid", x.dumps_grid(g))
    x.cells += len(g.cells)
    x.settled += not x.problems


def _chains(seed: int, smoke: bool) -> Workload:
    fig3 = load_grid(ROOT / "fixtures" / FIXTURES["fig3"])
    fig8 = load_grid(ROOT / "fixtures" / FIXTURES["fig8"])
    ops = [Op("recipe-" + r, _recipe_op(r, load_recipe(ROOT / "recipes" / (r + ".json"))))
           for r in RECIPES]
    # side 4 with the 27-point fig3 filler; side 9 with the q=19 fq array
    # (a 327-point result) takes 6 s, too long to repeat within a run
    frame = _frame_op(fig8, 4, lambda x: fig3, (73, 72, 49, 147))
    ops += [Op("tripling-27", _tripling_op(fig3)), Op("fill-33", _fill_op),
            Op("frame-chain", frame), Op("frgbtd-6-8", _frgbtd_op)]
    # the filler search is under half a second a round, too short for a steady
    # nodes_per_s; its rate is in the per-layer search.gbtp_nodes_per_s
    return Workload("chains", seed, ops,
                    ("setup_s", "run_s", "cells_per_s", "settled", "fail_ratio", "peak_rss_mb"))


# ---------------------------------------------------------------------------
# search: exact searches at fixed node budgets


ESWC_EXACT = [((3, 2, 2), 3), ((5, 3, 2), 4), ((7, 4, 2), 7),
              ((3, 2, 3), 6), ((4, 3, 3), 6), ((5, 4, 4), 12)]
STARTER_BATCHES = [("gbtd", {"m": 7}, 6), ("frgbtd", {"t": 5}, 6),
                   ("igbtp_z2", {"m": 11, "w": 9}, 4), ("igbtp_z4", {"m": 5}, 4)]


def _eswc_op(args: tuple, want: int):
    def op(x: Ctx):
        res, stop = x.search("search.eswc", "eswc%s" % (args,), max_eswc, *args,
                             budget=5_000_000)
        x.expect(stop == "exhausted" and res.M == want,
                 "eswc%s gave %d (%s), expected exactly %d" % (args, res.M, stop, want))
    return op


def _eswc_prep_op(args: tuple):
    """max_eswc at budget 1: word enumeration and the adjacency masks."""
    def op(x: Ctx):
        res, stop = x.search("search.eswc_prep", "eswc%s" % (args,), max_eswc, *args, budget=1)
        x.expect(stop == "budget" and res.M >= 1, "eswc%s at budget 1 stopped by %s" % (args, stop))
    return op


def _gbtp_op(label: str, params: dict, budget: int, want_stop: str, want: tuple | None = None):
    def op(x: Ctx):
        res, stop = x.search("search.gbtp", label, search_gbtp, params, budget=budget)
        x.expect(stop == want_stop, "%s stopped by %s, expected %s" % (label, stop, want_stop))
        if want_stop != "found":
            x.expect(res.grid is None, "%s returned a grid" % label)
        elif res.grid is not None:
            x.verify(res.grid, label)
            _certify_code(x, "search/" + label, res.grid, want, equality=False)
            x.output("search/%s/grid" % label, x.dumps_grid(res.grid))
    return op


def _starter_op(kind: str, params: dict, count: int, budget: int = BIG_BUDGET,
                want_stop: str = "found"):
    def op(x: Ctx):
        label = "starter-%s%sx%d" % (kind, sorted(params.items()), count)
        res, stop = x.search("search.starter." + kind, label, search_starter, kind, params,
                             budget=budget, count=count, want=count)
        x.expect(stop == want_stop, "%s stopped by %s, expected %s" % (label, stop, want_stop))
        for i, s in enumerate(res.starters):
            rep = x.call("starters.verify", verify_starter, s)
            x.expect(rep.ok, "%s starter %d fails verify_starter" % (label, i))
            g = x.call("starters.develop", develop_starter, s)
            if x.verify(g, "%s starter %d developed" % (label, i)):
                x.cells += len(g.cells)
            x.output("search/%s/%d" % (label, i), x.call("starters.dumps", dumps_starter, s))
    return op


def _witness_op(x: Ctx):
    t0 = time.perf_counter()
    code = x.call("search.witness", eswc_witness, 9, 8, 6, 14)
    x.searches.append({"key": "search.witness", "search": "witness(9,8,6,14)", "nodes": None,
                       "stop": "found" if code is not None else "none", "budget": None,
                       "seconds": time.perf_counter() - t0})
    if not x.expect(code is not None, "no (9,8)_6 witness of size 14"):
        return
    x.expect(code.size == 14 and is_equitable(code) and min_distance(code) >= 8,
             "(9,8)_6 witness is not an equitable size-14 code at distance 8")
    x.output("search/witness-9-8-6/code", x.call("codes.json", dumps_code, code))
    x.settled += not x.problems


def _search(seed: int, smoke: bool) -> Workload:
    ops = [Op("eswc%s" % (args,), _eswc_op(args, want)) for args, want in ESWC_EXACT]
    # (7, 6, 5) takes 11 s at budget 1, too long to repeat within a run
    ops.append(Op("eswc-prep", _eswc_prep_op((5, 4, 4) if smoke else (6, 5, 5))))
    ops.append(Op("gbtp-9", _gbtp_op("gbtp(9,3x4)", {"K": [3], "v": 9, "m": 3, "n": 4},
                                     5_000_000, "exhausted")))
    ops.append(Op("gbtp-15", _gbtp_op("gbtp(15,5x7)", {"K": [3], "v": 15, "m": 5, "n": 7},
                                      2_000 if smoke else 10_000, "budget")))
    ops.append(Op("gbtp-9-star", _gbtp_op("gbtp(9,4x5,star)",
                                          {"K": [2, 3], "v": 9, "m": 4, "n": 5, "star3": True},
                                          BIG_BUDGET, "found", (5, 4, 4, 9))))
    for kind, params, count in STARTER_BATCHES:
        if kind == "frgbtd":  # the first frame starter takes 73k nodes, 7 s, to find
            ops.append(Op("starter-" + kind, _starter_op(
                kind, params, 1 if smoke else count, 2_000 if smoke else 10_000, "budget")))
        elif not smoke:
            ops.append(Op("starter-" + kind, _starter_op(kind, params, count)))
        else:
            ops.append(Op("starter-" + kind, _starter_op(kind, params, 1)))
    ops.append(Op("witness-9-8-6", _witness_op))
    return Workload("search", seed, ops, ("setup_s", "run_s", "cells_per_s", "nodes_per_s",
                                          "settled", "fail_ratio", "peak_rss_mb"))


# ---------------------------------------------------------------------------
# certify-files: canonical files through the cli and the loaders, and mutants


def run_cli(x: Ctx, key: str, args: list):
    """tforge's command line in-process: its exit code, or None after a traceback."""
    argv = sys.argv
    sys.argv = ["tforge"] + [str(a) for a in args]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return x.call(key, cli.run)
    except Exception as exc:  # an uncaught exception reaches the user as a traceback
        x.problems.append("cli %s %s: traceback %s: %s" % (args[0], Path(args[-1]).name,
                                                           type(exc).__name__, exc))
        return None
    finally:
        sys.argv = argv


def _valid_op(path: Path, text: str, grid):
    def op(x: Ctx):
        rc = run_cli(x, "cli.verify", ["verify", path])
        x.expect(rc == 0, "cli verify %s exit %s, expected 0" % (path.name, rc))
        g = x.loads_grid(text)
        if x.verify(g, path.name):
            x.cells += len(g.cells)
        x.expect(g.cells == grid.cells, "%s loads different cells" % path.name)
        x.settled += not x.problems
    return op


def _point_of_word(g) -> dict:
    """Word -> point, read off the grid's cells (a check, not timed as tforge work)."""
    row = {r: i for i, r in enumerate(g.rows)}
    col = {c: j for j, c in enumerate(g.cols)}
    words = {p: [None] * g.n for p in g.points}
    for (r, c), b in g.cells.items():
        for p in b:
            words[p][col[c]] = row[r]
    return {tuple(w): p for p, w in words.items()}


def _code_op(path: Path, code_path: Path, code_text: str, grid):
    point_of = _point_of_word(grid)

    def op(x: Ctx):
        out = code_path.with_suffix(".out.json")
        rc = run_cli(x, "cli.to_code", ["code", "to-code", path, "-o", out])
        x.expect(rc == 0, "cli code to-code %s exit %s" % (path.name, rc))
        if rc == 0:
            x.output("certify-files/%s/code" % path.stem, out.read_text(encoding="utf-8"))
        rc = run_cli(x, "cli.stats", ["code", "stats", code_path])
        x.expect(rc == 0, "cli code stats %s exit %s" % (code_path.name, rc))
        code = x.call("codes.json", loads_code, code_text)
        back = x.call("codes.to_grid", code_to_gbtp, code, grid.k_set, grid.lam)
        x.output("certify-files/%s/back" % path.stem, x.dumps_grid(back))
        # back's point i is word i: relabel by word and compare cell by cell
        name = {(0, (i,), -1): point_of.get(w) for i, w in enumerate(code.words)}
        col = dict(zip(back.cols, grid.cols))
        x.expect({(r, col[c]): block(name[p] for p in b) for (r, c), b in back.cells.items()}
                 == grid.cells, "code_to_gbtp(%s) does not give back the grid" % code_path.name)
        x.cells += len(grid.cells)
        x.settled += not x.problems
    return op


def _no_code_op(path: Path):
    """Holed, framed or pointed arrays have no code: the cli must say so with exit 2."""
    def op(x: Ctx):
        rc = run_cli(x, "cli.to_code", ["code", "to-code", path, "-o", path.with_suffix(".x")])
        x.expect(rc == 2, "cli code to-code %s exit %s, expected 2" % (path.name, rc))
        x.settled += not x.problems
    return op


def mutant_op(path: Path, text: str, cls: str, exits=(1, 2)):
    """A file that must be rejected: never exit 0, never a traceback."""
    def op(x: Ctx):
        rc = run_cli(x, "cli.verify", ["verify", path])
        if rc is not None:
            x.expect(rc in exits, "%s mutant %s: cli verify exit %s" % (cls, path.name, rc))
        try:
            g = x.loads_grid(text)
            rep = x.call("designs.reject", verify_auto, g)
        except (TforgeError, ValueError):
            x.caught += 1
        except Exception as exc:  # anything else is a crash on malformed input
            x.problems.append("%s mutant %s: library raised %s" % (cls, path.name,
                                                                   type(exc).__name__))
        else:
            if x.expect(not rep.ok, "%s mutant %s verifies as PASS" % (cls, path.name)):
                x.caught += 1
        x.settled += not x.problems
    return op


def _point_mutant(obj: dict, rng: random.Random) -> dict:
    """Swap one point of one block for a point outside that block."""
    entry = rng.choice(obj["cells"])
    i = rng.randrange(len(entry["block"]))
    entry["block"][i] = rng.choice([p for p in obj["points"] if p not in entry["block"]])
    return obj


def _dup_cell_mutant(obj: dict, rng: random.Random) -> dict:
    """Prepend a one-point cell at an occupied (r, c): the loader keeps the last."""
    entry = rng.choice(obj["cells"])
    obj["cells"].insert(0, {"r": entry["r"], "c": entry["c"], "block": [rng.choice(obj["points"])]})
    return obj


def _unknown_row_mutant(obj: dict, rng: random.Random) -> dict:
    rng.choice(obj["cells"])["r"] = "no-such-row"
    return obj


def _certify_files(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    # a directory of its own: set-up is sampled again while this one is in use
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="certify-%d-" % seed, dir=ROOT / "perfbench" / "out"))
    grids = {name: load_grid(ROOT / "fixtures" / f) for name, f in FIXTURES.items()}
    for q in ((7, 13) if smoke else (37, 49)):
        grids["fq%d" % q] = develop_gbtd(build_fq_gbtd_starter(q))
    ops = []
    texts = {}
    for name, g in grids.items():
        text = dumps_grid(g)
        texts[name] = text
        path = work / (name + ".json")
        path.write_text(text, encoding="utf-8")
        ops.append(Op("valid-" + name, _valid_op(path, text, g)))
        if g.hole is None and g.groups is None and g.kind in ("GBTP", "GBTD"):
            code_text = dumps_code(gbtp_to_code(g))
            code_path = work / (name + ".code.json")
            code_path.write_text(code_text, encoding="utf-8")
            ops.append(Op("code-" + name, _code_op(path, code_path, code_text, g)))
        else:
            ops.append(Op("no-code-" + name, _no_code_op(path)))
    # a single-point mutant fails verification (exit 1); a malformed file may
    # also be refused as unreadable (exit 2)
    mutants = [("point", name, _point_mutant) for name in grids]
    fq = [n for n in grids if n.startswith("fq")][0]
    for base in ("fig3", fq):
        mutants += [("dup-cell", base, _dup_cell_mutant), ("unknown-row", base, _unknown_row_mutant)]
    for i, (cls, base, make) in enumerate(mutants):
        text = json.dumps(make(json.loads(texts[base]), rng), sort_keys=True, indent=1) + "\n"
        path = work / ("%s-%s-%d.json" % (cls, base, i))
        path.write_text(text, encoding="utf-8")
        exits = (1,) if cls == "point" else (1, 2)
        ops.append(Op(path.stem, mutant_op(path, text, cls, exits), malformed=True))
    for i in range(2):
        path = work / ("empty-%d.json" % i)
        path.write_text("{}", encoding="utf-8")
        ops.append(Op(path.stem, mutant_op(path, "{}", "empty"), malformed=True))
    return Workload("certify-files", seed, ops,
                    ("setup_s", "run_s", "cells_per_s", "settled", "fail_ratio", "peak_rss_mb"),
                    workdir=work)


WORKLOADS = {
    "fq-build": _fq_build,
    "chains": _chains,
    "search": _search,
    "certify-files": _certify_files,
}


def setup(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)
