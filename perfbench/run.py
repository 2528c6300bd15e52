"""tforge benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload fq-build --seed 1 --seconds 28 --trace 0

Set-up time is the median time a fresh interpreter takes to import tforge
plus the median time of one set-up of the workload's inputs; both are
sampled five times before the timed part and once after each of its rounds,
so that set-up sees the same states of a shared machine as the ops do.

The timed part runs every op of the workload once, then goes on round after
round, in a seeded order, until --seconds have passed; each op's time is its
mean over its executions and run_s sums them into one round.  Every op's
output is checked against its reference, and canonical JSON against the
hashes in perfbench/reference.json.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 gives the end-to-end metrics; --trace 1 gives the
per-layer ones, from spans around every call into tforge, and writes the
spans to perfbench/out/.  The line before it is a report: environment,
failing ops, every search's nodes and stop reason, node counts that moved
against the reference, and each op's mean time.  --smoke runs the
workload at a tiny size through the same code paths.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
try:
    import workloads
    from spans import Tracer, span_cost
except ImportError as exc:  # not run from a tforge checkout
    sys.exit("perfbench: cannot import tforge from %s: %s" % (ROOT / "src", exc))

SETUP_REPEATS = 5  # set-up samples before the timed part
LAYERS = ("bench", "starters", "designs", "codes", "constructions", "search", "cli")
SPAN_KEYS = ("designs.verify", "designs.reject", "designs.loads", "designs.dumps",
             "designs.promote", "codes.to_code", "codes.stats", "codes.to_grid", "codes.json",
             "starters.build", "starters.develop", "starters.verify", "starters.dumps",
             "constructions.td", "constructions.tripling", "constructions.inflate",
             "constructions.frame_fill", "constructions.fill_hole",
             "search.eswc_prep", "search.eswc", "search.gbtp", "search.witness",
             "cli.verify", "cli.to_code", "cli.stats")
STARTER_KINDS = ("gbtd", "frgbtd", "igbtp_z2", "igbtp_z4")
# value of an end-to-end metric a workload does not measure (every metric
# must be present and non-zero on every workload)
NOT_MEASURED = 1.0


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(w, seconds: float, tracer, reference: dict | None, between_rounds=None) -> dict:
    """Every op once, then round after round until `seconds` have passed.

    Returns {op name: [Ctx of each execution]}; each Ctx carries the op's wall
    time and the range of its spans.  With reference None nothing is compared
    against recorded hashes.  A full collection before each op (not timed)
    starts every op from the same heap, whatever ran before it.
    between_rounds(), if given, runs after each full round inside the window.
    """
    rng = random.Random(w.seed)
    runs = {op.name: [] for op in w.ops}
    start = time.perf_counter()
    while True:
        order = list(w.ops)
        rng.shuffle(order)
        for op in order:
            if all(runs.values()) and time.perf_counter() - start >= seconds:
                return runs
            gc.collect()
            x = workloads.Ctx(tracer, reference)
            lo = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                tracer.call("bench." + op.name, op.fn, x)
            except Exception as exc:  # the op failed: record it and go on
                x.problems.append("raised %s: %s" % (type(exc).__name__, exc))
            x.seconds = time.perf_counter() - t0
            x.spans = (lo, len(tracer.spans))
            runs[op.name].append(x)
        if between_rounds is not None and time.perf_counter() - start < seconds:
            between_rounds()


def per_round(runs: dict, value) -> float:
    """Sum over ops of the op's mean over its executions: one round's worth.

    The machine's speed shifts between states that last from seconds to
    minutes; a mean over the whole window averages them, where a median
    would follow whichever state held most of it.
    """
    return sum(statistics.fmean(value(x) for x in xs) for xs in runs.values())


def failed_ops(runs: dict) -> int:
    """Ops with at least one failed execution."""
    return sum(any(x.problems for x in xs) for xs in runs.values())


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _timed_searches(x) -> list:
    return [s for s in x.searches if s["nodes"] is not None]


def end_to_end(w, runs: dict, setup_s: float) -> dict:
    run_s = per_round(runs, lambda x: x.seconds)
    search_s = per_round(runs, lambda x: sum(s["seconds"] for s in _timed_searches(x)))
    nodes = per_round(runs, lambda x: sum(s["nodes"] for s in _timed_searches(x)))
    values = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "cells_per_s": (per_round(runs, lambda x: x.cells) / run_s, "cells/s"),
        "nodes_per_s": (_ratio(nodes, search_s), "nodes/s"),
        "settled": (per_round(runs, lambda x: x.settled), "count"),
        # add-one smoothed: a clean workload reads 1/(ops+1), never 0
        "fail_ratio": ((failed_ops(runs) + 1) / (len(runs) + 1), "failed/attempted"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v if k in w.measures else NOT_MEASURED, "unit": u}
            for k, (v, u) in values.items()}


def per_layer(runs: dict, tracer, cost_per_span: float) -> dict:
    self_t = {id(x): tracer.self_times(*x.spans) for xs in runs.values() for x in xs}

    def t(key):
        return per_round(runs, lambda x: self_t[id(x)].get(key, 0.0))

    def rate(key):
        picked = [s for xs in runs.values() for x in xs for s in _timed_searches(x)
                  if s["key"] == key]
        return _ratio(sum(s["nodes"] for s in picked), sum(s["seconds"] for s in picked))

    spans = per_round(runs, lambda x: x.spans[1] - x.spans[0])
    out = {"bench.run_s": (per_round(runs, lambda x: x.seconds), "s"),
           "trace.spans": (spans, "count"),
           "trace.overhead_s": (spans * cost_per_span, "s")}
    for layer in LAYERS:
        out[layer + ".self_s"] = (per_round(runs, lambda x: sum(
            v for k, v in self_t[id(x)].items() if k.split(".")[0] == layer)), "s")
    for key in SPAN_KEYS:
        out[key + "_s"] = (t(key), "s")
    for name in workloads.RECIPES:
        out["constructions.recipe.%s_s" % name] = (t("constructions.recipe." + name), "s")
    out["search.starter_s"] = (sum(t("search.starter." + k) for k in STARTER_KINDS), "s")
    out["designs.verify_cells_per_s"] = (
        _ratio(per_round(runs, lambda x: x.verified_cells), t("designs.verify")), "cells/s")
    out["designs.json_mb_per_s"] = (
        _ratio(per_round(runs, lambda x: x.json_bytes) / 1e6,
               t("designs.loads") + t("designs.dumps")), "MB/s")
    out["designs.mutants_caught"] = (per_round(runs, lambda x: x.caught), "count")
    out["search.eswc_nodes_per_s"] = (rate("search.eswc"), "nodes/s")
    out["search.gbtp_nodes_per_s"] = (rate("search.gbtp"), "nodes/s")
    for kind in STARTER_KINDS:
        out["search.starter_nodes_per_s." + kind] = (rate("search.starter." + kind), "nodes/s")
    out["search.nodes"] = (per_round(runs, lambda x: sum(
        s["nodes"] for s in _timed_searches(x))), "count")
    out["search.exhausted"] = (per_round(runs, lambda x: sum(
        s["stop"] == "exhausted" for s in x.searches)), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def _read(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    from importlib.metadata import version

    model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor())
    head = _read(ROOT / ".git" / "HEAD")
    commit = _read(ROOT / ".git" / head.split()[1]) if head.startswith("ref:") else head
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": version("numpy"),
            "click": version("click"), "commit": commit or None,
            "loadavg_start": os.getloadavg()}


def import_seconds() -> float:
    """Time a fresh interpreter takes to import tforge and the workloads."""
    code = ("import sys, time; t = time.perf_counter(); sys.path[:0] = %r; import workloads; "
            "print(time.perf_counter() - t)" % ([str(ROOT / "src"), str(HERE)],))
    return float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                                capture_output=True, text=True, timeout=120).stdout)


def sample_setup(name: str, seed: int, smoke: bool, samples: dict):
    """One set-up sample: a fresh interpreter's imports, then the workload's inputs."""
    samples["import_s"].append(import_seconds())
    t0 = time.perf_counter()
    w = workloads.setup(name, seed, smoke)
    samples["inputs_s"].append(time.perf_counter() - t0)
    return w


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 reference: dict | None = None):
    """Set up, measure and score one workload; returns (result, report)."""
    reference = load_reference() if reference is None else reference
    env = environment()
    samples = {"import_s": [], "inputs_s": []}
    w = None
    try:
        for _ in range(SETUP_REPEATS):
            if w is not None:
                w.close()
            w = sample_setup(name, seed, smoke, samples)
        tracer = Tracer(trace)
        runs = measure(w, seconds, tracer, reference,
                       lambda: sample_setup(name, seed, smoke, samples).close())
    finally:
        if w is not None:
            w.close()
    env["loadavg_end"] = os.getloadavg()
    malformed = {op.name for op in w.ops if op.malformed}
    failing = {name: next(x.problems for x in xs if x.problems)
               for name, xs in runs.items() if any(x.problems for x in xs)}
    searches = [dict(s, op=name) for name, xs in runs.items() for s in _timed_searches(xs[0])]
    if trace:
        metrics = per_layer(runs, tracer, span_cost())
        (HERE / "out").mkdir(exist_ok=True)
        tracer.write(HERE / "out" / ("trace-%s-%d.json" % (name, seed)))
    else:
        metrics = end_to_end(w, runs, sum(map(statistics.median, samples.values())))
    report = {
        "workload": name, "seed": seed, "smoke": smoke, "trace": trace,
        "executions": {op: len(xs) for op, xs in runs.items()}, "env": env,
        "setup_samples": samples,
        "measured": list(w.measures), "failing_ops": failing,
        "op_seconds": {op: statistics.fmean(x.seconds for x in xs) for op, xs in runs.items()},
        "op_runs_s": {op: [x.seconds for x in xs] for op, xs in runs.items()},
        "searches": [{k: s[k] for k in ("op", "search", "nodes", "stop", "budget")}
                     for s in searches],
        "node_counts_moved": [{"search": s["search"], "nodes": s["nodes"],
                               "reference": reference["nodes"].get(s["search"])}
                              for s in searches
                              if reference["nodes"].get(s["search"]) != s["nodes"]],
    }
    result = {
        # outputs on valid inputs; malformed-input ops count in failed and fail_ratio.
        # Each op counts once however often the window repeated it, so the
        # counts do not depend on how many rounds fit in --seconds.
        "correct": not (set(failing) - malformed),
        "attempted": len(runs),
        "failed": failed_ops(runs),
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tforge benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "fixtures").is_dir() or not (HERE / "reference.json").is_file():
        print("perfbench: fixtures/ or perfbench/reference.json missing", file=sys.stderr)
        return 2
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.smoke)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
