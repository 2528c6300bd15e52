"""Interleaved A/B runs of perfbench/run.py on two checkouts of tforge.

    python3 scripts/ab_bench.py --parent ../base --change . --workload fq-build \
        --pairs 10 --seconds 28 --seed 7 --trace-pairs 3 --out BENCH_7.json

Each pair runs the benchmark once in each checkout, one process at a time,
alternating which side goes first.  Both checkouts run their own copy of
perfbench/ and src/; the benchmark settings are the same on both sides.
Before the first pair, the cached bytecode under src/ and perfbench/ is
removed in both checkouts, and every run has PYTHONDONTWRITEBYTECODE=1, so
both sides import from source on every run, as a fresh checkout's first
run does.
Untraced pairs (--trace 0) give the end-to-end metrics, traced pairs
(--trace 1) the per-layer ones.  The output holds, per workload and metric,
every run, each side's median and quartiles, and how many pairs the change
won (ties count for neither side), with the direction that counts as better
read from the change's BENCHMARK.json.  Each op's mean time from the report
line (`op_seconds`, untraced pairs only) is summarized the same way under
`op_seconds`, lower being better.  At the end it prints the same summary
as text, one line per workload and end-to-end metric and then per op.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process: its result line (the last line of stdout), with
    the environment and op times from its report line (the line before)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    report, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return dict(result, env=report["env"], op_seconds=report["op_seconds"])


def clear_bytecode(checkout: Path) -> None:
    """Remove the cached bytecode under the checkout's src/ and perfbench/."""
    for sub in ("src", "perfbench"):
        for cache in list((checkout / sub).rglob("__pycache__")):
            shutil.rmtree(cache)


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: both sides' runs, medians and quartiles, and the change's wins."""
    out = {}
    for name in sorted(pairs[0][0]["metrics"]):
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        out[name] = dict(compare(parent, change, better.get(name, "lower")),
                         unit=pairs[0][0]["metrics"][name]["unit"])
    return out


def summarize_ops(pairs: list) -> dict:
    """Per op: the same summary of its mean time in seconds."""
    return {op: compare([p["op_seconds"][op] for p, _ in pairs],
                        [c["op_seconds"][op] for _, c in pairs], "lower")
            for op in sorted(pairs[0][0]["op_seconds"])}


def compare(parent: list, change: list, better: str) -> dict:
    """Both sides' runs, medians and quartiles, and the change's wins and losses."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    pq, cq = quartiles(parent), quartiles(change)
    return {
        "better": better,
        "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2], "runs": parent},
        "change": {"median": cq[1], "q1": cq[0], "q3": cq[2], "runs": change},
        "change_wins": wins,
        "change_losses": losses,
        "pairs": len(parent),
        # the gain rule: wins in at least nine tenths of the pairs, and
        # medians further apart than the parent's interquartile range
        "gain": wins >= 0.9 * len(parent) and sign * (cq[1] - pq[1]) > pq[2] - pq[0],
    }


def summary_lines(report: dict) -> list:
    """One line per workload and end-to-end metric, then one per workload and
    op: each side's median and interquartile range, the change in percent,
    the change's wins out of the pairs, and "gain" where the gain rule holds."""
    lines = []
    for section in ("end_to_end", "op_seconds"):
        for workload, entry in report["workloads"].items():
            for name, s in entry.get(section, {}).items():
                p, c = s["parent"], s["change"]
                pct = 100 * (c["median"] / p["median"] - 1) if p["median"] else float("nan")
                lines.append("%s %s %s: parent %.4g (IQR %.3g)  change %.4g (IQR %.3g)  "
                             "%+.1f%%  wins %d/%d%s" % (
                                 workload, section, name, p["median"], p["q3"] - p["q1"],
                                 c["median"], c["q3"] - c["q1"], pct, s["change_wins"],
                                 s["pairs"], "  gain" if s["gain"] else ""))
    return lines


def run_pairs(args, workload: str, count: int, trace: int) -> list:
    pairs = []
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            t0 = time.monotonic()
            got[side] = run_bench(getattr(args, side), workload, args.seed, args.seconds, trace)
            print("%s trace=%d pair %d/%d %s: %.0f s, correct=%s" % (
                workload, trace, i + 1, count, side, time.monotonic() - t0,
                got[side]["correct"]), file=sys.stderr, flush=True)
        pairs.append((got["parent"], got["change"]))
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10, help="untraced pairs per workload")
    ap.add_argument("--trace-pairs", type=int, default=0, help="traced pairs per workload")
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for checkout in (args.parent, args.change):
        clear_bytecode(checkout)
    for workload in args.workload:
        entry = report["workloads"][workload] = {}
        for key, count, trace in (("end_to_end", args.pairs, 0),
                                  ("per_layer", args.trace_pairs, 1)):
            if count:
                pairs = run_pairs(args, workload, count, trace)
                report.setdefault("env", {"parent": pairs[0][0]["env"], "change": pairs[0][1]["env"]})
                entry[key] = summarize(pairs, better)
                if not trace:
                    entry["op_seconds"] = summarize_ops(pairs)
                entry.setdefault("correct", True)
                entry["correct"] &= all(p["correct"] and c["correct"] for p, c in pairs)
        # written after each workload, so a long run keeps what it finished
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("\n".join(summary_lines(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
