"""Record perfbench/reference.json from the current program.

    python3 perfbench/record.py

Runs one round of every workload, full size and smoke size, and stores the
sha256 of every canonical JSON output and the node count of every search.
Recording accepts the current outputs as correct: do it only when a change
to the outputs or to a search is intended, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run
from spans import Tracer


def main() -> int:
    outputs, nodes, problems = {}, {}, []
    for name in sorted(run.workloads.WORKLOADS):
        for smoke in (False, True):
            w = run.workloads.setup(name, 0, smoke)
            try:
                runs = run.measure(w, 0, Tracer(False), None)
            finally:
                w.close()
            for op, xs in runs.items():
                x = xs[0]
                outputs.update(x.outputs)
                nodes.update({s["search"]: s["nodes"] for s in x.searches
                              if s["nodes"] is not None})
                if x.problems and not any(o.malformed for o in w.ops if o.name == op):
                    problems.append((name, smoke, op, x.problems))
    for p in problems:
        print("problem:", p, file=sys.stderr)
    if problems:
        return 1
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"outputs": outputs, "nodes": nodes}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
