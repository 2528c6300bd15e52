#!/usr/bin/env python3
"""Survey the starter searches: find starters per family, develop and verify.

Every found starter is developed into its full array and run through the
matching class verifier; the survey prints parameters, node counts with the
search's rate in nodes/s, and the derived code stats where a code applies.
`--only` runs the default searches of one kind, or the one search it names:

    python scripts/starter_survey.py --only frgbtd:t=7 --budget 20000000
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from tforge.codes import code_stats, gbtp_to_code
from tforge.designs import verify_auto
from tforge.search import search_starter
from tforge.starters import develop_starter

DEFAULT = [
    ("gbtd", {"m": 7}),
    ("gbtd", {"m": 7, "special": True}),
    ("frgbtd", {"t": 5}),
    ("frgbtd", {"t": 7}),
    ("igbtp_z2", {"m": 11, "w": 9}),
    ("igbtp_z2", {"m": 13, "w": 9}),
    ("igbtp_z4", {"m": 5}),
    ("igbtp_z4", {"m": 7}),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=int, default=30_000_000)
    ap.add_argument("--count", type=int, default=1)
    ap.add_argument("--only", default=None, metavar="KIND[:KEY=VALUE,...]",
                    help="the default searches of one kind, or one search, e.g. frgbtd:t=7")
    args = ap.parse_args()

    cases = DEFAULT
    if args.only:
        kind, _, rest = args.only.partition(":")
        params = {k: (v == "true" if v in ("true", "false") else int(v))
                  for k, v in (kv.split("=") for kv in rest.split(",") if kv)}
        cases = [c for c in DEFAULT if c[0] == kind] if not params else [(kind, params)]

    for kind, params in cases:
        t0 = time.perf_counter()
        res = search_starter(kind, params, budget=args.budget, count=args.count)
        dt = time.perf_counter() - t0
        rate = "nodes=%d (%.0f nodes/s)" % (res.nodes, res.nodes / dt)
        if not res.starters:
            print("%-9s %-28s none found (%s, exhausted=%s) %.1fs"
                  % (kind, params, rate, res.exhausted, dt))
            continue
        grid = develop_starter(res.starters[0])
        ok = verify_auto(grid).ok
        line = "%-9s %-28s found=%d %s  %dx%d verify=%s  %.1fs" % (
            kind, params, len(res.starters), rate, grid.m, grid.n, ok, dt)
        if kind == "gbtd":
            st = code_stats(gbtp_to_code(grid))
            line += "  code (%d,%d)_%d M=%d" % (st.n, st.d, st.q, st.M)
        print(line, flush=True)


if __name__ == "__main__":
    main()
