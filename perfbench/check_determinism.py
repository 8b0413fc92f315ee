#!/usr/bin/env python3
"""Checks that the traced run's counts repeat exactly for a given seed.

Runs `perfbench/run.py --trace 1` twice per workload with the same seed and
compares the counts that depend only on the seed: II rows and result ids
of the replayed reads (their total and an order-free digest), the refined
count queries, and the resident bytes of the served set. Later changes can
then cite these as counts rather than timings.

    python3 perfbench/check_determinism.py --seed 1 --seconds 30 \
        d2_mono_read d8_sharded_read d2_mono_ingest

On d2_mono_ingest the engine phase's appends land in the order the workers
execute them, so which global id a row gets varies between runs; the
result-id digest is not compared there (the counts still are).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNT_METRICS = ("search.ii_rows_per_query", "topk.rows_checked_per_query",
                 "count.refined_frac", "count.bound_gap_mean",
                 "resident_bytes")


def traced_run(workload, seed, seconds):
    """Returns the determinism fields and count metrics of one run."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=False).stdout
    fields = {}
    for line in out.splitlines():
        if line.startswith("determinism "):
            fields.update(kv.split("=", 1) for kv in line.split()[1:])
    last = out.strip().splitlines()[-1] if out.strip() else "{}"
    metrics = json.loads(last).get("metrics", {})
    for name in COUNT_METRICS:
        if name in metrics:
            fields[name] = repr(metrics[name]["value"])
    return fields


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("workloads", nargs="+")
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        skip = {"ids_digest"} if workload == "d2_mono_ingest" else set()
        if not first:
            print("%s: no determinism line" % workload)
            ok = False
            continue
        for key in sorted(first):
            same = first[key] == second.get(key)
            mark = "same" if same else "DIFFERS"
            if key in skip:
                mark = "not compared"
            elif not same:
                ok = False
            print("%-16s %-28s %s / %s  %s" % (workload, key, first[key],
                                               second.get(key), mark))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
