#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per end-to-end metric,
the median and the spread (interquartile distance as a share of the
median) next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload serve_flood --runs 10 [--first-seed 1]

Seeds first-seed .. first-seed + runs - 1 are used, one run each.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        line = json.loads(out.stdout.strip().splitlines()[-1])
        if not line["correct"] or line["failed"]:
            print("seed %d: output checks FAILED" % seed)
        for name, m in line["metrics"].items():
            values[name].append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in line["metrics"].items())),
              flush=True)
    worst = 0.0
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print("%-22s median %-14.6g spread %.4f bound %.2f%s" % (
            m["name"], med, spread, m["bound"],
            "" if spread <= m["bound"] / 3 else "  (above a third of the bound)"))
    print("largest spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
