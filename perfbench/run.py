#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload batch_csv --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The library and the measuring program are compiled from this checkout in
Release into $CARGO_TARGET_DIR (default .bench_build) under the checkout
root. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics listed in
BENCHMARK.json when untraced (--trace 0), its per-layer metrics when traced
(--trace 1). The line before it reports the run's provenance and the
workload's metrics under the names the benchmark's documentation uses.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
WORKLOADS = ("batch_csv", "serve_flood")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources next to perfbench/ (src/ is missing)")
    bdir = os.path.join(build_root(), "perfbench-" + BUILD_TYPE.lower())
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)
    return bdir


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def measure(bdir, workload, seed, seconds, trace):
    """Runs the measuring program once; returns its parsed JSON record."""
    work = os.path.join(build_root(), "perfbench-work")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % out.returncode)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed no result")
    return json.loads(lines[-1])


def contract_line(record, trace):
    """The result line: exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError("metric %s missing or in the wrong unit" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": metrics}


def self_test(bdir):
    """Unit tests, then every workload on the default and the held-out
    seed: each must pass its output checks (every run also regenerates its
    inputs several times and fails unless they are identical)."""
    tests = os.path.join(bdir, "perfbench_tests")
    if not os.path.isfile(tests):
        log("self-test: GTest not found, unit tests not built")
        return 1
    if subprocess.run([tests], stdout=sys.stderr).returncode != 0:
        return 1
    ok = True
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                rec = measure(bdir, workload, seed, 2, trace)
                line = contract_line(rec, trace)
                good = line["correct"] and line["failed"] == 0
                ok = ok and good
                log("self-test: %s seed %d trace %d: %s%s" % (
                    workload, seed, trace, "ok" if good else "FAILED ",
                    "" if good else rec.get("errors")))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        if args.self_test:
            return self_test(build(["perfbench", "perfbench_tests"]))
        bdir = build(["perfbench"])
        record = measure(bdir, args.workload, args.seed, args.seconds, args.trace)
        line = contract_line(record, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    results = os.path.join(build_root(), "perfbench-results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)
    for e in record.get("errors", []):
        log("perfbench: check failed: %s" % e)
    print(json.dumps({"provenance": record["provenance"],
                      "report": {k: v["value"] for k, v in record["metrics"].items()}}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
