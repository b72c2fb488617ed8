#!/usr/bin/env python3
"""Noise model of the benchmark.

Runs each workload several times, each with another seed, the way
BENCHMARK.json says the benchmark is run, and prints per metric the median,
the quartiles (statistics.quantiles(values, n=4)), the distance between the
quartiles as a share of the median, and the min-max spread. Run it from the
repository root:

    python3 bench/noise.py --runs 10                  # every workload, end-to-end metrics
    python3 bench/noise.py --runs 5 --workload mixed-durable --trace 1
    python3 bench/noise.py --runs 10 --save a.json    # keep the values
    python3 bench/noise.py --compare a.json b.json    # two sets of runs against the bounds

An end-to-end metric whose quartile spread exceeds a third of its bound is
marked "noisy". With --compare, a metric whose median in the second set is
worse than in the first by more than its bound is marked "REGRESSED".
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)}: correct={res['correct']} failed={res['failed']}")
    return {name: m["value"] for name, m in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def summarize(workload, runs, bounds):
    print(f"\n{workload} ({len(runs)} runs)")
    print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min-1':>9}  bound")
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, med, q3, iqr = spread(values)
        lo, hi = min(values), max(values)
        mm = hi / lo - 1 if lo > 0 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and iqr > bound / 3:
            flag = "  noisy"
        b = "" if bound is None else f"{bound:.2f}"
        print(f"  {name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.2%} {mm:9.2%}  {b}{flag}")


def compare(spec, a, b):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    bad = 0
    for workload in a:
        print(f"\n{workload}")
        for name, m in metrics.items():
            ma = statistics.median(r[name] for r in a[workload])
            mb = statistics.median(r[name] for r in b[workload])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "  REGRESSED" if worse > m["bound"] else ""
            bad += bool(flag)
            print(f"  {name:24} {ma:12.6g} -> {mb:12.6g}  worse by {worse:+8.2%} (bound {m['bound']:.2f}){flag}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save", help="write the measured values to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two saved sets")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(1 if compare(spec, *sets) else 0)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        names = [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if args.trace == 0 else {}
    saved = {}
    for workload in names:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(spec, workload, args.first_seed + i, args.trace))
            print(f"{workload} seed {args.first_seed + i}: done", file=sys.stderr)
        saved[workload] = runs
        summarize(workload, runs, bounds)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
