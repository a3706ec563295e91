#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload with seeds 1 to --runs, untraced, and prints every
end-to-end metric's median and quartile spread ((q3 - q1) / median) next
to its bound from BENCHMARK.json, then one traced run per workload (seed 1) and the
tracing overhead on throughput (traced minus untraced median, as a share
of the untraced median). Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads serve-run
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def printed(lines, workload, name):
    """The value of a metric from the run's report lines."""
    for line in lines:
        m = re.match(rf"{re.escape(workload)} {re.escape(name)} = (\S+)", line)
        if m:
            return float(m.group(1))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    worst = 0.0
    for w in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        shares = set()
        for i in range(args.runs):
            res, _ = run(w, 1 + i, seconds, 0)
            if not res["correct"]:
                sys.exit(f"{w} seed {1 + i}: outputs failed their checks")
            shares.add(res["failed"] / res["attempted"])
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"{w}: {args.runs} runs, failed share {sorted(shares)}")
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else "  <-- above a third of the bound"
            worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:16} median {med:.6g} {m['unit']:7} spread {spread:7.2%} bound {m['bound']:.0%}{flag}")
            print("    runs: " + " ".join(f"{x:.4g}" for x in xs))
        res, lines = run(w, 1, seconds, 1)
        traced = printed(lines, w, "throughput")
        base = statistics.median(values["throughput"])
        print(f"  tracing overhead on throughput: {(base - traced) / base:+.2%} "
              f"(traced {traced:.6g}, untraced median {base:.6g})")
    print(f"largest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
