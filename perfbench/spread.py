#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads suite,profile-heldout --runs 10 \
        --first-seed 1 --seconds 5 --out runs.jsonl

Runs perfbench/run.py once per (workload, seed), appends each run's
result and detail lines to --out, and prints a markdown table per
workload: one row per run (with the host probe), then each metric's
median and its quartile spread, (Q3 - Q1) / median, with the quartiles
of statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def table(workload, runs):
    names = sorted(runs[0]["result"]["metrics"])
    out = [f"### {workload}", "",
           "| seed | " + " | ".join(names) + " | measured wall_s | kernel_ms | ok |",
           "|" + "---|" * (len(names) + 4)]
    for r in runs:
        m = r["result"]["metrics"]
        d = r["detail"]
        out.append(f"| {r['seed']} | " + " | ".join(f"{m[n]['value']:.4g}" for n in names)
                   + f" | {d['measured']['wall_s']:.4g} | {d['kernel_ms']:.3f} | {r['result']['correct']} |")
    meds, spreads = [], []
    for n in names:
        med, s = spread([r["result"]["metrics"][n]["value"] for r in runs])
        meds.append(f"{med:.4g}")
        spreads.append(f"{100 * s:.1f}%")
    out.append("| median | " + " | ".join(meds) + " | | | |")
    out.append("| spread | " + " | ".join(spreads) + " | | | |")
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    for w in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            detail, result = run_once(w, seed, args.seconds, args.trace)
            rec = {"workload": w, "seed": seed, "trace": args.trace, "detail": detail, "result": result}
            with open(args.out, "a") as f:
                f.write(json.dumps(rec) + "\n")
            runs.append(rec)
        print(table(w, runs), flush=True)
        print(flush=True)


if __name__ == "__main__":
    main()
