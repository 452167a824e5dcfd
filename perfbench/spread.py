#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per metric, the median and
the spread: the distance between the first and third quartile as a share of
the median (the figure each end-to-end bound is compared against).

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--trace 1]

Run from the repository root.  Seeds are a range `a-b` or a list `a,b,c`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--all", action="store_true",
                        help="also summarise every metric the run prints, "
                             "not only those of the result line")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: a check failed\n{run.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if args.all:
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) >= 3 and parts[1] == "=" and parts[0] not in result["metrics"]:
                    values.setdefault(parts[0], []).append(float(parts[2]))
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            file=sys.stderr)

    print(f"{'metric':32} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of its bound"
        print(f"{name:32} {med:12.5g} {spread:8.3f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
