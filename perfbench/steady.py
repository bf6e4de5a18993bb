#!/usr/bin/env python3
"""Runs the benchmark's workloads and reports how steady they are.

Run from the repository root:

    python3 perfbench/steady.py                      # every workload once
    python3 perfbench/steady.py --runs 10            # steadiness report
    python3 perfbench/steady.py --workloads serve_open --runs 5 --trace

First it writes BENCHMARK.json from the benchmark's own declaration
(`perfbench --describe`), so the file always matches the code.  Each run
is then one process of that file's command with its own seed (first seed,
first seed + 1, ...) and the file's run length; every run checks its
outputs, and a failed check stops the report.  For every metric the
report prints the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them), the spread IQR/median and
each run's value, and flags every end-to-end metric, setup_s included,
whose spread exceeds its bound.  With --trace the runs are traced and
the per-layer metrics are reported, with the tracing overhead
(trace.overhead_ratio) and the share of request time no span covers
(trace.unattributed_share).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed")
    # Metrics the run prints but BENCHMARK.json does not declare
    # (failed_share, slo_attainment), from the "  name value unit" lines.
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3 and parts[0] not in result["metrics"]:
            result["metrics"][parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated workload names, or all")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        command = json.load(f)["command"]
    described = subprocess.run(command + ["--describe"], stdout=subprocess.PIPE,
                               text=True, check=True).stdout
    bench = json.loads(described)
    with open("BENCHMARK.json", "w") as f:
        f.write(described)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    flagged = []
    for workload in names:
        values = {}
        units = {}
        attempted = failed = 0
        for k in range(args.runs):
            result = run_once(bench["command"], workload, args.first_seed + k,
                              bench["run_seconds"], args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: {args.runs} run(s), {attempted} requests, {failed} failed")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}  unit  runs")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
            else:
                q1 = q3 = med
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = f"  > bound {bound}"
                flagged.append(f"{workload}/{name}")
            runs = " ".join(f"{v:.4g}" for v in vals)
            print(f"  {name:<28} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f}  {units[name]}  {runs}{flag}")
    if flagged:
        print("spread above bound: " + ", ".join(flagged))
        sys.exit(1)


if __name__ == "__main__":
    main()
