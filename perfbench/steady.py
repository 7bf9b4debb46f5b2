#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs two interleaved sets of benchmark runs per workload (set A with seeds
1..N, set B with seeds 101..100+N, alternating A and B), then prints
for every end-to-end metric each set's median and quartiles, the spread
(q3 - q1) / median, and the drift of B's median against A's, next to the
metric's bound from BENCHMARK.json. It exits 1 if any spread or any drift,
in either direction, exceeds its bound. Run it from the repository root:

    python3 perfbench/steady.py --runs 10

Every run's result line is appended to .bench_build/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SETS = 2


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{p.stderr}")
    return res


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    os.makedirs(".bench_build", exist_ok=True)
    log = open(".bench_build/steady.jsonl", "a")

    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        sets = [[] for _ in range(SETS)]
        for i in range(args.runs):
            for s in range(SETS):
                seed = 1 + i + 100 * s
                res = run_once(bench, name, seed, seconds)
                log.write(json.dumps({"workload": name, "set": s, "seed": seed, **res}) + "\n")
                log.flush()
                sets[s].append(res["metrics"])
        print(f"== {name}: {args.runs} runs per set, {seconds} s each")
        print(f"{'metric':14} {'bound':>6} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'drift':>8}")
        for m in bench["end_to_end"]:
            first = None
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summary([r[m["name"]]["value"] for r in runs])
                drift = None if first is None else med / first - 1
                flag = ""
                if spread > m["bound"]:
                    flag += "  spread > bound"
                if drift is not None and abs(drift) > m["bound"]:
                    flag += "  drift > bound"
                ok = ok and not flag
                shown = "" if drift is None else f"{drift:+8.3f}"
                print(f"{m['name']:14} {m['bound']:6.2f} {'AB'[s]:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {shown:>8}{flag}")
                if first is None:
                    first = med
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
