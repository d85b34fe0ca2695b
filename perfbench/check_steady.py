#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/check_steady.py --seeds 10 [--workloads self-skew,...]

For every workload and end-to-end metric (per-layer with --trace 1) it
prints the median of the runs and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median. A metric is steady when its spread is below a third of
its bound in BENCHMARK.json; setup_s is reported but exempt. Exits 1
when a run fails or an end-to-end metric is not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--same-seed", action="store_true",
                    help="repeat --first-seed instead of advancing it "
                    "(separates machine noise from input variation)")
    args = ap.parse_args()

    specs = bench["per_layer" if args.trace else "end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in specs}
        seeds = [args.first_seed + (0 if args.same_seed else i)
                 for i in range(args.seeds)]
        for seed in seeds:
            result = run(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({args.seeds} seeds)")
        for m in specs:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ""
            if "bound" in m:
                steady = spread < m["bound"] / 3
                verdict = "ok" if steady else "NOT STEADY"
                if m["name"] == "setup_s":
                    verdict += " (exempt)"
                elif not steady:
                    ok = False
            print(f"  {m['name']:34s} median {med:.6g} {m['unit']:6s} "
                  f"spread {spread:.4f} {verdict}")
            print("      " + " ".join(f"{x:.5g}" for x in v))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
