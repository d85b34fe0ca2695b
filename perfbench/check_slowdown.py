#!/usr/bin/env python3
"""Checks that the end-to-end bounds catch a slowed layer.

    python3 perfbench/check_slowdown.py [--call JoinEngine::delta_join]
                                        [--delay-ms 10] [--seeds 3]

Runs every workload on the same seeds twice: as is, and with the
test-only delay (run.py --inject-after CALL --inject-delay-ms MS), which
sleeps after each call site named CALL in the benchmark's own code. A
workload is flagged when the median of some end-to-end metric is worse
with the delay by more than that metric's bound in BENCHMARK.json
(setup_s included). The check passes when exactly the workload that
makes the call is flagged. Base and delayed runs alternate which goes
first. Exits 1 when the check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The workload whose measured operations make each injectable call.
CALLER = {
    "JoinEngine::run": "self-skew",
    "JoinEngine::delta_join": "churn-delta",
    "JoinService::submit": "serve-mix",
}


def run(workload, seed, seconds, call, delay_ms):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    if call:
        cmd += ["--inject-after", call, "--inject-delay-ms", str(delay_ms)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed verification")
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--call", default="JoinEngine::delta_join",
                    choices=sorted(CALLER))
    ap.add_argument("--delay-ms", type=float, default=10.0)
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    flagged = set()
    for w in bench["workloads"]:
        name = w["name"]
        runs = {"base": [], "delayed": []}
        for seed in range(1, args.seeds + 1):
            order = ["base", "delayed"] if seed % 2 else ["delayed", "base"]
            for side in order:
                call = args.call if side == "delayed" else ""
                runs[side].append(run(name, seed, args.seconds, call,
                                      args.delay_ms))
        print(f"== {name}")
        for m in bench["end_to_end"]:
            base = statistics.median(r[m["name"]]["value"] for r in runs["base"])
            slow = statistics.median(r[m["name"]]["value"]
                                     for r in runs["delayed"])
            worse = (slow - base) / base if m["better"] == "lower" \
                else (base - slow) / base
            hit = worse > m["bound"]
            if hit:
                flagged.add(name)
            print(f"  {m['name']:12s} base {base:.6g} delayed {slow:.6g} "
                  f"worse by {worse:+.3f} (bound {m['bound']})"
                  f"{'  FLAGGED' if hit else ''}")
    expected = {CALLER[args.call]}
    print(f"flagged: {sorted(flagged)}; expected: {sorted(expected)}")
    sys.exit(0 if flagged == expected else 1)


if __name__ == "__main__":
    main()
