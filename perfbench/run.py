#!/usr/bin/env python3
"""Builds and runs the pinned benchmark for one workload.

    python3 perfbench/run.py --workload self-skew --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (a CMake project over the library
sources) into .bench_build/ at the repository root, then runs the
benchmark binary with the workload parameters of perfbench/workloads.json
and the metric names of BENCHMARK.json. Build output goes to stderr; the
binary's last stdout line is the JSON result. Exits non-zero, without a
result line, when the build or the run fails.

--inject-after CALL --inject-delay-ms MS is a test-only slowdown: the
benchmark sleeps MS after every call site named CALL (for example
JoinEngine::delta_join). perfbench/check_slowdown.py uses it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gsj_perfbench")
RUN_TIMEOUT_S = 170


def build():
    generated = [os.path.join(BUILD, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.isfile(f) for f in generated):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True, timeout=600)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=850)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-after", default="")
    ap.add_argument("--inject-delay-ms", type=float, default=0.0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        sys.exit(f"run.py: unknown workload {args.workload}")
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except (subprocess.SubprocessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--metrics", ",".join(m["name"] for m in metrics)]
    params = dict(spec["common"])
    for w in spec["workloads"].values():
        params.update(w["params"])
    for key, value in params.items():
        cmd += [f"--{key}", str(value)]
    if args.inject_after:
        cmd += ["--inject-after", args.inject_after,
                "--inject-delay-ms", str(args.inject_delay_ms)]

    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: timed out after {time.monotonic() - start:.0f} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
