#!/usr/bin/env python3
"""Self-tests of the served-verdict benchmark.

Usage (from the repository root):  python3 servebench/selftest.py

1. Builds the benchmark (as run.py does) and runs `servebench --self-test`:
   the percentile rule, generator determinism, the oracles on hand-checked
   cases (and every constructed containment family re-derived by both
   engines), the star family's crossover (type engine faster at f=2, ACk
   at f=12; every star its own core), and traced-replay answers against
   server answers.
2. Runs a short traced run of every workload and validates each trace file
   with the repository's tools/check_trace.py, read-only and unchanged.
3. Checks that one seed gives the same request-stream hash twice and that
   the runs print every metric BENCHMARK.json lists.

Exit status 0 when everything passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402  (same directory)

CHECK_TRACE = os.path.join(HERE, os.pardir, "tools", "check_trace.py")
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def stream_hash(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0.05",
         "--trace", "0"], capture_output=True, text=True, check=True).stdout
    return out.splitlines()[0]


def main():
    failures = []
    binary = run.build()

    if subprocess.run([binary, "--self-test"]).returncode != 0:
        failures.append("servebench --self-test")

    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        spec = json.load(f)
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in run.WORKLOADS:
            trace_path = os.path.join(run.build_dir(), f"selftest_trace_{workload}.json")
            cmd = [binary, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                   "--trace", str(mode)]
            if mode == 1:
                cmd += ["--trace-out", trace_path]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{workload} --trace {mode}: not correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if want != got:
                failures.append(f"{workload} --trace {mode}: metrics differ from "
                                f"BENCHMARK.json {key}")
            if mode == 1 and subprocess.run(
                    [sys.executable, CHECK_TRACE, trace_path]).returncode != 0:
                failures.append(f"{workload}: check_trace.py rejects the trace")

    for workload in run.WORKLOADS:
        if stream_hash(binary, workload, 9) != stream_hash(binary, workload, 9):
            failures.append(f"{workload}: stream hash differs between runs")

    for failure in failures:
        print(f"selftest: FAIL {failure}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
