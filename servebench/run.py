#!/usr/bin/env python3
"""Builds and runs the qcont served-verdict benchmark.

Usage (from the repository root):

  python3 servebench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is compiled from ../src with its own CMake project
(servebench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build when that
is unset. The build log goes to standard error. With one workload, the last
line of standard output is the benchmark's JSON result; with "all", every
workload runs in its own process and a table of every metric, by name and
unit, follows. --trace 1 also writes the replay's spans as Chrome trace_event
JSON to <build dir>/servebench_trace_<workload>.json.

Exit status: 0 when every run was correct; non-zero when the build fails, a
run fails, or an answer disagrees with the oracle.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["contain_cold", "serve_hot", "eval_closure"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "servebench"],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}", file=sys.stderr)
            sys.exit(result.returncode or 1)
    return os.path.join(out, "servebench")


def run_one(binary, workload, args, capture):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--trace-out",
                os.path.join(build_dir(), f"servebench_trace_{workload}.json")]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1, None
    if not capture:
        sys.stdout.write(stdout)
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)  # BENCHMARK.json run_seconds
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args, capture=False)
        return code

    worst = 0
    rows = []
    for workload in WORKLOADS:
        code, result = run_one(binary, workload, args, capture=True)
        worst = worst or code
        if result is None:
            rows.append((workload, "(no result)", "", ""))
            worst = worst or 1
            continue
        rows.append((workload, "correct", str(result["correct"]).lower(), ""))
        rows.append((workload, "attempted", str(result["attempted"]), "requests"))
        rows.append((workload, "failed", str(result["failed"]), "requests"))
        for name, m in result["metrics"].items():
            rows.append((workload, name, f"{m['value']:.6g}", m["unit"]))
    print(f"{'workload':<14} {'metric':<40} {'value':>14}  unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<14} {name:<40} {value:>14}  {unit}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
