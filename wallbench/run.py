#!/usr/bin/env python3
"""Builds R3DB's wall-clock benchmark from source and runs one workload.

Run from the root of the repository:

  python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 wallbench/run.py --selftest

The build goes to .bench_build/wallbench (RelWithDebInfo). The benchmark's
report goes to stderr and its last line on stdout is the JSON result. A
traced run also writes its first trace chunk to
.bench_build/traces/<workload>.json (open it in https://ui.perfetto.dev).
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not be built or run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wallbench")
WORKLOADS = ["tpcd_power_rdbms", "tpcd_power_sap", "batch_input_load", "dialog_oltp"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("wallbench: build step failed: " + " ".join(cmd))
            return False
    return True


def run_bench(args):
    """Runs the benchmark binary; returns (exit code, last stdout line)."""
    proc = subprocess.run([os.path.join(BUILD, "wallbench")] + args,
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def selftest():
    """Unit tests of the reduction and checks, plus end-to-end answer checks:
    a clean run passes, a corrupted reference fails, and both runs print
    exactly the metrics BENCHMARK.json declares."""
    if subprocess.run([os.path.join(BUILD, "wallbench_selftest")]).returncode != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    clean = ["--workload", "tpcd_power_rdbms", "--seed", "5", "--seconds", "1"]
    ok = True
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, line = run_bench(clean + ["--trace", trace])
        result = json.loads(line) if line else {}
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
        if code != 0 or not result.get("correct") or got != want:
            log("selftest: clean --trace %s run failed or printed %s" % (trace, sorted(got)))
            ok = False
    code, line = run_bench(clean + ["--trace", "0", "--corrupt-reference"])
    result = json.loads(line) if line else {}
    if code != 1 or result.get("correct") is not False or result.get("failed", 0) < 1:
        log("selftest: a corrupted reference did not fail the run")
        ok = False
    print("wallbench selftest: %s" % ("all passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if not opts.selftest and opts.workload is None:
        parser.error("--workload is required")
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    os.chdir(ROOT)
    if not build():
        return 2
    if opts.selftest:
        return selftest()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces, opts.workload + ".json")]
    code, line = run_bench(args)
    if line:
        print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
