#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <au_large|mode_mix|serve_open> \
        --seed <n> --seconds <1-60> --trace <0|1>

The first run in a checkout configures and builds perfbench/ (which
compiles the program's libraries from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset.  The driver's output is passed through;
its last line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit status is non-zero when the build fails,
the run fails, or the output oracle rejects an answer.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("au_large", "mode_mix", "serve_open")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def run_logged(cmd, timeout):
    """Run cmd with its output on stderr; return its exit status."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: %s: %s" % (" ".join(cmd), err), file=sys.stderr)
        return 1


def build(out):
    """Configure (once) and build the driver; return its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "Makefile")):
        status = run_logged(["cmake", "-S", HERE, "-B", out,
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                            BUILD_TIMEOUT_S)
        if status != 0:
            return None
    status = run_logged(["cmake", "--build", out, "-j", jobs,
                         "--target", "isamore_perfbench"], BUILD_TIMEOUT_S)
    binary = os.path.join(out, "isamore_perfbench")
    return binary if status == 0 and os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1-60")

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden-dir", os.path.join("tests", "isamore", "golden"),
           "--scratch-dir", os.path.join(out, "scratch")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        for line in lines[-1:]:
            print(line, file=sys.stderr)
        print("perfbench: the driver printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1
    print(lines[-1])
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
