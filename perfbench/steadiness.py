#!/usr/bin/env python3
"""Steadiness check: run workloads on several seeds, summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] \
        [--workload mode_mix ...] [--trace 0] [--markdown]

Each workload runs --runs times through perfbench/run.py with seeds
first-seed, first-seed+1, ...  For every metric it prints the median,
the quartiles (statistics.quantiles, n=4), min and max, and the spread
(interquartile range over the median), next to the metric's bound from
BENCHMARK.json.  A spread at or above a third of the bound is flagged.
--workload takes the workloads of BENCHMARK.json and the diagnostic
au_large; the default is the workloads of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIAGNOSTIC_WORKLOAD = "au_large"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]] +
                        [DIAGNOSTIC_WORKLOAD])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--markdown", action="store_true",
                        help="print the summary as a markdown table")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    status = 0
    if args.markdown:
        print("Produced by `python3 perfbench/steadiness.py %s`." %
              " ".join(sys.argv[1:]))
    for workload in workloads:
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d)\n%s%s" % (
                    workload, seed, proc.returncode, proc.stdout,
                    proc.stderr[-2000:]), file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            print("%s seed %d: correct=%s attempted=%d failed=%d (%.1f s)" % (
                workload, seed, result["correct"], result["attempted"],
                result["failed"], time.time() - start), file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        if args.markdown:
            print("\n#### %s (%d runs, seeds %d-%d, trace %d)\n" % (
                workload, args.runs, args.first_seed,
                args.first_seed + args.runs - 1, args.trace))
            print("| metric | unit | median | q1 | q3 | min | max | spread "
                  "| bound |")
            print("|---|---|---|---|---|---|---|---|---|")
        else:
            print("\n%s (%d runs, seeds %d-%d, trace %d)" % (
                workload, args.runs, args.first_seed,
                args.first_seed + args.runs - 1, args.trace))
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound:
                flag = " OVER BOUND"
            elif bound is not None and spread >= bound / 3:
                flag = " above bound/3"
            if args.markdown:
                print("| %s | %s | %.5g | %.5g | %.5g | %.5g | %.5g | %.3f "
                      "| %s |" % (name, units[name], med, q1, q3, min(vals),
                                  max(vals), spread,
                                  "" if bound is None else bound))
            else:
                print("  %-26s %-6s median %12.5g  q1 %12.5g  q3 %12.5g  "
                      "min %12.5g  max %12.5g  spread %.3f%s" % (
                          name, units[name], med, q1, q3, min(vals),
                          max(vals), spread, flag))
    return status


if __name__ == "__main__":
    sys.exit(main())
