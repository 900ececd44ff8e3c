"""Self-tests of the benchmark itself (not of the program).

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests

They build the driver the same way perfbench/run.py does, then check
that plans are a pure function of the seed, that the metric table the
driver prints matches BENCHMARK.json, and that the output oracle rejects
a tampered report.
"""

import json
import os
import subprocess
import sys
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)

REPO = os.path.dirname(PERFBENCH)
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build(run.build_dir())
    if BINARY is None:
        raise RuntimeError("perfbench driver failed to build")


def driver(*args):
    return subprocess.run([BINARY, *args], cwd=REPO, capture_output=True,
                          text=True, timeout=170)


def plan(workload, seed):
    out = driver("--plan", "--workload", workload, "--seed", str(seed),
                 "--seconds", "45")
    assert out.returncode == 0, out.stderr
    return out.stdout


class PlanTest(unittest.TestCase):
    def test_same_seed_same_plan_other_seed_other_plan(self):
        for workload in ("au_large", "mode_mix", "serve_open"):
            with self.subTest(workload=workload):
                first = plan(workload, 5)
                self.assertTrue(first)
                self.assertEqual(first, plan(workload, 5))
                self.assertNotEqual(first, plan(workload, 6))

    def test_serve_plan_offers_more_keys_than_the_cache_holds(self):
        keys = set()
        for _, _, request in serve_requests(3):
            if (request.get("op") == "analyze"
                    and isinstance(request.get("workload"), str)):
                keys.add((request["workload"], request.get("mode"),
                          request.get("extendedRules", False)))
        self.assertGreater(len(keys), 128)

    def test_serve_pipeline_class_is_the_same_on_every_seed(self):
        def batch(seed):
            return sorted(json.dumps(r, sort_keys=True)
                          for _, client, r in serve_requests(seed)
                          if client == "batch")
        first = batch(3)
        self.assertGreaterEqual(len(first), 129)
        self.assertEqual(first, batch(4))


def serve_requests(seed):
    """(due seconds or batch position, client, request) of a serve_open
    plan's timed schedule; deliberately malformed lines are left out."""
    out = []
    for line in plan("serve_open", seed).splitlines():
        due, client, text = line.split(" ", 2)
        if client not in ("batch", "open"):
            continue  # the header and warm-up lines
        try:
            out.append((float(due), client, json.loads(text + "}")))
        except json.JSONDecodeError:
            pass
    return out


class MetricTableTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            bench = json.load(f)
        out = driver("--list-metrics")
        self.assertEqual(out.returncode, 0, out.stderr)
        printed = {"end_to_end": {}, "per_layer": {}}
        for line in out.stdout.splitlines():
            kind, name, unit = line.split()
            printed[kind][name] = unit
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in bench[kind]}
            self.assertEqual(printed[kind], declared, kind)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         ["mode_mix", "serve_open"])


class OracleTest(unittest.TestCase):
    def test_oracle_rejects_a_tampered_report(self):
        out = driver("--selftest-oracle", "--golden-dir",
                     os.path.join("tests", "isamore", "golden"))
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("fresh report: accepted", out.stdout)
        self.assertIn("tampered vs golden: rejected", out.stdout)
        self.assertIn("tampered vs first report: rejected", out.stdout)


if __name__ == "__main__":
    unittest.main()
