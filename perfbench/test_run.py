#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the checkout root:

    python3 perfbench/test_run.py

Builds and runs the harness's C++ self-tests (correctness gate, λ digest,
span self-time aggregation), then runs every workload of BENCHMARK.json at
--seconds 1 in both modes and checks that each run prints exactly the
metrics BENCHMARK.json lists, each with its unit, and that λ digests repeat
across processes. (Each traced run itself fails unless its untraced and
4-thread repeats match it bit for bit.)
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    digest = re.search(r"lambda_digest\s+([0-9a-f]{16})", proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1]), digest.group(1)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {(w["name"], t): bench(w["name"], t)
                    for w in cls.spec["workloads"] for t in (0, 1)}

    def test_harness_self_tests(self):
        subprocess.run([run.build("perfbench_test")], check=True,
                       stdout=subprocess.DEVNULL)

    def test_every_listed_metric_is_printed_with_its_unit(self):
        for (workload, trace), (result, _) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                listed = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in listed})
                for m in listed:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float))

    def test_lambda_digest_repeats_across_processes(self):
        for w in self.spec["workloads"]:
            self.assertEqual(self.runs[(w["name"], 0)][1],
                             self.runs[(w["name"], 1)][1], w["name"])


if __name__ == "__main__":
    unittest.main()
