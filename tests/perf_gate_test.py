#!/usr/bin/env python3
"""Tests for the perf-trajectory gate (tools/check_perf_trajectory.py) and
fleet_scale's command-line and output handling.

Every gate rule gets a mutation of a fresh copy of the committed
BENCH_fleet_scale.json that must fail it; fleet_scale must reject malformed
arguments before running anything and report a failed JSON write.

Usage: perf_gate_test.py PATH/TO/fleet_scale
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(REPO, "tools", "check_perf_trajectory.py")
COMMITTED = os.path.join(REPO, "BENCH_fleet_scale.json")
FLEET_SCALE = None  # set from argv


def find(doc, case, shape=None, variant=None):
    return next(r for r in doc["records"]
                if r["case"] == case
                and shape in (None, r["shape"])
                and variant in (None, r["variant"]))


class GateTest(unittest.TestCase):
    def setUp(self):
        with open(COMMITTED, encoding="utf-8") as f:
            self.committed = json.load(f)
        self.fresh = copy.deepcopy(self.committed)
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self, fresh=None, committed=None):
        paths = []
        for name, doc in (("fresh.json", fresh or self.fresh),
                          ("committed.json", committed or self.committed)):
            path = os.path.join(self.tmp.name, name)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            paths.append(path)
        return subprocess.run([sys.executable, GATE] + paths,
                              capture_output=True, text=True)

    def test_committed_against_itself_passes(self):
        result = subprocess.run([sys.executable, GATE, COMMITTED, COMMITTED],
                                capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_wall_regression_fails(self):
        record = find(self.fresh, "cluster-storm", "100000x64", "round-robin")
        record["wall_ms"] *= 3.5
        record["events"] *= 3  # keeps events/s above the floor
        result = self.gate()
        self.assertEqual(result.returncode, 1)
        self.assertNotIn("THROUGHPUT REGRESSION", result.stdout)

    def test_events_per_sec_floor_fails(self):
        # Wall unchanged, a quarter of the events: events/s drops below 1/3.
        record = find(self.fresh, "program-storm")
        record["events"] //= 4
        result = self.gate()
        self.assertEqual(result.returncode, 1)
        self.assertIn("THROUGHPUT REGRESSION", result.stdout)

    def test_dropped_variant_fails(self):
        self.fresh["records"].remove(
            find(self.fresh, "cluster-storm", "10000x4", "ksm-affinity"))
        self.assertEqual(self.gate().returncode, 1)

    def test_dropped_case_fails(self):
        self.fresh["records"] = [r for r in self.fresh["records"]
                                 if r["case"] != "federation-storm"]
        self.assertEqual(self.gate().returncode, 1)

    def test_every_false_invariant_fails(self):
        invariants = [(r["case"], name) for r in self.committed["records"]
                      for name in r["invariants"]]
        self.assertEqual(len(invariants), 5)
        for case, name in invariants:
            with self.subTest(invariant=name):
                fresh = copy.deepcopy(self.committed)
                find(fresh, case)["invariants"][name] = False
                self.assertEqual(self.gate(fresh=fresh).returncode, 1)

    def test_missing_invariant_fails(self):
        del find(self.fresh, "degrade-storm")["invariants"]["retries_fired"]
        self.assertEqual(self.gate().returncode, 1)

    def test_zero_or_missing_wall_is_bad_input(self):
        # A zeroed committed wall used to compute "ratio 0.00x ok" even
        # with a fresh run 10x slower.
        key = ("cluster-storm", "100000x64", "round-robin")
        for side in ("committed", "fresh"):
            for how, mutate in (("zero", lambda r: r.update(wall_ms=0.0)),
                                ("missing", lambda r: r.pop("wall_ms"))):
                with self.subTest(side=side, wall_ms=how):
                    committed = copy.deepcopy(self.committed)
                    fresh = copy.deepcopy(self.committed)
                    find(fresh, *key)["wall_ms"] *= 10
                    mutate(find(committed if side == "committed" else fresh,
                                *key))
                    result = self.gate(fresh=fresh, committed=committed)
                    self.assertEqual(result.returncode, 2, result.stdout)
                    self.assertNotIn("Traceback", result.stderr)

    def test_missing_events_is_bad_input(self):
        del find(self.fresh, "degrade-storm")["events"]
        self.assertEqual(self.gate().returncode, 2)

    def test_changed_counter_passes_with_note(self):
        find(self.fresh, "federation-storm", variant="platform-affinity")[
            "counters"]["spills"] += 1
        result = self.gate()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("note: spills changed", result.stdout)


class FleetScaleCliTest(unittest.TestCase):
    def run_bench(self, *args):
        return subprocess.run([FLEET_SCALE] + list(args), capture_output=True,
                              text=True, timeout=120)

    def test_malformed_arguments_exit_2(self):
        for args in (["--clusters", "100000x64x3"], ["--tenants", "10k"],
                     ["--tenants", "10,"], ["--tenants", "-5"],
                     ["--tenants", "0"], ["--tenants", "99999999999"],
                     ["--threads", "2x"], ["--hosts", "4,8"],
                     ["--hosts", " 4"], ["--cells", "4x4"],
                     ["--cells", "4x4x20000x1"], ["--tenants"],
                     ["--autoscale"]):
            with self.subTest(args=args):
                result = self.run_bench(*args)
                self.assertEqual(result.returncode, 2, result.stdout)
                self.assertEqual(result.stdout, "")

    def test_threads_without_cluster_shape_rejected_before_running(self):
        result = self.run_bench("--tenants", "10", "--threads", "2")
        self.assertEqual(result.returncode, 2)
        self.assertEqual(result.stdout, "")

    def test_unwritable_out_exits_1(self):
        with tempfile.TemporaryDirectory() as tmp:
            result = self.run_bench(
                "--tenants", "10", "--out",
                os.path.join(tmp, "missing-dir", "x.json"))
        self.assertEqual(result.returncode, 1)
        self.assertIn("cannot write", result.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: perf_gate_test.py PATH/TO/fleet_scale")
    FLEET_SCALE = sys.argv.pop(1)
    unittest.main()
