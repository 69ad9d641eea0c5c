"""Checks of the benchmark itself: python3 perfbench/selfcheck.py

Kept out of the test_*.py naming so the repository's pytest run does not
collect it.
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import run
import tracing
import workloads
from nestrec import cli, frequency, pruning, tree
from speed import SpeedProbe

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class TracingTest(unittest.TestCase):
    def test_untraced_code_sees_the_original_functions(self):
        before = {(module.__name__, attr): fn for module, attr, fn in tracing.public_functions()}
        with self.assertRaises(RuntimeError):
            with tracing.traced(tracing.Tracer()):
                self.assertIsNot(tree.cell_count, before[("nestrec.tree", "cell_count")])
                raise RuntimeError("leave the block early")
        self.assertEqual(tracing.leaked_wrappers(), [])
        after = {(module.__name__, attr): fn for module, attr, fn in tracing.public_functions()}
        self.assertTrue(all(after[key] is fn for key, fn in before.items()))

    def test_names_imported_by_other_modules_are_traced(self):
        with tracing.traced(tracing.Tracer()) as tracer:
            for alias in (pruning.node_stream, pruning.cell_count, frequency.cell_positions):
                self.assertIsNot(alias, tracing.ORIGINALS[(alias.__module__, alias.__name__)])
            pruning.build_prefix(tree.TreeSpec(2, 1, 3, 1, 2, 2), 40)
            frequency.empirical_matches_closed_form(tree.TreeSpec(2, 1, 3, 1, 2, 2), 40)
        self.assertEqual(tracer.calls["tree.node_stream"], 1)
        self.assertEqual(tracer.calls["tree.cell_positions"], 1)

    def test_self_time_excludes_traced_children(self):
        with tracing.traced(tracing.Tracer()) as tracer:
            cli.explore_rows("order_one", [{"s": 0, "j": 1, "m": 0}], 200)
        self.assertGreater(tracer.total["cli.explore_rows"], tracer.self_time("cli.explore_rows"))
        metrics = tracing.layer_metrics(tracer)
        self.assertGreaterEqual(metrics["recursion.evaluate_calls"], 1)
        self.assertEqual(metrics["cli.points"], 1)
        self.assertEqual(metrics["pruning.labels_built"], 0)


class SpeedTest(unittest.TestCase):
    def test_busy_time_excludes_the_probe_and_is_scaled(self):
        tally = run.Tally()
        spin = workloads.Op("spin", lambda: sum(range(300_000)), lambda out: out == sum(range(300_000)))
        with SpeedProbe() as probe:
            scaled, unscaled = run.run_pass(workloads.Workload([spin], []), tally, probe)
        self.assertGreater(len(probe.speeds), 0)
        self.assertGreater(probe.spent, 0)
        self.assertAlmostEqual(scaled, unscaled * probe.speed(0, float("inf")), delta=scaled * 0.5)


class OutputTest(unittest.TestCase):
    def test_per_layer_names_and_units_match_the_benchmark_file(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        printed = {**run.LAYER_UNITS, "tree.criterion1_over_1ms_share": "ratio", "trace.overhead_s": "s"}
        self.assertEqual(printed, declared)

    def test_workloads_match_the_benchmark_file(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(workloads.WORKLOADS))


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            first = [op.name for op in workloads.make_workload(name, 7).ops]
            self.assertEqual(first, [op.name for op in workloads.make_workload(name, 7).ops])
            self.assertNotEqual(first, [op.name for op in workloads.make_workload(name, 8).ops])

    def test_wrong_or_raising_operations_are_counted_as_failed(self):
        def boom():
            raise ValueError("boom")

        ops = [workloads.Op("right", lambda: 1, lambda out: out == 1),
               workloads.Op("wrong", lambda: 2, lambda out: out == 1),
               workloads.Op("raises", boom, lambda out: True)]
        tally = run.Tally()
        run.run_pass(workloads.Workload(ops, []), tally, SpeedProbe())
        self.assertEqual((tally.attempted, tally.failed), (3, 2))

    def test_hostile_inputs_are_counted_apart_from_operations(self):
        def boom():
            raise ZeroDivisionError

        hostile = [workloads.Op("raises", boom, lambda out: True), workloads.Op("right", lambda: 1, lambda out: True)]
        tally = run.Tally()
        run.run_pass(workloads.Workload([], hostile), tally, SpeedProbe())
        self.assertEqual((tally.hostile_failed, tally.attempted, tally.failed), (1, 0, 0))


if __name__ == "__main__":
    unittest.main()
