"""Self-tests of the benchmark's own machinery (tracer, gate, metric names).

    python3 bench/selftest.py

Not collected by the repository's pytest run (the name does not match
``test_*.py``); it runs in a few seconds with unittest.
"""
from __future__ import annotations

import json
import sys
import unittest

import run

run.prepare()

import numpy as np  # noqa: E402

import core  # noqa: E402
import gate  # noqa: E402
import micro  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from adasde import IsotropicCovariance, QuadraticProblem, harness  # noqa: E402


def tiny_order_experiment():
    """A small order sweep through the same harness entry point the workloads use."""
    setup = harness.ApproximationSetup(
        QuadraticProblem(np.diag([1.0, 0.5])), IsotropicCovariance(1.0), "rmsprop",
        theta0=np.ones(2), u0=np.ones(2), T=0.2, seeds=16, em_substeps=4,
    )
    etas = (0.2, 0.14, 0.1)
    return workloads.Experiment(
        "order/tiny", "order", tuple(f"order/tiny/eta={e!r}" for e in etas), 16,
        lambda: harness.order_sweep(setup, etas, ["theta_0"], 7),
    )


class TestSelfTime(unittest.TestCase):
    def test_nested_tree_arithmetic(self):
        # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6]; a second root [20, 22].
        tracer = spans.Tracer()
        tracer.names[:] = ["root", "a", "b", "c", "root"]
        tracer.starts[:] = [0.0, 1.0, 2.0, 5.0, 20.0]
        tracer.ends[:] = [10.0, 4.0, 3.0, 6.0, 22.0]
        tracer.parents[:] = [-1, 0, 1, 0, -1]
        table = tracer.summary()
        self.assertEqual(table["root"], {"calls": 2, "s": 12.0, "self_s": 6.0 + 2.0})
        self.assertEqual(table["a"], {"calls": 1, "s": 3.0, "self_s": 2.0})
        self.assertEqual(table["b"], {"calls": 1, "s": 1.0, "self_s": 1.0})
        self.assertEqual(table["c"], {"calls": 1, "s": 1.0, "self_s": 1.0})
        total_self = sum(row["self_s"] for row in table.values())
        self.assertEqual(total_self, 10.0 + 2.0)  # self times partition the root spans

    def test_recursive_self_times_sum_to_the_root_span(self):
        tracer = spans.Tracer()

        def fib(n):
            return n if n < 2 else traced(n - 1) + traced(n - 2)

        traced = tracer.wrap("fib", fib)
        traced(10)
        row = tracer.summary()["fib"]
        root = tracer.ends[0] - tracer.starts[0]
        self.assertAlmostEqual(row["self_s"], root, delta=1e-9)


class TestSpanCounts(unittest.TestCase):
    def test_span_count_equals_call_count(self):
        tracer = spans.Tracer()
        calls = []

        def leaf(x):
            calls.append(x)
            return x

        traced = tracer.wrap("leaf", leaf)
        outer = tracer.wrap("outer", lambda k: [traced(i) for i in range(k)])
        for k in (3, 0, 5):
            outer(k)
        table = tracer.summary()
        self.assertEqual(table["leaf"]["calls"], len(calls))
        self.assertEqual(table["outer"]["calls"], 3)
        self.assertEqual(len(tracer.names), len(calls) + 3)

    def test_harness_counts_repeat_and_match_structure(self):
        exp = tiny_order_experiment()
        tracer = spans.Tracer()
        tables = []
        with spans.installed(tracer):
            for _ in range(2):
                tracer.clear()
                exp.call()
                tables.append(tracer.summary())
        self.assertEqual(
            {k: v["calls"] for k, v in tables[0].items()},
            {k: v["calls"] for k, v in tables[1].items()},
        )
        counts = tables[0]
        self.assertEqual(counts["harness.order_sweep"]["calls"], 1)
        self.assertEqual(counts["harness.compare_at_eta"]["calls"], 3)
        self.assertEqual(counts["sde.euler_maruyama"]["calls"], 3)
        self.assertEqual(counts["sde.drift"]["calls"], counts["sde.apply_diffusion"]["calls"])
        self.assertGreater(counts["sde.drift"]["calls"], 0)


class TestWrappersRestored(unittest.TestCase):
    def test_traced_run_leaves_no_wrapper(self):
        exp = tiny_order_experiment()
        before = {(id(owner), attr): vars(owner)[attr] for owner, attr, _ in spans.targets(spans.Tracer())}
        untraced = core.run_pass([exp], gate.Reference({}), 0)

        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = core.run_pass([exp], gate.Reference({}), 0)
        self.assertGreater(len(tracer.names), 0)
        self.assertEqual(traced.digest, untraced.digest)  # tracing does not change results

        after = {(id(owner), attr): vars(owner)[attr] for owner, attr, _ in spans.targets(spans.Tracer())}
        self.assertTrue(all(after[key] is before[key] for key in before))
        recorded = len(tracer.names)
        again = core.run_pass([exp], gate.Reference({}), 0)
        self.assertEqual(len(tracer.names), recorded)  # the original functions ran
        self.assertEqual(again.digest, untraced.digest)

    def test_wrappers_restored_after_an_error(self):
        before = vars(harness)["order_sweep"]
        with self.assertRaises(RuntimeError):
            with spans.installed(spans.Tracer()):
                self.assertIsNot(vars(harness)["order_sweep"], before)
                raise RuntimeError("boom")
        self.assertIs(vars(harness)["order_sweep"], before)


class TestGate(unittest.TestCase):
    def setUp(self):
        self.exp = tiny_order_experiment()
        result = core.run_pass([self.exp], gate.Reference({}), 0)
        self.assertEqual(result.failures, {})
        self.values = result.values
        cells = {f"{c}/{n}": list(v) for c, per in self.values.items() for n, v in per.items()}
        self.reference = gate.Reference({"seeds": {"0": {"digest": result.digest, "cells": cells}}})

    def perturbed(self, scale_se: float):
        values = json.loads(json.dumps(self.values))
        cell = self.exp.cells[0]
        gap, se = values[cell]["theta_0"]
        values[cell]["theta_0"] = (gap + scale_se * se, se)
        return values, cell

    def test_unperturbed_passes_and_is_bitwise_equal(self):
        self.assertEqual(gate.check(self.values, self.reference, 0), {})
        self.assertTrue(self.reference.bitwise_equal(0, gate.digest(self.values)))

    def test_fires_on_perturbed_gap(self):
        values, cell = self.perturbed(10 * gate.REFERENCE_K)
        failures = gate.check(values, self.reference, 0)
        self.assertEqual(list(failures), [cell])
        self.assertIn("reference", failures[cell])
        self.assertFalse(self.reference.bitwise_equal(0, gate.digest(values)))

    def test_small_perturbation_passes_but_breaks_bitwise(self):
        values, _ = self.perturbed(0.5)
        self.assertEqual(gate.check(values, self.reference, 0), {})
        self.assertFalse(self.reference.bitwise_equal(0, gate.digest(values)))

    def test_fires_on_non_finite(self):
        values = json.loads(json.dumps(self.values))
        cell = self.exp.cells[1]
        values[cell]["theta_0"] = None
        self.assertEqual(list(gate.check(values, self.reference, 0)), [cell])

    def test_unrecorded_seed_uses_pooled_reference(self):
        self.assertIsNone(self.reference.bitwise_equal(5, gate.digest(self.values)))
        values, cell = self.perturbed(1e6)
        self.assertEqual(list(gate.check(values, self.reference, 5)), [cell])

    def test_raising_sweep_fails_every_cell(self):
        def broken():
            raise ValueError("u reached zero at t=0.1")

        exp = workloads.Experiment("order/broken", "order", ("c1", "c2"), 4, broken)
        result = core.run_pass([exp], gate.Reference({}), 0)
        self.assertEqual(sorted(result.failures), ["c1", "c2"])

    def test_seeds_needed(self):
        self.assertIsNone(gate._seeds_needed(100, gap=1.0, se=0.1))
        self.assertEqual(gate._seeds_needed(100, gap=0.1, se=0.1), 400)


class TestMetricNames(unittest.TestCase):
    def test_benchmark_json_lists_every_emitted_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = [f"{name}.{kind}" for name in spans.SPAN_NAMES for kind in ("calls", "s", "self_s")]
        per_layer += ["trace.wall_s", "trace.overhead_frac", "trace.unattributed_s"]
        per_layer += [f"micro.{name}" for name in micro.cases(0)]
        self.assertEqual([m["name"] for m in spec["per_layer"]], per_layer)
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]], ["wall_s", "setup_s", "peak_rss_mb", "ok_frac"]
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    sys.exit(unittest.main())
