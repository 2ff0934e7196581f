"""Self-test of the benchmark harness, on small instances (q = 3):

* the verdict gate trips on a deliberately wrong expected value;
* a traced plan returns the same verdicts and exact counts as an untraced
  one, and the traced functions are restored afterwards;
* the ledger reports a changed exact count;
* the speed probe samples while a plan runs and restores SIGALRM after;
* the metric names and units printed match BENCHMARK.json.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import signal
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from ddwl import coherent, isotest  # noqa: E402

Q = 3
SEED = 7


def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


class VerdictGate(unittest.TestCase):
    def test_paper_values_hold_at_small_q(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                outcome = workload.plan(Q, SEED, workloads.expectations(Q))
                self.assertTrue(outcome.verdicts)
                self.assertEqual(outcome.failed(), [])

    def test_wrong_expected_value_trips(self):
        cases = [
            (workloads.verify_plan, "suite_checks", 17, ["suite.checks"]),
            (workloads.algebra_plan, "k_order", Q * Q, ["build_K.order"]),
            (
                workloads.family_plan,
                "rank",
                Q + 3,
                ["wl_close[1].rank", "wl_close[2].rank", "relabeled.rank"],
            ),
        ]
        for plan, key, wrong, tripped in cases:
            with self.subTest(plan=plan.__name__):
                expect = dict(workloads.expectations(Q), **{key: wrong})
                outcome = plan(Q, SEED, expect)
                self.assertEqual(outcome.failed(), tripped)
                gate = run.Gate()
                gate.add(outcome)
                self.assertEqual(len(gate.failures), len(tripped))

    def test_gate_flags_counts_that_differ_between_plans(self):
        plan = workloads.algebra_plan
        first = plan(Q, SEED, workloads.expectations(Q))
        second = plan(Q, SEED, workloads.expectations(Q))
        second.counts["designs.pairs_checked"] += 1
        gate = run.Gate()
        gate.add(first)
        gate.add(second)
        self.assertEqual(len(gate.failures), 1)


class Tracing(unittest.TestCase):
    def test_traced_plan_matches_untraced(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                expect = workloads.expectations(Q)
                plain = workload.plan(Q, SEED, expect)
                with spans.traced(workloads.LAYERS) as tracer:
                    traced = workload.plan(Q, SEED, expect)
                self.assertEqual(traced.verdicts, plain.verdicts)
                self.assertEqual(traced.counts, plain.counts)
                self.assertEqual(traced.seeded_counts, plain.seeded_counts)
                self.assertGreater(len(tracer.spans), 0)
                self.assertGreater(tracer.counts["construction.table_bytes"], 0)

    def test_originals_restored(self):
        before = (coherent.wl_close, isotest.are_isomorphic, workloads.Construction.build_K)
        with self.assertRaises(RuntimeError):
            with spans.traced(workloads.LAYERS):
                self.assertIsNot(coherent.wl_close, before[0])
                raise RuntimeError("leave the block early")
        after = (coherent.wl_close, isotest.are_isomorphic, workloads.Construction.build_K)
        self.assertEqual(after, before)
        self.assertIs(isotest.wl_close, coherent.wl_close)

    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0], ["inner", 6.0, 7.0, 0]]
        self.assertEqual(tracer.self_times(), {"outer": 6.0, "inner": 4.0})
        self.assertEqual(tracer.top_level_seconds(), 10.0)


class Ledger(unittest.TestCase):
    def test_changed_count_is_reported(self):
        run.STATE.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.STATE) as tmp:
            path = Path(tmp) / "ledger.json"
            ledger = run.Ledger(path)
            self.assertEqual(ledger.check("k", {"rounds": 4}), [])
            ledger.save()
            again = run.Ledger(path)
            self.assertEqual(again.check("k", {"rounds": 4}), [])
            self.assertEqual(len(again.check("k", {"rounds": 5})), 1)
            gate = run.Gate()
            gate.compare(again.check("k", {"rounds": 5}))
            self.assertEqual((gate.attempted, len(gate.failures)), (1, 1))


class Probe(unittest.TestCase):
    def test_samples_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with run.SpeedProbe() as probe:
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(probe.samples), 3)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class MetricNames(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in spec()["workloads"]], list(workloads.WORKLOADS))

    def test_end_to_end_names_and_units(self):
        got = {k: u for k, (_, u) in run.end_to_end_metrics([1.0], [0.001], [0.1]).items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in spec()["end_to_end"]})

    def test_per_layer_names_and_units(self):
        plan = workloads.verify_plan
        with spans.traced(workloads.LAYERS) as tracer:
            outcome = plan(Q, SEED, workloads.expectations(Q))
        metrics = run.layer_metrics(workloads, tracer, outcome, 1.0, 1.0)
        got = {k: u for k, (_, u) in metrics.items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in spec()["per_layer"]})


if __name__ == "__main__":
    unittest.main()
