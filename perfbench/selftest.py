"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 perfbench/selftest.py

They check the self-time arithmetic on nested spans, that times are
scaled to the reference speed, that the digest gate rejects a perturbed
study row, and that removing the tracer's wrappers restores every
original function, so tracing cannot leak into an untraced pass.
"""

from __future__ import annotations

import math
import signal
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from calibrate import REFERENCE_TICK_S, Ticker  # noqa: E402
from layers import LAYERS, LayerProbe  # noqa: E402
from run import gate, percentile  # noqa: E402
from spans import Tracer, resolve, self_times  # noqa: E402
from workloads import digest_of, static_study  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTimeTests(unittest.TestCase):
    def test_nested_spans(self) -> None:
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("a.inner", 2.0, 3.0, 1),
            ("b", 5.0, 9.0, 0),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self) -> None:
        spans = [("root", 0.0, 10.0, -1), ("x", 1.0, 6.0, 0), ("y", 4.0, 8.0, 0)]
        self.assertEqual(self_times(spans)[0], 3.0)

    def test_tracer_records_parents_and_totals(self) -> None:
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.active = True
        outer = tracer.open("outer")
        clock.now = 1.0
        inner = tracer.open("inner")
        clock.now = 3.0
        tracer.close(inner)
        clock.now = 4.0
        tracer.close(outer)
        self.assertEqual(tracer.spans, [("outer", 0.0, 4.0, -1), ("inner", 1.0, 3.0, 0)])
        totals = tracer.totals()
        self.assertEqual(totals["outer"], {"calls": 1, "busy_s": 4.0, "self_s": 2.0})
        self.assertEqual(totals["inner"], {"calls": 1, "busy_s": 2.0, "self_s": 2.0})

    def test_percentile_is_nearest_rank(self) -> None:
        values = [float(v) for v in range(1, 201)]
        self.assertEqual(percentile(values, 99.0), 198.0)
        self.assertEqual(percentile(values, 50.0), 100.0)
        self.assertEqual(percentile([5.0], 99.0), 5.0)


class CalibrationTests(unittest.TestCase):
    def test_scaled_cuts_ticks_out_and_scales_to_the_reference(self) -> None:
        tick = REFERENCE_TICK_S
        ticker = Ticker()
        # A host at half the reference speed: every tick takes twice as long.
        ticker.starts = [1.0, 2.0, 3.0]
        ticker.durations = [2 * tick, 2 * tick, 2 * tick]
        self.assertAlmostEqual(ticker.scaled(0.0, 4.0), 0.5 * (4.0 - 6 * tick))
        self.assertAlmostEqual(ticker.scaled(1.5, 1.75), 0.5 * 0.25)
        # An interval that starts inside a tick begins where the tick ends.
        self.assertAlmostEqual(ticker.scaled(2.0, 2.5), 0.5 * (0.5 - 2 * tick))

    def test_speed_is_taken_next_to_the_interval(self) -> None:
        tick = REFERENCE_TICK_S
        ticker = Ticker()
        ticker.starts = [float(k) for k in range(10)]
        ticker.durations = [tick] * 5 + [3 * tick] * 5
        self.assertAlmostEqual(ticker.scaled(0.5, 1.0), 0.5)
        self.assertAlmostEqual(ticker.scaled(8.5, 8.75), 0.25 / 3)

    def test_ticker_ticks_and_stops(self) -> None:
        ticker = Ticker(interval_s=0.005)
        ticker.start()
        deadline = time.monotonic() + 0.1
        while time.monotonic() < deadline:
            pass
        ticker.stop()
        ticks = len(ticker.durations)
        self.assertGreaterEqual(ticks, 5)
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        time.sleep(0.02)
        self.assertEqual(len(ticker.durations), ticks)


class DigestGateTests(unittest.TestCase):
    def test_gate_rejects_a_perturbed_row(self) -> None:
        from repro.experiments import ScenarioSpec, StudySpec, run_study

        full = static_study(3).scenarios[0]
        small = ScenarioSpec(
            name="static",
            kind="static",
            workloads=full.workloads[:2],
            policies=full.policies[:2],
        )
        rows = run_study(StudySpec(name="gate", scenarios=(small,))).rows()
        oracle = digest_of(rows)
        clean = {"digest": digest_of(rows), "attempted": 6, "failed": 0}
        self.assertEqual(gate(clean, oracle), 0)

        rows[-1]["unfairness"] = math.nextafter(rows[-1]["unfairness"], math.inf)
        perturbed = {"digest": digest_of(rows), "attempted": 6, "failed": 0}
        self.assertNotEqual(perturbed["digest"], oracle)
        self.assertEqual(gate(perturbed, oracle), 6)

    def test_gate_counts_each_failed_operation_once(self) -> None:
        record = {"digest": "x", "attempted": 10, "failed": 3}
        self.assertEqual(gate(record, "x"), 0)
        self.assertEqual(gate(record, "y"), 7)


class RestoreTests(unittest.TestCase):
    def test_restore_puts_every_original_back(self) -> None:
        import repro.experiments
        import repro.policies.best_static as best_static
        import repro.service  # noqa: F401
        from repro.optimal import bnb

        originals = {target: resolve(target)[2] for _, target in LAYERS}
        run_study = repro.experiments.run_study
        solver = best_static.branch_and_bound_clustering

        tracer = Tracer()
        LayerProbe(tracer).install()
        self.assertGreaterEqual(tracer.installed, len(LAYERS))
        for target, raw in originals.items():
            self.assertIsNot(resolve(target)[2], raw, target)
        # Names imported elsewhere are wrapped too.
        self.assertIsNot(repro.experiments.run_study, run_study)
        self.assertIsNot(best_static.branch_and_bound_clustering, solver)

        tracer.restore()
        self.assertEqual(tracer.installed, 0)
        for target, raw in originals.items():
            self.assertIs(resolve(target)[2], raw, target)
        self.assertIs(repro.experiments.run_study, run_study)
        self.assertIs(best_static.branch_and_bound_clustering, solver)
        self.assertIs(bnb.branch_and_bound_clustering, solver)

    def test_inactive_wrappers_record_nothing(self) -> None:
        from repro.runtime.executors import framing

        tracer = Tracer()
        LayerProbe(tracer).install()
        try:
            blob = framing.pack_frame(("ping", {"n": 1}))
            frames = list(framing.FrameReader().feed(blob))
            self.assertEqual(frames, [("ping", {"n": 1})])
            self.assertEqual(tracer.spans, [])
            tracer.active = True
            blob = framing.pack_frame(("ping", {"n": 2}))
            frames = list(framing.FrameReader().feed(blob))
            self.assertEqual(frames, [("ping", {"n": 2})])
            names = [span[0] for span in tracer.spans]
            self.assertEqual(
                names,
                [
                    "runtime.executors.framing.pack_frame",
                    "runtime.executors.framing.FrameReader.feed",
                ],
            )
        finally:
            tracer.restore()


if __name__ == "__main__":
    unittest.main()
