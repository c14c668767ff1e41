"""The per-layer split: which program functions are traced, and what each yields.

Every layer is one public function or method of the ``repro`` package,
wrapped from outside by :class:`spans.Tracer`.  For each layer the traced
run reports ``<layer>.calls``, ``<layer>.busy_s`` (summed span durations)
and ``<layer>.self_s`` (durations minus child spans).  A few layers add a
byte or work count, and :class:`LayerProbe` derives the cache and
fast-path ratios from the program's own counters at the same boundaries.

Which end-to-end metric each layer should move, and on which workload,
is written next to it below (see also README.md).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from spans import Tracer

#: (layer name, "module:qualname").  The layer name is the qualified name
#: without the ``repro.`` prefix, except that
#: ``ClusteringEstimator.evaluate_allocation`` drops its module part to
#: keep metric names within 64 characters.
LAYERS: List[Tuple[str, str]] = [
    # Study driver and engine loop: throughput on dyn-warm most, then dyn-cold.
    ("experiments.run_study", "repro.experiments.study:run_study"),
    ("runtime.multirun.MultiRunEngine.run", "repro.runtime.multirun:MultiRunEngine.run"),
    # Simulator: throughput on dyn-cold; no move on dyn-warm or svc-lfoc.
    (
        "simulator.estimator.EvaluationTables.evaluate_tokens",
        "repro.simulator.estimator:EvaluationTables.evaluate_tokens",
    ),
    (
        "simulator.occupancy.OccupancyTrajectoryCache.solve",
        "repro.simulator.occupancy:OccupancyTrajectoryCache.solve",
    ),
    (
        "simulator.bandwidth.BandwidthModel.solve_from_demand",
        "repro.simulator.bandwidth:BandwidthModel.solve_from_demand",
    ),
    # Warm-start load: setup_s on dyn-warm.
    (
        "simulator.estimator.EvaluationTables.load",
        "repro.simulator.estimator:EvaluationTables.load",
    ),
    # Drivers, monitors and CAT: throughput on dyn-warm.
    (
        "runtime.scheduler.LfocSchedulerPlugin.on_sample",
        "repro.runtime.scheduler:LfocSchedulerPlugin.on_sample",
    ),
    (
        "runtime.scheduler.LfocSchedulerPlugin.on_interval",
        "repro.runtime.scheduler:LfocSchedulerPlugin.on_interval",
    ),
    (
        "runtime.scheduler.DunnUserLevelDaemon.on_sample",
        "repro.runtime.scheduler:DunnUserLevelDaemon.on_sample",
    ),
    (
        "runtime.scheduler.DunnUserLevelDaemon.on_interval",
        "repro.runtime.scheduler:DunnUserLevelDaemon.on_interval",
    ),
    (
        "runtime.monitor.MonitorBank.observe_row",
        "repro.runtime.monitor:MonitorBank.observe_row",
    ),
    (
        "hardware.cat.CatController.apply_allocation",
        "repro.hardware.cat:CatController.apply_allocation",
    ),
    # Solver and static policies: throughput on static-opt only.
    (
        "optimal.bnb.branch_and_bound_clustering",
        "repro.optimal.bnb:branch_and_bound_clustering",
    ),
    ("policies.lfoc.LfocPolicy.decide", "repro.policies.lfoc:LfocPolicy.decide"),
    ("policies.dunn.DunnPolicy.decide", "repro.policies.dunn:DunnPolicy.decide"),
    ("policies.kpart.KPartPolicy.decide", "repro.policies.kpart:KPartPolicy.decide"),
    (
        "policies.best_static.BestStaticPolicy.decide",
        "repro.policies.best_static:BestStaticPolicy.decide",
    ),
    (
        "simulator.ClusteringEstimator.evaluate_allocation",
        "repro.simulator.estimator:ClusteringEstimator.evaluate_allocation",
    ),
    # Service path: latency p50 and throughput on svc-lfoc; no move on
    # any study workload.
    ("runtime.executors.framing.pack_frame", "repro.runtime.executors.framing:pack_frame"),
    (
        "runtime.executors.framing.FrameReader.feed",
        "repro.runtime.executors.framing:FrameReader.feed",
    ),
    ("service.protocol.check_frame", "repro.service.protocol:check_frame"),
    (
        "service.session.ServiceCore.handle_drain",
        "repro.service.session:ServiceCore.handle_drain",
    ),
    (
        "runtime.monitor.MonitorBank.observe_batch",
        "repro.runtime.monitor:MonitorBank.observe_batch",
    ),
    # Snapshot pause: latency p99 on svc-lfoc.
    ("service.snapshot.save_snapshot", "repro.service.snapshot:save_snapshot"),
]

#: The benchmark's own root spans: set-up, and the measured work.  The
#: measured root's self time is the part no traced layer accounts for.
SETUP_SPAN = "bench.setup"
PASS_SPAN = "bench.pass"

#: Metrics derived from counters rather than spans (name -> unit).
EXTRA_METRICS: Dict[str, str] = {
    "simulator.estimator.EvaluationTables.load.bytes": "bytes",
    "simulator.estimator.hit_ratio": "ratio",
    "simulator.occupancy.components": "count",
    "runtime.scheduler.lfoc_fast_hit_ratio": "ratio",
    "optimal.bnb.candidates_evaluated": "count",
    "runtime.executors.framing.pack_frame.bytes": "bytes",
    "runtime.executors.framing.FrameReader.feed.bytes": "bytes",
    "service.frames_per_drain": "count",
    "service.decisions_per_frame": "ratio",
    "service.fast_hit_ratio": "ratio",
    "service.snapshot.save_snapshot.bytes": "bytes",
    "bench.unattributed_s": "s",
    "bench.calibration_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

SPAN_STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for layer, _target in LAYERS:
        for stat, unit in SPAN_STATS:
            units[f"{layer}.{stat}"] = unit
    units.update(EXTRA_METRICS)
    return units


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerProbe:
    """Installs every layer wrapper on a tracer and summarises a traced pass."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Dict[str, float] = {}
        self.tables: Dict[int, Tuple[Any, Dict[str, int]]] = {}
        self.drivers: Dict[int, Any] = {}
        self.cores: Dict[int, Any] = {}

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self) -> None:
        hooks = {
            "simulator.estimator.EvaluationTables.load": dict(
                after=lambda a, k, r: self._add("load.bytes", os.path.getsize(a[1]))
            ),
            "simulator.estimator.EvaluationTables.evaluate_tokens": dict(
                before=lambda a, k: self._see_tables(a[0])
            ),
            "runtime.scheduler.LfocSchedulerPlugin.on_interval": dict(
                before=lambda a, k: self.drivers.setdefault(id(a[0]), a[0])
            ),
            "optimal.bnb.branch_and_bound_clustering": dict(
                after=lambda a, k, r: self._add("candidates", r.candidates_evaluated)
            ),
            "runtime.executors.framing.pack_frame": dict(
                after=lambda a, k, r: self._add("pack.bytes", len(r))
            ),
            "runtime.executors.framing.FrameReader.feed": dict(
                before=lambda a, k: self._add("feed.bytes", len(a[1]))
            ),
            "service.session.ServiceCore.handle_drain": dict(
                before=lambda a, k: self._see_drain(a[0], a[1])
            ),
            "service.snapshot.save_snapshot": dict(
                after=lambda a, k, r: self._add("snapshot.bytes", os.path.getsize(a[1]))
            ),
        }
        for layer, target in LAYERS:
            self.tracer.install(layer, target, **hooks.get(layer, {}))

    def _see_tables(self, tables: Any) -> None:
        if id(tables) not in self.tables:
            self.tables[id(tables)] = (tables, tables.cache_sizes())

    def _see_drain(self, core: Any, items: Any) -> None:
        self.cores.setdefault(id(core), core)
        self._add("frames", len(items))

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of everything traced so far (no overhead keys)."""
        totals = self.tracer.totals()
        out: Dict[str, float] = {}
        for layer, _target in LAYERS:
            entry = totals.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for stat, _unit in SPAN_STATS:
                out[f"{layer}.{stat}"] = entry[stat]

        evaluations = out["simulator.estimator.EvaluationTables.evaluate_tokens.calls"]
        new_estimates = new_components = 0
        for tables, before in self.tables.values():
            after = tables.cache_sizes()
            new_estimates += after["estimates"] - before["estimates"]
            new_components += after["components"] - before["components"]
        hits = evaluations - new_estimates
        out["simulator.estimator.hit_ratio"] = _ratio(hits, evaluations)
        out["simulator.occupancy.components"] = new_components

        computed = fast = 0
        for driver in self.drivers.values():
            stats = driver.decision_stats()
            computed += stats["partitions_computed"]
            fast += stats["partition_fast_hits"]
        out["runtime.scheduler.lfoc_fast_hit_ratio"] = _ratio(fast, computed + fast)

        frames = self.counts.get("frames", 0)
        decisions = computed_s = fast_s = 0
        for core in self.cores.values():
            body = core.metrics()
            decisions += body["totals"]["decisions"]
            for host in body["hosts"].values():
                computed_s += host["decisions_computed"]
                fast_s += host["decision_fast_hits"]
        drains = out["service.session.ServiceCore.handle_drain.calls"]
        out["service.frames_per_drain"] = _ratio(frames, drains)
        out["service.decisions_per_frame"] = _ratio(decisions, frames)
        out["service.fast_hit_ratio"] = _ratio(fast_s, computed_s + fast_s)

        for name, key in (
            ("simulator.estimator.EvaluationTables.load.bytes", "load.bytes"),
            ("optimal.bnb.candidates_evaluated", "candidates"),
            ("runtime.executors.framing.pack_frame.bytes", "pack.bytes"),
            ("runtime.executors.framing.FrameReader.feed.bytes", "feed.bytes"),
            ("service.snapshot.save_snapshot.bytes", "snapshot.bytes"),
        ):
            out[name] = self.counts.get(key, 0)
        out["bench.unattributed_s"] = totals.get(PASS_SPAN, {}).get("self_s", 0.0)
        return out
