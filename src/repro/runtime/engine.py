"""Event-driven runtime engine: executes a workload under a dynamic policy.

This is the reproduction's substitute for the paper's real-machine runs
(Section 5.2).  The engine advances simulated time from event to event:

* **counter samples** — each application is sampled every 100 M retired
  instructions during normal operation and every 10 M while it is being swept
  by the sampling mode (the windows come from the policy driver);
* **partitioning intervals** — the policy driver is invoked every 500 ms, as
  in the paper's evaluation of both Dunn and LFOC;
* **phase boundaries** — phased applications switch behaviour at instruction
  counts defined by their :class:`~repro.apps.phases.PhasedProfile`;
* **completions / restarts** — every application runs a fixed instruction
  budget and is restarted immediately, and the run ends when every application
  has completed at least ``min_completions`` times (the paper restarts until
  the longest application finishes three times).

Between two consecutive events every application's IPC is constant, so
instruction progress is linear and no finer time step is needed.  The IPCs
come from the contention estimator applied to the allocation currently
programmed in the (simulated) CAT hardware and to each application's current
phase profile; whenever the allocation or any phase changes the rates are
recomputed.

:class:`RuntimeEngine` holds one event loop of its own, the ``reference``
backend: a per-application dict loop that re-runs the full contention
estimator on every rate change.  It is the validation oracle (the
equivalence tests and the engine benchmark pin the production path against
it) and the baseline the recorded speedups are measured from.  Every other
backend runs the workload as a one-member
:class:`~repro.runtime.multirun.MultiRunEngine` stack over shared
:class:`~repro.simulator.estimator.EvaluationTables`, the one production
event loop; the two produce bit-identical :class:`RunResult`\\ s.

The instruction budget defaults to a scaled-down value (the paper runs 150 G
instructions per application; simulating that faithfully is unnecessary since
every reported metric is a ratio).  The scale factor is recorded in the run
result and in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.apps.phases import PhasedProfile
from repro.apps.profile import AppProfile
from repro.core.types import WayAllocation
from repro.errors import SimulationError
from repro.hardware.cat import CatController
from repro.hardware.cmt import CmtMonitor
from repro.hardware.platform import PlatformSpec
from repro.hardware.pmc import CounterDelta, derive_metrics
from repro.runtime.config import EngineConfig, alone_completion_time
from repro.runtime.multirun import MultiRunEngine
from repro.runtime.results import AppRunStats, RepartitionEvent, RunResult, TracePoint
from repro.runtime.scheduler import PolicyDriver
from repro.simulator.estimator import ClusteringEstimator, EvaluationTables

__all__ = ["EngineConfig", "RuntimeEngine", "alone_completion_time"]


@dataclass
class _AppState:
    """Mutable per-application execution state (``reference`` backend)."""

    name: str
    phased: PhasedProfile
    instructions_in_run: float = 0.0
    phase_position: float = 0.0  # instructions into the phase cycle
    instructions_to_next_sample: float = 100e6
    # Current rates (recomputed whenever the allocation or the phase changes).
    ipc: float = 1.0
    llcmpkc: float = 0.0
    stall_fraction: float = 0.0
    effective_ways: float = 0.0
    # Counters accumulated since the last sample.
    window_instructions: float = 0.0
    window_cycles: float = 0.0
    window_misses: float = 0.0
    window_stalls: float = 0.0

    def current_profile(self) -> AppProfile:
        return self.phased.profile_at(self.phase_position)

    def instructions_to_phase_change(self) -> float:
        return self.phased.instructions_until_phase_change(self.phase_position)


class RuntimeEngine:
    """Execute one workload under one dynamic policy driver."""

    def __init__(
        self,
        platform: PlatformSpec,
        phased_profiles: Mapping[str, PhasedProfile],
        driver: PolicyDriver,
        config: Optional[EngineConfig] = None,
        *,
        tables: Optional[EvaluationTables] = None,
    ) -> None:
        if not phased_profiles:
            raise SimulationError("the engine needs at least one application")
        self.platform = platform
        self.driver = driver
        self.config = config or EngineConfig()
        self.apps = list(phased_profiles)
        self.phased = dict(phased_profiles)
        self.tables: Optional[EvaluationTables] = None
        if self.config.backend != "reference":
            # Shared with the one-member stack run() builds, which checks
            # that caller-supplied tables match this platform and model.
            if tables is None:
                tables = EvaluationTables(
                    platform, max_entries=self.config.max_table_entries
                )
            self.tables = tables
        elif tables is not None:
            raise SimulationError("tables are only used by the incremental backend")
        else:
            self.cat = CatController(platform)
            self.cmt = CmtMonitor(platform)
            # The estimator's profile table is updated as applications change
            # phase.
            self.estimator = ClusteringEstimator(
                platform,
                {name: prof.profile_at(0.0) for name, prof in self.phased.items()},
            )
        self._states: Dict[str, _AppState] = {}
        self._allocation: Optional[WayAllocation] = None

    # -- main entry point ------------------------------------------------------------

    def run(self, workload_name: str = "workload") -> RunResult:
        """Run the workload to completion and return the collected results."""
        if self.config.backend == "reference":
            return self._run_reference(workload_name)
        (result,) = MultiRunEngine(
            self.platform,
            [(workload_name, self.phased, self.driver)],
            self.config,
            tables=self.tables,
        ).run()
        return result

    # -- reference backend ------------------------------------------------------------

    def _initial_stats(self) -> Dict[str, AppRunStats]:
        config = self.config
        return {
            name: AppRunStats(
                name=name,
                alone_time=alone_completion_time(
                    self.phased[name], config.instructions_per_run, self.platform
                ),
            )
            for name in self.apps
        }

    def _finalize(
        self,
        workload_name: str,
        now: float,
        stats: Dict[str, AppRunStats],
        traces: Dict[str, List[TracePoint]],
        repartitions: List[RepartitionEvent],
    ) -> RunResult:
        for name, monitor_state in self.driver.describe_state().items():
            if name in stats:
                stats[name].sampling_mode_entries = int(
                    monitor_state.get("sampling_entries", 0)
                )
                stats[name].class_changes = int(monitor_state.get("class_changes", 0))
        return RunResult(
            policy=self.driver.name,
            workload=workload_name,
            duration_s=now,
            app_stats=stats,
            traces=traces if self.config.record_traces else {},
            repartitions=repartitions,
            final_allocation=self._allocation,
        )

    def _run_reference(self, workload_name: str) -> RunResult:
        config = self.config
        stats = self._initial_stats()
        traces: Dict[str, List[TracePoint]] = {name: [] for name in self.apps}
        repartitions: List[RepartitionEvent] = []

        # Initial state and allocation.
        self._states = {
            name: _AppState(
                name=name,
                phased=self.phased[name],
                instructions_to_next_sample=self.driver.sample_window(name),
            )
            for name in self.apps
        }
        allocation = self.driver.on_start(self.apps, self.platform)
        self._program(allocation, 0.0, "start", repartitions)

        now = 0.0
        next_interval = config.partition_interval_s
        last_completion_start: Dict[str, float] = {name: 0.0 for name in self.apps}

        def done() -> bool:
            return all(
                stats[name].completions >= config.min_completions for name in self.apps
            )

        while not done():
            if now > config.max_simulated_seconds:
                raise SimulationError(
                    f"simulation exceeded the {config.max_simulated_seconds}s safety cap "
                    f"(policy {self.driver.name!r}, workload {workload_name!r})"
                )
            # ---- find the next event -------------------------------------------------
            dt = next_interval - now
            for state in self._states.values():
                rate = state.ipc * self.platform.cycles_per_second  # instructions / s
                if rate <= 0:
                    raise SimulationError(f"application {state.name!r} has a zero rate")
                dt = min(dt, state.instructions_to_next_sample / rate)
                dt = min(dt, state.instructions_to_phase_change() / rate)
                remaining = config.instructions_per_run - state.instructions_in_run
                dt = min(dt, remaining / rate)
            dt = max(dt, 1e-9)

            # ---- advance every application by dt -------------------------------------
            for state in self._states.values():
                rate = state.ipc * self.platform.cycles_per_second
                instructions = rate * dt
                cycles = dt * self.platform.cycles_per_second
                state.instructions_in_run += instructions
                state.phase_position += instructions
                state.instructions_to_next_sample -= instructions
                state.window_instructions += instructions
                state.window_cycles += cycles
                state.window_misses += state.llcmpkc * cycles / 1000.0
                state.window_stalls += state.stall_fraction * cycles
            now += dt

            rates_dirty = False

            # ---- phase boundaries ------------------------------------------------------
            for state in self._states.values():
                if state.instructions_to_phase_change() <= 1.0:
                    # Crossing the boundary: the profile for the next chunk changes.
                    rates_dirty = True

            # ---- completions / restarts --------------------------------------------------
            for name, state in self._states.items():
                if state.instructions_in_run >= config.instructions_per_run - 1.0:
                    stats[name].completion_times.append(now - last_completion_start[name])
                    stats[name].instructions_retired += state.instructions_in_run
                    last_completion_start[name] = now
                    state.instructions_in_run = 0.0
                    state.phase_position = 0.0  # restarted from scratch
                    rates_dirty = True

            # ---- counter samples ------------------------------------------------------------
            # The monitoring snapshot is taken once per event batch (it only
            # feeds the recorded traces, and rebuilding it per sampled
            # application was a measurable per-sample overhead).
            state_snapshot: Dict[str, Dict[str, float]] = {}
            if config.record_traces and any(
                state.instructions_to_next_sample <= 1.0
                for state in self._states.values()
            ):
                state_snapshot = self.driver.describe_state()
            for name, state in self._states.items():
                if state.instructions_to_next_sample <= 1.0:
                    delta = CounterDelta(
                        instructions=state.window_instructions,
                        cycles=state.window_cycles,
                        llc_misses=state.window_misses,
                        stalls_l2_miss=state.window_stalls,
                    )
                    metrics = derive_metrics(delta)
                    stats[name].samples_taken += 1
                    state.window_instructions = 0.0
                    state.window_cycles = 0.0
                    state.window_misses = 0.0
                    state.window_stalls = 0.0
                    if config.record_traces:
                        snapshot = state_snapshot.get(name, {})
                        traces[name].append(
                            TracePoint(
                                time_s=now,
                                instructions=stats[name].instructions_retired
                                + state.instructions_in_run,
                                ipc=metrics.ipc,
                                llcmpkc=metrics.llcmpkc,
                                stall_fraction=metrics.stall_fraction,
                                effective_ways=state.effective_ways,
                                app_class=str(snapshot.get("class", "n/a")),
                            )
                        )
                    new_allocation = self.driver.on_sample(
                        name, metrics, state.effective_ways, now
                    )
                    state.instructions_to_next_sample = self.driver.sample_window(name)
                    if new_allocation is not None:
                        self._program(new_allocation, now, f"sample:{name}", repartitions)
                        rates_dirty = True

            # ---- partitioning interval ----------------------------------------------------------
            if now >= next_interval - 1e-12:
                next_interval += config.partition_interval_s
                new_allocation = self.driver.on_interval(now)
                if new_allocation is not None:
                    self._program(new_allocation, now, "interval", repartitions)
                    rates_dirty = True

            if rates_dirty:
                self._recompute_rates()

        return self._finalize(workload_name, now, stats, traces, repartitions)

    # -- internals ------------------------------------------------------------------------------------

    def _program(
        self,
        allocation: WayAllocation,
        now: float,
        reason: str,
        repartitions: List[RepartitionEvent],
    ) -> None:
        """Program a new allocation into the simulated CAT hardware."""
        missing = [a for a in self.apps if a not in allocation.masks]
        if missing:
            raise SimulationError(
                f"policy {self.driver.name!r} left applications unallocated: {missing}"
            )
        self.cat.apply_allocation(allocation.masks)
        self._allocation = allocation
        repartitions.append(
            RepartitionEvent(time_s=now, reason=reason, masks=dict(allocation.masks))
        )
        self._recompute_rates()

    def _recompute_rates(self) -> None:
        """Refresh every application's IPC/miss/stall rates from the estimator."""
        if self._allocation is None:
            raise SimulationError("no allocation programmed")
        # Update the estimator's profiles to each application's current phase.
        for name, state in self._states.items():
            self.estimator.add_profile(name, state.current_profile().renamed(name))
        estimate = self.estimator.evaluate_allocation(self._allocation)
        for name, state in self._states.items():
            profile = self.estimator.profiles[name]
            effective = estimate.effective_ways[name]
            state.ipc = estimate.ipcs[name]
            state.llcmpkc = profile.llcmpkc_at(max(effective, 0.25))
            state.stall_fraction = profile.stall_fraction_at(
                max(effective, 0.25), self.platform
            )
            state.effective_ways = effective
            self.cmt.update_occupancy(name, effective)
