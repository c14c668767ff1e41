"""Execution parameters shared by both runtime engines.

:class:`EngineConfig` and :func:`alone_completion_time` live here, below
:mod:`repro.runtime.engine` and :mod:`repro.runtime.multirun`, so the engine
can lower its runs onto :class:`~repro.runtime.multirun.MultiRunEngine`
without an import cycle.  Both names are re-exported by
:mod:`repro.runtime.engine` and :mod:`repro.runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.phases import PhasedProfile
from repro.errors import SimulationError
from repro.hardware.platform import PlatformSpec

__all__ = ["EngineConfig", "alone_completion_time"]


@dataclass(frozen=True)
class EngineConfig:
    """Execution parameters of the runtime engine."""

    #: Instructions each application retires per completion.  The paper uses
    #: 150e9; the default here is 150e9 / `instruction_scale`.
    instructions_per_run: float = 2.0e9
    #: Number of completions every application must reach before the run ends.
    min_completions: int = 3
    #: Partitioning interval in seconds (500 ms in the paper).
    partition_interval_s: float = 0.5
    #: Record per-application traces (LLCMPKC over time etc.).
    record_traces: bool = True
    #: Safety cap on simulated time (seconds) to guarantee termination.
    max_simulated_seconds: float = 600.0
    #: Execution backend.  ``"reference"`` runs the original dict-based loop
    #: that re-solves the estimator on every rate change (the oracle).
    #: ``"incremental"`` and ``"multirun"`` both run the stacked
    #: :class:`~repro.runtime.multirun.MultiRunEngine` over shared evaluation
    #: tables; they differ only in how ``run_study`` ships a batch:
    #: ``"incremental"`` sends one run per executor task (a one-member
    #: stack), ``"multirun"`` groups compatible runs into one stack per task.
    #: All produce bit-identical results.
    backend: str = "incremental"
    #: LRU bound on the shared evaluation tables' estimate cache (``None`` =
    #: unbounded; ignored by the ``reference`` backend, which keeps no
    #: tables).  Evicted entries are recomputed on demand, so results are
    #: unaffected.
    max_table_entries: Optional[int] = None
    #: Warm-start file for the shared evaluation tables (``None`` = start
    #: cold).  When set, every worker process seeds its tables from this
    #: :meth:`~repro.simulator.estimator.EvaluationTables.load` snapshot if
    #: the file exists; cached values are pure functions of their keys, so
    #: warm starts change wall clock only, never results.
    tables_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.instructions_per_run <= 0:
            raise SimulationError("instructions_per_run must be positive")
        if self.min_completions < 1:
            raise SimulationError("min_completions must be >= 1")
        if self.partition_interval_s <= 0:
            raise SimulationError("partition_interval_s must be positive")
        if self.max_simulated_seconds <= 0:
            raise SimulationError("max_simulated_seconds must be positive")
        if self.backend not in ("incremental", "reference", "multirun"):
            raise SimulationError(f"unknown engine backend {self.backend!r}")
        if self.max_table_entries is not None and self.max_table_entries < 1:
            raise SimulationError(
                "max_table_entries must be >= 1 (or None for unbounded)"
            )

    @property
    def instruction_scale(self) -> float:
        """How much smaller the budget is than the paper's 150 G instructions."""
        return 150e9 / self.instructions_per_run


def alone_completion_time(
    profile: PhasedProfile, instructions: float, platform: PlatformSpec
) -> float:
    """Completion time (seconds) of one run of ``instructions`` executed alone.

    The application starts at the beginning of its phase sequence (benchmarks
    are restarted from scratch) and enjoys the whole LLC, so each phase runs at
    its full-cache IPC.
    """
    if instructions <= 0:
        raise SimulationError("instructions must be positive")
    remaining = instructions
    cycles = 0.0
    index = 0
    n = profile.n_phases
    while remaining > 1e-6:
        segment = profile.segments[index % n]
        chunk = min(remaining, segment.instructions)
        cycles += chunk / segment.profile.ipc_alone
        remaining -= chunk
        index += 1
    return platform.cycles_to_seconds(cycles)
