"""Bit-identity of the incremental evaluation layer and engine backend.

The ``incremental`` paths (FastProfileView, the occupancy trajectory cache,
EvaluationTables, the multi-run engine loop, serial batches) must
reproduce the ``reference`` implementations *exactly* — same floats, same
iteration counts, same traces — not merely approximately.  Every assertion
in this module therefore uses strict equality.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.catalog import build_catalog
from repro.apps.profile import FastProfileView
from repro.core.types import WayAllocation
from repro.errors import SimulationError
from repro.hardware import skylake_gold_6138
from repro.hardware.cat import mask_from_range
from repro.runtime import (
    DunnUserLevelDaemon,
    EngineConfig,
    LfocSchedulerPlugin,
    MonitorConfig,
    MultiRunEngine,
    RunSpec,
    RuntimeEngine,
    SerialExecutor,
    StockLinuxDriver,
)
from repro.runtime.executors import resolve_jobs
from repro.simulator import (
    ClusteringEstimator,
    EvaluationTables,
    OccupancyModel,
    OccupancyTrajectoryCache,
    ProfileSnapshot,
)
from repro.workloads import Workload


QUICK_MONITOR = MonitorConfig(warmup_samples=2, history_window=3)

FAST = EngineConfig(
    instructions_per_run=8.0e8,
    min_completions=2,
    partition_interval_s=0.05,
    record_traces=True,
    max_simulated_seconds=120.0,
)


@pytest.fixture(scope="module")
def platform():
    return skylake_gold_6138()


@pytest.fixture(scope="module")
def phased_workload():
    # mcf06 and xalancbmk06 carry real phase sequences, lbm06 streams,
    # gamess06 is light: phase boundaries, sampling sweeps and repartitions
    # all occur within the FAST budget.
    return Workload("inc-mix", ("mcf06", "xalancbmk06", "lbm06", "gamess06"))


def _random_allocation(rng, apps, llc_ways):
    masks = {}
    for app in apps:
        start = int(rng.integers(0, llc_ways))
        width = int(rng.integers(1, llc_ways - start + 1))
        masks[app] = mask_from_range(start, width)
    return WayAllocation(masks=masks, total_ways=llc_ways)


def run_result_fields(result):
    """Everything a RunResult records, as an exactly-comparable structure."""
    return {
        "policy": result.policy,
        "workload": result.workload,
        "duration": result.duration_s,
        "stats": {
            name: (
                stats.completion_times,
                stats.alone_time,
                stats.instructions_retired,
                stats.samples_taken,
                stats.sampling_mode_entries,
                stats.class_changes,
            )
            for name, stats in result.app_stats.items()
        },
        "traces": result.traces,
        "repartitions": [
            (event.time_s, event.reason, event.masks) for event in result.repartitions
        ],
        "final_masks": dict(result.final_allocation.masks),
    }


class TestFastProfileView:
    def test_bitwise_equal_to_profile_accessors(self, platform):
        rng = np.random.default_rng(5)
        catalog = build_catalog(platform.llc_ways)
        for profile in list(catalog.values())[:8]:
            view = FastProfileView(profile)
            points = np.concatenate(
                [
                    rng.random(200) * (profile.n_ways + 2),
                    np.arange(1, profile.n_ways + 1, dtype=float),
                ]
            )
            for x in points:
                x = float(max(x, 1e-3))
                assert view.ipc_at(x) == profile.ipc_at(x)
                assert view.llcmpkc_at(x) == profile.llcmpkc_at(x)
                assert view.stall_fraction_at(x, platform) == profile.stall_fraction_at(
                    x, platform
                )
                assert view.bandwidth_gbs_at(x, platform) == profile.bandwidth_gbs_at(
                    x, platform
                )

    def test_rejects_non_positive_ways(self, platform):
        profile = next(iter(build_catalog(platform.llc_ways).values()))
        from repro.errors import ProfileError

        with pytest.raises(ProfileError):
            FastProfileView(profile).llcmpkc_at(0.0)


class TestShortMean:
    def test_bitwise_equal_to_np_mean(self):
        from repro.metrics.aggregate import short_mean

        rng = np.random.default_rng(7)
        for n in list(range(1, 12)) + [20]:
            for _ in range(50):
                values = [
                    float(v) for v in rng.random(n) * rng.choice([1e-3, 1.0, 1e3])
                ]
                assert short_mean(values) == float(np.mean(values))

    def test_empty_rejected(self):
        from repro.errors import ReproError
        from repro.metrics.aggregate import short_mean

        with pytest.raises(ReproError):
            short_mean([])


class TestTrajectoryCacheEquivalence:
    def test_matches_reference_occupancy_solve(self, platform):
        rng = np.random.default_rng(11)
        workload = Workload("occ-mix", ("lbm06", "xalancbmk06", "soplex06", "gamess06"))
        profiles = workload.profiles(platform.llc_ways)
        model = OccupancyModel()
        cache = OccupancyTrajectoryCache(model)
        tables = EvaluationTables(platform, occupancy_model=model)
        for _ in range(30):
            allocation = _random_allocation(rng, list(profiles), platform.llc_ways)
            tokens = {a: tables.token_for(profiles[a]) for a in profiles}
            views = {a: tables.view_for(profiles[a]) for a in profiles}
            reference = model.solve(allocation, profiles)
            cached = cache.solve(allocation, tokens, views)
            assert cached.effective_ways == reference.effective_ways
            assert cached.pressures == reference.pressures
            assert cached.iterations == reference.iterations
            assert cached.converged == reference.converged

    def test_trajectories_are_reused(self, platform):
        workload = Workload("occ-mix2", ("lbm06", "xalancbmk06"))
        profiles = workload.profiles(platform.llc_ways)
        model = OccupancyModel()
        cache = OccupancyTrajectoryCache(model)
        tables = EvaluationTables(platform, occupancy_model=model)
        tokens = {a: tables.token_for(profiles[a]) for a in profiles}
        views = {a: tables.view_for(profiles[a]) for a in profiles}
        shared = WayAllocation(
            masks={a: platform.full_mask for a in profiles},
            total_ways=platform.llc_ways,
        )
        cache.solve(shared, tokens, views)
        first = len(cache)
        # The same cluster at a different position reuses the trajectory.
        low = WayAllocation(
            masks={a: mask_from_range(0, 4) for a in profiles},
            total_ways=platform.llc_ways,
        )
        high = WayAllocation(
            masks={a: mask_from_range(7, 4) for a in profiles},
            total_ways=platform.llc_ways,
        )
        cache.solve(low, tokens, views)
        grown = len(cache)
        cache.solve(high, tokens, views)
        assert grown > first
        assert len(cache) == grown  # shifted cluster hit the cached trajectory


class TestEstimatorBackends:
    def test_incremental_estimates_bit_identical(self, platform):
        rng = np.random.default_rng(23)
        workload = Workload(
            "est-mix", ("lbm06", "xalancbmk06", "soplex06", "gamess06", "omnetpp06")
        )
        profiles = workload.profiles(platform.llc_ways)
        reference = ClusteringEstimator(platform, profiles)
        tables = EvaluationTables(platform)
        for _ in range(25):
            allocation = _random_allocation(rng, list(profiles), platform.llc_ways)
            ref = reference.evaluate_allocation(allocation)
            inc = tables.evaluate(allocation, profiles)
            assert inc.slowdowns == ref.slowdowns
            assert inc.ipcs == ref.ipcs
            assert inc.effective_ways == ref.effective_ways
            assert inc.bandwidth.demand_gbs == ref.bandwidth.demand_gbs
            assert inc.bandwidth.slowdown_factors == ref.bandwidth.slowdown_factors
            assert inc.metrics.unfairness == ref.metrics.unfairness
            assert inc.metrics.stp == ref.metrics.stp
            assert inc.metrics.antt == ref.metrics.antt
            assert inc.metrics.jain == ref.metrics.jain

    def test_repeated_evaluation_is_cached(self, platform):
        workload = Workload("est-mix2", ("lbm06", "gamess06"))
        profiles = workload.profiles(platform.llc_ways)
        tables = EvaluationTables(platform)
        allocation = WayAllocation(
            masks={a: platform.full_mask for a in profiles},
            total_ways=platform.llc_ways,
        )
        first = tables.evaluate(allocation, profiles)
        again = tables.evaluate(allocation, profiles)
        assert again is first  # a lookup, not a recomputation
        assert tables.cache_sizes()["estimates"] == 1

    def test_token_sharing_across_rebuilt_profiles(self, platform):
        workload = Workload("tok", ("lbm06", "mcf06"))
        tables = EvaluationTables(platform)
        first = workload.phased_profiles(platform.llc_ways)
        second = workload.phased_profiles(platform.llc_ways)
        snap_a = ProfileSnapshot(first)
        snap_b = ProfileSnapshot(second)
        for name in snap_a.apps:
            for phase_a, phase_b in zip(
                snap_a.phase_profiles[name], snap_b.phase_profiles[name]
            ):
                assert phase_a is not phase_b
                assert tables.token_for(phase_a) == tables.token_for(phase_b)


class TestEngineBackendEquivalence:
    @pytest.mark.parametrize(
        "driver_factory",
        [
            StockLinuxDriver,
            DunnUserLevelDaemon,
            lambda: LfocSchedulerPlugin(monitor_config=QUICK_MONITOR),
        ],
        ids=["stock", "dunn", "lfoc"],
    )
    def test_run_results_bit_identical(self, platform, phased_workload, driver_factory):
        reference = RuntimeEngine(
            platform,
            phased_workload.phased_profiles(platform.llc_ways),
            driver_factory(),
            replace(FAST, backend="reference"),
        ).run(phased_workload.name)
        incremental = RuntimeEngine(
            platform,
            phased_workload.phased_profiles(platform.llc_ways),
            driver_factory(),
            replace(FAST, backend="incremental"),
        ).run(phased_workload.name)
        assert run_result_fields(incremental) == run_result_fields(reference)

    def test_lfoc_run_exercises_phases_and_sampling(self, platform):
        # Same mix/budget as the reference-backend phase-tracking test:
        # mcf06 alternates between sensitive and streaming phases and must be
        # re-sampled beyond its initial classification.
        workload = Workload("inc-phased", ("mcf06", "gamess06", "lbm06", "namd06"))
        config = EngineConfig(
            instructions_per_run=1.6e9,
            min_completions=1,
            partition_interval_s=0.05,
            record_traces=False,
            max_simulated_seconds=200.0,
            backend="incremental",
        )
        engine = RuntimeEngine(
            platform,
            workload.phased_profiles(platform.llc_ways),
            LfocSchedulerPlugin(monitor_config=QUICK_MONITOR),
            config,
        )
        result = engine.run(workload.name)
        # The equivalence above is only meaningful if the dynamic machinery
        # actually fired: sampling sweeps ran and the phased app re-sampled.
        assert result.total_sampling_entries() >= len(workload.benchmarks)
        assert result.app_stats["mcf06.0"].sampling_mode_entries >= 2
        assert result.n_repartitions > 3

    def test_shared_tables_do_not_change_results(self, platform, phased_workload):
        config = replace(FAST, backend="incremental")
        tables = EvaluationTables(platform)
        solo = RuntimeEngine(
            platform,
            phased_workload.phased_profiles(platform.llc_ways),
            DunnUserLevelDaemon(),
            config,
        ).run(phased_workload.name)
        warm_a = RuntimeEngine(
            platform,
            phased_workload.phased_profiles(platform.llc_ways),
            DunnUserLevelDaemon(),
            config,
            tables=tables,
        ).run(phased_workload.name)
        sizes_after_first = tables.cache_sizes()
        warm_b = RuntimeEngine(
            platform,
            phased_workload.phased_profiles(platform.llc_ways),
            DunnUserLevelDaemon(),
            config,
            tables=tables,
        ).run(phased_workload.name)
        assert run_result_fields(warm_a) == run_result_fields(solo)
        assert run_result_fields(warm_b) == run_result_fields(solo)
        assert sizes_after_first["estimates"] > 0
        # The second identical run adds no new table entries.
        assert tables.cache_sizes() == sizes_after_first

    def test_reference_backend_rejects_tables(self, platform, phased_workload):
        with pytest.raises(SimulationError):
            RuntimeEngine(
                platform,
                phased_workload.phased_profiles(platform.llc_ways),
                StockLinuxDriver(),
                replace(FAST, backend="reference"),
                tables=EvaluationTables(platform),
            )

    def test_invalid_backend_rejected(self):
        with pytest.raises(SimulationError):
            EngineConfig(backend="turbo")


class _ForgetfulDriver(StockLinuxDriver):
    """Leaves the workload's last application out of its start allocation."""

    name = "Forgetful"

    def on_start(self, apps, platform):
        return WayAllocation(
            masks={app: platform.full_mask for app in apps[:-1]},
            total_ways=platform.llc_ways,
        )


def _run_on(engine_kind, platform, workload, driver, config, tables=None):
    """One run through ``RuntimeEngine`` under a backend, or a direct stack."""
    profiles = workload.phased_profiles(platform.llc_ways)
    if engine_kind == "multirun-engine":
        engine = MultiRunEngine(
            platform,
            [(workload.name, profiles, driver)],
            replace(config, backend="multirun"),
            tables=tables,
        )
        return engine.run()[0]
    engine = RuntimeEngine(
        platform, profiles, driver, replace(config, backend=engine_kind), tables=tables
    )
    return engine.run(workload.name)


@pytest.mark.parametrize("engine_kind", ["reference", "incremental", "multirun-engine"])
class TestEngineErrorPaths:
    """Failures surface as SimulationError naming what went wrong, on every path."""

    def test_unallocated_application_named(self, platform, engine_kind):
        workload = Workload("err-mix", ("lbm06", "gamess06"))
        with pytest.raises(SimulationError) as excinfo:
            _run_on(engine_kind, platform, workload, _ForgetfulDriver(), FAST)
        message = str(excinfo.value)
        assert "unallocated" in message
        assert "'Forgetful'" in message
        assert "gamess06.0" in message
        assert "lbm06.0" not in message

    def test_safety_cap_names_policy_and_workload(self, platform, engine_kind):
        workload = Workload("cap-mix", ("lbm06", "gamess06"))
        config = replace(FAST, instructions_per_run=1.0e12, max_simulated_seconds=0.01)
        with pytest.raises(SimulationError) as excinfo:
            _run_on(engine_kind, platform, workload, StockLinuxDriver(), config)
        message = str(excinfo.value)
        assert "safety cap" in message
        assert "'Stock-Linux'" in message
        assert "'cap-mix'" in message

    def test_tables_with_other_model_parameters_rejected(self, platform, engine_kind):
        workload = Workload("tab-mix", ("lbm06", "gamess06"))
        tables = EvaluationTables(platform, occupancy_model=OccupancyModel(damping=0.9))
        with pytest.raises(SimulationError, match="tables"):
            _run_on(
                engine_kind, platform, workload, StockLinuxDriver(), FAST, tables=tables
            )
        assert tables.cache_sizes()["estimates"] == 0


def run_serial(platform, specs, config=None):
    """A batch of runs in process, results in spec order."""
    with SerialExecutor() as executor:
        executor.prepare(platform, default_config=config)
        return executor.map_specs(specs)


class TestBatchRunner:
    """Batches through ``SerialExecutor.prepare`` + ``map_specs``."""

    def test_batch_matches_direct_runs(self, platform, phased_workload):
        config = EngineConfig(
            instructions_per_run=6.0e8,
            min_completions=1,
            partition_interval_s=0.05,
            record_traces=False,
        )
        specs = [
            RunSpec(workload=phased_workload, driver_cls=StockLinuxDriver),
            RunSpec(workload=phased_workload, driver_cls=DunnUserLevelDaemon),
        ]
        batch = run_serial(platform, specs, config)
        direct = [
            RuntimeEngine(
                platform,
                phased_workload.phased_profiles(platform.llc_ways),
                spec.driver_cls(),
                config,
            ).run(phased_workload.name)
            for spec in specs
        ]
        assert [run_result_fields(r) for r in batch] == [
            run_result_fields(r) for r in direct
        ]

    def test_batch_respects_reference_backend(self, platform, phased_workload):
        config = EngineConfig(
            instructions_per_run=6.0e8,
            min_completions=1,
            partition_interval_s=0.05,
            record_traces=False,
            backend="reference",
        )
        specs = [RunSpec(workload=phased_workload, driver_cls=StockLinuxDriver)]
        (result,) = run_serial(platform, specs, config)
        assert result.policy == "Stock-Linux"

    def test_empty_batch(self, platform):
        assert run_serial(platform, []) == []

    def test_invalid_jobs_rejected(self, platform, phased_workload):
        specs = [RunSpec(workload=phased_workload, driver_cls=StockLinuxDriver)]
        with pytest.raises(SimulationError):
            resolve_jobs(0, len(specs))

    def test_conflicting_workload_names_rejected(self, platform):
        specs = [
            RunSpec(
                workload=Workload("same", ("lbm06", "gamess06")),
                driver_cls=StockLinuxDriver,
            ),
            RunSpec(
                workload=Workload("same", ("mcf06", "namd06")),
                driver_cls=StockLinuxDriver,
            ),
        ]
        with pytest.raises(SimulationError):
            run_serial(platform, specs)


class TestFig7Backends:
    def test_summary_rows_bit_identical_and_jobs_invariant(self, platform):
        from repro.analysis import fig7_dynamic_study

        workloads = [Workload("f7-mix", ("mcf06", "lbm06", "xalancbmk06", "gamess06"))]
        config = EngineConfig(
            instructions_per_run=6.0e8, min_completions=1, record_traces=False
        )
        reference = fig7_dynamic_study(
            workloads, engine_config=config, platform=platform, backend="reference"
        )
        incremental = fig7_dynamic_study(
            workloads, engine_config=config, platform=platform, backend="incremental"
        )
        assert incremental == reference
