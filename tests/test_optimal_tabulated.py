"""Equivalence tests: tabulated batch-scoring backend vs. reference solvers.

The tabulated engine promises *bit-identical* optima: same groups, same way
counts, and exactly equal unfairness/STP floats.  These tests pin that
guarantee across seeded workloads, both objectives and every solver entry
point (exhaustive, branch-and-bound, strict partitioning, parallel driver).
"""

import numpy as np
import pytest

import repro.optimal.tabulated as tab_mod
from repro.errors import SolverError
from repro.hardware import skylake_gold_6138, small_test_platform
from repro.optimal import (
    CachedObjective,
    TabulatedObjective,
    branch_and_bound_clustering,
    optimal_clustering,
    optimal_partitioning,
    parallel_optimal_clustering,
    set_partitions,
    tabulated_branch_and_bound,
    way_compositions,
)
from repro.workloads import random_workload

WORKLOAD_SEEDS = [3, 17, 29, 42]


def _mix(seed: int, size: int = 5):
    platform = skylake_gold_6138()
    workload = random_workload(f"tab-{seed}", size, kind="S", seed=seed)
    return platform, workload.profiles(platform.llc_ways)


def _signature(result):
    return (
        [list(cluster.apps) for cluster in result.solution.clusters],
        [cluster.ways for cluster in result.solution.clusters],
        result.unfairness,
        result.stp,
    )


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    @pytest.mark.parametrize("objective", ["fairness", "throughput"])
    def test_exhaustive_bit_identical(self, seed, objective):
        platform, profiles = _mix(seed)
        reference = optimal_clustering(
            platform, profiles, objective=objective, backend="reference"
        )
        tabulated = optimal_clustering(
            platform, profiles, objective=objective, backend="tabulated"
        )
        assert _signature(tabulated) == _signature(reference)
        assert tabulated.candidates_evaluated == reference.candidates_evaluated

    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    @pytest.mark.parametrize("objective", ["fairness", "throughput"])
    def test_branch_and_bound_matches_reference_optimum(self, seed, objective):
        platform, profiles = _mix(seed)
        reference = optimal_clustering(
            platform, profiles, objective=objective, backend="reference"
        )
        bnb = branch_and_bound_clustering(
            platform, profiles, objective=objective, backend="tabulated"
        )
        assert _signature(bnb) == _signature(reference)
        assert bnb.candidates_evaluated <= reference.candidates_evaluated

    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS[:2])
    def test_partitioning_bit_identical(self, seed):
        platform, profiles = _mix(seed)
        reference = optimal_partitioning(platform, profiles, backend="reference")
        tabulated = optimal_partitioning(platform, profiles, backend="tabulated")
        assert _signature(tabulated) == _signature(reference)

    def test_max_clusters_cap_respected(self):
        platform, profiles = _mix(3)
        result = optimal_clustering(
            platform, profiles, max_clusters=2, backend="tabulated"
        )
        assert result.solution.n_clusters <= 2
        reference = optimal_clustering(
            platform, profiles, max_clusters=2, backend="reference"
        )
        assert _signature(result) == _signature(reference)

    def test_unknown_backend_rejected(self):
        platform, profiles = _mix(3)
        with pytest.raises(SolverError):
            optimal_clustering(platform, profiles, backend="gpu")
        with pytest.raises(SolverError):
            parallel_optimal_clustering(platform, profiles, backend="gpu")

    def test_objective_fn_conflicts_with_tabulated_backend(self):
        platform, profiles = _mix(3)
        shared = CachedObjective(platform, profiles)
        with pytest.raises(SolverError):
            optimal_clustering(
                platform, profiles, objective_fn=shared, backend="tabulated"
            )
        with pytest.raises(SolverError):
            branch_and_bound_clustering(
                platform, profiles, objective_fn=shared, backend="tabulated"
            )
        with pytest.raises(SolverError):
            optimal_partitioning(
                platform, profiles, objective_fn=shared, backend="tabulated"
            )

    def test_oversized_workload_falls_back_to_reference_workers(self):
        platform = skylake_gold_6138()
        workload = random_workload("tab-big", 15, kind="S", seed=2)
        profiles = workload.profiles(platform.llc_ways)
        # 15 apps exceed MAX_TABULATED_APPS; the tabulated default must fall
        # back to the reference worker instead of raising.  max_clusters=1
        # keeps the search itself to a single candidate.
        result = parallel_optimal_clustering(
            platform, profiles, n_workers=1, max_clusters=1
        )
        assert result.solution.n_clusters == 1
        assert result.candidates_evaluated == 1


class TestParallelSharedTables:
    def test_parallel_matches_sequential_optimum(self):
        platform, profiles = _mix(17)
        sequential = optimal_clustering(platform, profiles, backend="reference")
        parallel = parallel_optimal_clustering(
            platform, profiles, n_workers=2, backend="tabulated"
        )
        assert _signature(parallel) == _signature(sequential)
        assert parallel.candidates_evaluated == sequential.candidates_evaluated

    def test_single_worker_runs_in_process(self):
        platform, profiles = _mix(29)
        sequential = optimal_clustering(platform, profiles, backend="reference")
        parallel = parallel_optimal_clustering(
            platform, profiles, n_workers=1, backend="tabulated"
        )
        assert _signature(parallel) == _signature(sequential)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _assert_rows_match_reference(platform, profiles, cluster_masks=None):
    """Every solved (mask, ways) row equals ``cluster_pieces`` bit for bit."""
    tables = TabulatedObjective(platform, profiles, cluster_masks=cluster_masks)
    reference = CachedObjective(platform, profiles)
    apps = tables.app_order
    masks = cluster_masks or range(1, 1 << len(apps))
    for mask in masks:
        members = [app for j, app in enumerate(apps) if mask >> j & 1]
        for ways in range(1, platform.llc_ways + 1):
            row = tables.entry(mask, ways)
            pieces = reference.cluster_pieces(members, ways)
            slowdown = np.zeros(len(apps))
            stall = np.zeros(len(apps))
            for app in members:
                slowdown[tables.app_index[app]] = pieces.cache_slowdowns[app]
                stall[tables.app_index[app]] = pieces.stall_fractions[app]
            where = (mask, ways)
            assert _bits(tables._slowdown_rows[row]) == _bits(slowdown), where
            assert _bits(tables._stall_rows[row]) == _bits(stall), where
            assert _bits(tables._demand_rows[row]) == _bits(pieces.demand_total_gbs), where
            assert _bits(tables._row_max[row]) == _bits(
                max(pieces.cache_slowdowns.values())
            ), where
            assert _bits(tables._row_min[row]) == _bits(
                min(pieces.cache_slowdowns.values())
            ), where


class TestDenseTableParity:
    @pytest.mark.parametrize("size", range(1, 8))
    def test_every_row_matches_cluster_pieces(self, size):
        platform, profiles = _mix(40 + size, size=max(size, 2))
        profiles = dict(list(profiles.items())[:size])
        _assert_rows_match_reference(platform, profiles)

    def test_singleton_masks_only(self):
        platform, profiles = _mix(17, size=6)
        masks = [1 << j for j in range(len(profiles))]
        _assert_rows_match_reference(platform, profiles, cluster_masks=masks)

    def test_two_way_platform(self):
        platform = small_test_platform(ways=2, cores=4)
        workload = random_workload("tab-2way", 4, kind="S", seed=8)
        _assert_rows_match_reference(platform, workload.profiles(platform.llc_ways))

    def test_profiles_shorter_than_the_llc(self):
        # Curves of 6 and 8 points on an 11-way LLC: reads clip at each
        # profile's own last point, not at the platform's way count.
        platform = skylake_gold_6138()
        workload = random_workload("tab-short", 5, kind="S", seed=23)
        profiles = {
            name: profile.resampled(6 if j % 2 else 8)
            for j, (name, profile) in enumerate(
                workload.profiles(platform.llc_ways).items()
            )
        }
        _assert_rows_match_reference(platform, profiles)

    def test_mask_blocks_do_not_change_rows(self, monkeypatch):
        platform, profiles = _mix(29, size=6)
        whole = TabulatedObjective(platform, profiles)
        monkeypatch.setattr(tab_mod, "_MASK_BLOCK", 5)
        blocked = TabulatedObjective(platform, profiles)
        for name in ("_slowdown_rows", "_stall_rows", "_demand_rows", "_row_max", "_row_min"):
            assert _bits(getattr(blocked, name)) == _bits(getattr(whole, name)), name


class TestTabulatedObjective:
    def test_candidate_scores_match_reference(self):
        platform, profiles = _mix(42)
        reference = CachedObjective(platform, profiles)
        tables = TabulatedObjective(platform, profiles)
        apps = list(profiles)
        checked = 0
        for groups in set_partitions(apps, 3):
            for ways in way_compositions(platform.llc_ways, len(groups)):
                score = reference.score_candidate(groups, ways)
                unfairness, stp = tables.score_candidate_fast(groups, ways)
                assert unfairness == score.unfairness
                assert stp == pytest.approx(score.stp, abs=1e-12)
                checked += 1
            if checked > 300:
                break
        assert checked > 0

    def test_exact_score_is_reference_score(self):
        platform, profiles = _mix(3)
        tables = TabulatedObjective(platform, profiles)
        reference = CachedObjective(platform, profiles)
        groups = [[app] for app in profiles]
        ways = [1] * (len(groups) - 1) + [platform.llc_ways - len(groups) + 1]
        exact = tables.exact_score(groups, ways)
        expected = reference.score_candidate(groups, ways)
        assert exact.unfairness == expected.unfairness
        assert exact.stp == expected.stp
        assert exact.slowdowns == expected.slowdowns

    def test_bounds_match_reference_pieces(self):
        platform, profiles = _mix(17)
        tables = TabulatedObjective(platform, profiles)
        reference = CachedObjective(platform, profiles)
        apps = sorted(profiles)
        group = apps[:3]
        mask = tables.group_mask(group)
        for ways in (1, 2, platform.llc_ways):
            pieces = reference.cluster_pieces(group, ways)
            assert tables.cluster_max_slowdown(mask, ways) == max(
                pieces.cache_slowdowns.values()
            )
            assert tables.cluster_min_slowdown(mask, ways) == min(
                pieces.cache_slowdowns.values()
            )

    def test_too_many_apps_rejected(self):
        platform, profiles = _mix(3)
        original = tab_mod.MAX_TABULATED_APPS
        tab_mod.MAX_TABULATED_APPS = 2
        try:
            with pytest.raises(SolverError):
                TabulatedObjective(platform, profiles)
        finally:
            tab_mod.MAX_TABULATED_APPS = original

    def test_untabulated_app_rejected(self):
        platform, profiles = _mix(3)
        tables = TabulatedObjective(platform, profiles)
        with pytest.raises(SolverError):
            tables.group_mask(["ghost"])

    def test_restricted_masks_reject_unsolved_entries(self):
        platform, profiles = _mix(3)
        tables = TabulatedObjective(platform, profiles, cluster_masks=[1, 2])
        assert tables.entry(1, 1) == platform.llc_ways
        with pytest.raises(SolverError):
            tables.entry(3, 1)
        with pytest.raises(SolverError):
            TabulatedObjective(platform, profiles, cluster_masks=[0])


def test_tabulated_bnb_with_shared_tables():
    platform, profiles = _mix(42)
    tables = TabulatedObjective(platform, profiles)
    a = tabulated_branch_and_bound(platform, profiles, tables=tables)
    b = branch_and_bound_clustering(platform, profiles, backend="reference")
    assert _signature(a) == _signature(b)
