"""Property-based tests (hypothesis) for the core data structures and algorithms."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ClusteringSolution,
    WayAllocation,
    classify_tables,
    lookahead,
    lookahead_int,
    slowdown_table_fixed,
    to_fixed,
    from_fixed,
    fixed_ratio,
)
from repro.core.types import ClusterSpec
from repro.errors import ClusteringError
from repro.hardware.cat import contiguous_layout, mask_is_contiguous, mask_ways
from repro.metrics import compute_metrics, jain_index, stp, unfairness
from repro.optimal import count_way_compositions, set_partitions, way_compositions
from repro.simulator import OccupancyModel
from repro.apps import AppProfile, CurveSet
from repro.apps.profile import interp_unit_grid


SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- lookahead ------------------------------------------------------------------


@st.composite
def cost_tables(draw):
    n_apps = draw(st.integers(min_value=1, max_value=5))
    n_ways = draw(st.integers(min_value=n_apps, max_value=12))
    tables = []
    for _ in range(n_apps):
        values = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=n_ways,
                max_size=n_ways,
            )
        )
        tables.append(sorted(values, reverse=True))
    return tables, n_ways


@SETTINGS
@given(cost_tables())
def test_lookahead_allocates_exactly_all_ways(data):
    tables, n_ways = data
    allocation = lookahead(tables, n_ways)
    assert sum(allocation) == n_ways
    assert all(w >= 1 for w in allocation)
    assert len(allocation) == len(tables)


@SETTINGS
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=5000), min_size=11, max_size=11),
        min_size=1,
        max_size=4,
    )
)
def test_lookahead_int_allocates_exactly_all_ways(raw_tables):
    tables = [sorted(t, reverse=True) for t in raw_tables]
    allocation = lookahead_int(tables, 11)
    assert sum(allocation) == 11
    assert all(w >= 1 for w in allocation)


# -- fixed point -----------------------------------------------------------------


@SETTINGS
@given(st.floats(min_value=0.001, max_value=1000.0, allow_nan=False))
def test_fixed_point_round_trip_error_is_bounded(value):
    assert abs(from_fixed(to_fixed(value)) - value) <= 0.0005 + 1e-12


@SETTINGS
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_fixed_ratio_close_to_true_ratio(num, den):
    assert abs(from_fixed(fixed_ratio(num, den)) - num / den) <= 0.0005 + 1e-12


@SETTINGS
@given(st.lists(st.integers(min_value=1, max_value=10000), min_size=1, max_size=11))
def test_slowdown_table_fixed_last_entry_is_unity(ipc_values):
    table = slowdown_table_fixed(ipc_values)
    assert table[-1] == 1000  # slowdown of the reference allocation is 1.0


# -- metrics -----------------------------------------------------------------------


@SETTINGS
@given(st.lists(st.floats(min_value=1.0, max_value=10.0, allow_nan=False), min_size=1, max_size=16))
def test_metric_invariants(slowdowns):
    assert unfairness(slowdowns) >= 1.0
    assert 0.0 < stp(slowdowns) <= len(slowdowns) + 1e-9
    assert 0.0 < jain_index(slowdowns) <= 1.0 + 1e-12
    metrics = compute_metrics({f"a{i}": s for i, s in enumerate(slowdowns)})
    assert metrics.max_slowdown >= metrics.min_slowdown


# -- clustering structures ------------------------------------------------------------


@st.composite
def clusterings(draw):
    n_ways = draw(st.integers(min_value=2, max_value=12))
    n_clusters = draw(st.integers(min_value=1, max_value=min(n_ways, 5)))
    apps = [f"app{i}" for i in range(draw(st.integers(min_value=n_clusters, max_value=10)))]
    # Assign every app to a cluster; make sure no cluster is empty.
    assignment = {app: i % n_clusters for i, app in enumerate(apps)}
    groups = [[a for a in apps if assignment[a] == c] for c in range(n_clusters)]
    ways = [1] * n_clusters
    remaining = n_ways - n_clusters
    for _ in range(remaining):
        ways[draw(st.integers(min_value=0, max_value=n_clusters - 1))] += 1
    return groups, ways, n_ways


@SETTINGS
@given(clusterings())
def test_clustering_solution_invariants(data):
    groups, ways, n_ways = data
    solution = ClusteringSolution.from_groups(groups, ways, n_ways)
    # Feasibility rules of Section 2.2.
    assert sum(c.ways for c in solution.clusters) == n_ways
    assert solution.n_clusters <= min(solution.n_apps, n_ways)
    allocation = solution.to_allocation()
    # Masks of a clustering are contiguous and non-overlapping across clusters.
    assert not allocation.is_overlapping()
    for app in solution.apps():
        mask = allocation.mask_of(app)
        assert mask_is_contiguous(mask)
        assert mask_ways(mask) == solution.ways_of(app)


@SETTINGS
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6))
def test_contiguous_layout_covers_without_overlap(way_counts):
    total = sum(way_counts)
    masks = contiguous_layout(way_counts, total)
    union = 0
    for mask in masks:
        assert mask_is_contiguous(mask)
        assert union & mask == 0
        union |= mask
    assert union == (1 << total) - 1


# -- enumeration -----------------------------------------------------------------------


@SETTINGS
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=5))
def test_way_composition_count_matches_formula(total, parts):
    if parts > total:
        return
    assert len(list(way_compositions(total, parts))) == count_way_compositions(total, parts)


@SETTINGS
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_set_partitions_are_valid_partitions(n_items, max_parts):
    items = [f"x{i}" for i in range(n_items)]
    seen = set()
    for partition in set_partitions(items, max_parts):
        assert 1 <= len(partition) <= max_parts
        flattened = sorted(x for group in partition for x in group)
        assert flattened == sorted(items)
        key = frozenset(frozenset(g) for g in partition)
        assert key not in seen
        seen.add(key)


# -- classification ----------------------------------------------------------------------


@SETTINGS
@given(
    st.lists(st.floats(min_value=1.0, max_value=3.0, allow_nan=False), min_size=2, max_size=12),
    st.lists(st.floats(min_value=0.0, max_value=60.0, allow_nan=False), min_size=2, max_size=12),
)
def test_classification_is_total(slowdown, llcmpkc):
    n = min(len(slowdown), len(llcmpkc))
    result = classify_tables(sorted(slowdown[:n], reverse=True), llcmpkc[:n])
    assert result.value in {"streaming", "sensitive", "light"}


# -- occupancy conservation ---------------------------------------------------------------


@SETTINGS
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_occupancy_conserves_cache_space(n_apps, seed):
    rng = np.random.default_rng(seed)
    n_ways = 8
    profiles = {}
    for i in range(n_apps):
        ipc = np.sort(rng.uniform(0.3, 2.0, size=n_ways))
        mpkc = np.sort(rng.uniform(0.0, 40.0, size=n_ways))[::-1]
        profiles[f"a{i}"] = AppProfile(name=f"a{i}", curves=CurveSet(ipc=ipc, llcmpkc=mpkc))
    allocation = WayAllocation(
        masks={name: (1 << n_ways) - 1 for name in profiles}, total_ways=n_ways
    )
    result = OccupancyModel().solve(allocation, profiles)
    assert sum(result.effective_ways.values()) == pytest.approx(n_ways, rel=2e-3)
    assert all(v > 0 for v in result.effective_ways.values())


# -- scalar curve reads ---------------------------------------------------------------------


@st.composite
def curves_and_ways(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    table = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    ways = draw(
        st.one_of(
            st.integers(min_value=1, max_value=n).map(float),  # grid points
            st.sampled_from([1.0, float(n)]),  # clip edges
            st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),  # below 1
            st.floats(min_value=float(n), max_value=4.0 * n + 8.0),  # beyond n
            st.floats(min_value=1e-9, max_value=float(n)),
        )
    )
    return table, ways


@settings(max_examples=300, deadline=None)
@given(curves_and_ways())
def test_unit_grid_interp_is_bit_identical_to_np_interp(data):
    # np.interp clamps to the end points itself, like the reader's clip.
    table, ways = data
    axis = np.arange(1, len(table) + 1, dtype=float)
    expected = float(np.interp(ways, axis, table))
    got = interp_unit_grid(table, ways, "h")
    assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)
