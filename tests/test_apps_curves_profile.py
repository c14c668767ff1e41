"""Tests for the curve archetypes and the AppProfile record."""

import numpy as np
import pytest

from repro.apps import (
    AppProfile,
    CurveSet,
    blend_curves,
    light_curves,
    sensitive_curves,
    streaming_curves,
)
from repro.apps.profile import FastProfileView
from repro.errors import ProfileError
from repro.hardware import skylake_gold_6138


class TestCurveSet:
    def test_slowdown_is_relative_to_full_cache(self):
        curves = CurveSet(ipc=np.array([0.5, 0.8, 1.0]), llcmpkc=np.zeros(3))
        assert curves.slowdown() == pytest.approx([2.0, 1.25, 1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ProfileError):
            CurveSet(ipc=np.ones(3), llcmpkc=np.ones(4))

    def test_non_positive_ipc_rejected(self):
        with pytest.raises(ProfileError):
            CurveSet(ipc=np.array([1.0, 0.0]), llcmpkc=np.zeros(2))

    def test_negative_miss_rate_rejected(self):
        with pytest.raises(ProfileError):
            CurveSet(ipc=np.ones(2), llcmpkc=np.array([1.0, -1.0]))


class TestArchetypes:
    def test_sensitive_curve_monotone_and_anchored(self):
        curves = sensitive_curves(11, ipc_full=1.0, slowdown_at_1=1.8, knee_ways=2.5, llcmpkc_at_1=20.0)
        slowdown = curves.slowdown()
        assert slowdown[0] == pytest.approx(1.8, rel=1e-6)
        assert slowdown[-1] == pytest.approx(1.0)
        assert np.all(np.diff(slowdown) <= 1e-9)  # non-increasing
        assert np.all(np.diff(curves.llcmpkc) <= 1e-9)

    def test_streaming_curve_is_flat_and_miss_heavy(self):
        curves = streaming_curves(11, ipc_full=0.5, slowdown_at_1=1.02, llcmpkc=30.0)
        assert curves.slowdown().max() <= 1.03
        assert curves.llcmpkc.min() >= 25.0

    def test_light_curve_low_misses(self):
        curves = light_curves(11, ipc_full=1.5, llcmpkc=0.5)
        assert curves.llcmpkc.max() < 1.0
        assert curves.slowdown().max() < 1.02

    def test_light_curve_rejects_streaming_miss_rates(self):
        with pytest.raises(ProfileError):
            light_curves(11, ipc_full=1.0, llcmpkc=15.0)

    def test_sensitive_rejects_slowdown_below_one(self):
        with pytest.raises(ProfileError):
            sensitive_curves(11, ipc_full=1.0, slowdown_at_1=0.9, knee_ways=2.0, llcmpkc_at_1=10.0)

    def test_streaming_rejects_steep_slowdown(self):
        with pytest.raises(ProfileError):
            streaming_curves(11, ipc_full=1.0, slowdown_at_1=1.5)

    def test_blend_interpolates(self):
        a = light_curves(4, ipc_full=2.0, llcmpkc=0.0)
        b = light_curves(4, ipc_full=1.0, llcmpkc=2.0)
        mix = blend_curves(a, b, 0.5)
        assert mix.ipc[-1] == pytest.approx(1.5)
        assert mix.llcmpkc[0] == pytest.approx(1.0)

    def test_blend_rejects_bad_weight(self):
        a = light_curves(4, ipc_full=1.0, llcmpkc=0.1)
        with pytest.raises(ProfileError):
            blend_curves(a, a, 1.5)

    def test_single_way_curves_supported(self):
        curves = streaming_curves(1, ipc_full=0.5, llcmpkc=20.0)
        assert curves.n_ways == 1


class TestAppProfile:
    @pytest.fixture()
    def profile(self):
        return AppProfile(
            name="demo",
            curves=sensitive_curves(11, ipc_full=1.0, slowdown_at_1=1.6, knee_ways=2.5, llcmpkc_at_1=15.0),
        )

    def test_interpolation_matches_table_points(self, profile):
        table = profile.ipc_table()
        for ways in range(1, 12):
            assert profile.ipc_at(ways) == pytest.approx(table[ways - 1])

    def test_interpolation_clamps_to_range(self, profile):
        assert profile.ipc_at(0.5) == pytest.approx(profile.ipc_at(1.0))
        assert profile.ipc_at(50) == pytest.approx(profile.ipc_at(11))

    def test_interpolation_is_monotone(self, profile):
        values = [profile.ipc_at(w) for w in np.linspace(1, 11, 41)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_slowdown_at_full_cache_is_one(self, profile):
        assert profile.slowdown_at(11) == pytest.approx(1.0)

    def test_mpki_consistent_with_llcmpkc_and_ipc(self, profile):
        ways = 3
        expected = profile.llcmpkc_at(ways) / profile.ipc_at(ways)
        assert profile.mpki_at(ways) == pytest.approx(expected)

    def test_stall_fraction_bounded(self, profile):
        plat = skylake_gold_6138()
        for ways in (1, 3, 11):
            assert 0.0 <= profile.stall_fraction_at(ways, plat) <= 0.95

    def test_stall_fraction_decreases_with_more_ways(self, profile):
        plat = skylake_gold_6138()
        assert profile.stall_fraction_at(1, plat) > profile.stall_fraction_at(11, plat)

    def test_bandwidth_scales_with_miss_rate(self, profile):
        plat = skylake_gold_6138()
        assert profile.bandwidth_gbs_at(1, plat) > profile.bandwidth_gbs_at(11, plat)

    def test_resampled_preserves_full_cache_ipc(self, profile):
        other = profile.resampled(20)
        assert other.n_ways == 20
        assert other.ipc_alone == pytest.approx(profile.ipc_alone)

    def test_resampled_same_size_returns_self(self, profile):
        assert profile.resampled(11) is profile

    def test_scaled_ipc_keeps_slowdown_table(self, profile):
        scaled = profile.scaled_ipc(2.0)
        assert scaled.ipc_alone == pytest.approx(2.0 * profile.ipc_alone)
        assert scaled.slowdown_table() == pytest.approx(profile.slowdown_table())

    def test_renamed_keeps_curves(self, profile):
        other = profile.renamed("other")
        assert other.name == "other"
        assert other.ipc_table() == pytest.approx(profile.ipc_table())

    def test_zero_ways_rejected(self, profile):
        with pytest.raises(ProfileError):
            profile.ipc_at(0)

    @pytest.mark.parametrize("ways", [float("nan"), -1.0, 0.0])
    def test_non_positive_or_nan_ways_rejected_by_both_readers(self, profile, ways):
        # AppProfile and FastProfileView share one reader, so both reject
        # NaN with the same typed error naming the profile and the value.
        for reader in (profile, FastProfileView(profile)):
            for accessor in (reader.llcmpkc_at, reader.ipc_at):
                with pytest.raises(ProfileError, match=r"'demo' at (nan|-1\.0|0\.0) ways"):
                    accessor(ways)

    def test_describe_reports_key_stats(self, profile):
        info = profile.describe()
        assert info["n_ways"] == 11
        assert info["max_slowdown"] == pytest.approx(1.6, rel=1e-6)

    def test_invalid_bytes_per_miss_rejected(self):
        with pytest.raises(ProfileError):
            AppProfile(name="x", curves=light_curves(4, ipc_full=1.0, llcmpkc=0.1), bytes_per_miss=0)

    def test_empty_name_rejected(self):
        with pytest.raises(ProfileError):
            AppProfile(name="", curves=light_curves(4, ipc_full=1.0, llcmpkc=0.1))
