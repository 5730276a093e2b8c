"""Tests for statistics helpers (concentration curves, capture-recapture)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import (
    chapman_estimate,
    cumulative_share,
    gini,
    lincoln_petersen_estimate,
    percentile,
    wilson_interval,
)


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([3, 1, 2], 50) == 2.0

    def test_interpolates_between_points(self):
        assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)
        assert percentile([0.0, 10.0], 90) == pytest.approx(9.0)

    def test_extremes_are_min_and_max(self):
        values = [5.0, 1.0, 9.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    @pytest.mark.parametrize(
        "q, expected", [(0, 10.0), (25, 20.0), (50, 30.0), (62.5, 35.0), (99, 49.6)]
    )
    def test_linear_inclusive_convention(self, q, expected):
        assert percentile([50, 10, 40, 20, 30], q) == pytest.approx(expected)

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_input_order_is_irrelevant(self):
        assert percentile([4, 2, 8, 6], 75) == percentile([8, 6, 4, 2], 75)

    def test_empty_and_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    def test_monotone_in_q(self, values):
        p50, p90, p99 = (percentile(values, q) for q in (50, 90, 99))
        # Tolerance of a few ulps: interpolating between nearly-adjacent
        # floats can round either way.
        slack = 1e-9 * max(1.0, p99)
        assert p50 <= p90 + slack
        assert p90 <= p99 + slack
        assert min(values) <= p50 + slack and p99 <= max(values) + slack


class TestCumulativeShare:
    def test_simple_case(self):
        assert cumulative_share([5, 3, 2]) == pytest.approx([0.5, 0.8, 1.0])

    def test_sorts_descending_first(self):
        assert cumulative_share([2, 5, 3]) == pytest.approx([0.5, 0.8, 1.0])

    def test_empty(self):
        assert cumulative_share([]) == []

    def test_all_zero(self):
        assert cumulative_share([0, 0]) == [0.0, 0.0]


class TestGini:
    def test_perfect_equality(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-9)

    def test_concentration_is_higher(self):
        assert gini([100, 1, 1, 1]) > gini([30, 28, 25, 20])

    def test_empty_and_zero(self):
        assert gini([]) == 0.0
        assert gini([0, 0]) == 0.0


class TestCaptureRecapture:
    def test_lincoln_petersen_exact(self):
        estimate = lincoln_petersen_estimate(50, 40, 20)
        assert estimate.estimate == pytest.approx(100.0)

    def test_lincoln_petersen_requires_recaptures(self):
        with pytest.raises(ValueError):
            lincoln_petersen_estimate(10, 10, 0)

    def test_chapman_close_to_lincoln_petersen(self):
        chapman = chapman_estimate(50, 40, 20)
        lincoln = lincoln_petersen_estimate(50, 40, 20)
        assert chapman.estimate == pytest.approx(lincoln.estimate, rel=0.05)

    def test_chapman_handles_zero_recaptures(self):
        estimate = chapman_estimate(10, 10, 0)
        assert estimate.estimate == pytest.approx(120.0)

    def test_chapman_validates_inputs(self):
        with pytest.raises(ValueError):
            chapman_estimate(5, 5, 6)
        with pytest.raises(ValueError):
            chapman_estimate(-1, 5, 0)


class TestWilsonInterval:
    def test_contains_proportion(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_zero_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_extreme_successes(self):
        low, high = wilson_interval(100, 100)
        assert high == pytest.approx(1.0)
        assert low > 0.9

    def test_invalid_successes(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_narrower_with_more_trials(self):
        low_small, high_small = wilson_interval(5, 10)
        low_big, high_big = wilson_interval(500, 1000)
        assert (high_big - low_big) < (high_small - low_small)


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
    def test_cumulative_share_monotone_and_bounded(self, values):
        shares = cumulative_share(values)
        assert all(0.0 <= share <= 1.0 + 1e-9 for share in shares)
        assert all(earlier <= later + 1e-9 for earlier, later in zip(shares, shares[1:]))

    @given(
        n1=st.integers(min_value=1, max_value=500),
        n2=st.integers(min_value=1, max_value=500),
        data=st.data(),
    )
    def test_chapman_estimate_at_least_observed(self, n1, n2, data):
        m = data.draw(st.integers(min_value=0, max_value=min(n1, n2)))
        estimate = chapman_estimate(n1, n2, m)
        # The estimated population can never be smaller than what both samples
        # jointly observed.
        observed_union = n1 + n2 - m
        assert estimate.estimate >= observed_union - 1

    @given(trials=st.integers(min_value=1, max_value=1000), data=st.data())
    def test_wilson_interval_ordered_and_bounded(self, trials, data):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= high <= 1.0
