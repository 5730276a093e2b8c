"""Tests for Zipf sampling and power-law fitting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import SeededRng
from repro.util.zipf import PowerLawFit, ZipfSampler, fit_power_law, tail_mass


class TestZipfSampler:
    def test_sample_rank_in_range(self):
        sampler = ZipfSampler(n=10)
        rng = SeededRng(1)
        for _ in range(100):
            assert 1 <= sampler.sample_rank(rng) <= 10

    def test_sample_counts_total(self):
        sampler = ZipfSampler(n=30)
        counts = sampler.sample_counts(SeededRng(2), 500)
        assert sum(counts) == 500
        assert len(counts) == 30

    def test_head_gets_more_volume_than_tail(self):
        sampler = ZipfSampler(n=100, exponent=1.0)
        counts = sampler.sample_counts(SeededRng(3), 5000)
        assert sum(counts[:10]) > sum(counts[50:60])

    def test_rank_one_is_sampled_most_often(self):
        counts = ZipfSampler(n=20).sample_counts(SeededRng(5), 4000)
        assert counts[0] == max(counts)
        assert counts[0] > 2 * counts[4]

    def test_single_rank_always_samples_one(self):
        sampler = ZipfSampler(n=1, exponent=2.0)
        rng = SeededRng(6)
        assert {sampler.sample_rank(rng) for _ in range(50)} == {1}

    def test_steeper_exponent_concentrates_on_the_head(self):
        shallow = ZipfSampler(n=50, exponent=0.5).sample_counts(SeededRng(7), 4000)
        steep = ZipfSampler(n=50, exponent=2.0).sample_counts(SeededRng(7), 4000)
        assert steep[0] > shallow[0]
        assert sum(steep[25:]) < sum(shallow[25:])

    def test_sampling_replays_from_its_seed(self):
        sampler = ZipfSampler(n=40, exponent=1.1)
        assert sampler.sample_counts(SeededRng(8), 300) == sampler.sample_counts(SeededRng(8), 300)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfSampler(n=0)
        with pytest.raises(ValueError):
            ZipfSampler(n=5, exponent=0)


class TestFitPowerLaw:
    def test_recovers_exact_power_law(self):
        frequencies = [1000 / rank**1.2 for rank in range(1, 200)]
        fit = fit_power_law(frequencies)
        assert isinstance(fit, PowerLawFit)
        assert fit.exponent == pytest.approx(1.2, abs=0.01)
        assert fit.r_squared > 0.999

    def test_zipf_samples_fit_reasonably(self):
        sampler = ZipfSampler(n=200, exponent=1.0)
        counts = sampler.sample_counts(SeededRng(4), 50000)
        counts = sorted((count for count in counts if count > 0), reverse=True)
        fit = fit_power_law(counts)
        assert 0.5 < fit.exponent < 1.6
        assert fit.r_squared > 0.7

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([5.0])

    def test_ignores_zero_frequencies(self):
        fit = fit_power_law([100, 50, 25, 0, 0])
        assert fit.exponent > 0


class TestTailMass:
    def test_all_mass_in_tail_when_head_empty(self):
        assert tail_mass([5, 4, 3], 0) == 1.0

    def test_no_mass_when_head_covers_everything(self):
        assert tail_mass([5, 4, 3], 3) == 0.0

    def test_zipf_tail_is_heavy(self):
        frequencies = [1000 / rank for rank in range(1, 1001)]
        assert tail_mass(frequencies, 10) > 0.5

    def test_empty_input(self):
        assert tail_mass([], 5) == 0.0


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        exponent=st.floats(min_value=0.5, max_value=2.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_sampled_ranks_stay_in_range(self, n, exponent, seed):
        sampler = ZipfSampler(n=n, exponent=exponent)
        rng = SeededRng(seed)
        assert all(1 <= sampler.sample_rank(rng) <= n for _ in range(20))

    @settings(max_examples=30, deadline=None)
    @given(
        frequencies=st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=50)
    )
    def test_tail_mass_bounded(self, frequencies):
        ordered = sorted(frequencies, reverse=True)
        assert 0.0 <= tail_mass(ordered, 1) <= 1.0
