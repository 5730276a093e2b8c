from bench import stats


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert stats.tail_percentile(100_000) == 99.0  # capped
    assert stats.tail_percentile(1_000) == 99.0  # exactly ten beyond
    assert stats.tail_percentile(999) < 99.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(50) == 80.0
    assert stats.tail_percentile(12) == 50.0  # floor: nothing above the median is supported
    for count in (50, 100, 999, 5_000):
        beyond = count * (1.0 - stats.tail_percentile(count) / 100.0)
        assert beyond >= stats.MIN_SAMPLES_BEYOND - 1e-9


def test_nearest_rank_percentile():
    ordered = [float(n) for n in range(1, 101)]
    assert stats.percentile(ordered, 50.0) == 50.0
    assert stats.percentile(ordered, 99.0) == 99.0
    assert stats.percentile(ordered, 100.0) == 100.0
    assert stats.percentile([7.0], 99.0) == 7.0


def test_spread_is_interquartile_distance_over_median():
    import statistics

    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    first, _mid, third = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (third - first) / statistics.median(values)
    assert stats.spread([5.0]) == 0.0
