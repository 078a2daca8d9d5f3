"""Tests for measurement instruments."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.monitor import Histogram, MetricsRegistry, RateMeter


class TestCounter:
    """Counters of one registry scope."""

    def test_increment_and_get(self):
        counter = MetricsRegistry().scope("net.", host="a")
        counter.add("x")
        counter.add("x", 4)
        assert counter.get("x") == 5

    def test_missing_is_zero(self):
        assert MetricsRegistry().scope("net.").get("missing") == 0

    def test_as_dict_snapshot(self):
        registry = MetricsRegistry()
        counter = registry.scope("net.", host="a")
        counter.add("a", 2)
        snapshot = registry.snapshot()
        counter.add("a")
        assert snapshot.counters == {("net.a", (("host", "a"),)): 2}


class TestHistogram:
    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(50)

    def test_single_sample(self):
        histogram = Histogram()
        histogram.record(42)
        assert histogram.median() == 42
        assert histogram.percentile(99.9) == 42
        assert histogram.minimum() == histogram.maximum() == 42

    def test_percentiles_of_known_distribution(self):
        histogram = Histogram()
        histogram.extend(range(1, 101))  # 1..100
        assert histogram.median() == 50
        assert histogram.percentile(99) == 99
        assert histogram.percentile(0) == 1
        assert histogram.percentile(100) == 100

    def test_out_of_range_percentile(self):
        histogram = Histogram()
        histogram.record(1)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_mean(self):
        histogram = Histogram()
        histogram.extend([1, 2, 3, 4])
        assert histogram.mean() == 2.5

    def test_unsorted_input_handled(self):
        histogram = Histogram()
        histogram.extend([5, 1, 9, 3])
        assert histogram.minimum() == 1
        assert histogram.maximum() == 9

    def test_cdf_monotone(self):
        histogram = Histogram()
        histogram.extend(range(1000))
        cdf = histogram.cdf(points=50)
        values = [v for v, _ in cdf]
        fractions = [f for _, f in cdf]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200))
    def test_percentile_bounds(self, samples):
        histogram = Histogram()
        histogram.extend(samples)
        assert histogram.minimum() <= histogram.median() <= histogram.maximum()
        assert histogram.percentile(25) <= histogram.percentile(75)


class TestRateMeter:
    def test_throughput_inside_window(self):
        meter = RateMeter()
        meter.record(50)  # before window: ignored
        meter.open_window(100)
        for t in range(100, 1100, 10):
            meter.record(t)
        meter.close_window(1100)
        meter.record(1200)  # after window: ignored
        assert meter.completions == 100
        assert meter.throughput_per_sec() == pytest.approx(100 * 1e9 / 1000)

    def test_unclosed_window_raises(self):
        meter = RateMeter()
        meter.open_window(0)
        with pytest.raises(ValueError):
            meter.throughput_per_sec()

    def test_total_counts_everything(self):
        meter = RateMeter()
        meter.record(1)
        meter.open_window(10)
        meter.record(11)
        assert meter.total_completions == 2

    def test_reusable_across_windows(self):
        meter = RateMeter()
        meter.open_window(0)
        meter.record(500)
        meter.close_window(1000)
        assert meter.throughput_per_sec() == pytest.approx(1e9 / 1000)
        # Reopening must clear the old window_end, or every completion in
        # the second window lands after the stale bound and is discarded.
        meter.open_window(2000)
        meter.record(2100)
        meter.record(2200)
        meter.close_window(3000)
        assert meter.completions == 2
        assert meter.throughput_per_sec() == pytest.approx(2 * 1e9 / 1000)
