"""Tests for the fixed-memory simulation metrics."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.metrics import (
    MAX_TRACKED_US,
    MIN_TRACKED_US,
    LatencyHistogram,
    SUBBUCKETS_PER_OCTAVE,
    SimulationMetrics,
    _bucket_bounds,
    improvement_over,
    normalized_response_times,
)

#: One histogram bucket spans 1/SUBBUCKETS of an octave; estimates mirror
#: numpy's interpolation at bucket resolution, so allow two bucket widths.
BUCKET_TOLERANCE = 2.0 / SUBBUCKETS_PER_OCTAVE


def make_metrics(read_times, write_times=()):
    metrics = SimulationMetrics()
    for value in read_times:
        metrics.record_read(value, retry_steps=2)
    for value in write_times:
        metrics.record_write(value)
    return metrics


class TestRecording:
    def test_mean_and_percentiles(self):
        metrics = make_metrics([100.0, 200.0, 300.0], [50.0])
        assert metrics.mean_response_time_us("read") == pytest.approx(200.0)
        assert metrics.mean_response_time_us("write") == pytest.approx(50.0)
        assert metrics.mean_response_time_us("all") == pytest.approx(162.5)
        assert metrics.max_response_time_us() == 300.0
        assert metrics.percentile_response_time_us(50.0, "read") == \
            pytest.approx(200.0, rel=BUCKET_TOLERANCE)

    def test_retry_steps_tracking(self):
        metrics = make_metrics([10.0, 20.0])
        assert metrics.mean_retry_steps() == 2.0
        assert metrics.pages_read == 2
        assert metrics.retry_step_counts == {2: 2}

    def test_counts(self):
        metrics = make_metrics([1.0, 2.0], [3.0])
        assert metrics.host_reads == 2
        assert metrics.host_writes == 1

    def test_empty_metrics_are_zero(self):
        metrics = SimulationMetrics()
        assert metrics.mean_response_time_us() == 0.0
        assert metrics.percentile_response_time_us(99.0) == 0.0
        assert metrics.mean_retry_steps() == 0.0
        assert metrics.die_utilization() == 0.0
        assert metrics.max_response_time_us() == 0.0

    def test_negative_values_rejected(self):
        metrics = SimulationMetrics()
        with pytest.raises(ValueError):
            metrics.record_read(-1.0, 0)
        with pytest.raises(ValueError):
            metrics.record_write(-1.0)
        with pytest.raises(ValueError):
            metrics.record_retry_steps(-1)

    def test_non_finite_values_rejected_without_corruption(self):
        histogram = LatencyHistogram()
        histogram.record(10.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                histogram.record(bad)
        # The rejected values must not have poisoned any state.
        assert histogram.count == 1
        assert histogram.mean() == 10.0
        assert histogram.max_us == 10.0

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            make_metrics([1.0]).mean_response_time_us("bogus")

    def test_die_utilization(self):
        metrics = make_metrics([1.0])
        metrics.simulated_time_us = 1000.0
        metrics.record_die_busy((0, 0), 500.0)
        metrics.record_die_busy((0, 1), 250.0)
        assert metrics.die_utilization() == pytest.approx(0.375)

    def test_summary_keys(self):
        summary = make_metrics([1.0]).summary()
        assert "mean_response_us" in summary
        assert "mean_retry_steps" in summary
        assert "p99_response_us" in summary
        assert "p999_response_us" in summary
        assert "p99_read_response_us" in summary

    def test_retired_batch_keys_stay_at_zero(self):
        # The batched read dispatch is gone; its two keys keep their place
        # in the summary, at 0, so stored digests of summaries still match.
        summary = SimulationMetrics().summary()
        keys = list(summary)
        position = keys.index("scalar_fallbacks")
        assert keys[position + 1:position + 3] == [
            "batched_completions", "batch_dispatch_calls"]
        for name in ("batched_completions", "batch_dispatch_calls"):
            assert summary[name] == 0
            assert name not in SimulationMetrics.COUNTER_FIELDS

    def test_zero_latency_writes_supported(self):
        # Buffered write hits complete in exactly 0.0 us; the floor bucket
        # must absorb them without distorting mean or percentile.
        metrics = make_metrics([], [0.0, 0.0, 0.0])
        assert metrics.mean_response_time_us("write") == 0.0
        assert metrics.percentile_response_time_us(99.0, "write") == 0.0


class TestFixedMemoryContract:
    def test_bucket_count_independent_of_sample_count(self):
        rng = np.random.default_rng(0)
        histogram = LatencyHistogram()
        small_count = None
        for total in (1_000, 100_000):
            for value in rng.lognormal(mean=5.0, sigma=1.0, size=total):
                histogram.record(float(value))
            if small_count is None:
                small_count = histogram.bucket_count
        # 100x the samples widens the observed range by at most a couple of
        # octaves of tail buckets — never by 100x.
        assert histogram.bucket_count < small_count * 3
        assert histogram.bucket_count < 1500  # hard structural bound: 3265
        assert histogram.count == 101_000

    def test_collector_state_does_not_grow_with_the_trace(self):
        # Repeating the same samples 500 times changes counts, never the
        # shape of what the collector holds: no container keeps an entry
        # per request.
        def shape(value):
            if isinstance(value, LatencyHistogram):
                value = value.__getstate__()
            if isinstance(value, dict):
                return {key: shape(item) for key, item in value.items()}
            if isinstance(value, (list, tuple, set, frozenset)):
                return [shape(item) for item in value]
            return type(value).__name__

        def collector(repeats):
            metrics = SimulationMetrics()
            for _ in range(repeats):
                for step, value in enumerate((12.0, 80.0, 950.0, 4000.0)):
                    metrics.record_read(value, retry_steps=step, tenant=step % 2)
                    metrics.record_write(value / 2, tenant=step % 2)
                    metrics.record_die_busy((0, step % 2), value)
            return metrics

        assert shape(vars(collector(500))) == shape(vars(collector(1)))

    def test_histogram_pickles(self):
        histogram = LatencyHistogram()
        for value in (1.0, 50.0, 5000.0):
            histogram.record(value)
        clone = pickle.loads(pickle.dumps(histogram))
        assert clone == histogram
        assert clone.mean() == histogram.mean()


def _bucket_index(value):
    """The oracle of the bucket mapping ``LatencyHistogram.record`` inlines."""
    exp_min = math.frexp(MIN_TRACKED_US)[1]
    if value < MIN_TRACKED_US:
        return 0
    if value >= MAX_TRACKED_US:
        return (math.frexp(MAX_TRACKED_US)[1] - exp_min + 1) * SUBBUCKETS_PER_OCTAVE
    mantissa, exponent = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
    sub = int((mantissa - 0.5) * 2 * SUBBUCKETS_PER_OCTAVE)
    return 1 + (exponent - exp_min) * SUBBUCKETS_PER_OCTAVE + sub


class TestInlinedBucketIndex:
    """``record`` buckets every value as the oracle ``_bucket_index`` does."""

    @staticmethod
    def _recorded_bucket(value):
        histogram = LatencyHistogram()
        histogram.record(value)
        return dict(histogram._counts)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False))
    def test_record_buckets_like_the_oracle(self, value):
        assert self._recorded_bucket(value) == {_bucket_index(value): 1}

    def test_bucket_edges_and_clamps(self):
        edges = [0.0, 5e-324, MIN_TRACKED_US, MAX_TRACKED_US, 1e300]
        for index in (1, 2, 63, 64, 65, 1000, _bucket_index(MAX_TRACKED_US) - 1):
            lower, upper = _bucket_bounds(index)
            edges += [lower, upper, np.nextafter(lower, 0.0), np.nextafter(upper, 0.0)]
        edges += [np.nextafter(MIN_TRACKED_US, 0.0), np.nextafter(MAX_TRACKED_US, 0.0)]
        for value in edges:
            assert self._recorded_bucket(float(value)) == {_bucket_index(float(value)): 1}


class TestHistogramAccuracy:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("draw", [
        lambda rng, n: rng.lognormal(mean=6.0, sigma=1.5, size=n),
        lambda rng, n: rng.exponential(scale=800.0, size=n),
        lambda rng, n: rng.uniform(10.0, 10_000.0, size=n),
    ])
    def test_percentiles_within_bucket_tolerance(self, seed, draw):
        rng = np.random.default_rng(seed)
        samples = draw(rng, 20_000)
        histogram = LatencyHistogram()
        for value in samples:
            histogram.record(float(value))
        for percentile in (1.0, 25.0, 50.0, 90.0, 99.0, 99.9):
            exact = float(np.percentile(samples, percentile))
            estimate = histogram.percentile(percentile)
            assert estimate == pytest.approx(exact, rel=BUCKET_TOLERANCE), \
                f"p{percentile}: {estimate} vs exact {exact}"

    def test_mean_matches_exact_mean(self, rng):
        samples = rng.lognormal(mean=6.0, sigma=2.0, size=50_000)
        histogram = LatencyHistogram()
        for value in samples:
            histogram.record(float(value))
        assert histogram.mean() == pytest.approx(float(np.mean(samples)),
                                                 rel=1e-12)
        assert histogram.min_us == float(np.min(samples))
        assert histogram.max_us == float(np.max(samples))

    def test_extremes_clamped_not_lost(self):
        histogram = LatencyHistogram()
        histogram.record(0.0)
        histogram.record(1e15)  # far beyond the tracked cap
        assert histogram.count == 2
        assert histogram.max_us == 1e15
        assert histogram.percentile(100.0) == 1e15

    def test_single_value_percentiles_exact(self):
        histogram = LatencyHistogram()
        histogram.record(123.456)
        for percentile in (0.0, 50.0, 100.0):
            assert histogram.percentile(percentile) == 123.456

    def test_invalid_percentile_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101.0)


class TestMerge:
    @staticmethod
    def _histogram(rng, n):
        histogram = LatencyHistogram()
        for value in rng.exponential(scale=500.0, size=n):
            histogram.record(float(value))
        return histogram

    def test_merge_matches_combined_recording(self, rng):
        samples = rng.exponential(scale=500.0, size=2000)
        left, right, combined = (LatencyHistogram() for _ in range(3))
        for value in samples[:900]:
            left.record(float(value))
        for value in samples[900:]:
            right.record(float(value))
        for value in samples:
            combined.record(float(value))
        merged = left.copy().merge(right)
        assert merged._counts == combined._counts
        assert merged.count == combined.count
        assert merged.min_us == combined.min_us
        assert merged.max_us == combined.max_us
        assert merged.mean() == pytest.approx(combined.mean(), rel=1e-12)

    def test_merge_associative(self, rng):
        a = self._histogram(rng, 700)
        b = self._histogram(rng, 1300)
        c = self._histogram(rng, 400)
        left_first = a.copy().merge(b).merge(c)
        right_first = a.copy().merge(b.copy().merge(c))
        assert left_first._counts == right_first._counts
        assert left_first.count == right_first.count
        assert left_first.min_us == right_first.min_us
        assert left_first.max_us == right_first.max_us
        assert left_first.mean() == pytest.approx(right_first.mean(),
                                                  rel=1e-12)
        for percentile in (50.0, 99.0, 99.9):
            assert left_first.percentile(percentile) == \
                right_first.percentile(percentile)

    def test_metrics_merge_folds_counters(self):
        first = make_metrics([100.0], [10.0])
        first.gc_erases = 2
        first.simulated_time_us = 500.0
        second = make_metrics([300.0, 500.0])
        second.gc_erases = 1
        second.simulated_time_us = 900.0
        first.merge(second)
        assert first.host_reads == 3
        assert first.host_writes == 1
        assert first.gc_erases == 3
        assert first.pages_read == 3
        # Simulated times add up, so utilization stays a true time-weighted
        # average instead of being inflated by summed busy time.
        assert first.simulated_time_us == 1400.0
        assert first.mean_response_time_us("read") == pytest.approx(300.0)

    def test_merged_die_utilization_is_time_weighted(self):
        first = make_metrics([1.0])
        first.simulated_time_us = 1000.0
        first.record_die_busy((0, 0), 600.0)
        second = make_metrics([1.0])
        second.simulated_time_us = 1000.0
        second.record_die_busy((0, 0), 600.0)
        first.merge(second)
        assert first.die_utilization() == pytest.approx(0.6)

    def test_state_with_retired_counters_still_loads(self):
        # Fleet checkpoints written while the batched read dispatch existed
        # carry its two counters; restoring one ignores them.
        metrics = make_metrics([100.0, 300.0], [10.0])
        metrics.grid_hits = 7
        metrics.record_die_busy((0, 1), 250.0)
        metrics.simulated_time_us = 900.0
        state = metrics.to_state()
        state["counters"].update(batched_completions=3,
                                 batch_dispatch_calls=1)
        restored = SimulationMetrics.from_state(state)
        assert restored.to_state() == metrics.to_state()
        assert restored.summary() == metrics.summary()


class TestNormalization:
    def test_normalized_response_times(self):
        results = {"Baseline": make_metrics([200.0]),
                   "PnAR2": make_metrics([100.0])}
        normalized = normalized_response_times(results)
        assert normalized["Baseline"] == pytest.approx(1.0)
        assert normalized["PnAR2"] == pytest.approx(0.5)

    def test_missing_baseline_rejected(self):
        with pytest.raises(KeyError):
            normalized_response_times({"PnAR2": make_metrics([100.0])})

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalized_response_times({"Baseline": SimulationMetrics()})

    def test_improvement_over(self):
        results = {"PSO": make_metrics([200.0]),
                   "PSO+PnAR2": make_metrics([150.0])}
        assert improvement_over(results, "PSO+PnAR2", "PSO") == pytest.approx(0.25)
