"""Bucketing, percentile and merge behaviour of :class:`repro.obs.metrics.Histogram`."""

import random
import statistics

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import BUCKETS_PER_DOUBLING, Histogram

#: Relative width of one bucket: the percentile estimate's error bound.
BUCKET_WIDTH = 2.0 ** (1.0 / BUCKETS_PER_DOUBLING) - 1.0


def observed(values, name="h"):
    hist = Histogram(name)
    for value in values:
        hist.observe(value)
    return hist


def raw_percentile(samples, q):
    """The nearest-rank percentile of the raw samples."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class TestBucketEdges:
    def test_bucket_edges_are_sixteen_per_doubling(self):
        hist = observed([1.0, 1.04, 1.05, 2.0, 0.5])
        # [1, 2**(1/16)) = [1, 1.0443) holds 1.0 and 1.04; 1.05 is in the
        # next bucket; each power of two opens the first bucket of its doubling.
        assert hist.counts == {0: 2, 1: 1, 16: 1, -16: 1}

    def test_min_max_total_tracking(self):
        hist = observed([0.25, 1.75, 0.5])
        assert hist.min == 0.25
        assert hist.max == 1.75
        assert hist.total == pytest.approx(2.5)
        assert hist.mean == pytest.approx(2.5 / 3)

    def test_extreme_values_get_their_own_buckets(self):
        hist = observed([1e-9, 1e9, 0.0, -3.0])
        assert len(hist.counts) == 3  # tiny, huge, and the shared zero bucket
        assert hist.percentile(100) == pytest.approx(1e9)
        # Values <= 0 share one bucket spanning [min, 0].
        assert hist.percentile(25) == pytest.approx(-1.5)
        assert hist.percentile(50) == 0.0


class TestPercentiles:
    def test_empty_histogram_returns_none(self):
        assert Histogram("h").percentile(50) is None

    def test_percentile_range_validated(self):
        hist = observed([1.0])
        with pytest.raises(ConfigurationError):
            hist.percentile(0)
        with pytest.raises(ConfigurationError):
            hist.percentile(101)

    def test_single_bucket_interpolation(self):
        # Every sample in one bucket: the interpolated estimate is clamped
        # into the observed [min, max], here a single point.
        hist = observed([0.7] * 100)
        assert hist.percentile(50) == pytest.approx(0.7)

    def test_interpolation_across_buckets(self):
        hist = observed([0.5] * 50 + [1.5] * 50)
        # Rank 75 is halfway through the 1.5 bucket, clamped to max 1.5 at
        # the top; rank 25 lands in the 0.5 bucket.
        assert hist.percentile(75) == pytest.approx(1.5, rel=BUCKET_WIDTH)
        assert hist.percentile(25) == pytest.approx(0.5, rel=BUCKET_WIDTH)

    def test_result_clamped_to_observed_range(self):
        hist = observed([2.0, 3.0])
        p99 = hist.percentile(99)
        assert 2.0 <= p99 <= 3.0

    def test_top_percentile_is_observed_max(self):
        hist = observed([5.0, 7.0])
        assert hist.percentile(100) == pytest.approx(7.0)

    def test_percentiles_convenience_labels(self):
        snap = observed([0.01]).snapshot()
        assert snap["p50"] == snap["p95"] == snap["p99"] == pytest.approx(0.01)

    @pytest.mark.parametrize("mix", ["lognormal", "bimodal"])
    def test_within_one_bucket_of_the_raw_samples(self, mix):
        rng = random.Random(20_000)
        if mix == "lognormal":
            # Median 7 ms, a long right tail.
            samples = [rng.lognormvariate(-4.96, 0.4) for _ in range(20_000)]
        else:
            # A 5 ms group commit and a 15 ms disk write, jittered.
            samples = [
                rng.gauss(0.005 if rng.random() < 0.7 else 0.015, 0.0005)
                for _ in range(20_000)
            ]
        hist = observed(samples)
        for q in (50, 95, 99):
            assert hist.percentile(q) == pytest.approx(
                raw_percentile(samples, q), rel=BUCKET_WIDTH
            ), q
        assert hist.mean == pytest.approx(statistics.fmean(samples))


class TestObsInterop:
    def test_snapshot_includes_percentiles(self):
        hist = observed([0.004, 0.001, 0.004])
        snap = hist.snapshot()
        assert snap["type"] == "histogram"
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]
        # Non-empty buckets only, ascending by upper edge.
        assert snap["bucket_counts"] == [1, 2]
        assert snap["buckets"] == sorted(snap["buckets"])
        assert snap["buckets"][0] > 0.001
