"""The mergeable log-bucket Histogram: accuracy, merging, registry path."""

import json
import math
import random

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.obs.hist import ZERO_BUCKET, bucket_bounds, bucket_index, bucket_mid


class TestBucketing:
    def test_bounds_contain_their_values(self):
        for value in (1e-9, 0.001, 0.5, 1.0, 3.7, 1e6):
            lo, hi = bucket_bounds(bucket_index(value))
            assert lo <= value < hi

    def test_mid_lies_within_bounds(self):
        for value in (0.002, 1.5, 42.0):
            index = bucket_index(value)
            lo, hi = bucket_bounds(index)
            assert lo < bucket_mid(index) < hi

    def test_buckets_are_narrow(self):
        """8 sub-buckets per octave: width under 12.5% of the value."""
        for value in (0.001, 0.37, 12.0, 9000.0):
            lo, hi = bucket_bounds(bucket_index(value))
            assert (hi - lo) / lo <= 0.125 + 1e-12

    def test_nonpositive_goes_to_zero_bucket(self):
        assert bucket_index(0.0) == ZERO_BUCKET
        assert bucket_index(-1.5) == ZERO_BUCKET


class TestHistogram:
    def test_empty(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.quantile(0.5) is None
        assert hist.as_dict()["min"] is None

    def test_count_sum_min_max_exact(self):
        hist = Histogram()
        for value in (0.5, 1.5, 2.5):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(4.5)
        assert hist.minimum == 0.5
        assert hist.maximum == 2.5
        assert hist.mean == pytest.approx(1.5)

    def test_quantiles_within_bucket_error(self):
        """Quantile error is bounded by the ~6% bucket half-width."""
        rng = random.Random(7)
        values = sorted(rng.uniform(0.001, 1.0) for _ in range(5000))
        hist = Histogram()
        for value in values:
            hist.observe(value)
        for q in (0.5, 0.9, 0.99):
            exact = values[math.ceil(q * len(values)) - 1]
            assert hist.quantile(q) == pytest.approx(exact, rel=0.07)

    def test_quantile_clamped_to_observed_range(self):
        hist = Histogram()
        hist.observe(1.0)
        assert hist.quantile(0.5) == 1.0  # mid would overshoot; clamp
        assert hist.quantile(0.99) == 1.0

    def test_merge_is_exact(self):
        """Integer bucket counts: merge == observing everything in one."""
        rng = random.Random(3)
        values = [rng.expovariate(10.0) for _ in range(2000)]
        whole = Histogram()
        left, right = Histogram(), Histogram()
        for index, value in enumerate(values):
            whole.observe(value)
            (left if index % 2 else right).observe(value)
        left.merge(right)
        assert left.as_dict() == whole.as_dict()

    def test_roundtrip_through_dict(self):
        hist = Histogram()
        for value in (0.1, 0.0, 2.0, 2.0):
            hist.observe(value)
        clone = Histogram.from_dict(json.loads(json.dumps(hist.as_dict())))
        assert clone.as_dict() == hist.as_dict()

    def test_zero_values_counted(self):
        hist = Histogram()
        hist.observe(0.0)
        hist.observe(1.0)
        assert hist.count == 2
        assert hist.quantile(0.5) == 0.0


class TestWeightedObserve:
    """observe(value, count=n): n equal samples recorded in one call."""

    def test_counted_equals_repeated(self):
        weighted, repeated = Histogram(), Histogram()
        weighted.observe(0.25, count=5)
        weighted.observe(0.75, count=3)
        for _ in range(5):
            repeated.observe(0.25)
        for _ in range(3):
            repeated.observe(0.75)
        assert weighted.as_dict() == repeated.as_dict()

    def test_count_survives_flush_boundary(self):
        from repro.obs.hist import _FLUSH_AT

        hist = Histogram()
        hist.observe(0.1, count=_FLUSH_AT - 1)
        hist.observe(0.2, count=4)  # crosses the deferred-flush threshold
        hist.observe(0.3)
        assert hist.count == _FLUSH_AT + 4
        assert hist.minimum == 0.1
        assert hist.maximum == 0.3

    def test_registry_forwards_count(self):
        weighted, repeated = MetricsRegistry(), MetricsRegistry()
        weighted.observe_hist("hop", 0.01, count=64)
        for _ in range(64):
            repeated.observe_hist("hop", 0.01)
        assert weighted.snapshot() == repeated.snapshot()


class TestRegistryHists:
    def test_observe_hist_and_query(self):
        reg = MetricsRegistry()
        for value in (0.01, 0.02, 0.03):
            reg.observe_hist("arq/rtt", value)
        assert reg.hist("arq/rtt").count == 3
        assert "arq/rtt" in reg.names()

    def test_snapshot_merge_order_independent_of_jobs(self):
        """The campaign property: merging the same per-trial snapshots
        in the same order gives byte-identical results however the
        trials were scheduled — and buckets/quantiles match a single
        registry exactly (sums agree to float addition order)."""
        rng = random.Random(11)
        values = [rng.uniform(0.001, 0.1) for _ in range(500)]
        whole = MetricsRegistry()
        workers = [MetricsRegistry(), MetricsRegistry()]
        for index, value in enumerate(values):
            whole.observe_hist("rtt", value)
            workers[index % 2].observe_hist("rtt", value)
        snapshots = [worker.snapshot() for worker in workers]
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        for snapshot in snapshots:  # "serial" run merges trial order
            serial.merge_snapshot(snapshot)
        for snapshot in snapshots:  # "parallel" run reassembles same order
            parallel.merge_snapshot(json.loads(json.dumps(snapshot)))
        assert json.dumps(serial.snapshot()["hists"], sort_keys=True) == (
            json.dumps(parallel.snapshot()["hists"], sort_keys=True)
        )
        merged_rtt = serial.snapshot()["hists"]["rtt"]
        whole_rtt = whole.snapshot()["hists"]["rtt"]
        for key in ("count", "buckets", "min", "max", "p50", "p90", "p99"):
            assert merged_rtt[key] == whole_rtt[key]
        assert merged_rtt["sum"] == pytest.approx(whole_rtt["sum"])

    def test_summary_mentions_hists(self):
        reg = MetricsRegistry()
        reg.observe_hist("cm/handshake_latency", 0.2)
        assert "handshake_latency" in reg.summary()

    def test_clear_drops_hists(self):
        reg = MetricsRegistry()
        reg.observe_hist("x", 1.0)
        reg.clear()
        assert reg.hist("x").count == 0
