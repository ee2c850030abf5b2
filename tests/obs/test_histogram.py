"""Tests for the shared histogram support (repro.obs.hist)."""

import json
import math

import pytest

from repro import obs
from repro.obs.hist import (
    DEFAULT_BUCKETS,
    HistogramStats,
    bucket_counts,
    equal_width_edges,
)


@pytest.fixture(autouse=True)
def _no_leak():
    assert obs.active() is None
    yield
    assert obs.active() is None


class TestHistogramStats:
    def test_le_semantics(self):
        hist = HistogramStats(bounds=(0.0, 1.0, 2.0))
        hist.observe(0.0)   # on a bound -> that bucket (le)
        hist.observe(0.5)
        hist.observe(2.0)
        hist.observe(5.0)   # overflow -> +Inf bucket
        assert hist.counts == [1, 1, 1, 1]
        assert hist.count == 4

    def test_cumulative_rows_end_with_inf(self):
        hist = HistogramStats(bounds=(0.0, 1.0))
        for value in (-1.0, 0.5, 3.0):
            hist.observe(value)
        rows = hist.cumulative()
        assert rows == [("0", 1), ("1", 2), ("+Inf", 3)]
        # Cumulative counts are monotone.
        counts = [count for __, count in rows]
        assert counts == sorted(counts)

    def test_summary_stats(self):
        hist = HistogramStats()
        for value in (-2.0, 1.0, 4.0):
            hist.observe(value)
        assert hist.total == pytest.approx(3.0)
        assert hist.mean == pytest.approx(1.0)
        assert hist.minimum == -2.0
        assert hist.maximum == 4.0

    def test_bounds_are_sorted(self):
        hist = HistogramStats(bounds=(5.0, 1.0, 3.0))
        assert hist.bounds == (1.0, 3.0, 5.0)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            HistogramStats(bounds=())

    def test_to_dict_json_safe(self):
        hist = HistogramStats(bounds=(0.0,))
        payload = hist.to_dict()
        assert payload["count"] == 0
        assert payload["min"] == 0.0  # not inf when empty
        json.dumps(payload)


class TestSharedBucketing:
    def test_equal_width_edges_exact_endpoints(self):
        edges = equal_width_edges(0.1, 0.7, 3)
        assert len(edges) == 4
        assert edges[0] == 0.1
        assert edges[-1] == 0.7  # exactly, no floating-point creep

    def test_equal_width_edges_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            equal_width_edges(0.0, 1.0, 0)

    def test_bucket_counts_last_bin_inclusive(self):
        edges = [0.0, 1.0, 2.0]
        counts = bucket_counts([0.0, 0.5, 1.0, 2.0], edges)
        # Left-inclusive buckets; the maximum lands in the last bin.
        assert counts == [2, 2]

    def test_bucket_counts_total(self):
        values = [float(i) for i in range(10)]
        counts = bucket_counts(values, equal_width_edges(0.0, 9.0, 4))
        assert sum(counts) == len(values)


class TestRecorderHistograms:
    def test_disabled_is_noop(self):
        obs.histogram("anything", 1.0)  # must not raise

    def test_records_into_default_buckets(self):
        with obs.recording() as rec:
            obs.histogram("slack.endpoint", -3.0)
            obs.histogram("slack.endpoint", 0.25)
        hist = rec.histograms["slack.endpoint"]
        assert hist.bounds == tuple(sorted(DEFAULT_BUCKETS))
        assert hist.count == 2
        assert hist.minimum == -3.0

    def test_custom_buckets_fixed_on_first_observation(self):
        with obs.recording() as rec:
            rec.histogram("x", 1.0, buckets=(0.0, 2.0))
            rec.histogram("x", 5.0, buckets=(100.0,))  # ignored
        assert rec.histograms["x"].bounds == (0.0, 2.0)
        assert rec.histograms["x"].count == 2


class TestExport:
    def test_metrics_dict_includes_histograms(self):
        with obs.recording() as rec:
            rec.histogram("h", 0.75)
        data = obs.metrics_dict(rec)
        assert data["histograms"]["h"]["count"] == 1
        assert data["histograms"]["h"]["sum"] == pytest.approx(0.75)

    def test_prometheus_exposition(self):
        with obs.recording() as rec:
            rec.histogram("slack.endpoint", -1.5)
            rec.histogram("slack.endpoint", 0.3)
        text = obs.render_prometheus(rec)
        assert "# TYPE repro_slack_endpoint histogram" in text
        assert 'repro_slack_endpoint_bucket{le="+Inf"} 2' in text
        assert "repro_slack_endpoint_sum -1.2" in text
        assert "repro_slack_endpoint_count 2" in text

    def test_statistics_mirror(self, lib):
        """timing_statistics feeds the recorder histogram when enabled."""
        from repro.core.analyzer import Hummingbird
        from tests.conftest import build_ff_stage

        network, schedule = build_ff_stage(lib, chain=2, period=100.0)
        with obs.recording() as rec:
            analyzer = Hummingbird(network, schedule)
            analyzer.analyze()
            stats = analyzer.statistics()
        hist = rec.histograms["slack.endpoint"]
        finite = [
            count
            for __, count in stats.histogram
        ]
        assert hist.count == sum(finite)
        assert not math.isinf(hist.maximum)
