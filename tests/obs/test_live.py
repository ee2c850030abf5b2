"""Tests for :mod:`repro.obs.live` -- cross-process trace plumbing."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import live
from repro.obs.accesslog import (
    ACCESS_LOG_SCHEMA,
    REQUIRED_KEYS,
    AccessLog,
    span_tree_from_snapshot,
)
from repro.obs.hist import LATENCY_BUCKETS, HistogramStats


class TestTraceContext:
    def test_none_when_not_recording(self):
        assert obs.active() is None
        assert live.trace_context() is None

    def test_context_carries_trace_and_parent_ids(self):
        with obs.recording() as rec:
            ctx = live.trace_context()
        assert ctx is not None
        assert ctx["schema"] == live.TRACE_SCHEMA
        assert ctx["trace_id"] == rec.trace_id
        assert len(ctx["trace_id"]) == 32
        assert len(ctx["parent_span"]) == 16

    def test_trace_id_is_sticky_parent_span_is_fresh(self):
        with obs.recording() as rec:
            a = live.trace_context()
            b = live.trace_context()
        assert a["trace_id"] == b["trace_id"] == rec.trace_id
        assert a["parent_span"] != b["parent_span"]

    def test_span_args(self):
        assert live.span_args(None) == {}
        assert live.span_args({"parent_span": "abc"}) == {"span_id": "abc"}

    def test_child_recorder_adopts_context(self):
        ctx = {"schema": live.TRACE_SCHEMA, "trace_id": "t" * 32,
               "parent_span": "p" * 16}
        child = live.child_recorder(ctx)
        assert child.trace_id == "t" * 32
        assert child.parent_span_id == "p" * 16

    def test_child_recorder_without_context_mints_trace_id(self):
        child = live.child_recorder(None)
        assert child.trace_id is not None


class TestSnapshotRoundTrip:
    def _child_snapshot(self, ctx):
        child = live.child_recorder(ctx)
        with obs.recording(child):
            with obs.span("child.work", category="test", detail="x"):
                obs.counter("alg1.runs")
                obs.histogram(
                    "service.daemon.queue_wait_seconds",
                    0.002,
                    LATENCY_BUCKETS,
                )
        return live.snapshot(child)

    def test_snapshot_is_json_safe(self):
        with obs.recording():
            ctx = live.trace_context()
        snap = self._child_snapshot(ctx)
        assert snap["schema"] == live.SNAPSHOT_SCHEMA
        json.dumps(snap)  # must not raise

    def test_merge_brings_spans_counters_histograms(self):
        with obs.recording() as parent:
            ctx = live.trace_context()
            with obs.span("parent.call", **live.span_args(ctx)):
                pass
            snap = self._child_snapshot(ctx)
            merged = live.merge_snapshot(parent, snap)
        assert merged == 1
        names = [s.name for s in parent.spans]
        assert "child.work" in names
        assert parent.counters["alg1.runs"] == 1
        assert parent.counters["obs.snapshots_merged"] == 1
        hist = parent.histograms["service.daemon.queue_wait_seconds"]
        assert hist.count == 1
        # Flow link: one "s" at the parent anchor, one "f" at the child.
        assert [f.phase for f in parent.flows] == ["s", "f"]
        assert parent.flows[0].flow_id == ctx["parent_span"]

    def test_merge_refuses_other_trace(self):
        with obs.recording() as parent:
            ctx = live.trace_context()
            snap = self._child_snapshot(ctx)
            snap["trace_id"] = "0" * 32
            assert live.merge_snapshot(parent, snap) == 0

    def test_merge_tolerates_garbage(self):
        with obs.recording() as parent:
            assert live.merge_snapshot(parent, None) == 0
            assert live.merge_snapshot(parent, {"schema": "nope"}) == 0
            assert live.merge_snapshot(parent, {"schema": live.SNAPSHOT_SCHEMA,
                                                "spans": [{"bad": 1}]}) == 0
        assert live.merge_snapshot(None, {"schema": live.SNAPSHOT_SCHEMA}) == 0

    def test_merged_trace_validates_with_flow_events(self):
        with obs.recording() as parent:
            ctx = live.trace_context()
            with obs.span("parent.call", **live.span_args(ctx)):
                pass
            live.merge_snapshot(parent, self._child_snapshot(ctx))
        trace = obs.to_chrome_trace(parent)
        obs.validate_chrome_trace(trace)
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"s", "f"} <= phases
        assert trace["otherData"]["trace_id"] == parent.trace_id

    def test_merged_spans_keep_child_pid(self):
        with obs.recording() as parent:
            ctx = live.trace_context()
            snap = self._child_snapshot(ctx)
            snap["pid"] = 99999  # pretend another process
            live.merge_snapshot(parent, snap)
        trace = obs.to_chrome_trace(parent)
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert 99999 in pids

    def test_merge_respects_span_bound(self):
        parent = live.child_recorder(None, max_spans=1)
        parent.trace_id = None  # adopt whatever comes in
        with obs.recording(parent):
            ctx = live.trace_context()
        snap = self._child_snapshot(ctx)
        snap["spans"] = snap["spans"] * 5
        merged = live.merge_snapshot(parent, snap)
        assert merged <= 1
        assert parent.dropped_spans >= 4


class TestHistogramQuantiles:
    def test_histogram_merge_same_bounds(self):
        a = HistogramStats([1.0, 2.0])
        b = HistogramStats([1.0, 2.0])
        a.observe(0.5)
        b.observe(1.5)
        b.observe(3.0)
        a.merge(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.maximum == 3.0

    def test_histogram_from_dict_round_trip(self):
        a = HistogramStats(list(LATENCY_BUCKETS))
        a.observe(0.01)
        b = HistogramStats.from_dict(a.to_dict())
        assert b.to_dict() == a.to_dict()

    def test_from_dict_rejects_mismatched_counts(self):
        with pytest.raises(ValueError):
            HistogramStats.from_dict({"bounds": [1.0], "counts": [1]})


class TestAccessLog:
    def test_lines_are_schema_tagged_json(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with AccessLog(path) as log:
            log.record("daemon", "analyze", "chip", "ok", 0.01,
                       cache_hit=True)
            log.record("batch", "job", "chip2", "error", 0.5,
                       error="boom")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        for line in lines:
            assert line["schema"] == ACCESS_LOG_SCHEMA
            for key in REQUIRED_KEYS:
                assert key in line
        assert lines[0]["cache_hit"] is True
        assert lines[1]["error"] == "boom"
        assert log.lines_written == 2

    def test_slow_requests_attach_span_tree(self, tmp_path):
        child = live.child_recorder(None)
        with obs.recording(child):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        snap = live.snapshot(child)
        path = tmp_path / "access.jsonl"
        with AccessLog(path, slow_threshold_s=0.0) as log:
            log.record("daemon", "analyze", "chip", "ok", 0.2,
                       snapshot=snap)
        line = json.loads(path.read_text())
        assert line["slow"] is True
        tree = line["spans"]
        assert tree[0]["name"] == "outer"
        assert tree[0]["children"][0]["name"] == "inner"

    def test_fast_requests_stay_lean(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with AccessLog(path, slow_threshold_s=10.0) as log:
            log.record("daemon", "ping", None, "ok", 0.0001)
        line = json.loads(path.read_text())
        assert "spans" not in line and "slow" not in line

    def test_span_tree_from_snapshot_caps_spans(self):
        child = live.child_recorder(None)
        with obs.recording(child):
            for i in range(20):
                with obs.span(f"s{i}"):
                    pass
        tree = span_tree_from_snapshot(live.snapshot(child), max_spans=5)
        count = 0
        stack = list(tree)
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.get("children", ()))
        assert count == 5

    def test_write_failures_never_raise(self, tmp_path):
        class Boom:
            def write(self, data):
                raise OSError("disk full")

            def flush(self):
                raise OSError("disk full")

        log = AccessLog(Boom())
        log.record("daemon", "ping", None, "ok", 0.0)
        assert log.lines_written == 0
