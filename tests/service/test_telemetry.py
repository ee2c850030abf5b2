"""Service-level telemetry: trace propagation, health/metrics, logs."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.obs.accesslog import ACCESS_LOG_SCHEMA, AccessLog
from repro.service import (
    BatchEngine,
    BatchJob,
    DaemonClient,
    ResultCache,
    TimingDaemon,
)


@pytest.fixture
def daemon_socket(tmp_path):
    return str(tmp_path / "telemetry.sock")


class TestDaemonTracePropagation:
    def test_client_and_daemon_share_one_trace(
        self, daemon_socket, design_files
    ):
        netlist, clocks = design_files
        with TimingDaemon(daemon_socket) as daemon:
            with obs.recording() as rec:
                with DaemonClient(daemon_socket) as client:
                    response = client.analyze(netlist, clocks)
            assert response["ok"]
        assert rec.trace_id is not None
        names = {s.name for s in rec.spans}
        # Client-side span and daemon-side handler spans in ONE recorder.
        assert "service.client.request" in names
        assert "service.daemon.request" in names
        assert "service.daemon.analyze" in names
        assert rec.counters.get("obs.snapshots_merged") == 1
        # The merged trace validates and carries flow links.
        trace = obs.to_chrome_trace(rec)
        obs.validate_chrome_trace(trace)
        assert trace["otherData"]["trace_id"] == rec.trace_id
        assert any(e["ph"] == "s" for e in trace["traceEvents"])
        assert any(e["ph"] == "f" for e in trace["traceEvents"])

    def test_untraced_requests_ship_no_snapshot(
        self, daemon_socket, design_files
    ):
        netlist, clocks = design_files
        with TimingDaemon(daemon_socket):
            with DaemonClient(daemon_socket) as client:
                response = client.request(
                    {"op": "analyze", "netlist": netlist, "clocks": clocks}
                )
        assert response["ok"]
        assert "trace" not in response


class TestBatchTracePropagation:
    def _jobs(self, design_files):
        netlist, clocks = design_files
        return [BatchJob(name="one", netlist=netlist, clocks=clocks)]

    def test_worker_spans_merge_under_one_trace(
        self, daemon_socket, design_files, tmp_path
    ):
        jobs = self._jobs(design_files)
        engine = BatchEngine(cache=None, max_workers=2)
        with obs.recording() as rec:
            report = engine.run(jobs)
        assert report.computed == 1
        worker_spans = [
            s for s in rec.spans if s.name == "service.worker.job"
        ]
        assert len(worker_spans) == 1
        # The worker ran in another process: its pid travelled along.
        assert worker_spans[0].pid is not None
        assert worker_spans[0].pid != os.getpid()
        trace = obs.to_chrome_trace(rec)
        obs.validate_chrome_trace(trace)
        pids = {
            e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert len(pids) >= 2
        assert rec.counters.get("obs.snapshots_merged") == 1

    def test_queue_wait_recorded(self, design_files):
        engine = BatchEngine(cache=None, max_workers=1)
        with obs.recording() as rec:
            report = engine.run(self._jobs(design_files))
        outcome = report.outcomes[0]
        assert outcome.queue_wait_s is not None
        assert outcome.queue_wait_s >= 0.0
        hist = rec.histograms.get("service.batch.queue_wait_seconds")
        assert hist is not None and hist.count == 1

    def test_untraced_batch_still_reports_queue_wait(self, design_files):
        report = BatchEngine(cache=None, serial=True).run(
            self._jobs(design_files)
        )
        assert report.computed == 1
        assert report.outcomes[0].queue_wait_s is not None

    def test_batch_access_log(self, design_files, tmp_path):
        log_path = tmp_path / "batch.access.jsonl"
        engine = BatchEngine(
            cache=ResultCache(tmp_path / "cache"),
            serial=True,
            access_log=str(log_path),
        )
        engine.run(self._jobs(design_files))
        engine.run(self._jobs(design_files))  # warm: cache hit
        engine.access_log.close()
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(lines) == 2
        for line in lines:
            assert line["schema"] == ACCESS_LOG_SCHEMA
            assert line["kind"] == "batch"
            assert line["status"] == "ok"
        assert lines[0]["cache_hit"] is False
        assert lines[1]["cache_hit"] is True


class TestHealthAndMetricsOps:
    def test_health_op(self, daemon_socket, design_files):
        netlist, clocks = design_files
        with TimingDaemon(daemon_socket):
            with DaemonClient(daemon_socket) as client:
                client.analyze(netlist, clocks)
                health = client.health()
        assert health["ok"] and health["status"] == "ok"
        assert health["requests"] >= 1
        assert health["designs_loaded"] == 1
        assert health["in_flight"] >= 0
        assert health["uptime_s"] >= 0.0
        assert health["last_error"] is None

    def test_health_reports_last_error(self, daemon_socket):
        with TimingDaemon(daemon_socket):
            with DaemonClient(daemon_socket) as client:
                bad = client.request({"op": "analyze"})  # missing files
                assert not bad["ok"]
                health = client.health()
        assert health["errors"] == 1
        assert health["last_error"]["op"] == "analyze"

    def test_metrics_op_exposes_latency_histograms(
        self, daemon_socket, design_files
    ):
        netlist, clocks = design_files
        with TimingDaemon(daemon_socket):
            with DaemonClient(daemon_socket) as client:
                client.analyze(netlist, clocks)
                metrics = client.metrics()
        assert metrics["ok"]
        doc = metrics["metrics"]
        assert doc["counters"]["service.daemon.requests"] >= 1
        hist = doc["histograms"]["service.daemon.request_seconds"]
        assert hist["count"] >= 1
        assert len(hist["counts"]) == len(hist["bounds"]) + 1
        assert "service.daemon.queue_wait_seconds" in doc["histograms"]
        assert "service.daemon.handle_seconds" in doc["histograms"]
        # Prometheus text parses: every line is comment or name value.
        for line in metrics["text"].splitlines():
            assert line.startswith("#") or len(line.split()) == 2

    def test_snapshot_consistency_across_ops(
        self, daemon_socket, design_files
    ):
        """ping, health and stats all derive from one _snapshot()."""
        netlist, clocks = design_files
        with TimingDaemon(daemon_socket):
            with DaemonClient(daemon_socket) as client:
                client.analyze(netlist, clocks)
                ping = client.ping()
                health = client.health()
                stats = client.stats()
        assert ping["pid"] == health["pid"] == stats["pid"]
        for doc in (health, stats):
            assert doc["requests"] >= 1
            assert doc["designs_loaded"] == 1
            assert "in_flight" in doc and "errors" in doc
            assert doc["stalled"] == 0
        assert stats["designs"]
        for design in stats["designs"].values():
            assert "in_flight" in design


class TestProfileAndHistoryOps:
    def test_buildinfo_op(self, daemon_socket):
        with TimingDaemon(daemon_socket) as daemon:
            with DaemonClient(daemon_socket) as client:
                build = client.buildinfo()
        assert build["ok"] and build["pid"] == os.getpid()
        assert build["config"]["socket"] == daemon_socket


class TestDaemonAccessLog:
    def test_one_line_per_request(self, daemon_socket, design_files):
        netlist, clocks = design_files
        lines_buffer = []

        class Sink:
            def write(self, data):
                lines_buffer.append(data)

        log = AccessLog(Sink(), slow_threshold_s=0.0)
        with TimingDaemon(daemon_socket, access_log=log):
            with DaemonClient(daemon_socket) as client:
                with obs.recording():
                    client.analyze(netlist, clocks)
                client.ping()
        entries = [json.loads(line) for line in lines_buffer]
        assert len(entries) >= 2
        by_op = {entry["op"]: entry for entry in entries}
        analyze = by_op["analyze"]
        assert analyze["kind"] == "daemon"
        assert analyze["design"] is not None
        assert analyze["engine"] in ("cold", "incremental-warm", "snapshot")
        assert analyze["queue_wait_s"] >= 0.0
        assert analyze["handle_s"] >= 0.0
        # slow_threshold 0.0: the traced request carries its span tree.
        assert analyze["slow"] is True
        assert analyze["spans"][0]["name"] == "service.daemon.request"
        assert by_op["ping"]["status"] == "ok"

    def test_error_requests_logged(self, daemon_socket, tmp_path):
        log_path = tmp_path / "daemon.access.jsonl"
        with TimingDaemon(daemon_socket, access_log=str(log_path)):
            with DaemonClient(daemon_socket) as client:
                client.request({"op": "analyze"})
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        errors = [l for l in lines if l["status"] == "error"]
        assert errors and errors[0]["error"]
