"""PR 10: lock-free snapshot reads, per-request tracing, lock hygiene.

Covers the copy-on-write ``AnalysisSnapshot`` read path (epoch
invalidation, counters, digest identity), the regression for the old
daemon-wide ``_trace_lock`` (two traced analyses of *different* designs
must overlap in time), and the ``_locked_design`` context manager (an
injected handler fault can never leave a request in flight or keep a
design locked).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.clocks.serialize import save_schedule
from repro.generators import latch_pipeline
from repro.netlist.persistence import save_network
from repro.service import DaemonClient, TimingDaemon

from tests.service.conftest import stats_row


@pytest.fixture
def daemon(tmp_path):
    sock = str(tmp_path / "snap.sock")
    with TimingDaemon(sock) as server:
        yield server


@pytest.fixture
def client(daemon):
    with DaemonClient(daemon.socket_path, timeout=30.0) as c:
        yield c


def _counters(daemon) -> dict:
    return dict(daemon.recorder.counters)


def _row_in_flight(daemon, netlist, clocks) -> int:
    """The design's ``stats`` row ``in_flight``, read in process."""
    stats = daemon.handle_line(b'{"op": "stats"}')
    return stats_row(stats, netlist, clocks)["in_flight"]


class TestSnapshotReads:
    def test_repeat_analyze_answers_from_snapshot(
        self, daemon, client, design_files
    ):
        netlist, clocks = design_files
        first = client.analyze(netlist, clocks)
        assert first["engine"] == "cold"
        second = client.analyze(netlist, clocks)
        third = client.analyze(netlist, clocks)
        assert second["engine"] == "snapshot"
        assert third["engine"] == "snapshot"
        # Byte-identical to the locked answer it republishes.
        assert second["manifest_digest"] == first["manifest_digest"]
        assert third["timing_digest"] == first["timing_digest"]
        counters = _counters(daemon)
        assert counters["service.daemon.snapshot_hits"] == 2
        assert counters["service.daemon.snapshot_misses"] == 1

    def test_mutation_invalidates_snapshot(
        self, daemon, client, design_files
    ):
        netlist, clocks = design_files
        client.analyze(netlist, clocks)
        assert client.analyze(netlist, clocks)["engine"] == "snapshot"
        mutated = client.mutate(
            netlist, clocks, "scale_cell", cell="s1_i0", factor=1.5
        )
        # Mutate's inline analysis runs under the lock, not the snapshot.
        assert mutated["analysis"]["engine"] == "incremental-warm"
        # ... and republishes, so the next read is lock-free again.
        after = client.analyze(netlist, clocks)
        assert after["engine"] == "snapshot"
        assert (
            after["manifest_digest"]
            == mutated["analysis"]["manifest_digest"]
        )
        assert _counters(daemon)["service.daemon.epoch_bumps"] == 1
        stats = stats_row(client.stats(), netlist, clocks)
        assert stats["epoch"] == 1
        assert stats["snapshot_hits"] == 2
        assert stats["snapshot_published"] is True

    @pytest.mark.parametrize(
        "cell, factor",
        [
            ("no_such_cell", 1.5),
            ("s1_i0", "nan"),
            ("s1_i0", "inf"),
            ("s1_i0", -1.0),
        ],
    )
    def test_rejected_mutate_keeps_snapshot(
        self, daemon, client, design_files, cell, factor
    ):
        """A mutate that fails validation changes nothing: no epoch
        bump, and the next read is the published answer."""
        netlist, clocks = design_files
        first = client.analyze(netlist, clocks)
        rejected = client.mutate(
            netlist, clocks, "scale_cell", cell=cell, factor=factor
        )
        assert rejected["ok"] is False
        assert rejected["error_doc"]["schema"] == "repro.error/1"
        after = client.analyze(netlist, clocks)
        assert after["engine"] == "snapshot"
        assert after["manifest_digest"] == first["manifest_digest"]
        counters = _counters(daemon)
        assert counters["service.daemon.snapshot_hits"] == 1
        assert counters.get("service.daemon.epoch_bumps", 0) == 0
        stats = stats_row(client.stats(), netlist, clocks)
        assert (stats["epoch"], stats["mutations"]) == (0, 0)

    def test_distinct_parameters_miss_then_hit(
        self, daemon, client, design_files
    ):
        netlist, clocks = design_files
        client.analyze(netlist, clocks)
        # New parameter combination: locked analyze, then published.
        first = client.request(
            {
                "op": "analyze",
                "netlist": netlist,
                "clocks": clocks,
                "slow_path_limit": 5,
            }
        )
        assert first["engine"] == "incremental-warm"
        second = client.request(
            {
                "op": "analyze",
                "netlist": netlist,
                "clocks": clocks,
                "slow_path_limit": 5,
            }
        )
        assert second["engine"] == "snapshot"
        assert second["manifest_digest"] == first["manifest_digest"]
        # Both parameter variants coexist in the current snapshot.
        assert client.analyze(netlist, clocks)["engine"] == "snapshot"

    def test_snapshot_hit_response_is_not_aliased(
        self, daemon, client, design_files
    ):
        """handle_line decorates responses (id, trace) in place; the
        cached snapshot entry must stay pristine across hits."""
        netlist, clocks = design_files
        client.analyze(netlist, clocks)
        tagged = client.request(
            {
                "op": "analyze",
                "netlist": netlist,
                "clocks": clocks,
                "id": "tag-1",
            }
        )
        assert tagged["id"] == "tag-1"
        untagged = client.analyze(netlist, clocks)
        assert "id" not in untagged
        assert untagged["engine"] == "snapshot"


class TestDoubleCheckedMiss:
    def test_missed_reader_serves_republished_snapshot(
        self, tmp_path, monkeypatch, design_files
    ):
        """A reader that misses (stale epoch) and queues on the lock
        must serve the snapshot republished while it waited -- never
        re-analyse (a warm no-change re-analysis converges in fewer
        iterations and would hash differently than the published
        answer)."""
        netlist, clocks = design_files
        daemon = TimingDaemon(str(tmp_path / "dc.sock"))
        line = json.dumps(
            {"op": "analyze", "netlist": netlist, "clocks": clocks}
        ).encode("utf-8")
        assert daemon.handle_line(line)["ok"]
        state = next(iter(daemon._designs.values()))
        key, cached = next(iter(state.snapshot.responses.items()))

        analyses = {"count": 0}
        real_analyze = TimingDaemon._analyze_state

        def counting_analyze(self, st, request):
            analyses["count"] += 1
            return real_analyze(self, st, request)

        monkeypatch.setattr(
            TimingDaemon, "_analyze_state", counting_analyze
        )

        # Freeze the design mid-"mutation": lock held, epoch bumped,
        # snapshot stale -- exactly the bump->publish window.
        state.lock.acquire()
        state.epoch += 1
        reader_result = {}

        def reader():
            reader_result["response"] = daemon.handle_line(line)

        thread = threading.Thread(target=reader)
        thread.start()
        # Wait until the reader has taken the miss path and is queued
        # (the initial cold analyze already counted one miss).
        deadline = time.perf_counter() + 10.0
        while (
            daemon.recorder.counters.get(
                "service.daemon.snapshot_misses", 0
            )
            < 2
        ):
            assert time.perf_counter() < deadline, "reader never missed"
            time.sleep(0.001)
        # "Mutation" finishes: republish at the new epoch, release.
        daemon._publish_snapshot(state, key, dict(cached))
        state.lock.release()
        thread.join(timeout=10.0)

        response = reader_result["response"]
        assert response["ok"] and response["engine"] == "snapshot"
        assert response["manifest_digest"] == cached["manifest_digest"]
        assert analyses["count"] == 0, "double-checked miss re-analysed"
        counters = _counters(daemon)
        assert counters["service.daemon.snapshot_misses"] == 2
        assert counters["service.daemon.snapshot_hits"] == 1


class TestTracedConcurrency:
    def test_traced_analyses_of_different_designs_overlap(
        self, tmp_path, monkeypatch
    ):
        """Regression for the old daemon-wide trace lock: two traced
        analyses of *different* designs must run concurrently."""
        designs = []
        for index, stages in enumerate((3, 4)):
            network, schedule = latch_pipeline(
                stages=stages, stage_lengths=[4] * stages, period=12.0
            )
            netlist = tmp_path / f"pipe{index}.json"
            clocks = tmp_path / f"clocks{index}.json"
            save_network(network, netlist)
            save_schedule(schedule, clocks)
            designs.append((str(netlist), str(clocks)))

        sock = str(tmp_path / "trace.sock")
        daemon = TimingDaemon(sock)
        windows = {}
        real_analyze = TimingDaemon._analyze_state

        def slow_analyze(self, state, request):
            start = time.perf_counter()
            time.sleep(0.25)
            response = real_analyze(self, state, request)
            windows[state.netlist] = (start, time.perf_counter())
            return response

        monkeypatch.setattr(TimingDaemon, "_analyze_state", slow_analyze)

        def traced_analyze(pair, trace_id):
            netlist, clocks = pair
            line = json.dumps(
                {
                    "op": "analyze",
                    "netlist": netlist,
                    "clocks": clocks,
                    "trace": {
                        "trace_id": trace_id,
                        "span_id": "00000001",
                    },
                }
            ).encode("utf-8")
            return daemon.handle_line(line)

        results = [None, None]
        threads = [
            threading.Thread(
                target=lambda i=i, pair=pair: results.__setitem__(
                    i, traced_analyze(pair, f"{i:016x}")
                )
            )
            for i, pair in enumerate(designs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)

        assert all(r is not None and r["ok"] for r in results)
        # Each traced response carries only its own request's spans.
        for result in results:
            spans = result["trace"]["spans"]
            assert (
                sum(1 for s in spans if s["name"] == "service.daemon.request")
                == 1
            )
        (a_start, a_end), (b_start, b_end) = windows.values()
        overlap = min(a_end, b_end) - max(a_start, b_start)
        assert overlap > 0, (
            "traced analyses serialised "
            f"(windows {windows}) -- trace-lock regression"
        )


class TestLockHygiene:
    def test_handler_fault_releases_design_lock(
        self, tmp_path, monkeypatch, design_files
    ):
        netlist, clocks = design_files
        sock = str(tmp_path / "fault.sock")
        daemon = TimingDaemon(sock)
        boom = {"armed": True}
        real_analyze = TimingDaemon._analyze_state

        def faulty_analyze(self, state, request):
            if boom["armed"]:
                boom["armed"] = False
                raise RuntimeError("injected handler fault")
            return real_analyze(self, state, request)

        monkeypatch.setattr(TimingDaemon, "_analyze_state", faulty_analyze)
        line = json.dumps(
            {"op": "analyze", "netlist": netlist, "clocks": clocks}
        ).encode("utf-8")
        failed = daemon.handle_line(line)
        assert failed["ok"] is False
        assert failed["error_type"] == "RuntimeError"

        state = next(iter(daemon._designs.values()))
        assert _row_in_flight(daemon, netlist, clocks) == 0, (
            "fault leaked an in-flight request"
        )
        assert not state.lock.locked(), "fault left the design locked"
        # The design still serves -- no deadlock, no poisoned state.
        ok = daemon.handle_line(line)
        assert ok["ok"] and ok["engine"] == "cold"
        assert _row_in_flight(daemon, netlist, clocks) == 0
        assert not state.lock.locked()
