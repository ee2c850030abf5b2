"""Tests for the flight recorder, crash reports and stall watchdog."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.obs.flight import (
    CRASH_SCHEMA,
    ERROR_SCHEMA,
    FLIGHT_SCHEMA,
    CrashHandler,
    FlightRecorder,
    StallWatchdog,
    error_document,
    exception_frames,
    thread_stacks,
)


def _raise_nested():
    def inner():
        raise ValueError("kaboom")

    inner()


class TestErrorDocuments:
    def test_exception_frames_shape(self):
        try:
            _raise_nested()
        except ValueError as exc:
            frames = exception_frames(exc)
        assert len(frames) >= 2
        last = frames[-1]
        assert set(last) == {"file", "line", "function", "code"}
        assert last["function"] == "inner"
        assert 'raise ValueError("kaboom")' in last["code"]
        # Short two-component paths, not absolute ones.
        assert not last["file"].startswith("/")

    def test_frame_limit_keeps_innermost(self):
        def recurse(n):
            if n:
                recurse(n - 1)
            else:
                raise RuntimeError("deep")

        try:
            recurse(40)
        except RuntimeError as exc:
            frames = exception_frames(exc, limit=5)
        assert len(frames) == 5
        assert 'raise RuntimeError("deep")' in frames[-1]["code"]

    def test_error_document(self):
        try:
            _raise_nested()
        except ValueError as exc:
            doc = error_document(exc)
        assert doc["schema"] == ERROR_SCHEMA
        assert doc["error"] == "kaboom"
        assert doc["error_type"] == "ValueError"
        assert doc["frames"]

    def test_thread_stacks_include_current_thread(self):
        rows = thread_stacks()
        mine = [
            r for r in rows if r["thread_id"] == threading.get_ident()
        ]
        assert len(mine) == 1
        assert any(
            "test_thread_stacks_include_current_thread" in f
            for f in mine[0]["frames"]
        )
        # Frames are root-first frame labels: "func (pkg/mod.py:N)".
        assert all("(" in f and ")" in f for f in mine[0]["frames"])

    def test_thread_stacks_exclude(self):
        rows = thread_stacks(exclude=[threading.get_ident()])
        assert all(r["thread_id"] != threading.get_ident() for r in rows)

    def test_frame_walk_survives_a_collection_of_thread_locals(self):
        """A collection that frees a ``threading.local`` and lands inside
        the frame walk must not deadlock the process.  Each step makes
        such garbage and sets the threshold so the collection triggers
        k allocations later, one of which is inside the walk."""
        code = (
            "import gc, threading\n"
            "from repro.obs.flight import current_frames\n"
            "class Holder:\n"
            "    pass\n"
            "def probe():\n"
            "    return current_frames()\n"
            "def garbage():\n"
            "    for __ in range(10):\n"
            "        h = Holder()\n"
            "        h.loc = threading.local()\n"
            "        h.loc.x = 1\n"
            "        h.me = h\n"
            "for k in range(8):\n"
            "    gc.collect()\n"
            "    gc.disable()\n"
            "    garbage()\n"
            "    gc.set_threshold(gc.get_count()[0] + k)\n"
            "    gc.enable()\n"
            "    probe()\n"
            "    gc.set_threshold(700)\n"
            "print('ok')\n"
        )
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src_dir},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.stdout.strip() == "ok", result.stderr


class TestFlightRecorder:
    def test_capacity_and_dropped_accounting(self):
        ring = FlightRecorder(capacity=3)
        for index in range(5):
            ring.record_log(f"event {index}")
        assert len(ring) == 3
        assert ring.total == 5
        assert ring.dropped == 2
        doc = ring.to_dict()
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["total"] == 5 and doc["dropped"] == 2
        assert [e["message"] for e in doc["events"]] == [
            "event 2",
            "event 3",
            "event 4",
        ]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_record_request_and_filtering(self):
        ring = FlightRecorder(capacity=8)
        ring.record_request("analyze", "chip", "ok", 0.25)
        ring.record_request("fail", None, "error", 0.001,
                            error_type="RuntimeError")
        ring.record_log("note")
        requests = ring.events(kind="request")
        assert len(requests) == 2
        assert requests[0]["duration_ms"] == 250.0
        assert "design" not in requests[1]  # None fields are elided
        assert requests[1]["error_type"] == "RuntimeError"
        assert len(ring.events(last=1)) == 1
        assert ring.events(last=0) == []

    def test_record_error_embeds_error_document(self):
        ring = FlightRecorder(capacity=8)
        try:
            _raise_nested()
        except ValueError as exc:
            ring.record_error(exc, op="analyze")
        event = ring.events(kind="error")[0]
        assert event["error"]["schema"] == ERROR_SCHEMA
        assert event["error"]["error_type"] == "ValueError"
        assert event["op"] == "analyze"

    def test_to_dict_json_serialisable(self):
        ring = FlightRecorder(capacity=4)
        try:
            _raise_nested()
        except ValueError as exc:
            ring.record_error(exc)
        json.dumps(ring.to_dict())  # must not raise


class TestCrashHandler:
    def test_build_shape(self):
        ring = FlightRecorder(capacity=4)
        ring.record_log("before the crash")
        handler = CrashHandler(
            flight=ring,
            buildinfo=lambda: {"version": "test"},
        )
        try:
            _raise_nested()
        except ValueError as exc:
            doc = handler.build(exc, kind="unit_test", op="analyze")
        assert doc["schema"] == CRASH_SCHEMA
        assert doc["kind"] == "unit_test"
        assert doc["op"] == "analyze"
        assert doc["error"]["error_type"] == "ValueError"
        assert doc["flight"]["events"][0]["message"] == "before the crash"
        assert "alerts" not in doc
        assert doc["buildinfo"]["version"] == "test"
        assert any(
            r["thread_id"] == threading.get_ident() for r in doc["threads"]
        )

    def test_forensic_callbacks_must_not_raise(self):
        handler = CrashHandler(buildinfo=lambda: 1 / 0)
        doc = handler.build(RuntimeError("x"))
        assert doc["buildinfo"] is None

    def test_report_persists_and_prunes(self, tmp_path):
        handler = CrashHandler(crash_dir=tmp_path, keep=2)
        for index in range(4):
            handler.report(RuntimeError(f"crash {index}"))
            time.sleep(0.01)
        reports = sorted(tmp_path.glob("crash-*.json"))
        assert len(reports) == 2
        assert handler.reports_written == 4
        latest = handler.latest()
        assert latest["error"]["error"] == "crash 3"
        assert handler.latest_path() in reports

    def test_latest_reads_disk_when_memory_empty(self, tmp_path):
        CrashHandler(crash_dir=tmp_path).report(RuntimeError("persisted"))
        fresh = CrashHandler(crash_dir=tmp_path)
        assert fresh.latest()["error"]["error"] == "persisted"
        empty = CrashHandler(crash_dir=tmp_path / "void")
        assert empty.latest() is None
        assert empty.latest_path() is None

    def test_in_memory_only_without_crash_dir(self):
        handler = CrashHandler()
        handler.report(RuntimeError("memory"))
        assert handler.latest()["error"]["error"] == "memory"
        assert handler.latest_path() is None

    def test_install_uninstall_restores_hooks(self, tmp_path):
        handler = CrashHandler(crash_dir=tmp_path)
        prev_except = sys.excepthook
        prev_thread = threading.excepthook
        handler.install()
        try:
            assert sys.excepthook is not prev_except
            assert threading.excepthook is not prev_thread
            # Faulthandler log exists while installed.
            logs = list(tmp_path.glob("faulthandler-*.log"))
            assert len(logs) == 1
        finally:
            handler.uninstall()
        assert sys.excepthook is prev_except
        assert threading.excepthook is prev_thread
        # Clean shutdown: the empty faulthandler log is swept away.
        assert list(tmp_path.glob("faulthandler-*.log")) == []

    def test_installed_thread_hook_writes_report(self, tmp_path):
        handler = CrashHandler(crash_dir=tmp_path)
        handler.install()
        try:
            thread = threading.Thread(
                target=lambda: (_ for _ in ()).throw(
                    RuntimeError("thread boom")
                ).__next__(),
                name="crasher",
            )
            # Suppress stderr noise from the default hook by chaining
            # into a no-op previous hook.
            handler._prev_threading_excepthook = lambda args: None
            thread.start()
            thread.join(timeout=5.0)
            deadline = time.time() + 5.0
            while handler.latest() is None and time.time() < deadline:
                time.sleep(0.01)
            latest = handler.latest()
        finally:
            handler.uninstall()
        assert latest is not None
        assert latest["kind"] == "unhandled_thread_exception"
        assert latest["thread"] == "crasher"
        assert latest["error"]["error"] == "thread boom"


class TestStallWatchdog:
    def test_scan_detects_and_clear_fires_once(self):
        stalls, clears = [], []
        watchdog = StallWatchdog(
            deadline_s=10.0,
            on_stall=stalls.append,
            on_clear=clears.append,
        )
        token = watchdog.track(op="analyze", design="chip")
        now = time.perf_counter()
        assert watchdog.scan(now=now) == []  # young request: fine
        fresh = watchdog.scan(now=now + 11.0)
        assert len(fresh) == 1
        info = fresh[0]
        assert info["op"] == "analyze"
        assert info["design"] == "chip"
        assert info["waited_s"] >= 10.0
        assert info["stack"]  # the stuck thread is *this* thread
        assert any("test_scan_detects" in f for f in info["stack"])
        # Second scan does not re-fire the same stall.
        assert watchdog.scan(now=now + 12.0) == []
        assert watchdog.stalled_count() == 1
        watchdog.untrack(token)
        assert len(clears) == 1 and clears[0]["op"] == "analyze"
        assert watchdog.stalled_count() == 0
        assert stalls[0] is not clears[0]

    def test_annotate_attaches_late_facts(self):
        watchdog = StallWatchdog(deadline_s=5.0)
        token = watchdog.track(op="analyze")
        watchdog.annotate(token, design="late")
        assert watchdog.inflight()[0]["design"] == "late"
        watchdog.untrack(token)
        watchdog.annotate(token, design="gone")  # no-op, no raise

    def test_all_clear_waits_for_every_stall(self):
        watchdog = StallWatchdog(deadline_s=1.0)
        first = watchdog.track(op="a")
        second = watchdog.track(op="b")
        now = time.perf_counter()
        assert len(watchdog.scan(now=now + 2.0)) == 2
        assert watchdog.stalled_count() == 2
        watchdog.untrack(first)
        assert watchdog.stalled_count() == 1
        watchdog.untrack(second)
        assert watchdog.stalled_count() == 0

    def test_untracked_healthy_requests_fire_nothing(self):
        clears = []
        watchdog = StallWatchdog(deadline_s=30.0, on_clear=clears.append)
        token = watchdog.track(op="quick")
        watchdog.untrack(token)
        assert clears == []
        assert watchdog.inflight() == []

    def test_background_thread_scans(self):
        stalls = []
        watchdog = StallWatchdog(
            deadline_s=0.05, interval_s=0.01, on_stall=stalls.append
        )
        watchdog.start()
        try:
            token = watchdog.track(op="slow")
            deadline = time.time() + 5.0
            while not stalls and time.time() < deadline:
                time.sleep(0.01)
            watchdog.untrack(token)
        finally:
            watchdog.stop()
        assert stalls and stalls[0]["op"] == "slow"
        assert not watchdog.running

    def test_interval_defaults_to_quarter_deadline(self):
        assert StallWatchdog(deadline_s=2.0).interval_s == 0.5
        assert StallWatchdog(deadline_s=0.1).interval_s == 0.05
        assert StallWatchdog(deadline_s=400.0).interval_s == 1.0
        with pytest.raises(ValueError):
            StallWatchdog(deadline_s=0.0)

    def test_hook_exceptions_are_swallowed(self):
        watchdog = StallWatchdog(
            deadline_s=1.0,
            on_stall=lambda info: 1 / 0,
            on_clear=lambda info: 1 / 0,
        )
        token = watchdog.track(op="x")
        assert len(watchdog.scan(now=time.perf_counter() + 2.0)) == 1
        watchdog.untrack(token)  # must not raise
