"""repro-sta doctor: fetch/render/exit-code triage + CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service import DaemonClient, TimingDaemon
from repro.service.doctor import (
    DOCTOR_SCHEMA,
    doctor_exit_code,
    fetch_doctor,
    render_doctor,
)


def _doc(**overrides):
    """A healthy doctor document; keyword args replace sub-documents."""
    doc = {
        "schema": DOCTOR_SCHEMA,
        "ts": 1000.0,
        "health": {
            "ok": True,
            "pid": 4242,
            "uptime_s": 61.0,
            "requests": 10,
            "errors": 1,
            "in_flight": 0,
            "stalled": 0,
        },
        "buildinfo": {
            "ok": True,
            "version": "1.2.3",
            "protocol": 1,
            "config": {"stall_timeout_s": 30.0},
        },
        "flight": {"ok": True, "events": [], "total": 0, "dropped": 0},
        "crash": {"ok": True, "crash": None, "path": None},
    }
    doc.update(overrides)
    return doc


def _health(**extra):
    """The healthy ``health`` sub-document with ``extra`` fields set."""
    health = dict(_doc()["health"])
    health.update(extra)
    return health


def _crash_doc():
    return {
        "ok": True,
        "crash": {
            "schema": "repro.crash/1",
            "ts": 990.0,
            "kind": "handler_exception",
            "op": "fail",
            "error": {
                "schema": "repro.error/1",
                "error": "boom",
                "error_type": "RuntimeError",
                "frames": [
                    {
                        "file": "service/daemon.py",
                        "line": 99,
                        "function": "_op_fail",
                        "code": "raise RuntimeError",
                    }
                ],
            },
        },
        "path": "/var/crashes/crash-1.json",
    }


class TestExitCode:
    def test_healthy_is_zero(self):
        assert doctor_exit_code(_doc()) == 0

    def test_firing_alert_is_one(self):
        """A request in flight past the stall deadline exits 1."""
        assert doctor_exit_code(_doc(health=_health(stalled=1))) == 1
        assert doctor_exit_code(_doc(health=_health(stalled=3))) == 1

    def test_pending_alert_stays_zero(self):
        """Requests in flight short of the stall deadline exit 0."""
        doc = _doc(health=_health(in_flight=2, stalled=0))
        assert doctor_exit_code(doc) == 0

    def test_crash_is_two_and_wins_over_alerts(self):
        """A crash report wins over a stalled request."""
        doc = _doc(crash=_crash_doc(), health=_health(stalled=1))
        assert doctor_exit_code(doc) == 2

    def test_degraded_subdocs_do_not_trip_the_verdict(self):
        doc = _doc(
            crash={"ok": False, "error": "unknown op"},
            health={"ok": False, "error": "timed out"},
        )
        assert doctor_exit_code(doc) == 0


class TestRenderDoctor:
    def test_healthy_render(self):
        text = render_doctor(_doc())
        assert "verdict: HEALTHY (exit 0)" in text
        assert "daemon pid 4242" in text
        assert "version 1.2.3" in text
        assert "requests : 10 total, 1 errors, 0 in flight" in text
        assert "stalls   : 0 stalled (deadline 30.0s)" in text
        assert "crash    : none recorded" in text

    def test_firing_alert_render(self):
        """A stalled request: the degraded verdict and its count."""
        doc = _doc(health=_health(in_flight=1, stalled=1))
        text = render_doctor(doc)
        assert "verdict: DEGRADED -- request stalled (exit 1)" in text
        assert "requests : 10 total, 1 errors, 1 in flight" in text
        assert "stalls   : 1 stalled (deadline 30.0s)" in text

    def test_crash_render_shows_site_and_report(self):
        text = render_doctor(_doc(crash=_crash_doc()))
        assert "verdict: CRASHED -- postmortem on disk (exit 2)" in text
        assert "handler_exception [RuntimeError] boom" in text
        assert "at service/daemon.py:99 in _op_fail" in text
        assert "report: /var/crashes/crash-1.json" in text

    def test_degraded_subdocs_render_explanations(self):
        doc = _doc(
            buildinfo={"ok": False, "error": "x"},
            flight={"ok": False, "error": "x"},
            crash={"ok": False, "error": "x"},
        )
        text = render_doctor(doc)
        assert "stalls   : 0 stalled (no watchdog)" in text
        assert "(disabled on this daemon)" in text
        assert "(daemon too old for the crash-report op)" in text

    def test_flight_tail_renders_each_kind(self):
        events = [
            {
                "kind": "request",
                "ts": 995.0,
                "op": "analyze",
                "design": "chip",
                "status": "ok",
                "duration_ms": 250.0,
            },
            {
                "kind": "error",
                "ts": 996.0,
                "error": {"error_type": "ValueError", "error": "kaboom"},
            },
            {
                "kind": "stall",
                "ts": 997.0,
                "op": "sleep",
                "status": "stalled",
                "waited_s": 1.5,
            },
            {"kind": "log", "ts": 998.0, "message": "daemon started"},
            "not-a-dict",
        ]
        doc = _doc(
            flight={
                "ok": True,
                "events": events,
                "total": 9,
                "dropped": 4,
            }
        )
        text = render_doctor(doc)
        assert "last 5 of 9 events (4 dropped)" in text
        assert "analyze design=chip ok 250.0ms" in text
        assert "ValueError: kaboom" in text
        assert "sleep stalled waited 1.5s" in text
        assert "daemon started" in text


class TestFetchDoctor:
    class _StubClient:
        def __init__(self):
            self.flight_last = None

        def health(self):
            return {"ok": True, "pid": 1}

        def buildinfo(self):
            return {"ok": True, "version": "x"}

        def flight(self, last=None):
            self.flight_last = last
            return {"ok": True, "events": []}

        def crash_report(self):
            return {"ok": True, "crash": None}

    def test_bundles_all_ops(self):
        stub = self._StubClient()
        doc = fetch_doctor(stub, flight_last=7)
        assert doc["schema"] == DOCTOR_SCHEMA
        assert doc["ts"] > 0
        assert doc["health"]["pid"] == 1
        assert doc["buildinfo"]["version"] == "x"
        assert doc["flight"]["ok"]
        assert set(doc) == {
            "schema", "ts", "health", "buildinfo", "flight", "crash"
        }
        assert doc["crash"]["crash"] is None
        assert stub.flight_last == 7


class TestDoctorAgainstLiveDaemon:
    @pytest.fixture
    def diag(self, tmp_path):
        sock = str(tmp_path / "doc.sock")
        with TimingDaemon(
            sock,
            crash_dir=tmp_path / "crashes",
            debug_ops=True,
            stall_timeout_s=None,
        ) as server:
            with DaemonClient(sock, timeout=30.0) as c:
                yield server, c

    def test_healthy_daemon_exits_zero(self, diag):
        __, c = diag
        doc = fetch_doctor(c)
        assert doctor_exit_code(doc) == 0
        assert "verdict: HEALTHY" in render_doctor(doc)
        json.dumps(doc)  # the whole document stays serialisable

    def test_crashed_daemon_exits_two(self, diag):
        __, c = diag
        assert c.request({"op": "fail"})["ok"] is False
        doc = fetch_doctor(c)
        assert doctor_exit_code(doc) == 2
        text = render_doctor(doc)
        assert "handler_exception" in text
        assert "report:" in text

    def test_cli_doctor_json_and_exit_codes(self, diag, capsys):
        server, c = diag
        sock = server.socket_path
        assert main(["doctor", "--socket", sock, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == DOCTOR_SCHEMA
        assert c.request({"op": "fail"})["ok"] is False
        assert main(["doctor", "--socket", sock]) == 2
        assert "verdict: CRASHED" in capsys.readouterr().out

    def test_cli_doctor_flight_tail_flag(self, diag, capsys):
        server, __ = diag
        rc = main(
            ["doctor", "--socket", server.socket_path,
             "--flight", "2", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["flight"]["events"]) <= 2

    def test_cli_unreachable_daemon_raises_systemexit(self, tmp_path):
        gone = str(tmp_path / "gone.sock")
        with pytest.raises(SystemExit, match="cannot reach daemon"):
            main(["doctor", "--socket", gone])


class TestDoctorAgainstStalledDaemon:
    def test_cli_doctor_exits_one_while_a_request_stalls(
        self, tmp_path, capsys
    ):
        import threading
        import time

        sock = str(tmp_path / "stall.sock")
        with TimingDaemon(
            sock,
            crash_dir=tmp_path / "crashes",
            debug_ops=True,
            stall_timeout_s=0.2,
        ) as server:
            done = threading.Event()

            def slow_request():
                with DaemonClient(sock, timeout=30.0) as other:
                    other.request({"op": "sleep", "seconds": 1.5})
                done.set()

            thread = threading.Thread(target=slow_request)
            thread.start()
            try:
                deadline = time.time() + 10.0
                with DaemonClient(sock, timeout=30.0) as poll:
                    while (
                        poll.health()["stalled"] == 0
                        and time.time() < deadline
                    ):
                        time.sleep(0.02)
                assert not done.is_set(), "the sleep ended before a stall"
                assert main(["doctor", "--socket", sock]) == 1
                out = capsys.readouterr().out
                assert "verdict: DEGRADED -- request stalled (exit 1)" in out
                assert "stalls   : 1 stalled" in out
            finally:
                thread.join(timeout=30.0)
            assert done.is_set()
            assert main(["doctor", "--socket", sock]) == 0
