"""Pure fleet aggregation: peers files, rows, doc, doctor, renderers."""

from __future__ import annotations

import json

import pytest

from repro.obs.fleet import (
    FLEET_DOCTOR_SCHEMA,
    FLEET_SCHEMA,
    build_fleet_doc,
    build_fleet_doctor,
    fleet_doctor_exit_code,
    load_peers,
    peer_row,
    render_fleet,
    render_fleet_doctor,
)


def _history(requests, ts0=1000.0, dt=5.0, p95=0.02):
    points = []
    for i, count in enumerate(requests):
        points.append(
            {
                "ts": ts0 + i * dt,
                "counters": {
                    "service.daemon.requests": count,
                    "service.cache.hits": 30,
                    "service.cache.misses": 10,
                },
                "gauges": {},
                "histograms": {
                    "service.daemon.request_seconds": {
                        "count": count,
                        "p50": p95 / 2.0,
                        "p95": p95,
                    }
                },
            }
        )
    return {"points": points}


def _scrape(ok=True, error=None, **over):
    scrape = {
        "ok": ok,
        "error": error,
        "healthz": {
            "ok": True,
            "pid": 4242,
            "uptime_s": 60.0,
            "requests": 100,
            "errors": 0,
            "in_flight": 0,
            "designs_loaded": 1,
        },
        "history": _history([90, 100]),
        "alertz": {"ok": True, "alerts": []},
        "crashz": {"ok": True, "crash": None},
    }
    scrape.update(over)
    return scrape


class TestLoadPeers:
    def test_text_format(self, tmp_path):
        path = tmp_path / "peers.txt"
        path.write_text(
            "# fleet\n"
            "http://127.0.0.1:9001/\n"
            "http://127.0.0.1:9002   # trailing comment\n"
            "\n"
            "http://127.0.0.1:9001\n"  # duplicate after normalising
        )
        assert load_peers(path) == [
            "http://127.0.0.1:9001",
            "http://127.0.0.1:9002",
        ]

    def test_json_list(self, tmp_path):
        path = tmp_path / "peers.json"
        path.write_text(json.dumps(["http://a:1/", "http://b:2"]))
        assert load_peers(path) == ["http://a:1", "http://b:2"]

    def test_json_object(self, tmp_path):
        path = tmp_path / "peers.json"
        path.write_text(json.dumps({"peers": ["http://a:1"]}))
        assert load_peers(path) == ["http://a:1"]

    def test_json_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "peers.json"
        path.write_text(json.dumps({"peers": "http://a:1"}))
        with pytest.raises(ValueError):
            load_peers(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_peers(tmp_path / "absent")


class TestPeerRow:
    def test_up_row(self):
        row = peer_row("http://a:1", _scrape())
        assert row["state"] == "up"
        assert row["pid"] == 4242
        assert row["rate_rps"] == pytest.approx(2.0)  # (100-90)/5s
        assert row["latency"]["p95_s"] == pytest.approx(0.02)
        assert row["cache_hit_rate"] == pytest.approx(0.75)
        assert row["alerts_firing"] == []
        assert "fabric" not in row

    def test_down_row(self):
        row = peer_row(
            "http://a:1", {"ok": False, "error": "URLError: refused"}
        )
        assert row == {
            "url": "http://a:1",
            "state": "down",
            "error": "URLError: refused",
        }

    def test_degraded_on_firing_alerts(self):
        alertz = {
            "ok": True,
            "alerts": [
                {"name": "error_rate_high", "state": "firing"},
                {"name": "queue_deep", "state": "ok"},
            ],
        }
        row = peer_row("http://a:1", _scrape(alertz=alertz))
        assert row["state"] == "degraded"
        assert row["alerts_firing"] == ["error_rate_high"]

    def test_restart_rebases_rate(self):
        # Counter fell 500 -> 3: the peer restarted; 3 requests over
        # the 5 s window is 0.6 req/s, not a clamped zero.
        row = peer_row("http://a:1", _scrape(history=_history([500, 3])))
        assert row["rate_rps"] == pytest.approx(0.6)

    def test_missing_aux_documents_tolerated(self):
        row = peer_row(
            "http://a:1",
            _scrape(history=None, alertz=None, crashz=None),
        )
        assert row["state"] == "up"
        assert row["rate_rps"] == 0.0
        assert row["cache_hit_rate"] is None


class TestFleetDoc:
    def _doc(self):
        return build_fleet_doc(
            {
                "http://a:1": _scrape(),
                "http://b:2": _scrape(
                    alertz={
                        "ok": True,
                        "alerts": [{"name": "x", "state": "firing"}],
                    }
                ),
                "http://c:3": {"ok": False, "error": "timed out"},
            },
            ts=1234.5,
        )

    def test_summary(self):
        doc = self._doc()
        assert doc["schema"] == FLEET_SCHEMA
        assert doc["ts"] == 1234.5
        assert [row["url"] for row in doc["peers"]] == [
            "http://a:1",
            "http://b:2",
            "http://c:3",
        ]
        assert doc["summary"] == {
            "peers": 3,
            "up": 1,
            "degraded": 1,
            "down": 1,
            "rate_rps": pytest.approx(4.0),
            "alerts_firing": 1,
        }

    def test_render(self):
        text = render_fleet(self._doc())
        assert "3 peers: 1 up, 1 degraded, 1 down" in text
        assert "PEER" in text and "P95ms" in text
        lines = text.splitlines()
        assert any(line.startswith("!! http://b:2") for line in lines)
        assert any(
            line.startswith("?? http://c:3") and "timed out" in line
            for line in lines
        )

    def test_empty_fleet(self):
        doc = build_fleet_doc({})
        assert doc["summary"]["peers"] == 0
        assert "0 peers" in render_fleet(doc)


class TestFleetDoctor:
    def test_healthy_fleet_exit_0(self):
        doc = build_fleet_doctor({"http://a:1": _scrape()})
        assert doc["schema"] == FLEET_DOCTOR_SCHEMA
        assert fleet_doctor_exit_code(doc) == 0
        assert "HEALTHY" in render_fleet_doctor(doc)

    def test_down_peer_exit_1(self):
        doc = build_fleet_doctor(
            {
                "http://a:1": _scrape(),
                "http://b:2": {"ok": False, "error": "refused"},
            }
        )
        assert fleet_doctor_exit_code(doc) == 1
        text = render_fleet_doctor(doc)
        assert "DEGRADED" in text
        assert "down: refused" in text

    def test_crash_report_exit_2_wins(self):
        crashz = {
            "ok": True,
            "crash": {
                "kind": "exception",
                "error": {"error_type": "RuntimeError"},
            },
        }
        doc = build_fleet_doctor(
            {
                "http://a:1": _scrape(crashz=crashz),
                "http://b:2": {"ok": False, "error": "refused"},
            }
        )
        assert fleet_doctor_exit_code(doc) == 2
        text = render_fleet_doctor(doc)
        assert "CRASHED" in text
        assert "RuntimeError" in text

    def test_firing_alerts_exit_1(self):
        doc = build_fleet_doctor(
            {
                "http://a:1": _scrape(
                    alertz={
                        "ok": True,
                        "alerts": [{"name": "x", "state": "firing"}],
                    }
                )
            }
        )
        assert fleet_doctor_exit_code(doc) == 1
        assert doc["peers"][0]["reasons"] == ["alerts firing: x"]

    def test_malformed_exit_code_defaults_to_1(self):
        assert fleet_doctor_exit_code({"exit_code": "nan-ish"}) == 1
