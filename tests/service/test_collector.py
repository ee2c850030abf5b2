"""Fleet collector: scrape degradation, reloads, HTTP surfaces."""

from __future__ import annotations

import json
import os
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.service import DaemonClient, FleetCollector, TimingDaemon
from repro.service.collector import scrape_fleet, scrape_peer
from repro.service.httpmon import RouteHTTPServer, RouteTable


def _get(base, path, timeout=5):
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as r:
        return r.status, r.read().decode("utf-8")


def _json_route(document):
    def route(params):
        return "application/json", json.dumps(document)

    return route


_HEALTH = {
    "ok": True,
    "pid": 4242,
    "uptime_s": 1.0,
    "requests": 10,
    "errors": 0,
    "in_flight": 0,
    "designs_loaded": 0,
}


def _serve(routes):
    table = RouteTable()
    for path, route in routes.items():
        table.add_simple(path, route)
    return RouteHTTPServer(table=table)


class TestScrapeDegradation:
    """Satellite: a bad peer is a ``down`` row, never an exception."""

    def test_unreachable_peer_is_down(self):
        with _serve({"/healthz": _json_route(_HEALTH)}) as srv:
            host, port = srv.address
        # Server stopped: connection refused.
        scrape = scrape_peer(f"http://{host}:{port}", timeout_s=0.5)
        assert scrape["ok"] is False
        assert scrape["error"]
        assert scrape["healthz"] is None

    def test_peer_timeout_is_down(self):
        def slow(params):
            time.sleep(1.0)
            return "application/json", json.dumps(_HEALTH)

        with _serve({"/healthz": slow}) as srv:
            host, port = srv.address
            scrape = scrape_peer(f"http://{host}:{port}", timeout_s=0.2)
        assert scrape["ok"] is False
        assert "timed out" in scrape["error"].lower()

    def test_malformed_healthz_json_is_down(self):
        def garbage(params):
            return "application/json", "{not json"

        with _serve({"/healthz": garbage}) as srv:
            host, port = srv.address
            scrape = scrape_peer(f"http://{host}:{port}")
        assert scrape["ok"] is False
        assert "JSONDecodeError" in scrape["error"]

    def test_non_object_healthz_is_down(self):
        with _serve({"/healthz": _json_route(None)}) as srv:
            host, port = srv.address
            scrape = scrape_peer(f"http://{host}:{port}")
        assert scrape["ok"] is False
        assert "ValueError" in scrape["error"]

    def test_failing_aux_endpoints_leave_peer_up(self):
        """A peer that answers ``/healthz`` but whose other endpoints
        404, error or return garbage (e.g. it vanished mid-scrape) is
        still ``up``; the missing sub-documents are ``None``."""

        def exploding(params):
            raise RuntimeError("endpoint vanished")

        routes = {
            "/healthz": _json_route(_HEALTH),
            "/alertz": lambda p: ("application/json", "<html>"),
            "/crashz": exploding,
            # /metrics/history: not registered -> 404
        }
        with _serve(routes) as srv:
            host, port = srv.address
            scrape = scrape_peer(f"http://{host}:{port}")
        assert scrape["ok"] is True
        assert scrape["healthz"]["pid"] == 4242
        assert scrape["history"] is None
        assert scrape["alertz"] is None
        assert scrape["crashz"] is None

    def test_one_bad_peer_does_not_poison_the_sweep(self):
        with _serve({"/healthz": _json_route(_HEALTH)}) as srv:
            host, port = srv.address
            good = f"http://{host}:{port}"
            dead = "http://127.0.0.1:1"
            scrapes = scrape_fleet([good, dead], timeout_s=0.5)
        assert list(scrapes) == [good, dead]
        assert scrapes[good]["ok"] is True
        assert scrapes[dead]["ok"] is False


class TestFleetCollector:
    def _peers_file(self, tmp_path, peers):
        path = tmp_path / "peers.txt"
        path.write_text("".join(f"{p}\n" for p in peers))
        return path

    def _touch(self, path, offset=10):
        stamp = path.stat().st_mtime + offset
        os.utime(path, (stamp, stamp))

    def test_sweep_with_down_peers_never_raises(self, tmp_path):
        path = self._peers_file(tmp_path, ["http://127.0.0.1:1"])
        collector = FleetCollector(path, timeout_s=0.3, http_port=None)
        doc = collector.sweep()
        assert doc["summary"] == {
            "peers": 1,
            "up": 0,
            "degraded": 0,
            "down": 1,
            "rate_rps": 0.0,
            "alerts_firing": 0,
        }
        assert collector.doctor_doc()["exit_code"] == 1
        assert len(collector.history.points()) == 1

    def test_peers_file_reload_on_mtime_change(self, tmp_path):
        path = self._peers_file(tmp_path, ["http://a:1"])
        collector = FleetCollector(path, http_port=None)
        assert collector.peers == ["http://a:1"]
        assert collector.maybe_reload_peers() is False  # unchanged
        self._peers_file(tmp_path, ["http://a:1", "http://b:2"])
        self._touch(path)
        assert collector.maybe_reload_peers() is True
        assert collector.peers == ["http://a:1", "http://b:2"]
        assert (
            collector.recorder.counters[
                "service.collector.peer_set_reloads"
            ]
            == 1
        )

    def test_reload_keeps_old_set_on_broken_file(self, tmp_path):
        path = self._peers_file(tmp_path, ["http://a:1"])
        collector = FleetCollector(path, http_port=None)
        path.write_text('{"peers": 42}')
        self._touch(path)
        assert collector.maybe_reload_peers() is False
        assert collector.peers == ["http://a:1"]

    def test_standalone_http_surface(self, tmp_path):
        path = self._peers_file(tmp_path, [])
        collector = FleetCollector(
            path, interval_s=30.0, http_port=0
        )
        host, port = collector.start()
        base = f"http://{host}:{port}"
        try:
            status, body = _get(base, "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["role"] == "collector"
            status, body = _get(base, "/fleetz")
            assert json.loads(body)["schema"] == "repro.fleet/1"
            status, body = _get(base, "/fleet/doctor")
            assert json.loads(body)["schema"] == "repro.fleetdoctor/1"
            status, text = _get(base, "/fleet/metrics")
            assert text.startswith("# ")
            assert "repro_fleet_up" in text
            status, body = _get(base, "/fleet/history")
            assert json.loads(body)["schema"] == "repro.metrics.history/1"
        finally:
            collector.stop()


class TestCollectorAgainstLiveDaemon:
    """End-to-end: daemon sidecars -> collector -> fleet views, plus
    the exemplar -> trace-store retrieval loop."""

    def test_embedded_collector_and_exemplar_trace(
        self, tmp_path, design_files
    ):
        netlist, clocks = design_files
        peers_file = tmp_path / "peers.txt"
        peers_file.write_text("")  # filled in once ports are known
        collector = FleetCollector(
            peers_file, interval_s=30.0, timeout_s=2.0, http_port=None
        )
        daemon = TimingDaemon(
            str(tmp_path / "d.sock"),
            http_port=0,
            trace_dir=tmp_path / "traces",
            trace_sample=1.0,
            collector=collector,
        )
        with daemon:
            host, port = daemon.http_address
            base = f"http://{host}:{port}"
            with DaemonClient(str(tmp_path / "d.sock")) as client:
                assert client.analyze(netlist, clocks)["ok"]
                bad = client.request({"op": "analyze"})  # errored
                assert not bad["ok"]

            # The daemon's own sidecar now answers the fleet routes.
            peers_file.write_text(base + "\n")
            stamp = peers_file.stat().st_mtime + 10
            os.utime(peers_file, (stamp, stamp))
            status, body = _get(base, "/fleetz?refresh=1")
            assert status == 200
            fleet = json.loads(body)
            assert fleet["summary"]["up"] >= 1
            row = fleet["peers"][0]
            assert row["url"] == base
            assert row["state"] in ("up", "degraded")
            assert row["requests"] >= 2

            # /metrics carries an exemplar trace id; the trace store
            # serves that exact trace back over /traces/<id>.
            status, text = _get(base, "/metrics")
            ids = set(
                re.findall(r'# \{trace_id="([0-9a-f]{32})"\}', text)
            )
            assert ids, "no exemplars in /metrics"
            trace_id = sorted(ids)[0]
            status, body = _get(base, f"/traces/{trace_id}")
            assert status == 200
            doc = json.loads(body)
            assert doc["ok"] is True
            assert doc["trace"]["trace_id"] == trace_id
            assert doc["trace"]["schema"] == "repro.tracedoc/1"

            # The errored request was tail-kept and is listed.
            status, body = _get(base, "/traces")
            listing = json.loads(body)
            assert listing["ok"] is True
            assert any(
                row["status"] == "error" for row in listing["traces"]
            )

            # Unknown ids are a JSON 404, not a crash.
            missing = "0" * 32
            try:
                _get(base, f"/traces/{missing}")
            except urllib.error.HTTPError as err:
                assert err.code == 404
            else:  # pragma: no cover - store must not invent traces
                pytest.fail("expected 404 for unknown trace id")

            # Same data over the socket protocol.
            with DaemonClient(str(tmp_path / "d.sock")) as client:
                shown = client.traces(action="show", trace_id=trace_id)
                assert shown["ok"]
                assert shown["trace"]["trace_id"] == trace_id

    def test_standalone_collector_tracks_peer_death(
        self, tmp_path, design_files
    ):
        netlist, clocks = design_files
        sock_a = str(tmp_path / "a.sock")
        sock_b = str(tmp_path / "b.sock")
        with TimingDaemon(sock_a, http_port=0) as da, TimingDaemon(
            sock_b, http_port=0
        ) as db:
            bases = [
                f"http://{h}:{p}"
                for h, p in (da.http_address, db.http_address)
            ]
            peers_file = tmp_path / "peers.txt"
            peers_file.write_text("".join(f"{b}\n" for b in bases))
            with DaemonClient(sock_a) as client:
                client.analyze(netlist, clocks)
            collector = FleetCollector(
                peers_file, interval_s=30.0, timeout_s=1.0, http_port=0
            )
            host, port = collector.start()
            cbase = f"http://{host}:{port}"
            try:
                __, body = _get(cbase, "/fleetz?refresh=1")
                fleet = json.loads(body)
                assert fleet["summary"]["peers"] == 2
                assert fleet["summary"]["up"] == 2
                assert fleet["summary"]["down"] == 0

                db.stop()  # one peer dies
                __, body = _get(cbase, "/fleetz?refresh=1")
                fleet = json.loads(body)
                assert fleet["summary"]["up"] == 1
                assert fleet["summary"]["down"] == 1
                down = [
                    row
                    for row in fleet["peers"]
                    if row["state"] == "down"
                ]
                assert down[0]["url"] == bases[1]

                __, body = _get(cbase, "/fleet/doctor?refresh=1")
                assert json.loads(body)["exit_code"] == 1
            finally:
                collector.stop()
