"""Fleet collector: scrapes peer sidecars into one aggregated view.

The per-daemon telemetry sidecar (PR 4-8) answers ``/healthz``,
``/metrics/history``, ``/alertz`` and ``/crashz`` for *one* process.
This module adds the fleet layer on top:

* :func:`scrape_peer` pulls those documents from one peer over HTTP,
  degrading per the fleet contract (timeout / malformed JSON / vanished
  peer -> ``ok: False`` with the error string; a failing *auxiliary*
  endpoint leaves the peer up with that sub-document ``None``);
* :func:`scrape_fleet` sweeps a whole peer list (used by the one-shot
  ``repro-sta fleet --once`` / ``doctor --fleet`` paths);
* :class:`FleetCollector` runs that sweep on the metrics-history
  cadence in a background thread, re-reads its ``--peers-file`` when
  the file's mtime changes (``service.collector.peer_set_reloads``),
  keeps a fleet-level :class:`~repro.obs.tsdb.MetricsHistory`, and
  serves ``/fleetz``, ``/fleet/doctor``, ``/fleet/metrics``,
  ``/fleet/history`` and ``/healthz`` -- either on its own
  :class:`~repro.service.httpmon.RouteHTTPServer` (``repro-sta
  collect``) or merged into a daemon's sidecar (``serve --collect``).

Nothing in the scrape loop is allowed to raise: a bad peer becomes a
``down`` row, a bad sweep becomes ``service.collector.scrape_errors``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs import recorder as obs_recorder
from repro.obs.fleet import (
    build_fleet_doc,
    build_fleet_doctor,
    load_peers,
)
from repro.obs.metrics import render_prometheus
from repro.obs.recorder import Recorder
from repro.obs.tsdb import MetricsHistory
from repro.service.httpmon import RouteHTTPServer, RouteTable

__all__ = [
    "COLLECTOR_HEALTH_SCHEMA",
    "scrape_peer",
    "scrape_fleet",
    "FleetCollector",
]

#: Schema of the collector's own ``/healthz`` document.
COLLECTOR_HEALTH_SCHEMA = "repro.collector.health/1"

#: Counter namespace (see docs/observability.md).
COUNTER_PREFIX = "service.collector"

#: Endpoints scraped from every peer beyond the gating ``/healthz``.
#: Each is optional: a failure leaves the peer up with the entry None.
_AUX_ENDPOINTS = (
    ("history", "/metrics/history?last={history_last}"),
    ("alertz", "/alertz"),
    ("crashz", "/crashz"),
)


def _count(name: str, value: float = 1.0) -> None:
    obs_recorder.counter(f"{COUNTER_PREFIX}.{name}", value)


def _get_json(url: str, timeout_s: float) -> Dict[str, object]:
    """GET ``url`` and parse the body as a JSON object (raises on any
    failure -- callers classify)."""
    with urllib.request.urlopen(url, timeout=timeout_s) as resp:
        body = resp.read()
    document = json.loads(body.decode("utf-8"))
    if not isinstance(document, dict):
        raise ValueError("response body is not a JSON object")
    return document


def scrape_peer(
    url: str,
    timeout_s: float = 2.0,
    history_last: int = 5,
) -> Dict[str, object]:
    """Scrape one peer's sidecar into a fleet scrape result.

    ``/healthz`` is the up/down gate: if it cannot be fetched and
    parsed the peer is ``down`` and nothing else is attempted.  The
    auxiliary endpoints are best-effort -- an old daemon may lack
    ``/crashz`` -- so their failures leave that sub-document ``None``.
    """
    base = url.rstrip("/")
    scrape: Dict[str, object] = {
        "ok": False,
        "error": None,
        "healthz": None,
        "history": None,
        "alertz": None,
        "crashz": None,
    }
    try:
        scrape["healthz"] = _get_json(f"{base}/healthz", timeout_s)
    except Exception as exc:  # noqa: BLE001 -- classified into the row
        scrape["error"] = f"{type(exc).__name__}: {exc}"
        _count("scrape_errors")
        return scrape
    scrape["ok"] = True
    for key, suffix in _AUX_ENDPOINTS:
        endpoint = suffix.format(history_last=history_last)
        try:
            scrape[key] = _get_json(f"{base}{endpoint}", timeout_s)
        except Exception:  # noqa: BLE001 -- peer stays up
            scrape[key] = None
    _count("scrapes")
    return scrape


def scrape_fleet(
    peers: List[str],
    timeout_s: float = 2.0,
    history_last: int = 5,
) -> "OrderedDict[str, Dict[str, object]]":
    """Scrape every peer; insertion order follows the peers list."""
    scrapes: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
    for url in peers:
        scrapes[url] = scrape_peer(
            url, timeout_s=timeout_s, history_last=history_last
        )
    return scrapes


class FleetCollector:
    """Background fleet scraper + aggregated HTTP surface.

    Parameters
    ----------
    peers_file:
        Path parsed by :func:`repro.obs.fleet.load_peers`; re-read on
        mtime change before every sweep.
    interval_s:
        Scrape cadence -- defaults to the metrics-history cadence so
        the fleet view and the per-peer tsdb ring stay in step.
    http_port:
        Port for the collector's own HTTP server, or ``None`` to run
        embedded (``serve --collect`` merges :meth:`routes` into the
        daemon sidecar instead).
    """

    def __init__(
        self,
        peers_file: Union[str, Path],
        interval_s: float = 5.0,
        timeout_s: float = 2.0,
        history_last: int = 5,
        http_port: Optional[int] = 0,
        http_host: str = "127.0.0.1",
        history_capacity: int = 720,
    ) -> None:
        self.peers_file = Path(peers_file)
        self.interval_s = float(interval_s)
        self.timeout_s = float(timeout_s)
        self.history_last = int(history_last)
        self.peers: List[str] = load_peers(self.peers_file)
        self._peers_mtime = self._mtime()
        self.recorder = Recorder()
        self.history = MetricsHistory(
            capacity=history_capacity, interval_s=self.interval_s
        )
        self._lock = threading.Lock()
        self._fleet_doc: Optional[Dict[str, object]] = None
        self._doctor_doc: Optional[Dict[str, object]] = None
        self._sweeps = 0
        self._started = time.time()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.server: Optional[RouteHTTPServer] = None
        if http_port is not None:
            table = RouteTable()
            for path, route in self.routes().items():
                table.add_simple(path, route)
            self.server = RouteHTTPServer(
                table, port=http_port, host=http_host
            )

    # ------------------------------------------------------------------
    # peers-file reload
    # ------------------------------------------------------------------
    def _mtime(self) -> Optional[float]:
        try:
            return self.peers_file.stat().st_mtime
        except OSError:
            return None

    def maybe_reload_peers(self) -> bool:
        """Re-read the peers file when its mtime changed; True on a
        reload (counted as ``service.collector.peer_set_reloads``)."""
        mtime = self._mtime()
        if mtime is None or mtime == self._peers_mtime:
            return False
        try:
            peers = load_peers(self.peers_file)
        except (OSError, ValueError, json.JSONDecodeError):
            return False
        self._peers_mtime = mtime
        if peers == self.peers:
            return False
        self.peers = peers
        _count("peer_set_reloads")
        self.recorder.counter(f"{COUNTER_PREFIX}.peer_set_reloads")
        return True

    # ------------------------------------------------------------------
    # scrape sweep
    # ------------------------------------------------------------------
    def sweep(self) -> Dict[str, object]:
        """One scrape of every peer; updates the cached fleet + doctor
        documents, the collector gauges and the fleet history ring.
        Never raises."""
        try:
            self.maybe_reload_peers()
            scrapes = scrape_fleet(
                self.peers,
                timeout_s=self.timeout_s,
                history_last=self.history_last,
            )
            fleet_doc = build_fleet_doc(scrapes)
            doctor_doc = build_fleet_doctor(scrapes)
            summary = fleet_doc.get("summary") or {}
            self.recorder.counter(f"{COUNTER_PREFIX}.sweeps")
            self.recorder.gauge(
                "fleet.peers", float(summary.get("peers", 0))
            )
            self.recorder.gauge("fleet.up", float(summary.get("up", 0)))
            self.recorder.gauge(
                "fleet.degraded", float(summary.get("degraded", 0))
            )
            self.recorder.gauge(
                "fleet.down", float(summary.get("down", 0))
            )
            self.recorder.gauge(
                "fleet.rate_rps", float(summary.get("rate_rps", 0.0))
            )
            self.recorder.gauge(
                "fleet.alerts_firing",
                float(summary.get("alerts_firing", 0)),
            )
            self.history.record(self.recorder)
            with self._lock:
                self._fleet_doc = fleet_doc
                self._doctor_doc = doctor_doc
                self._sweeps += 1
            return fleet_doc
        except Exception:  # noqa: BLE001 -- loop must survive anything
            _count("scrape_errors")
            self.recorder.counter(f"{COUNTER_PREFIX}.scrape_errors")
            with self._lock:
                return self._fleet_doc or build_fleet_doc({})

    # ------------------------------------------------------------------
    # cached views
    # ------------------------------------------------------------------
    def fleet_doc(self) -> Dict[str, object]:
        with self._lock:
            doc = self._fleet_doc
        return doc if doc is not None else self.sweep()

    def doctor_doc(self) -> Dict[str, object]:
        with self._lock:
            doc = self._doctor_doc
        if doc is not None:
            return doc
        self.sweep()
        with self._lock:
            return self._doctor_doc or build_fleet_doctor({})

    def health(self) -> Dict[str, object]:
        with self._lock:
            sweeps = self._sweeps
        return {
            "schema": COLLECTOR_HEALTH_SCHEMA,
            "ok": True,
            "role": "collector",
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self._started, 3),
            "peers": list(self.peers),
            "peers_file": str(self.peers_file),
            "interval_s": self.interval_s,
            "sweeps": sweeps,
        }

    # ------------------------------------------------------------------
    # HTTP surface
    # ------------------------------------------------------------------
    def routes(self) -> Dict[str, Callable[[Dict[str, str]], Tuple[str, str]]]:
        """Simple sidecar routes (path -> Route); merged into either
        the collector's own server or a hosting daemon's sidecar."""

        def fleetz(params: Dict[str, str]) -> Tuple[str, str]:
            if params.get("refresh") in ("1", "true"):
                self.sweep()
            return "application/json", json.dumps(self.fleet_doc())

        def fleet_doctor(params: Dict[str, str]) -> Tuple[str, str]:
            if params.get("refresh") in ("1", "true"):
                self.sweep()
            return "application/json", json.dumps(self.doctor_doc())

        def fleet_metrics(params: Dict[str, str]) -> Tuple[str, str]:
            # The standard "repro" prefix: the fleet.* gauges come out
            # as repro_fleet_up etc., consistent with /metrics naming.
            return (
                "text/plain; version=0.0.4",
                render_prometheus(self.recorder, prefix="repro"),
            )

        def fleet_history(params: Dict[str, str]) -> Tuple[str, str]:
            last = None
            if "last" in params:
                last = int(params["last"])
            return (
                "application/json",
                json.dumps(self.history.to_dict(last)),
            )

        def healthz(params: Dict[str, str]) -> Tuple[str, str]:
            return "application/json", json.dumps(self.health())

        return {
            "/fleetz": fleetz,
            "/fleet/doctor": fleet_doctor,
            "/fleet/metrics": fleet_metrics,
            "/fleet/history": fleet_history,
            "/healthz": healthz,
        }

    def embedded_routes(
        self,
    ) -> Dict[str, Callable[[Dict[str, str]], Tuple[str, str]]]:
        """Routes for merging into a daemon sidecar -- everything
        except ``/healthz`` (the daemon already serves its own)."""
        routes = self.routes()
        routes.pop("/healthz", None)
        return routes

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Optional[Tuple[str, int]]:
        return self.server.address if self.server else None

    def start(self) -> Optional[Tuple[str, int]]:
        if self._thread is not None:
            raise RuntimeError("collector already started")
        address = self.server.start() if self.server else None
        self._stop.clear()

        def _run() -> None:
            while not self._stop.is_set():
                self.sweep()
                self._stop.wait(self.interval_s)

        self._thread = threading.Thread(
            target=_run, name="repro-fleet-collector", daemon=True
        )
        self._thread.start()
        return address

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        self._thread = None
        if thread is not None:
            thread.join(timeout=5.0)
        if self.server is not None:
            self.server.stop()
