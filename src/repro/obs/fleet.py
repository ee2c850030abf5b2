"""Fleet-level aggregation of per-daemon observability documents.

This module makes the *telemetry* of several daemons one view.
Everything here is **pure**: the HTTP scraping lives in
:mod:`repro.service.collector`, and these functions turn the scraped
per-peer documents (``/healthz``, ``/metrics/history``, ``/alertz``,
``/crashz``) into:

* a **fleet document** (schema ``repro.fleet/1``) -- one row per peer
  with its up/down/degraded state, request rate, latency quantiles,
  cache hit rate and firing alerts, plus a fleet summary --
  served on ``GET /fleetz`` and rendered by ``repro-sta fleet``;
* a **fleet doctor document** (schema ``repro.fleetdoctor/1``) --
  every peer's triage verdict aggregated into one exit code
  (``repro-sta doctor --fleet``).

Degradation contract (satellite requirement): a peer that times out,
returns malformed JSON or vanishes mid-scrape is marked ``down`` with
its error string; the other peers' rows are unaffected, and nothing in
here raises into the collector loop.

Peer state ladder:

* ``up`` -- scrape succeeded, no alerts firing;
* ``degraded`` -- scrape succeeded but the peer reports firing alerts
  (or its alert engine is unreachable while health is fine);
* ``down`` -- the scrape itself failed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

__all__ = [
    "FLEET_SCHEMA",
    "FLEET_DOCTOR_SCHEMA",
    "load_peers",
    "peer_row",
    "build_fleet_doc",
    "render_fleet",
    "build_fleet_doctor",
    "fleet_doctor_exit_code",
    "render_fleet_doctor",
]

#: Schema of the aggregated fleet view (``GET /fleetz``).
FLEET_SCHEMA = "repro.fleet/1"
#: Schema of the aggregated triage document (``doctor --fleet``).
FLEET_DOCTOR_SCHEMA = "repro.fleetdoctor/1"

#: Counter whose per-point deltas give the request rate.
_REQUESTS = "service.daemon.requests"
#: Histogram whose quantiles feed the latency columns.
_LATENCY = "service.daemon.request_seconds"


def load_peers(path: Union[str, Path]) -> List[str]:
    """Parse a peers file into a normalised, deduplicated URL list.

    Two formats are accepted (``--peers-file`` of ``serve --collect``,
    ``collect``, ``fleet`` and ``doctor --fleet``):

    * plain text -- one base URL per line, ``#`` comments and blank
      lines ignored;
    * JSON -- either a bare list of URLs or ``{"peers": [...]}``.

    URLs are normalised (surrounding whitespace and trailing ``/``
    stripped) and deduplicated preserving first-seen order.
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    raw: Sequence[object]
    if stripped.startswith(("[", "{")):
        parsed = json.loads(text)
        if isinstance(parsed, dict):
            parsed = parsed.get("peers") or []
        if not isinstance(parsed, list):
            raise ValueError(
                "JSON peers file must be a list or {'peers': [...]}"
            )
        raw = parsed
    else:
        raw = [
            line.partition("#")[0]
            for line in text.splitlines()
        ]
    peers: List[str] = []
    seen = set()
    for entry in raw:
        url = str(entry).strip().rstrip("/")
        if url and url not in seen:
            seen.add(url)
            peers.append(url)
    return peers


def _rate_from_history(
    history: Optional[Dict[str, object]]
) -> float:
    """Requests/s from the two newest history points (rebased on
    counter resets -- a restarted peer reports its count-since-restart
    over the window instead of a clamped zero)."""
    points = (history or {}).get("points") or []
    if len(points) < 2:
        return 0.0
    earlier, later = points[-2], points[-1]
    try:
        dt = float(later["ts"]) - float(earlier["ts"])
        now = float((later.get("counters") or {}).get(_REQUESTS, 0.0))
        before = float((earlier.get("counters") or {}).get(_REQUESTS, 0.0))
    except (KeyError, TypeError, ValueError):
        return 0.0
    if dt <= 0.0:
        return 0.0
    delta = now - before
    if delta < 0.0:
        delta = now
    return delta / dt


def _latency_from_history(
    history: Optional[Dict[str, object]]
) -> Dict[str, float]:
    points = (history or {}).get("points") or []
    if not points:
        return {"p50_s": 0.0, "p95_s": 0.0, "count": 0}
    row = ((points[-1].get("histograms") or {}).get(_LATENCY)) or {}
    try:
        return {
            "p50_s": float(row.get("p50", 0.0)),
            "p95_s": float(row.get("p95", 0.0)),
            "count": int(row.get("count", 0)),
        }
    except (TypeError, ValueError):
        return {"p50_s": 0.0, "p95_s": 0.0, "count": 0}


def _last_point(
    history: Optional[Dict[str, object]]
) -> Dict[str, object]:
    points = (history or {}).get("points") or []
    return points[-1] if points else {}


def _cache_hit_rate(point: Dict[str, object]) -> Optional[float]:
    counters = point.get("counters") or {}
    try:
        hits = float(counters.get("service.cache.hits", 0.0))
        misses = float(counters.get("service.cache.misses", 0.0))
    except (TypeError, ValueError):
        return None
    total = hits + misses
    return hits / total if total > 0 else None


def _firing_names(alertz: Optional[Dict[str, object]]) -> List[str]:
    if not alertz or not alertz.get("ok", True):
        return []
    return [
        str(row.get("name", "?"))
        for row in alertz.get("alerts") or []
        if isinstance(row, dict) and row.get("state") == "firing"
    ]


def peer_row(
    url: str, scrape: Dict[str, object]
) -> Dict[str, object]:
    """One ``repro.fleet/1`` peer row from a scrape result.

    ``scrape`` is what :func:`repro.service.collector.scrape_peer`
    returns: ``{"ok", "error", "healthz", "history", "alertz",
    "crashz"}`` with failed sub-documents ``None``.
    """
    if not scrape.get("ok"):
        return {
            "url": url,
            "state": "down",
            "error": scrape.get("error") or "unreachable",
        }
    healthz = scrape.get("healthz") or {}
    history = scrape.get("history")
    firing = _firing_names(scrape.get("alertz"))
    point = _last_point(history)
    return {
        "url": url,
        "state": "degraded" if firing else "up",
        "error": None,
        "pid": healthz.get("pid"),
        "uptime_s": healthz.get("uptime_s"),
        "requests": healthz.get("requests"),
        "errors": healthz.get("errors"),
        "in_flight": healthz.get("in_flight"),
        "designs": healthz.get("designs_loaded"),
        "rate_rps": round(_rate_from_history(history), 3),
        "latency": _latency_from_history(history),
        "cache_hit_rate": _cache_hit_rate(point),
        "alerts_firing": firing,
    }


def build_fleet_doc(
    scrapes: Dict[str, Dict[str, object]],
    ts: Optional[float] = None,
) -> Dict[str, object]:
    """The ``repro.fleet/1`` document for one scrape sweep.

    ``scrapes`` maps peer URL -> scrape result (insertion order is the
    peers-file order and is preserved in the rows).
    """
    rows = [peer_row(url, scrape) for url, scrape in scrapes.items()]
    states = [str(row.get("state")) for row in rows]
    return {
        "schema": FLEET_SCHEMA,
        "ts": ts if ts is not None else time.time(),
        "peers": rows,
        "summary": {
            "peers": len(rows),
            "up": states.count("up"),
            "degraded": states.count("degraded"),
            "down": states.count("down"),
            "rate_rps": round(
                sum(float(row.get("rate_rps") or 0.0) for row in rows), 3
            ),
            "alerts_firing": sum(
                len(row.get("alerts_firing") or ()) for row in rows
            ),
        },
    }


def _fmt_ms(value: object) -> str:
    try:
        return f"{float(value) * 1000.0:7.1f}"
    except (TypeError, ValueError):
        return f"{'-':>7}"


def _fmt_pct(value: object) -> str:
    try:
        return f"{float(value):6.1%}"
    except (TypeError, ValueError):
        return f"{'-':>6}"


_STATE_MARK = {"up": "  ", "degraded": "!!", "down": "??"}


def render_fleet(doc: Dict[str, object], width: int = 100) -> str:
    """Render one fleet document as a multi-peer dashboard (pure)."""
    summary = doc.get("summary") or {}
    lines: List[str] = []
    lines.append(
        f"repro fleet | {summary.get('peers', 0)} peers: "
        f"{summary.get('up', 0)} up, "
        f"{summary.get('degraded', 0)} degraded, "
        f"{summary.get('down', 0)} down | "
        f"{float(summary.get('rate_rps') or 0.0):.1f} req/s total | "
        f"{summary.get('alerts_firing', 0)} alerts firing"
    )
    lines.append("-" * width)
    lines.append(
        f"   {'PEER':<28}{'STATE':<10}{'REQ/S':>7}{'P50ms':>8}"
        f"{'P95ms':>8}{'CACHE':>7}  ALERTS"
    )
    for row in doc.get("peers") or []:
        state = str(row.get("state", "?"))
        mark = _STATE_MARK.get(state, "  ")
        if state == "down":
            lines.append(
                f"{mark} {str(row.get('url', '?')):<28}{state:<10}"
                f"{'-':>7}{'-':>8}{'-':>8}{'-':>7}  "
                f"({row.get('error') or 'unreachable'})"[:width]
            )
            continue
        latency = row.get("latency") or {}
        firing = row.get("alerts_firing") or []
        lines.append(
            f"{mark} {str(row.get('url', '?')):<28}{state:<10}"
            f"{float(row.get('rate_rps') or 0.0):7.1f}"
            f"{_fmt_ms(latency.get('p50_s'))}"
            f"{_fmt_ms(latency.get('p95_s'))}"
            f"{_fmt_pct(row.get('cache_hit_rate'))}  "
            f"{', '.join(firing) if firing else '-'}"[:width]
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# fleet doctor
# ----------------------------------------------------------------------
def _peer_verdict(scrape: Dict[str, object]) -> Dict[str, object]:
    """Per-peer triage: exit-code contribution + human reasons."""
    if not scrape.get("ok"):
        return {
            "code": 1,
            "reasons": [f"down: {scrape.get('error') or 'unreachable'}"],
        }
    reasons: List[str] = []
    code = 0
    crashz = scrape.get("crashz") or {}
    if isinstance(crashz.get("crash"), dict):
        crash = crashz["crash"]
        error = crash.get("error") or {}
        reasons.append(
            f"crash report on disk: {crash.get('kind', '?')} "
            f"[{error.get('error_type', '?')}]"
        )
        code = 2
    firing = _firing_names(scrape.get("alertz"))
    if firing:
        reasons.append(f"alerts firing: {', '.join(firing)}")
        code = max(code, 1)
    return {"code": code, "reasons": reasons}


def build_fleet_doctor(
    scrapes: Dict[str, Dict[str, object]],
    ts: Optional[float] = None,
) -> Dict[str, object]:
    """The ``repro.fleetdoctor/1`` document: per-peer verdicts + the
    fleet-wide exit code (the worst peer wins; a down peer is at least
    exit 1)."""
    peers = []
    worst = 0
    for url, scrape in scrapes.items():
        verdict = _peer_verdict(scrape)
        worst = max(worst, int(verdict["code"]))
        healthz = scrape.get("healthz") or {}
        peers.append(
            {
                "url": url,
                "state": (
                    "down"
                    if not scrape.get("ok")
                    else ("degraded" if verdict["code"] else "up")
                ),
                "code": verdict["code"],
                "reasons": verdict["reasons"],
                "pid": healthz.get("pid"),
                "uptime_s": healthz.get("uptime_s"),
            }
        )
    return {
        "schema": FLEET_DOCTOR_SCHEMA,
        "ts": ts if ts is not None else time.time(),
        "peers": peers,
        "exit_code": worst,
    }


def fleet_doctor_exit_code(doc: Dict[str, object]) -> int:
    try:
        return int(doc.get("exit_code", 0))
    except (TypeError, ValueError):
        return 1


_VERDICTS = {
    0: "verdict: HEALTHY (exit 0)",
    1: "verdict: DEGRADED (exit 1)",
    2: "verdict: CRASHED (exit 2)",
}


def render_fleet_doctor(doc: Dict[str, object], width: int = 80) -> str:
    """Render one fleet doctor document as triage text (pure)."""
    code = fleet_doctor_exit_code(doc)
    peers = doc.get("peers") or []
    lines = [
        f"repro fleet doctor | {len(peers)} peers",
        _VERDICTS.get(code, _VERDICTS[1]),
        "-" * width,
    ]
    for row in peers:
        state = str(row.get("state", "?"))
        mark = _STATE_MARK.get(state, "  ")
        head = (
            f"{mark} {str(row.get('url', '?')):<28}{state:<10}"
            f"exit {row.get('code', '?')}"
        )
        lines.append(head)
        for reason in row.get("reasons") or []:
            lines.append(f"     - {reason}"[:width])
    return "\n".join(lines)
