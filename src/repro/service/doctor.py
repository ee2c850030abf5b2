"""``repro-sta doctor`` -- one-shot triage of a running timing daemon.

Split in fetch and render so the interesting part is testable without
a socket:

* :func:`fetch_doctor` -- one poll over the Unix socket bundling the
  ``health``, ``buildinfo``, ``flight`` and ``crash-report`` ops into a
  *doctor document* (``repro.doctor/1``),
* :func:`render_doctor` -- a **pure** renderer: document in, triage
  text out,
* :func:`doctor_exit_code` -- the CI contract: ``0`` healthy, ``1``
  when the stall watchdog has a request in flight past its deadline
  (``health.stalled``), ``2`` when the daemon has a crash report on
  disk (crash wins when both apply).

The point is a single command an operator (or the CI smoke job) runs
against a misbehaving daemon to answer "what is wrong *right now*":
stalled requests, the most recent crash postmortem (error frames plus
where it is persisted), and the tail of the flight recorder for the
seconds leading up to the incident.

Every sub-document degrades independently -- an ``ok=False`` answer is
kept and the renderer says so instead of crashing.
"""

from __future__ import annotations

import time
from typing import Dict, List

__all__ = [
    "DOCTOR_SCHEMA",
    "doctor_exit_code",
    "fetch_doctor",
    "render_doctor",
]

#: Schema identifier stamped on every doctor document.
DOCTOR_SCHEMA = "repro.doctor/1"

#: Flight-recorder events shown in the incident tail by default.
DEFAULT_FLIGHT_TAIL = 20


def fetch_doctor(
    client, flight_last: int = DEFAULT_FLIGHT_TAIL
) -> Dict[str, object]:
    """Poll one triage document from a :class:`DaemonClient`.

    ``ok=False`` sub-documents are kept verbatim (the renderer explains
    the degradation); socket-level errors propagate to the CLI wrapper.
    """
    return {
        "schema": DOCTOR_SCHEMA,
        "ts": time.time(),
        "health": client.health(),
        "buildinfo": client.buildinfo(),
        "flight": client.flight(last=flight_last),
        "crash": client.crash_report(),
    }


def doctor_exit_code(doc: Dict[str, object]) -> int:
    """CI verdict for a doctor document (see module docstring)."""
    crash = doc.get("crash") or {}
    if crash.get("ok") and crash.get("crash"):
        return 2
    if _stalled(doc):
        return 1
    return 0


def _stalled(doc: Dict[str, object]) -> int:
    """Requests the stall watchdog counts as stalled right now (0 when
    ``health`` failed or the daemon runs no watchdog)."""
    return int((doc.get("health") or {}).get("stalled") or 0)


def _fmt_age(now: float, ts: object) -> str:
    try:
        age = max(0.0, now - float(ts))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "?"
    if age < 60.0:
        return f"{age:.0f}s ago"
    if age < 3600.0:
        return f"{age / 60.0:.0f}m ago"
    return f"{age / 3600.0:.1f}h ago"


def _verdict_line(code: int) -> str:
    return {
        0: "verdict: HEALTHY (exit 0)",
        1: "verdict: DEGRADED -- request stalled (exit 1)",
        2: "verdict: CRASHED -- postmortem on disk (exit 2)",
    }[code]


def _crash_lines(doc: Dict[str, object], now: float) -> List[str]:
    crash_doc = doc.get("crash") or {}
    if not crash_doc.get("ok"):
        return ["crash    : (daemon too old for the crash-report op)"]
    crash = crash_doc.get("crash")
    if not isinstance(crash, dict):
        return ["crash    : none recorded"]
    error = crash.get("error") or {}
    lines = [
        f"crash    : {crash.get('kind', '?')} "
        f"[{error.get('error_type', '?')}] {error.get('error', '')}"
        f" ({_fmt_age(now, crash.get('ts'))})"
    ]
    frames = error.get("frames") or []
    if frames:
        last = frames[-1]
        lines.append(
            f"           at {last.get('file')}:{last.get('line')} "
            f"in {last.get('function')}"
        )
    if crash_doc.get("path"):
        lines.append(f"           report: {crash_doc['path']}")
    return lines


def _flight_lines(
    doc: Dict[str, object], now: float
) -> List[str]:
    flight_doc = doc.get("flight") or {}
    if not flight_doc.get("ok"):
        return ["flight   : (disabled on this daemon)"]
    events = flight_doc.get("events") or []
    header = (
        f"flight   : last {len(events)} of "
        f"{flight_doc.get('total', len(events))} events "
        f"({flight_doc.get('dropped', 0)} dropped)"
    )
    lines = [header]
    for entry in events:
        if not isinstance(entry, dict):
            continue
        kind = str(entry.get("kind", "?"))
        detail = {
            "request": lambda e: (
                f"{e.get('op')} design={e.get('design') or '-'} "
                f"{e.get('status')} {float(e.get('duration_ms') or 0.0):.1f}ms"
            ),
            "error": lambda e: (
                f"{(e.get('error') or {}).get('error_type')}: "
                f"{(e.get('error') or {}).get('error')}"
            ),
            "stall": lambda e: (
                f"{e.get('op')} {e.get('status')} "
                f"waited {float(e.get('waited_s') or 0.0):.1f}s"
            ),
            "log": lambda e: str(e.get("message", "")),
        }.get(kind, lambda e: "")
        try:
            text = detail(entry)
        except (TypeError, ValueError):
            text = ""
        lines.append(
            f"  {_fmt_age(now, entry.get('ts')):>9}  {kind:<8} {text}"[:100]
        )
    return lines


def render_doctor(
    doc: Dict[str, object], width: int = 72
) -> str:
    """Render one doctor document as plain triage text (pure)."""
    now = float(doc.get("ts") or time.time())
    health = doc.get("health") or {}
    build = doc.get("buildinfo") or {}
    lines: List[str] = []
    rule = "-" * width

    lines.append(
        f"repro doctor | daemon pid {health.get('pid', '?')} | "
        f"up {float(health.get('uptime_s', 0.0) or 0.0):.0f}s | "
        f"version {build.get('version', '?')}"
    )
    lines.append(_verdict_line(doctor_exit_code(doc)))
    lines.append(rule)

    lines.append(
        f"requests : {int(health.get('requests', 0))} total, "
        f"{int(health.get('errors', 0))} errors, "
        f"{int(health.get('in_flight', 0))} in flight"
    )
    deadline = (build.get("config") or {}).get("stall_timeout_s")
    lines.append(
        f"stalls   : {_stalled(doc)} stalled "
        + (f"(deadline {deadline}s)" if deadline else "(no watchdog)")
    )
    lines.extend(_crash_lines(doc, now))
    lines.append(rule)
    lines.extend(_flight_lines(doc, now))
    return "\n".join(lines)
