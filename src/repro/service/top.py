"""``repro-sta top`` -- a live dashboard for a running timing daemon.

Split in two so the interesting part is testable without a terminal:

* :func:`fetch_frame` -- one poll over the Unix socket: the ``health``,
  ``stats`` and ``metrics`` ops plus a wall timestamp, bundled into a
  plain *frame* dict,
* :func:`render_top` -- a **pure** renderer: frame (+ the previous
  frame for rates) in, multi-line text out.  No ANSI, no sleeping, no
  sockets -- the CLI wrapper (:mod:`repro.cli`) owns the
  clear-screen/redraw loop.

The renderer derives everything from daemon telemetry:

* request throughput (``requests`` delta between frames / elapsed),
* p50/p95 request, handle and queue-wait latency from the
  ``service.daemon.*_seconds`` histogram buckets
  (:func:`repro.obs.hist.quantile_from_counts` -- same linear
  interpolation Prometheus' ``histogram_quantile`` uses),
* cache hit rate, per-design warm/in-flight table, worker liveness,
* trend sparklines from the daemon's metrics ring buffer (the
  ``history`` op / ``GET /metrics/history``): request rate and p95
  latency over the retained window,
* alert banners from the in-daemon alert engine (the ``alerts`` op):
  pending/firing rules render at the top of the frame, and a daemon
  restart (new pid or uptime going backwards) gets an explicit
  "daemon restarted (uptime reset)" notice instead of silently
  negative deltas -- rates and trends *rebase* across the reset: the
  post-restart counter value is itself the delta since the restart,
  so the dashboard shows the true restart-window rate instead of a
  misleading zero.

``repro-sta top --json`` skips the renderer entirely and emits
:func:`json_frame` -- one machine-readable JSON object per refresh with
the raw sub-documents plus the derived rate/quantiles, so scripts and
CI consume the same data the human dashboard shows without scraping.

A frame whose ``metrics`` op was refused still renders: the latency
block degrades to ``telemetry disabled``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.obs.hist import quantile_from_counts

__all__ = ["fetch_frame", "json_frame", "render_top", "sparkline"]

#: Eight-level bar glyphs, lowest to highest.
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Histograms rendered in the latency block, in display order.
_LATENCY_ROWS = (
    ("request", "service.daemon.request_seconds"),
    ("handle", "service.daemon.handle_seconds"),
    ("queue-wait", "service.daemon.queue_wait_seconds"),
    # Locked analyze/mutate/report path only; the gap between this row
    # and queue-wait is the traffic the snapshot read path absorbed.
    ("lock-wait", "service.daemon.lock_wait_seconds"),
)


def fetch_frame(client) -> Dict[str, object]:
    """Poll one dashboard frame from a :class:`DaemonClient`.

    Never raises on an ``ok=False`` op response -- the degraded
    sub-document is kept so the renderer can say why a block is empty.
    Socket-level errors *do* propagate; the CLI loop reports them and
    retries.
    """
    return {
        "ts": time.time(),
        "health": client.health(),
        "stats": client.stats(),
        "metrics": client.metrics(),
        # Ring-buffer trends for the sparkline block; ok=False on old
        # daemons / telemetry-off, which the renderer degrades around.
        "history": client.history(last=60),
        # Alert-engine rows for the banner block; same degradation
        # contract (ok=False on daemons without an alert engine).
        "alerts": client.alerts(),
    }


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Render ``values`` as a fixed-width unicode sparkline.

    The newest ``width`` values are kept; the scale is min..max of the
    rendered window (a flat series renders as all-low bars).  Empty
    input yields ``width`` spaces so columns stay aligned.
    """
    values = [float(v) for v in values][-width:]
    if not values:
        return " " * width
    low = min(values)
    high = max(values)
    span = high - low
    chars = []
    for value in values:
        if span <= 0.0:
            chars.append(_SPARK_GLYPHS[0])
            continue
        level = int((value - low) / span * (len(_SPARK_GLYPHS) - 1))
        chars.append(_SPARK_GLYPHS[level])
    return "".join(chars).rjust(width)


def _history_series(
    frame: Dict[str, object],
) -> Optional[Dict[str, List[float]]]:
    """Derived trend series from the frame's history sub-document.

    * ``rate``: per-interval deltas of ``service.daemon.requests``
      (rebased across daemon restarts: a backwards step means the
      counter reset, so the new absolute value *is* the delta since
      the restart),
    * ``p95``: ``service.daemon.request_seconds`` p95 per snapshot.

    Returns ``None`` when the daemon served no usable history.
    """
    history = frame.get("history") or {}
    if not history.get("ok"):
        return None
    points = history.get("points") or []
    if len(points) < 2:
        return None
    requests = [
        float((p.get("counters") or {}).get("service.daemon.requests", 0.0))
        for p in points
    ]
    p95 = [
        float(
            ((p.get("histograms") or {}).get(
                "service.daemon.request_seconds"
            ) or {}).get("p95", 0.0)
        )
        for p in points
    ]
    rate = [
        later - earlier if later >= earlier else later
        for earlier, later in zip(requests, requests[1:])
    ]
    return {"rate": rate, "p95": p95[1:]}


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 0.001:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _fmt_uptime(seconds: float) -> str:
    seconds = max(0.0, float(seconds))
    minutes, secs = divmod(int(seconds), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m{secs:02d}s"
    if minutes:
        return f"{minutes}m{secs:02d}s"
    return f"{seconds:.1f}s"


def _quantiles(histogram: Dict[str, object]) -> Dict[str, float]:
    bounds = list(histogram.get("bounds") or ())
    counts = list(histogram.get("counts") or ())
    if not bounds or len(counts) != len(bounds) + 1:
        return {}
    # The observed max clamps quantiles landing in the +Inf overflow
    # bucket, so p50/p95 stay finite even when every sample exceeded
    # the last bound (e.g. all requests slower than 60s).
    overflow = (
        float(histogram["max"]) if histogram.get("count") else None
    ) if "max" in histogram else None
    return {
        "p50": quantile_from_counts(bounds, counts, 0.50, overflow=overflow),
        "p95": quantile_from_counts(bounds, counts, 0.95, overflow=overflow),
        "count": float(histogram.get("count", 0)),
        "mean": (
            float(histogram.get("sum", 0.0)) / float(histogram["count"])
            if histogram.get("count")
            else 0.0
        ),
        "max": float(histogram.get("max", 0.0)),
    }


def _rate(
    frame: Dict[str, object], previous: Optional[Dict[str, object]]
) -> Optional[float]:
    """Requests per second between two frames (``None`` on frame 1).

    A backwards count means the daemon restarted mid-window; the new
    absolute count is then the delta since the restart (rebase), so a
    restarted-but-busy daemon shows its real rate, not a stale zero.
    """
    if not previous:
        return None
    try:
        dt = float(frame["ts"]) - float(previous["ts"])
        now = int(frame["health"]["requests"])
        dreq = now - int(previous["health"]["requests"])
    except (KeyError, TypeError, ValueError):
        return None
    if dt <= 0.0:
        return None
    if dreq < 0:
        dreq = now
    return max(0.0, dreq / dt)


def _restarted(
    frame: Dict[str, object], previous: Optional[Dict[str, object]]
) -> bool:
    """Did the daemon restart between ``previous`` and ``frame``?

    A new pid or an uptime that went *backwards* both mean the process
    we were watching is gone; counters reset to zero, so naive deltas
    would go negative (the rate/trend helpers already clamp at zero --
    this just lets the renderer say *why*).
    """
    if not previous:
        return False
    try:
        old_health = previous.get("health") or {}
        new_health = frame.get("health") or {}
        if "pid" in old_health and "pid" in new_health:
            if int(old_health["pid"]) != int(new_health["pid"]):
                return True
        return float(new_health.get("uptime_s", 0.0)) < float(
            old_health.get("uptime_s", 0.0)
        )
    except (TypeError, ValueError):
        return False


def _alert_rows(frame: Dict[str, object]) -> List[Dict[str, object]]:
    """Pending/firing alert rows from the frame (empty when healthy)."""
    doc = frame.get("alerts") or {}
    if not doc.get("ok"):
        return []
    return [
        row
        for row in doc.get("alerts") or []
        if isinstance(row, dict) and row.get("state") in ("firing", "pending")
    ]


def render_top(
    frame: Dict[str, object],
    previous: Optional[Dict[str, object]] = None,
    width: int = 72,
) -> str:
    """Render one dashboard frame as plain text (pure function)."""
    health = frame.get("health") or {}
    stats = frame.get("stats") or {}
    metrics_doc = frame.get("metrics") or {}
    lines: List[str] = []
    rule = "-" * width

    clock = time.strftime("%H:%M:%S", time.localtime(frame.get("ts", 0)))
    lines.append(
        f"repro top | daemon pid {health.get('pid', '?')} | "
        f"up {_fmt_uptime(health.get('uptime_s', 0.0))} | {clock}"
    )
    lines.append(rule)

    # -- self-diagnosis banners ----------------------------------------
    if _restarted(frame, previous):
        lines.append("!! daemon restarted (uptime reset) -- rates rebased")
    for row in _alert_rows(frame):
        marker = "!!" if row.get("state") == "firing" else "??"
        ack = " [acked]" if row.get("acked") else ""
        message = str(row.get("message") or row.get("description") or "")
        lines.append(
            f"{marker} alert {row.get('state')} "
            f"[{row.get('severity', '?')}] {row.get('name')}{ack}: "
            f"{message}"[:width]
        )

    rate = _rate(frame, previous)
    rate_text = f"{rate:6.2f} req/s" if rate is not None else "  --  req/s"
    lines.append(
        f"requests {int(health.get('requests', 0)):>7}   "
        f"{rate_text}   errors {int(health.get('errors', 0)):>4}   "
        f"in-flight {int(health.get('in_flight', 0)):>3}   "
        f"designs {int(health.get('designs_loaded', 0)):>3}"
    )

    # -- latency (histogram quantiles from the service recorder) -------
    if metrics_doc.get("ok"):
        histograms = (metrics_doc.get("metrics") or {}).get(
            "histograms"
        ) or {}
        lines.append(rule)
        lines.append(
            f"{'latency':<12}{'count':>7}{'p50':>10}{'p95':>10}"
            f"{'mean':>10}{'max':>10}"
        )
        for label, name in _LATENCY_ROWS:
            q = _quantiles(histograms.get(name) or {})
            if not q:
                lines.append(f"{label:<12}{'-':>7}")
                continue
            lines.append(
                f"{label:<12}{int(q['count']):>7}"
                f"{_fmt_seconds(q['p50']):>10}"
                f"{_fmt_seconds(q['p95']):>10}"
                f"{_fmt_seconds(q['mean']):>10}"
                f"{_fmt_seconds(q['max']):>10}"
            )
        counters = (metrics_doc.get("metrics") or {}).get("counters") or {}
        lines.append(
            f"warm hits {int(counters.get('service.daemon.incremental_hits', 0))}"
            f" | snap hits {int(counters.get('service.daemon.snapshot_hits', 0))}"
            f" | mutations {int(counters.get('service.daemon.mutations', 0))}"
            f" | slow {int(counters.get('service.daemon.slow_requests', 0))}"
            f" | http {int(counters.get('service.daemon.http_requests', 0))}"
        )
    else:
        lines.append(rule)
        lines.append("latency: telemetry disabled on this daemon")

    # -- trends (metrics ring buffer) ----------------------------------
    series = _history_series(frame)
    if series is not None:
        interval = float(
            (frame.get("history") or {}).get("interval_s") or 0.0
        )
        window = (
            f"~{interval * len(series['rate']):.0f}s window"
            if interval
            else "history window"
        )
        lines.append(rule)
        lines.append(
            f"trend  req/s  {sparkline(series['rate'])}   ({window})"
        )
        lines.append(
            f"trend  p95    {sparkline(series['p95'])}   "
            f"(now {_fmt_seconds(series['p95'][-1] if series['p95'] else None)})"
        )

    # -- result cache --------------------------------------------------
    cache = stats.get("cache")
    lines.append(rule)
    if isinstance(cache, dict):
        lookups = int(cache.get("hits", 0)) + int(cache.get("misses", 0))
        hit_rate = (
            int(cache.get("hits", 0)) / lookups if lookups else 0.0
        )
        lines.append(
            f"cache    hits {int(cache.get('hits', 0)):>6}   "
            f"misses {int(cache.get('misses', 0)):>6}   "
            f"hit rate {hit_rate:6.1%}   "
            f"entries {int(cache.get('entries', 0)):>5}"
        )
    else:
        lines.append("cache    (no result cache attached)")

    # -- per-design table ----------------------------------------------
    designs = stats.get("designs") or {}
    lines.append(rule)
    if designs:
        lines.append(
            f"{'design':<24}{'warm':>6}{'analyses':>10}{'mutations':>11}"
            f"{'in-flight':>11}"
        )
        for name in sorted(designs):
            d = designs[name] or {}
            lines.append(
                f"{name[:24]:<24}"
                f"{('yes' if d.get('warm') else 'no'):>6}"
                f"{int(d.get('analyses', 0)):>10}"
                f"{int(d.get('mutations', 0)):>11}"
                f"{int(d.get('in_flight', 0)):>11}"
            )
    else:
        lines.append("no designs loaded yet")

    last_error = health.get("last_error")
    if isinstance(last_error, dict) and last_error.get("error"):
        lines.append(rule)
        lines.append(
            f"last error [{last_error.get('op', '?')}]: "
            f"{str(last_error.get('error'))[: width - 20]}"
        )
    return "\n".join(lines)


def json_frame(
    frame: Dict[str, object],
    previous: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One machine-readable dashboard frame (``repro.topframe/1``).

    The raw ``health``/``stats``/``metrics``/``history`` sub-documents
    pass through untouched; the ``derived`` block adds what the text
    renderer computes -- request rate vs the previous frame and the
    latency quantiles -- so consumers need no bucket arithmetic.  Pure,
    like :func:`render_top`.
    """
    metrics_doc = frame.get("metrics") or {}
    histograms = (metrics_doc.get("metrics") or {}).get("histograms") or {}
    latency = {}
    for label, name in _LATENCY_ROWS:
        q = _quantiles(histograms.get(name) or {})
        if q:
            latency[label] = {
                key: round(value, 6) for key, value in q.items()
            }
    rate = _rate(frame, previous)
    active = _alert_rows(frame)
    return {
        "schema": "repro.topframe/1",
        "ts": frame.get("ts"),
        "health": frame.get("health"),
        "stats": frame.get("stats"),
        "metrics": frame.get("metrics"),
        "history": frame.get("history"),
        "alerts": frame.get("alerts"),
        "derived": {
            "rate_rps": round(rate, 4) if rate is not None else None,
            "latency": latency,
            "trends": _history_series(frame),
            "restarted": _restarted(frame, previous),
            "alerts_firing": sum(
                1 for row in active if row.get("state") == "firing"
            ),
        },
    }
