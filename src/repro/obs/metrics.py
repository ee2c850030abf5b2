"""Flat metric export: JSON dump and Prometheus-style text.

The metric *name catalogue* (see ``docs/observability.md``) is stable
across PRs so benchmark regressions can diff dumps from different
revisions.  :data:`WELL_KNOWN_COUNTERS` names the counters every dump
contains (zero-filled when the instrumented code path did not run), so
downstream tooling never has to special-case missing keys.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.obs.recorder import Recorder

#: Counters guaranteed to appear in every metrics dump (zero-filled).
WELL_KNOWN_COUNTERS = (
    # Algorithm 1 fixed-point accounting (Section 6/8).
    "alg1.runs",
    "alg1.forward_cycles",
    "alg1.backward_cycles",
    "alg1.partial_forward_cycles",
    "alg1.partial_backward_cycles",
    "alg1.iterations_total",
    # Slack-transfer operators (per operation kind, Section 6).
    "transfer.complete_forward.sweeps",
    "transfer.complete_forward.transfers",
    "transfer.complete_forward.moved",
    "transfer.complete_backward.sweeps",
    "transfer.complete_backward.transfers",
    "transfer.complete_backward.moved",
    "transfer.partial_forward.sweeps",
    "transfer.partial_forward.transfers",
    "transfer.partial_forward.moved",
    "transfer.partial_backward.sweeps",
    "transfer.partial_backward.transfers",
    "transfer.partial_backward.moved",
    "transfer.snatch_forward.sweeps",
    "transfer.snatch_forward.transfers",
    "transfer.snatch_forward.moved",
    "transfer.snatch_backward.sweeps",
    "transfer.snatch_backward.transfers",
    "transfer.snatch_backward.moved",
    # Block-method slack evaluation (Section 7).
    "slack.evaluations",
    "slack.cluster_passes",
    "slack.forward_sweeps",
    "slack.backward_sweeps",
    "slack.nodes_visited",
    "slack.sweeps_reused",
    "slack.rechecks",
    # Break-open pass selection (Section 7).
    "breakopen.searches",
    "breakopen.combos_tried",
    "breakopen.greedy_fallbacks",
    "breakopen.passes_selected",
    # Incremental re-analysis (Algorithm 3 substrate).
    "incremental.rebuilds",
    "incremental.swaps",
    "incremental.replays",
    # Redesign / sizing loops (Section 8).
    "resynthesis.rounds",
    "sizing.passes",
    "sizing.cells_resized",
    # Delay estimation.
    "delay.cells_estimated",
    "delay.arcs_estimated",
    # Serving layer (repro.service; docs/service.md).
    "service.cache.hits",
    "service.cache.misses",
    "service.cache.stores",
    "service.cache.evictions",
    "service.cache.corrupt",
    "service.batch.jobs",
    "service.batch.retries",
    "service.batch.timeouts",
    "service.batch.worker_crashes",
    "service.batch.serial_fallbacks",
    "service.batch.failures",
    "service.daemon.requests",
    "service.daemon.errors",
    "service.daemon.designs_loaded",
    "service.daemon.mutations",
    "service.daemon.incremental_hits",
    # Lock-free snapshot read path (PR 10; docs/service.md).
    "service.daemon.snapshot_hits",
    "service.daemon.snapshot_misses",
    "service.daemon.epoch_bumps",
    # Service-level telemetry (PR 4; docs/observability.md).
    "service.daemon.slow_requests",
    "service.accesslog.lines",
    "obs.snapshots_merged",
)


def metrics_dict(recorder: Recorder) -> Dict[str, object]:
    """Flatten the recorder into a JSON-serialisable metrics document."""
    counters = {name: 0.0 for name in WELL_KNOWN_COUNTERS}
    counters.update(recorder.counters)
    spans = {
        name: {
            "count": stats.count,
            "total_s": stats.total,
            "min_s": stats.minimum if stats.count else 0.0,
            "max_s": stats.maximum,
            "mean_s": stats.mean,
        }
        for name, stats in sorted(recorder.span_stats.items())
    }
    histograms = {
        name: stats.to_dict()
        for name, stats in sorted(recorder.histograms.items())
    }
    return {
        "schema": "repro.obs.metrics/1",
        "trace_id": recorder.trace_id,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(recorder.gauges.items())),
        "histograms": histograms,
        "spans": spans,
        "dropped_spans": recorder.dropped_spans,
        "dropped_events": recorder.dropped_events,
    }


def write_metrics_json(
    recorder: Recorder, path: Union[str, Path]
) -> Path:
    """Write :func:`metrics_dict` as JSON to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(metrics_dict(recorder), indent=2))
    return path


def _sanitise(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    return "".join(out)


def render_prometheus(recorder: Recorder, prefix: str = "repro") -> str:
    """Prometheus exposition-format text for the recorder's contents.

    Counters become ``<prefix>_<name>_total``, gauges ``<prefix>_<name>``
    and span aggregates ``<prefix>_<name>_seconds_{count,sum}``.
    """
    data = metrics_dict(recorder)
    lines = []
    for name, value in data["counters"].items():
        metric = f"{prefix}_{_sanitise(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value:g}")
    for name, value in data["gauges"].items():
        metric = f"{prefix}_{_sanitise(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value:g}")
    for name, stats in data["spans"].items():
        metric = f"{prefix}_{_sanitise(name)}_seconds"
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {stats['count']}")
        lines.append(f"{metric}_sum {stats['total_s']:.9f}")
    for name, hist in sorted(recorder.histograms.items()):
        metric = f"{prefix}_{_sanitise(name)}"
        lines.append(f"# TYPE {metric} histogram")
        for le, cumulative in hist.cumulative():
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{metric}_sum {hist.total:g}")
        lines.append(f"{metric}_count {hist.count}")
    return "\n".join(lines) + "\n"
