"""``repro.obs`` -- zero-dependency instrumentation for the analysis
pipeline.

* :mod:`repro.obs.recorder` -- :class:`Recorder`, :class:`Span`,
  counters/gauges/events and the process-wide enable switch,
* :mod:`repro.obs.chrome_trace` -- ``chrome://tracing`` / Perfetto
  trace-event JSON export,
* :mod:`repro.obs.metrics` -- flat metrics JSON and Prometheus text,
* :mod:`repro.obs.summary` -- human-readable phase trees
  (``repro-sta ... --verbose``),
* :mod:`repro.obs.flight` -- flight recorder ring and structured error /
  crash reports (``repro.flight/1``, ``repro.error/1``,
  ``repro.crash/1``).

Recording is **disabled by default**: every instrumentation site in the
analysis pipeline degrades to a single global read (see
``docs/observability.md`` for the overhead notes and the metric name
catalogue).  Enable it around any workload with::

    from repro import obs

    with obs.recording() as rec:
        Hummingbird(network, schedule).analyze()
    obs.write_chrome_trace(rec, "out.trace.json")
    print(obs.render_phase_tree(rec))
"""

from repro.obs import live
from repro.obs.accesslog import ACCESS_LOG_SCHEMA, AccessLog
from repro.obs.chrome_trace import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    WELL_KNOWN_COUNTERS,
    metrics_dict,
    render_prometheus,
    write_metrics_json,
)
from repro.obs.hist import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    HistogramStats,
    bucket_counts,
    equal_width_edges,
)
from repro.obs.recorder import (
    NULL_SPAN,
    EventRecord,
    FlowRecord,
    Recorder,
    Span,
    SpanRecord,
    SpanStats,
    active,
    bind_recorder,
    bound,
    counter,
    event,
    gauge,
    histogram,
    recording,
    set_recorder,
    span,
)
from repro.obs.summary import build_phase_tree, render_phase_tree
from repro.obs.flight import (
    CRASH_SCHEMA,
    ERROR_SCHEMA,
    FLIGHT_SCHEMA,
    CrashHandler,
    FlightRecorder,
    error_document,
    exception_frames,
    thread_stacks,
)

__all__ = [
    "Recorder",
    "Span",
    "SpanRecord",
    "SpanStats",
    "EventRecord",
    "FlowRecord",
    "HistogramStats",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "bucket_counts",
    "equal_width_edges",
    "live",
    "AccessLog",
    "ACCESS_LOG_SCHEMA",
    "NULL_SPAN",
    "active",
    "bind_recorder",
    "bound",
    "set_recorder",
    "recording",
    "span",
    "counter",
    "gauge",
    "event",
    "histogram",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "metrics_dict",
    "write_metrics_json",
    "render_prometheus",
    "WELL_KNOWN_COUNTERS",
    "build_phase_tree",
    "render_phase_tree",
    "ERROR_SCHEMA",
    "FLIGHT_SCHEMA",
    "CRASH_SCHEMA",
    "FlightRecorder",
    "CrashHandler",
    "error_document",
    "exception_frames",
    "thread_stacks",
]
