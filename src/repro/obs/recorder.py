"""Instrumentation core: spans, counters, gauges, events.

Design goals (see ``docs/observability.md``):

* **zero dependencies** -- standard library only;
* **no-op when disabled** -- the process-wide recorder is ``None`` by
  default; every instrumentation site guards on :func:`active` (one
  global read) or uses :func:`span`, which returns a shared null object,
  so the disabled overhead is a few nanoseconds per call site;
* **bounded memory** -- per-span records and events stop accumulating
  past ``max_spans`` / ``max_events`` (aggregates keep counting), so a
  long Algorithm-3 loop cannot exhaust memory;
* **monotonic clocks** -- all timings use :func:`time.perf_counter`
  (wall-clock, monotonic), not ``process_time``, so I/O-bound and
  multi-threaded phases are reported consistently.

Typical usage::

    from repro import obs

    with obs.recording() as rec:
        with obs.span("analysis", category="analyzer"):
            ...
        obs.counter("alg1.forward_cycles")
    print(rec.counters["alg1.forward_cycles"])
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.hist import DEFAULT_BUCKETS, HistogramStats

__all__ = [
    "Recorder",
    "Span",
    "SpanRecord",
    "EventRecord",
    "FlowRecord",
    "SpanStats",
    "HistogramStats",
    "NULL_SPAN",
    "active",
    "set_recorder",
    "bind_recorder",
    "bound",
    "recording",
    "span",
    "counter",
    "gauge",
    "event",
    "histogram",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (timings in seconds since the recorder epoch)."""

    name: str
    category: str
    start: float
    duration: float
    depth: int
    thread_id: int
    index: int
    args: Optional[Tuple[Tuple[str, object], ...]] = None
    #: Originating process, set only for records merged in from another
    #: process's snapshot (``None`` means "this process").
    pid: Optional[int] = None


@dataclass(frozen=True)
class EventRecord:
    """One instant event."""

    name: str
    timestamp: float
    thread_id: int
    args: Optional[Tuple[Tuple[str, object], ...]] = None
    #: Originating process (see :class:`SpanRecord`).
    pid: Optional[int] = None


@dataclass(frozen=True)
class FlowRecord:
    """One endpoint of a cross-process parent/child link.

    A pair of flow records sharing ``flow_id`` -- one ``phase="s"``
    (start, at the parent span) and one ``phase="f"`` (finish, at the
    first child span) -- renders as an arrow between processes in
    Perfetto.  Produced by :func:`repro.obs.live.merge_snapshot`.
    """

    phase: str  # "s" (start) | "f" (finish)
    flow_id: str
    timestamp: float
    thread_id: int
    pid: Optional[int] = None


@dataclass
class SpanStats:
    """Aggregate statistics for all spans sharing one name."""

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def observe(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration < self.minimum:
            self.minimum = duration
        if duration > self.maximum:
            self.maximum = duration


class Recorder:
    """Process-wide collection point for spans, counters, gauges, events.

    Thread-safe for counters/gauges/completions (a single lock guards the
    shared structures); span *nesting depth* is tracked per thread.
    """

    def __init__(
        self, max_spans: int = 200_000, max_events: int = 50_000
    ) -> None:
        self.epoch = time.perf_counter()
        self.epoch_wall = time.time()
        self.max_spans = max_spans
        self.max_events = max_events
        #: Cross-process trace identity (``None`` until the recorder
        #: joins a trace -- see :mod:`repro.obs.live`).
        self.trace_id: Optional[str] = None
        #: Parent span id this recorder's work hangs under (wire field
        #: ``parent_span`` of ``repro.trace/1``); set in child processes.
        self.parent_span_id: Optional[str] = None
        #: Cross-process parent/child links added by snapshot merges.
        self.flows: List[FlowRecord] = []
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramStats] = {}
        self.span_stats: Dict[str, SpanStats] = {}
        self.dropped_spans = 0
        self.dropped_events = 0
        self._lock = threading.Lock()
        self._depths: Dict[int, int] = {}
        self._next_index = 0
        #: Collections seen by the gc hook and not yet folded into the
        #: spans and counters: (generation, start, duration, collected,
        #: thread id, depth).  The hook only appends here; see
        #: :func:`_gc_callback`.
        self._gc_pending: List[Tuple[int, float, float, int, int, int]] = []
        #: perf_counter at the start of the collection in progress
        #: (collections never overlap).
        self._gc_started = 0.0

    # ------------------------------------------------------------------
    # span lifecycle (called by Span)
    # ------------------------------------------------------------------
    def _enter_span(self) -> Tuple[int, int]:
        tid = threading.get_ident()
        depth = self._depths.get(tid, 0)
        self._depths[tid] = depth + 1
        return tid, depth

    def _exit_span(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        depth: int,
        tid: int,
        args: Optional[Dict[str, object]],
    ) -> None:
        self._depths[tid] = depth
        with self._lock:
            if self._gc_pending:
                self._fold_gc()
            self._record_span(
                name,
                category,
                start,
                duration,
                depth,
                tid,
                tuple(sorted(args.items())) if args else None,
            )

    def _record_span(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        depth: int,
        tid: int,
        args: Optional[Tuple[Tuple[str, object], ...]],
    ) -> None:
        """Add one completed span; the caller holds the lock."""
        stats = self.span_stats.get(name)
        if stats is None:
            stats = self.span_stats[name] = SpanStats()
        stats.observe(duration)
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        index = self._next_index
        self._next_index += 1
        self.spans.append(
            SpanRecord(
                name=name,
                category=category,
                start=start - self.epoch,
                duration=duration,
                depth=depth,
                thread_id=tid,
                index=index,
                args=args,
            )
        )

    # ------------------------------------------------------------------
    # garbage collections
    # ------------------------------------------------------------------
    def fold_gc(self) -> None:
        """Fold the collections the gc hook buffered into the spans and
        counters (done at every span exit and when recording ends)."""
        with self._lock:
            self._fold_gc()

    def _fold_gc(self) -> None:
        """:meth:`fold_gc`; the caller holds the lock.  A collection that
        starts meanwhile appends to the fresh buffer."""
        batch, self._gc_pending = self._gc_pending, []
        counters = self.counters
        for generation, start, duration, collected, tid, depth in batch:
            counters["gc.collections"] = counters.get("gc.collections", 0.0) + 1
            counters["gc.collected"] = (
                counters.get("gc.collected", 0.0) + collected
            )
            counters["gc.seconds"] = counters.get("gc.seconds", 0.0) + duration
            self._record_span(
                _GC_SPANS[generation],
                "gc",
                start,
                duration,
                depth,
                tid,
                (("collected", collected),),
            )

    # ------------------------------------------------------------------
    # counters / gauges / events
    # ------------------------------------------------------------------
    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the monotonically increasing counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the point-in-time gauge ``name`` to ``value``."""
        with self._lock:
            self.gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the gauge ``name`` to ``value`` if larger."""
        with self._lock:
            if value > self.gauges.get(name, float("-inf")):
                self.gauges[name] = float(value)

    def histogram(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Observe ``value`` in the fixed-bucket histogram ``name``.

        ``buckets`` (sorted upper bounds, Prometheus ``le`` semantics)
        is only consulted on the first observation of a name; later
        observations reuse the histogram's existing bounds.
        """
        with self._lock:
            stats = self.histograms.get(name)
            if stats is None:
                stats = self.histograms[name] = HistogramStats(buckets)
            stats.observe(value)

    def event(self, name: str, **args: object) -> None:
        """Record an instant event (a point on the trace timeline)."""
        with self._lock:
            if len(self.events) >= self.max_events:
                self.dropped_events += 1
                return
            self.events.append(
                EventRecord(
                    name=name,
                    timestamp=time.perf_counter() - self.epoch,
                    thread_id=threading.get_ident(),
                    args=tuple(sorted(args.items())) if args else None,
                )
            )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "repro", **args: object) -> "Span":
        return Span(self, name, category, args or None)

    def total_span_seconds(self, name: str) -> float:
        stats = self.span_stats.get(name)
        return stats.total if stats is not None else 0.0


class Span:
    """Context-manager timer; records a :class:`SpanRecord` on exit."""

    __slots__ = ("_recorder", "name", "category", "args", "_start", "_tid", "_depth")

    def __init__(
        self,
        recorder: Recorder,
        name: str,
        category: str = "repro",
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.category = category
        self.args = args

    def __enter__(self) -> "Span":
        self._tid, self._depth = self._recorder._enter_span()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        self._recorder._exit_span(
            self.name,
            self.category,
            self._start,
            end - self._start,
            self._depth,
            self._tid,
            self.args,
        )


class _NullSpan:
    """Shared no-op stand-in returned while recording is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()

#: The process-wide recorder; ``None`` means "disabled" (the default).
_recorder: Optional[Recorder] = None

#: Per-thread recorder overrides, by thread id.  A thread with a binding
#: records into its own recorder regardless of the process-wide one;
#: every other thread is untouched.  This is what lets a daemon handle
#: many traced requests concurrently -- each handler thread binds its
#: per-request recorder for the duration of the request instead of
#: swapping the process-wide recorder behind a global lock.  Each thread
#: writes only its own key.
_bindings: Dict[int, Optional[Recorder]] = {}

#: Sentinel distinguishing "no binding" from "explicitly bound to
#: None" (a thread may opt *out* of an ambient recorder).
_UNBOUND = object()

#: Span name of a collection of each generation.
_GC_SPANS = ("gc.gen0", "gc.gen1", "gc.gen2")


def _gc_callback(phase: str, info: Dict[str, int]) -> None:
    """The ``gc.callbacks`` hook installed while a process-wide recorder
    is: buffers each collection in the recorder active on the thread
    that collects (:func:`active`), nested under the span the
    collection interrupted.

    It takes no lock.  A collection can start while this very thread
    holds ``Recorder._lock`` (inside :meth:`Recorder.counter` or a span
    exit), and taking the lock again would deadlock; the buffer is
    folded in by the recorder instead (:meth:`Recorder.fold_gc`).
    """
    rec = active()
    if rec is None:
        return
    if phase == "start":
        rec._gc_started = time.perf_counter()
        return
    tid = threading.get_ident()
    rec._gc_pending.append(
        (
            info["generation"],
            rec._gc_started,
            time.perf_counter() - rec._gc_started,
            info["collected"],
            tid,
            rec._depths.get(tid, 0),
        )
    )


def active() -> Optional[Recorder]:
    """The recorder this thread records into, or ``None`` when disabled.

    A per-thread binding (:func:`bind_recorder` / :func:`bound`) wins
    over the process-wide recorder.  Hot loops should fetch this once
    (``rec = obs.active()``) and guard their instrumentation on
    ``rec is not None``.
    """
    bound_rec = _bindings.get(threading.get_ident(), _UNBOUND)
    if bound_rec is not _UNBOUND:
        return bound_rec
    return _recorder


def set_recorder(recorder: Optional[Recorder]) -> Optional[Recorder]:
    """Install (or, with ``None``, remove) the process-wide recorder.

    While one is installed, a ``gc.callbacks`` hook records every
    garbage collection in the collecting thread's active recorder: a
    ``gc.gen0`` / ``gc.gen1`` / ``gc.gen2`` span and the
    ``gc.collections``, ``gc.collected`` and ``gc.seconds`` counters.  Returns the previously installed recorder,
    with its buffered collections folded in.
    """
    global _recorder
    previous = _recorder
    _recorder = recorder
    if recorder is None:
        if _gc_callback in gc.callbacks:
            gc.callbacks.remove(_gc_callback)
    elif _gc_callback not in gc.callbacks:
        gc.callbacks.append(_gc_callback)
    if previous is not None and previous is not recorder:
        previous.fold_gc()
    return previous


def bind_recorder(recorder) -> object:
    """Bind ``recorder`` as *this thread's* recorder.

    Only the calling thread is affected; other threads keep recording
    into the process-wide recorder (or their own bindings).  Pass the
    returned token back to restore the previous state -- including the
    "no binding" state, which an explicit ``bind_recorder(None)``
    (record nothing on this thread) is distinct from.

    Prefer the :func:`bound` context manager; this low-level pair
    exists for frameworks that cannot use a ``with`` block.  Restore
    the token before the thread ends: a later thread may reuse its id.
    """
    thread_id = threading.get_ident()
    previous = _bindings.get(thread_id, _UNBOUND)
    if recorder is _UNBOUND:
        # Restoring the "no binding" token: drop the entry so the
        # process-wide recorder shows through again.
        _bindings.pop(thread_id, None)
    else:
        _bindings[thread_id] = recorder
    return previous


@contextmanager
def bound(recorder: Optional[Recorder]) -> Iterator[Optional[Recorder]]:
    """Bind ``recorder`` to the calling thread for the ``with`` block.

    The thread-scoped sibling of :func:`recording`: spans, counters and
    events emitted by *this thread* land in ``recorder`` while every
    other thread keeps its own recorder.  ``bound(None)`` silences the
    calling thread even when a process-wide recorder is installed.
    """
    token = bind_recorder(recorder)
    try:
        yield recorder
    finally:
        bind_recorder(token)


@contextmanager
def recording(
    recorder: Optional[Recorder] = None,
) -> Iterator[Recorder]:
    """Enable recording for the duration of the ``with`` block.

    Installs ``recorder`` (a fresh :class:`Recorder` when omitted) as the
    process-wide recorder and restores the previous one afterwards.
    """
    rec = recorder if recorder is not None else Recorder()
    previous = set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(previous)


def span(name: str, category: str = "repro", **args: object):
    """A timing span against the active recorder (no-op when recording
    is disabled on this thread)."""
    rec = active()
    if rec is None:
        return NULL_SPAN
    return Span(rec, name, category, args or None)


def counter(name: str, value: float = 1.0) -> None:
    """Increment a counter on the active recorder (no-op when disabled)."""
    rec = active()
    if rec is not None:
        rec.counter(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active recorder (no-op when disabled)."""
    rec = active()
    if rec is not None:
        rec.gauge(name, value)


def event(name: str, **args: object) -> None:
    """Record an instant event on the active recorder (no-op when
    disabled)."""
    rec = active()
    if rec is not None:
        rec.event(name, **args)


def histogram(
    name: str,
    value: float,
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> None:
    """Observe into a histogram on the active recorder (no-op when
    disabled)."""
    rec = active()
    if rec is not None:
        rec.histogram(name, value, buckets)
