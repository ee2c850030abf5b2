"""The timing daemon: a long-lived engine behind a Unix socket.

``repro-sta serve --socket /tmp/repro.sock`` starts a
:class:`TimingDaemon`; clients (``repro-sta query``, the
:class:`DaemonClient` helper, or ten lines of any language) speak a
**JSON-lines protocol**: one request object per line in, one response
object per line out, over a ``SOCK_STREAM`` Unix-domain socket.  A
connection may issue any number of requests.

The daemon keeps one :class:`repro.core.incremental.IncrementalAnalyzer`
warm per loaded design, so the expensive work -- parsing the netlist,
estimating delays, extracting clusters and break-open plans -- happens
once.  ``analyze`` answers from the warm engine (cold only on first
load), and ``mutate`` applies delay/clock edits through the incremental
engine (cheap delay swap when outside control cones, tracked rebuild
otherwise).  Every run of Algorithm 1 starts from the initial window
positions, so an answer never depends on the queries before it.  The
daemon never reads a result cache: given an optional
:class:`repro.service.cache.ResultCache`, it writes each unmutated
design's result there for ``repro-sta batch`` to reuse.

Requests (see ``docs/service.md`` for the full protocol)::

    {"op": "ping"}
    {"op": "analyze", "netlist": "p.json", "clocks": "c.json"}
    {"op": "mutate",  "netlist": "p.json", "clocks": "c.json",
     "action": "scale_cell", "cell": "s0_i1", "factor": 1.5}
    {"op": "report",  "netlist": "p.json", "clocks": "c.json",
     "endpoint": "s1_l"}
    {"op": "stats"}
    {"op": "health"}
    {"op": "metrics"}
    {"op": "buildinfo"}
    {"op": "shutdown"}

Responses always carry ``"ok"``; errors come back as
``{"ok": false, "error": ..., "error_type": ...}`` -- a malformed
request never takes the daemon down.

**Service telemetry** (see ``docs/observability.md``): the daemon
keeps an always-on, low-overhead *service recorder* feeding the
``health`` and ``metrics`` ops (``metrics`` carries the Prometheus
text).  A request that carries a ``repro.trace/1`` context (any
:class:`DaemonClient` call made while the client records, e.g. ``query
--trace``) is handled under a per-request recorder whose snapshot ships
back in the response and merges into the client trace -- one Chrome
trace across both processes.  With ``--access-log`` every request
appends one ``repro.accesslog/1`` JSON line (op, design, warm vs
rebuild, queue-wait vs handle time, status, duration, trace id);
failed requests and requests slower than the threshold attach their
full span tree when they were traced.

**Self-diagnosis**: an always-on
:class:`repro.obs.flight.FlightRecorder` keeps a ring of recent
requests, errors and stalls (``flight`` op).  ``health`` counts as
``stalled`` the requests in flight longer than ``stall_timeout_s`` at
the moment it is read; the first read that finds one writes a
``stall`` flight event with the stuck thread's stack.  A
:class:`repro.obs.flight.CrashHandler` dumps ``repro.crash/1`` reports
-- structured frames, all-thread stacks, the flight ring, buildinfo --
for unexpected handler exceptions (``crash-report`` op).  ``repro-sta
doctor`` reads all three.

**Concurrency** (see docs/service.md "Concurrency model"): each
connection has one thread, which reads a line, answers it and writes
the answer before it reads the next, so answers leave in request order
and a triage op on its own connection never waits behind stuck
requests.  Besides those, the daemon runs only the thread that accepts
connections.  One registry, keyed by the answering thread, records the
requests in flight.  Analysis results publish as immutable copy-on-write
:class:`AnalysisSnapshot` objects versioned by a per-design mutation
epoch -- a repeat ``analyze`` with no intervening mutation answers
lock-free straight from the snapshot (``"engine": "snapshot"``) -- and
traced requests bind their per-request recorder to their own thread, so
they do not serialise daemon-wide.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Optional, Tuple, Union

from repro import obs
from repro.core.analyzer import check_slow_path_limit, check_tolerance
from repro.netlist import netlist_format
from repro.obs import live
from repro.obs.accesslog import AccessLog
from repro.obs.flight import (
    CrashHandler,
    FlightRecorder,
    error_document,
    thread_stacks,
)
from repro.obs.hist import LATENCY_BUCKETS
from repro.service.cache import ResultCache
from repro.service.digest import analysis_config, cache_key, key_inputs

__all__ = ["DaemonClient", "TimingDaemon", "PROTOCOL_VERSION"]

#: Bumped when the request/response shapes change incompatibly.
PROTOCOL_VERSION = 1

#: Exception types that mean "bad request", not "daemon bug": they get
#: a structured error response but no crash report.  Anything outside
#: this set dumps a ``repro.crash/1`` postmortem.
_EXPECTED_ERRORS = (ValueError, KeyError, TypeError, OSError)


def _last_count(value: object) -> Optional[int]:
    """A ``last`` trim count: ``None`` (keep all) or an integer.

    Anything else -- ``"x"``, a list, JSON ``1e999`` (``inf``) -- is a
    bad request and raises :class:`ValueError`, never a crash report.
    """
    if value is None:
        return None
    try:
        return int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"last must be an integer, got {value!r}") from None


class AnalysisSnapshot:
    """An immutable published analysis result for one design.

    ``responses`` maps an analysis-parameter key (``slow_path_limit``,
    ``tolerance``, ``label``) to the *pristine* response dict built by
    the locked analyze path.  Instances are never mutated after
    publication: a new analysis under the design lock builds a fresh
    ``responses`` dict (copy-on-write) and installs a brand-new
    ``AnalysisSnapshot`` on the state with one reference assignment --
    atomic under the GIL, so lock-free readers either see the old
    snapshot or the new one, never a half-written dict.

    ``epoch`` is the design's mutation epoch at publication time; a
    reader only trusts the snapshot while ``snap.epoch ==
    state.epoch``.  The epoch is bumped (under the design lock) *before*
    a mutation touches the engine, so a reader racing a mutation fails
    the check and falls back to queueing on the lock.
    """

    __slots__ = ("epoch", "responses")

    def __init__(self, epoch: int, responses: Dict[tuple, Dict[str, object]]):
        self.epoch = epoch
        self.responses = responses


class _DesignState:
    """One warm design: parsed network + incremental engine."""

    def __init__(self, netlist: str, clocks: str, default_clock=None):
        from repro.clocks.serialize import schedule_from_dict
        from repro.core.incremental import IncrementalAnalyzer
        from repro.netlist import parse_netlist
        from repro.report.manifest import digest_inputs

        self.netlist = netlist
        self.clocks = clocks
        self.default_clock = default_clock
        netlist_bytes = Path(netlist).read_bytes()
        self.network = parse_netlist(netlist_bytes, netlist, default_clock)
        clocks_bytes = Path(clocks).read_bytes()
        self.schedule = schedule_from_dict(json.loads(clocks_bytes))
        #: The manifest's ``input_digest`` and :meth:`content_key`'s
        #: :func:`key_inputs`, of the bytes parsed here, not whatever
        #: the files hold by the time a request is answered.
        self.input_digest = digest_inputs(netlist_bytes, clocks_bytes)
        self.sources = key_inputs(
            netlist, netlist_bytes, clocks_bytes, default_clock
        )
        self.analyzer = IncrementalAnalyzer(self.network, self.schedule)
        self.lock = threading.Lock()
        self.mutations = 0
        self.analyses = 0
        #: Has the *current* engine answered at least once?  Reset on a
        #: full rebuild (clock edits), kept across delay mutations.
        self.served = False
        #: Mutation epoch: bumped under the design lock before every
        #: mutation touches the engine.  Monotonic; read lock-free.
        self.epoch = 0
        #: Last published :class:`AnalysisSnapshot` (``None`` until the
        #: first analyze).  Replaced wholesale, never mutated in place.
        self.snapshot: Optional[AnalysisSnapshot] = None
        #: Analyzes answered from the snapshot without the lock.
        self.snapshot_hits = 0

    @property
    def warm(self) -> bool:
        """Served by the live incremental engine (model reuse)?

        The design is parsed and its analysis model built; Algorithm 1
        itself starts from the initial windows on every run.
        """
        return self.served

    def content_key(self, slow_path_limit, tolerance) -> str:
        """The result cache key of the bytes loaded (unmutated only)."""
        return cache_key(
            *self.sources,
            analysis_config(
                slow_path_limit=slow_path_limit, tolerance=tolerance
            ),
        )


class _InFlight:
    """One request being answered, as the daemon's in-flight registry
    holds it: what ``stop()``, ``health``, ``stats`` and the request's
    own flight event and access-log line need to know about it."""

    __slots__ = ("op", "state", "engine", "queue_wait", "started", "stalled")

    def __init__(self, started: float) -> None:
        self.op: Optional[str] = None
        #: The warm design the request named, once it is loaded.
        self.state: Optional[_DesignState] = None
        self.engine: Optional[str] = None
        #: Arrival to the design lock or the snapshot read, if it queued.
        self.queue_wait: Optional[float] = None
        self.started = started
        #: Has a read found it stalled (and written its ``stall`` event)?
        self.stalled = False

    @property
    def design(self) -> Optional[str]:
        return self.state.network.name if self.state is not None else None


class TimingDaemon:
    """Long-lived analyze/what-if/report engine on a Unix socket.

    Parameters
    ----------
    socket_path:
        Unix-domain socket to listen on.
    cache:
        Optional :class:`ResultCache` the daemon writes unmutated
        results to (it never reads them back).
    slow_path_limit:
        Default ``analyze`` slow-path limit.
    access_log:
        Path or :class:`repro.obs.AccessLog`; one ``repro.accesslog/1``
        JSON line per request.
    slow_threshold_s:
        Requests at least this slow log their full span tree (traced
        requests only -- the span detail comes from the per-request
        recorder).
    crash_dir:
        Directory ``repro.crash/1`` reports are written to (``None``
        keeps the last report in memory only).
    stall_timeout_s:
        Requests in flight longer than this count as ``stalled`` in
        ``health`` when it is read; the first read that finds one
        writes a ``stall`` flight event with the stuck thread's stack
        (``None`` counts none).
    debug_ops:
        Enable the fault-injection ops ``fail`` and ``sleep`` (CI's
        self-diagnosis smoke uses them; also enabled by the
        ``REPRO_DEBUG_OPS=1`` environment variable).
    install_crash_hooks:
        Chain ``sys.excepthook``/``threading.excepthook`` and enable
        :mod:`faulthandler` process-wide (``repro-sta serve`` turns
        this on; embedded/test daemons leave the process hooks alone --
        request-handler crashes are reported either way).
    """

    def __init__(
        self,
        socket_path: Union[str, "os.PathLike[str]"],
        cache: Optional[ResultCache] = None,
        slow_path_limit: Optional[int] = 50,
        access_log: Union[None, str, "os.PathLike[str]", AccessLog] = None,
        slow_threshold_s: float = 1.0,
        crash_dir: Union[None, str, "os.PathLike[str]"] = None,
        stall_timeout_s: Optional[float] = 30.0,
        debug_ops: bool = False,
        install_crash_hooks: bool = False,
    ) -> None:
        self.socket_path = str(socket_path)
        self.cache = cache
        self.slow_path_limit = check_slow_path_limit(slow_path_limit)
        self.started_at = time.time()
        self.requests = 0
        self.errors = 0
        self.last_error: Optional[Dict[str, object]] = None
        #: Always-on service recorder.
        self.recorder = obs.Recorder(max_spans=10_000, max_events=2_000)
        #: Always-on flight ring of recent requests/errors/stalls.
        self.flight = FlightRecorder()
        #: Crash forensics: builds/persists ``repro.crash/1`` reports.
        self.crash = CrashHandler(
            crash_dir=crash_dir,
            flight=self.flight,
            buildinfo=self._buildinfo,
        )
        self._install_crash_hooks = bool(install_crash_hooks)
        if stall_timeout_s is not None and not stall_timeout_s > 0:
            raise ValueError("stall_timeout_s must be > 0 (None disables it)")
        self.stall_timeout_s = (
            float(stall_timeout_s) if stall_timeout_s is not None else None
        )
        self.debug_ops = bool(debug_ops) or (
            os.environ.get("REPRO_DEBUG_OPS") == "1"
        )
        if isinstance(access_log, AccessLog):
            # Adopt the caller's threshold -- it owns the log.
            self.access_log: Optional[AccessLog] = access_log
            self.slow_threshold_s = access_log.slow_threshold_s
        elif access_log is not None:
            self.access_log = AccessLog(
                access_log, slow_threshold_s=slow_threshold_s
            )
            self.slow_threshold_s = float(slow_threshold_s)
        else:
            self.access_log = None
            self.slow_threshold_s = float(slow_threshold_s)
        self._designs: Dict[
            Tuple[str, str, Optional[str]], _DesignState
        ] = {}
        self._designs_lock = threading.Lock()
        self._state_lock = threading.Lock()  # requests/errors/last_error
        #: The requests being answered, by the id of the thread that
        #: answers each, and whether the daemon has stopped taking new
        #: ones; ``_idle`` guards both and is notified whenever a
        #: request is done.
        self._idle = threading.Condition()
        self._in_flight: Dict[int, _InFlight] = {}
        self._stopping = False
        self._server: Optional[socketserver.ThreadingUnixStreamServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # telemetry plumbing
    # ------------------------------------------------------------------
    def _counter(self, name: str, value: float = 1.0) -> None:
        """Count into the service recorder *and* any ambient recorder."""
        self.recorder.counter(name, value)
        obs.counter(name, value)

    def _gauge(self, name: str, value: float) -> None:
        self.recorder.gauge(name, value)
        obs.gauge(name, value)

    def _histogram(self, name: str, value: float) -> None:
        self.recorder.histogram(name, value, LATENCY_BUCKETS)
        obs.histogram(name, value, LATENCY_BUCKETS)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _make_server(self) -> socketserver.ThreadingUnixStreamServer:
        if os.path.exists(self.socket_path):
            # A previous daemon may have crashed without unlinking.
            os.unlink(self.socket_path)
        daemon = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:  # one connection, many requests
                try:
                    for line in self.rfile:
                        line = line.strip()
                        if line and not daemon._answer(line, self.wfile):
                            return
                except OSError:
                    pass  # the peer went away

        server = socketserver.ThreadingUnixStreamServer(
            self.socket_path, Handler
        )
        server.daemon_threads = True
        return server

    def _answer(self, line: bytes, out: BinaryIO) -> bool:
        """Answer one request line on its connection's thread and write
        the answer to ``out``; ``False`` ends the connection (the daemon
        is stopping, or this was ``shutdown``)."""
        # Looked up on every call, so a wrapper installed on the class
        # after start-up still sees each request.
        response = self.handle_line(line)
        if response is None:
            return False
        # Written once the request has left the registry: a peer that
        # stops reading cannot hold up stop().
        out.write(
            json.dumps(
                response, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            + b"\n"
        )
        if response.get("__shutdown__"):
            self.stop()
            return False
        return True

    # ------------------------------------------------------------------
    # the in-flight registry
    # ------------------------------------------------------------------
    def _request(self) -> _InFlight:
        """The record of the request this thread is answering."""
        return self._in_flight[threading.get_ident()]

    def _stalled(self) -> int:
        """The requests in flight longer than ``stall_timeout_s``, now.

        Counting is the only stall check: nothing runs between reads.
        The first read that finds a request past the deadline writes
        its ``stall`` flight event (``stalled``, with the stack of the
        thread answering it) and counts ``service.daemon.stalls``.  The
        event is written under ``_idle``, so it precedes the
        ``resolved`` event the request's end writes.
        """
        if self.stall_timeout_s is None:
            return 0
        now = time.perf_counter()
        with self._idle:
            late = [
                (thread_id, record)
                for thread_id, record in self._in_flight.items()
                if now - record.started >= self.stall_timeout_s
            ]
            fresh = [(t, record) for t, record in late if not record.stalled]
            stacks = (
                {row["thread_id"]: row["frames"] for row in thread_stacks()}
                if fresh
                else {}
            )
            for thread_id, record in fresh:
                record.stalled = True
                self._counter("service.daemon.stalls")
                self.flight.record(
                    "stall",
                    op=record.op,
                    design=record.design,
                    status="stalled",
                    waited_s=round(now - record.started, 3),
                    thread_id=thread_id,
                    stack=stacks.get(thread_id, []),
                )
        return len(late)

    def _buildinfo(self) -> Dict[str, object]:
        """Build/runtime identity served by the ``buildinfo`` op."""
        import sys

        from repro import __version__

        return {
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "python": sys.version.split()[0],
            "uptime_s": round(time.time() - self.started_at, 3),
            "config": {
                "socket": self.socket_path,
                "result_cache": self.cache is not None,
                "access_log": self.access_log is not None,
                "slow_path_limit": self.slow_path_limit,
                "slow_threshold_s": self.slow_threshold_s,
                "flight_capacity": self.flight.capacity,
                "crash_dir": (
                    str(self.crash.crash_dir)
                    if self.crash.crash_dir is not None
                    else None
                ),
                "stall_timeout_s": self.stall_timeout_s,
                "debug_ops": self.debug_ops,
            },
        }

    def _sync_gauges(self) -> None:
        """Refresh point-in-time gauges before a metrics export."""
        with self._designs_lock:
            designs_loaded = len(self._designs)
            epoch_sum = sum(s.epoch for s in self._designs.values())
        self.recorder.gauge(
            "service.daemon.in_flight", len(self._in_flight)
        )
        self.recorder.gauge("service.daemon.designs", designs_loaded)
        self.recorder.gauge("service.daemon.epoch", epoch_sum)
        self.recorder.gauge(
            "service.daemon.uptime_seconds",
            time.time() - self.started_at,
        )
        if self.stall_timeout_s is not None:
            self.recorder.gauge("service.daemon.stalled", self._stalled())
        self.recorder.gauge("service.flight.events", len(self.flight))
        self.recorder.gauge("service.flight.dropped", self.flight.dropped)

    def bind(self) -> None:
        """Listen on the socket (installing the crash hooks when asked);
        :meth:`serve_forever` then serves.  ``repro-sta serve`` binds
        first so its start-up message follows a socket that accepts."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        self._server = self._make_server()
        if self._install_crash_hooks:
            self.crash.install()
        self.flight.record_log(
            "daemon started",
            pid=os.getpid(),
            socket=self.socket_path,
        )

    def start(self) -> None:
        """Serve in a background thread (returns once listening)."""
        self.bind()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop`/shutdown op,
        binding first unless :meth:`bind` already has."""
        if self._thread is not None:
            raise RuntimeError("daemon already started")
        if self._server is None:
            self.bind()
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self._cleanup()

    def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._cleanup()

    def _cleanup(self) -> None:
        with self._idle:
            # Lines read from now on get no answer; the requests being
            # handled finish, access-log line included, before the log
            # closes.
            self._stopping = True
            self._idle.wait_for(lambda: not self._in_flight)
        self.crash.uninstall()
        if self.access_log is not None:
            self.access_log.close()
        # Persist write-behind LRU recency (advisory -- safe to lose).
        if self.cache is not None:
            self.cache.flush()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    def __enter__(self) -> "TimingDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle_line(self, line: bytes) -> Optional[Dict[str, object]]:
        """Parse one request line and answer it (never raises); ``None``
        once the daemon is stopping: the line gets no answer.

        Requests are timestamped **on arrival**; handlers that queue on
        a per-design lock report arrival -> lock-acquired as
        ``service.daemon.queue_wait_seconds`` and the remainder as
        ``service.daemon.handle_seconds`` -- the split the ROADMAP's
        daemon-concurrency work needs.  A request carrying a
        ``repro.trace/1`` context runs under a per-request recorder
        bound to this thread only (:func:`repro.obs.bound`), so traced
        requests run fully concurrently, and ships the recorder
        snapshot back under ``"trace"``.

        The request stays in the in-flight registry from its arrival
        until its flight event and access-log line are written; a
        request a read found stalled then writes its ``resolved`` event.
        """
        record = _InFlight(time.perf_counter())
        thread_id = threading.get_ident()
        with self._idle:
            if self._stopping:
                return None
            self._in_flight[thread_id] = record
        try:
            return self._handle(line, record)
        finally:
            with self._idle:
                del self._in_flight[thread_id]
                if record.stalled:
                    self.flight.record(
                        "stall",
                        op=record.op,
                        design=record.design,
                        status="resolved",
                        waited_s=round(
                            time.perf_counter() - record.started, 3
                        ),
                    )
                self._idle.notify_all()

    def _handle(self, line: bytes, record: _InFlight) -> Dict[str, object]:
        """:meth:`handle_line` for a request in the registry."""
        with self._state_lock:
            self.requests += 1
        self._counter("service.daemon.requests")
        request: Dict[str, object] = {}
        op = ""
        status = "ok"
        error: Optional[str] = None
        error_type: Optional[str] = None
        req_rec: Optional[obs.Recorder] = None
        snapshot_doc: Optional[Dict[str, object]] = None
        try:
            parsed = json.loads(line.decode("utf-8"))
            if not isinstance(parsed, dict):
                raise ValueError("request must be a JSON object")
            request = parsed
            op = str(request.get("op", ""))
            # ``crash-report`` and friends spell ops with hyphens on the
            # wire; handler names cannot.
            handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
            if handler is None or op.startswith("_"):
                raise ValueError(f"unknown op {op!r}")
            record.op = op
            ctx = request.get("trace")
            if isinstance(ctx, dict) and ctx.get("trace_id"):
                req_rec = live.child_recorder(ctx)
                # Per-thread binding: concurrent traced requests each
                # see only their own recorder -- no daemon-wide lock.
                with obs.bound(req_rec):
                    with req_rec.span(
                        "service.daemon.request",
                        category="service",
                        op=op,
                    ):
                        response = handler(request)
                snapshot_doc = live.snapshot(req_rec)
                response["trace"] = snapshot_doc
            else:
                response = handler(request)
        except Exception as exc:  # noqa: BLE001 -- protocol boundary
            status = "error"
            error_doc = error_document(exc)
            error = str(exc)
            error_type = type(exc).__name__
            self._counter("service.daemon.errors")
            with self._state_lock:
                self.errors += 1
                self.last_error = {
                    "error": error,
                    "error_type": error_type,
                    "op": op or None,
                    "ts": round(time.time(), 3),
                    "frames": error_doc["frames"],
                }
            self.flight.record(
                "error",
                op=op or None,
                design=record.design,
                error=error_doc,
            )
            if not isinstance(exc, _EXPECTED_ERRORS):
                # A bad request (unknown op, missing file, wrong type)
                # is business as usual; anything else is a bug worth a
                # full postmortem.
                try:
                    # A read: a stalled request's ``stall`` event lands
                    # in the report's flight ring.
                    self._stalled()
                    self.crash.report(
                        exc, kind="handler_exception", op=op or None
                    )
                    self._counter("service.daemon.crash_reports")
                except Exception:  # noqa: BLE001 -- never mask response
                    pass
            response = {
                "ok": False,
                "error": error,
                "error_type": error_type,
                "error_doc": error_doc,
            }
        if "id" in request:
            response.setdefault("id", request["id"])
        duration = time.perf_counter() - record.started
        queue_wait = record.queue_wait
        handle_s = (
            duration - queue_wait if queue_wait is not None else duration
        )
        if snapshot_doc is None and req_rec is not None:
            # A traced request that raised never reached the success
            # path's snapshot; take it now so the failed access-log
            # line still carries the spans leading up to the error.
            try:
                snapshot_doc = live.snapshot(req_rec)
            except Exception:  # noqa: BLE001 -- forensics only
                snapshot_doc = None
        self._histogram("service.daemon.request_seconds", duration)
        self._histogram("service.daemon.handle_seconds", handle_s)
        if duration >= self.slow_threshold_s:
            self._counter("service.daemon.slow_requests")
        self.flight.record_request(
            op or "?",
            record.design,
            status,
            duration,
            engine=record.engine,
            error_type=error_type,
        )
        if self.access_log is not None:
            self.access_log.record(
                "daemon",
                op or "?",
                record.design,
                status,
                duration,
                snapshot=snapshot_doc,
                # Failed requests always log their span tree -- their
                # forensic value does not depend on being slow.
                force_spans=status == "error",
                engine=record.engine,
                queue_wait_s=(
                    round(queue_wait, 6) if queue_wait is not None else None
                ),
                handle_s=round(handle_s, 6),
                error=error,
                pid=os.getpid(),
                trace_id=req_rec.trace_id if req_rec else None,
            )
        return response

    @contextmanager
    def _locked_design(self, state: _DesignState):
        """Hold the per-design lock, recording the queue wait.

        The wait from the request's arrival at the lock to acquiring it
        *is* the per-design-lock contention -- the number the ROADMAP
        "daemon concurrency" item needs data for.  It lands in both
        ``service.daemon.queue_wait_seconds`` (all analyze-path waits,
        including the near-zero snapshot hits) and
        ``service.daemon.lock_wait_seconds`` (locked path only), so the
        two histograms split lock-free from locked traffic.

        A context manager rather than an acquire/release pair: a
        handler exception between the two can never keep the design
        locked forever.
        """
        waited_from = time.perf_counter()
        with state.lock:
            queue_wait = time.perf_counter() - waited_from
            self._request().queue_wait = queue_wait
            self._histogram(
                "service.daemon.queue_wait_seconds", queue_wait
            )
            self._histogram(
                "service.daemon.lock_wait_seconds", queue_wait
            )
            yield state

    # ------------------------------------------------------------------
    # state helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _design_key(
        request: Dict[str, object]
    ) -> Tuple[str, str, Optional[str]]:
        """A warm design's key: its two paths and the default clock its
        netlist is parsed under (``None`` for a JSON netlist, whose
        reader does not use it -- the rule of :func:`key_inputs`)."""
        netlist = str(request.get("netlist") or "")
        default_clock = request.get("default_clock")
        if not netlist or netlist_format(netlist) == ".json":
            default_clock = None
        return netlist, str(request.get("clocks") or ""), default_clock

    def _design(self, request: Dict[str, object]) -> _DesignState:
        key = self._design_key(request)
        if not key[0] or not key[1]:
            raise ValueError("request needs 'netlist' and 'clocks' paths")
        with self._designs_lock:
            state = self._designs.get(key)
            if state is None:
                with obs.span("service.daemon.load", category="service"):
                    state = _DesignState(*key)
                self._designs[key] = state
                self._counter("service.daemon.designs_loaded")
        self._request().state = state
        return state

    def _analyze_state(
        self, state: _DesignState, request: Dict[str, object]
    ) -> Dict[str, object]:
        from repro.report.manifest import (
            json_num,
            manifest_digest,
            timing_digest,
        )

        limit = request.get("slow_path_limit", self.slow_path_limit)
        tolerance = check_tolerance(request.get("tolerance"))
        engine = "incremental-warm" if state.warm else "cold"
        self._request().engine = engine
        if engine == "incremental-warm":
            self._counter("service.daemon.incremental_hits")
        result = state.analyzer.timing_result(
            slow_path_limit=limit, tolerance=tolerance
        )
        with self._state_lock:
            state.analyses += 1
        state.served = True
        manifest = result.manifest(
            label=request.get("label"), digest=state.input_digest
        )
        if self.cache is not None and state.mutations == 0:
            # A mutated design is no longer what its bytes' key names.
            key = state.content_key(limit, tolerance)
            if key not in self.cache:
                self.cache.put(key, result.payload(), manifest)
        response = {
            "ok": True,
            "engine": engine,
            "design": state.network.name,
            "intended": result.intended,
            "worst_slack": json_num(result.worst_slack),
            "slow_paths": len(result.slow_paths),
            "iterations": result.algorithm1.iterations.total,
            "summary": result.summary(),
            "payload": result.payload(),
            "manifest": manifest,
            "manifest_digest": manifest_digest(manifest),
            "timing_digest": timing_digest(manifest),
        }
        self._publish_snapshot(
            state, (limit, tolerance, request.get("label")), response
        )
        return response

    def _publish_snapshot(
        self,
        state: _DesignState,
        key: tuple,
        response: Dict[str, object],
    ) -> None:
        """Publish ``response`` for lock-free repeat reads.

        The caller holds the design lock.  Copy-on-write: carry over
        the current epoch's other parameter variants, add this one, and
        install a brand-new :class:`AnalysisSnapshot` with a single
        reference assignment.  The stored dict is a pristine shallow
        copy -- :meth:`handle_line` decorates the *returned* response
        with ``"trace"``/``"id"`` and must never bleed into the cache.
        """
        old = state.snapshot
        responses = (
            dict(old.responses)
            if old is not None and old.epoch == state.epoch
            else {}
        )
        responses[key] = dict(response)
        state.snapshot = AnalysisSnapshot(state.epoch, responses)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _snapshot(self) -> Dict[str, object]:
        """The shared liveness facts behind ping, stats and health.

        One source of truth -- ``uptime_s`` and friends cannot drift
        between the three ops (they used to be hand-rolled per op).
        ``stalled`` counts requests in flight past ``stall_timeout_s``
        (:meth:`_stalled`); ``repro-sta doctor`` exits 1 while it is
        above 0.
        """
        with self._designs_lock:
            designs_loaded = len(self._designs)
        stalled = self._stalled()
        with self._state_lock:
            return {
                "protocol": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "uptime_s": round(time.time() - self.started_at, 3),
                "requests": self.requests,
                "errors": self.errors,
                "in_flight": len(self._in_flight),
                "designs_loaded": designs_loaded,
                "stalled": stalled,
                "last_error": self.last_error,
            }

    def _op_ping(self, request: Dict[str, object]) -> Dict[str, object]:
        snapshot = self._snapshot()
        return {
            "ok": True,
            "pong": True,
            "protocol": snapshot["protocol"],
            "pid": snapshot["pid"],
            "uptime_s": snapshot["uptime_s"],
        }

    def _op_health(self, request: Dict[str, object]) -> Dict[str, object]:
        """Liveness probe."""
        return {"ok": True, "status": "ok", **self._snapshot()}

    def _op_metrics(self, request: Dict[str, object]) -> Dict[str, object]:
        """The service recorder's contents: Prometheus text + JSON."""
        from repro.obs.metrics import metrics_dict, render_prometheus

        self._sync_gauges()
        return {
            "ok": True,
            "text": render_prometheus(self.recorder),
            "metrics": metrics_dict(self.recorder),
        }

    def _op_buildinfo(self, request: Dict[str, object]) -> Dict[str, object]:
        """Build/runtime identity and the daemon's configuration."""
        return {"ok": True, **self._buildinfo()}

    def _snapshot_answer(
        self,
        state: _DesignState,
        key: tuple,
        arrival: Optional[float] = None,
    ) -> Optional[Dict[str, object]]:
        """Serve ``key`` from the current snapshot, or ``None``.

        The snapshot reference and the epoch are each a single
        attribute read (atomic under the GIL), and a published
        snapshot's ``responses`` dict is never mutated in place, so
        this is safe both lock-free (``arrival`` given: the wait is
        recorded here) and under the design lock (``arrival`` is
        ``None``: :meth:`_locked_design` already recorded it).
        """
        snap = state.snapshot
        if snap is None or snap.epoch != state.epoch:
            return None
        cached = snap.responses.get(key)
        if cached is None:
            return None
        record = self._request()
        if arrival is not None:
            record.queue_wait = time.perf_counter() - arrival
            self._histogram(
                "service.daemon.queue_wait_seconds", record.queue_wait
            )
        record.engine = "snapshot"
        self._counter("service.daemon.snapshot_hits")
        with self._state_lock:
            state.analyses += 1
            state.snapshot_hits += 1
        # Shallow copy: handle_line decorates the response in place;
        # the cached original must stay pristine.
        response = dict(cached)
        response["engine"] = "snapshot"
        return response

    def _op_analyze(self, request: Dict[str, object]) -> Dict[str, object]:
        state = self._design(request)
        arrival = time.perf_counter()
        # Checked before the snapshot lookup: ``True`` would find the
        # answer published for a limit of 1 (or a tolerance of 1.0).
        limit = check_slow_path_limit(
            request.get("slow_path_limit", self.slow_path_limit)
        )
        tolerance = check_tolerance(request.get("tolerance"))
        key = (limit, tolerance, request.get("label"))
        # Lock-free read path.  The epoch is bumped under the design
        # lock *before* a mutation touches the engine, so a reader
        # racing a mutation either sees the bumped epoch (miss -> queues
        # on the lock) or linearises before the mutation (the cached
        # answer was the design's published truth at read time).
        response = self._snapshot_answer(state, key, arrival)
        if response is not None:
            return response
        self._counter("service.daemon.snapshot_misses")
        with self._locked_design(state):
            # Double-checked read: a miss that queued behind a mutation
            # usually finds the mutation's inline analysis already
            # republished the snapshot by the time the lock is acquired.
            # Serving that copy saves re-running the analysis.
            response = self._snapshot_answer(state, key)
            if response is not None:
                return response
            with obs.span("service.daemon.analyze", category="service"):
                return self._analyze_state(state, request)

    def _op_mutate(self, request: Dict[str, object]) -> Dict[str, object]:
        state = self._design(request)
        action = str(request.get("action", ""))
        with self._locked_design(state):
            # A rejected request raises here, before the epoch bump, so
            # the published snapshot stays valid.
            apply = self._mutation(state, action, request)
            # Invalidate lock-free readers *before* the engine is
            # touched: any analyze that read the old snapshot after
            # this bump fails the epoch check and queues on the lock.
            state.epoch += 1
            self._counter("service.daemon.epoch_bumps")
            with obs.span("service.daemon.mutate", category="service"):
                apply()
            state.mutations += 1
            self._counter("service.daemon.mutations")
            response: Dict[str, object] = {
                "ok": True,
                "action": action,
                "mutations": state.mutations,
                "rebuilds": state.analyzer.rebuilds,
                "swaps": state.analyzer.swaps,
                "replays": state.analyzer.replays,
            }
            if request.get("analyze", True):
                response["analysis"] = self._analyze_state(state, request)
            return response

    def _mutation(
        self, state: _DesignState, action: str, request: Dict[str, object]
    ) -> Callable[[], None]:
        """Validate a mutate request; return the step that applies it."""
        # The inline analysis reads them after the edit is applied.
        check_slow_path_limit(
            request.get("slow_path_limit", self.slow_path_limit)
        )
        check_tolerance(request.get("tolerance"))
        if action == "scale_cell":
            from repro.delay.estimator import check_scale_factor

            cell = str(request.get("cell", ""))
            factor = float(request["factor"])
            state.network.cell(cell)
            check_scale_factor(factor)
            return lambda: state.analyzer.scale_cell(cell, factor)
        if action == "scale_clocks":
            schedule = state.schedule.scaled(request["factor"])
        elif action == "set_pulse_width":
            schedule = state.schedule.with_pulse_width(
                str(request["clock"]), request["width"]
            )
        else:
            raise ValueError(
                f"unknown mutate action {action!r} (use "
                "scale_cell, scale_clocks or set_pulse_width)"
            )

        def rebuild() -> None:
            state.schedule = schedule
            self._rebuild(state)

        return rebuild

    def _rebuild(self, state: _DesignState) -> None:
        """Clock edits change the instance windows: rebuild the engine
        (delays are clock-independent and reused)."""
        from repro.core.incremental import IncrementalAnalyzer

        delays = state.analyzer.delays
        state.analyzer = IncrementalAnalyzer(
            state.network, state.schedule, delays=delays
        )
        state.served = False

    def _op_report(self, request: Dict[str, object]) -> Dict[str, object]:
        state = self._design(request)
        endpoint = request.get("endpoint")
        if not endpoint:
            raise ValueError("report needs an 'endpoint'")
        with self._locked_design(state):
            result = state.analyzer.timing_result()
            forensics = result.path_forensics()
            explained = forensics.explain(str(endpoint))
            return {
                "ok": True,
                "endpoint": str(endpoint),
                "text": forensics.render_text(explained),
                "report": json.loads(forensics.to_json([explained])),
            }

    def _op_stats(self, request: Dict[str, object]) -> Dict[str, object]:
        with self._idle:
            named = [record.state for record in self._in_flight.values()]
        with self._designs_lock:
            # One row per warm design, keyed as the design is: by its
            # netlist and clocks paths and default clock (the JSON text
            # of that triple, so no two designs share a key).
            designs = {
                json.dumps(list(key)): {
                    "design": state.network.name,
                    "netlist": state.netlist,
                    "clocks": state.clocks,
                    "default_clock": state.default_clock,
                    "warm": state.warm,
                    "analyses": state.analyses,
                    "mutations": state.mutations,
                    "rebuilds": state.analyzer.rebuilds,
                    "swaps": state.analyzer.swaps,
                    "replays": state.analyzer.replays,
                    # Requests in flight that named it, snapshot reads
                    # included.
                    "in_flight": named.count(state),
                    "epoch": state.epoch,
                    "snapshot_hits": state.snapshot_hits,
                    "snapshot_published": state.snapshot is not None,
                }
                for key, state in self._designs.items()
            }
        return {
            "ok": True,
            **self._snapshot(),
            "designs": designs,
            "cache": (
                self.cache.stats.to_dict()
                if self.cache is not None
                else None
            ),
        }

    def _op_evict(self, request: Dict[str, object]) -> Dict[str, object]:
        """Drop a warm design, named as ``analyze`` names it."""
        key = self._design_key(request)
        with self._designs_lock:
            dropped = self._designs.pop(key, None)
        return {"ok": True, "dropped": dropped is not None}

    def _op_flight(self, request: Dict[str, object]) -> Dict[str, object]:
        """The flight ring (``last`` trims to the newest N events)."""
        last = _last_count(request.get("last"))
        self._stalled()  # a read: stalls found now are in the ring
        return {"ok": True, **self.flight.to_dict(last=last)}

    def _op_crash_report(self, request: Dict[str, object]) -> Dict[str, object]:
        """The latest ``repro.crash/1`` report (``crash: null`` if none).

        Spelled ``crash-report`` on the wire; ``?`` never errors --
        "no crash" is a healthy answer, not a failure.
        """
        latest = self.crash.latest()
        path = self.crash.latest_path()
        return {
            "ok": True,
            "crash": latest,
            "path": str(path) if path is not None else None,
            "reports_written": self.crash.reports_written,
        }

    # -- fault injection (debug_ops only; CI's self-diagnosis smoke) ---
    def _require_debug_ops(self) -> None:
        if not self.debug_ops:
            raise ValueError(
                "debug ops are disabled on this daemon (start it with "
                "REPRO_DEBUG_OPS=1 or debug_ops=True)"
            )

    def _op_fail(self, request: Dict[str, object]) -> Dict[str, object]:
        """Deliberately raise inside the handler (exercises the crash
        path end to end: structured error response, flight event,
        ``repro.crash/1`` report)."""
        self._require_debug_ops()
        raise RuntimeError(
            str(request.get("message", "injected failure (debug op)"))
        )

    def _op_sleep(self, request: Dict[str, object]) -> Dict[str, object]:
        """Deliberately hold the handler in flight (exercises stall
        counting: the request counts as stalled once it is in flight
        longer than ``stall_timeout_s``)."""
        self._require_debug_ops()
        seconds = min(60.0, float(request.get("seconds", 1.0) or 0.0))
        time.sleep(max(0.0, seconds))
        return {"ok": True, "slept_s": seconds}

    def _op_shutdown(self, request: Dict[str, object]) -> Dict[str, object]:
        return {"ok": True, "stopping": True, "__shutdown__": True}


class DaemonClient:
    """Blocking JSON-lines client for :class:`TimingDaemon`.

    >>> with DaemonClient("/tmp/repro.sock") as client:   # doctest: +SKIP
    ...     client.request({"op": "ping"})["pong"]
    True
    """

    def __init__(
        self,
        socket_path: Union[str, "os.PathLike[str]"],
        timeout: Optional[float] = 30.0,
    ) -> None:
        self.socket_path = str(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(self.socket_path)
        self._file = self._sock.makefile("rwb")

    def request(self, request: Dict[str, object]) -> Dict[str, object]:
        """Send one request object, wait for its response object.

        While the calling process records (``obs.recording()``), the
        request automatically carries a ``repro.trace/1`` context; the
        daemon handles it under a per-request recorder and ships the
        snapshot back, which is merged into the local trace -- the
        client span and the daemon's handler spans share one trace id
        in the resulting Chrome trace (see ``docs/observability.md``).
        """
        recorder = obs.active()
        ctx = None
        if recorder is not None and "trace" not in request:
            ctx = live.trace_context(recorder)
            request = dict(request)
            request["trace"] = ctx
        with obs.span(
            "service.client.request",
            category="service",
            op=str(request.get("op", "")),
            **live.span_args(ctx),
        ):
            self._file.write(
                json.dumps(
                    request, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
                + b"\n"
            )
            self._file.flush()
            line = self._file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        response = json.loads(line.decode("utf-8"))
        response.pop("__shutdown__", None)
        if ctx is not None:
            live.merge_snapshot(recorder, response.pop("trace", None))
        return response

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- convenience wrappers ------------------------------------------
    def ping(self) -> Dict[str, object]:
        return self.request({"op": "ping"})

    def analyze(self, netlist: str, clocks: str, **kw) -> Dict[str, object]:
        return self.request(
            {"op": "analyze", "netlist": netlist, "clocks": clocks, **kw}
        )

    def mutate(
        self, netlist: str, clocks: str, action: str, **kw
    ) -> Dict[str, object]:
        return self.request(
            {
                "op": "mutate",
                "netlist": netlist,
                "clocks": clocks,
                "action": action,
                **kw,
            }
        )

    def stats(self) -> Dict[str, object]:
        return self.request({"op": "stats"})

    def health(self) -> Dict[str, object]:
        return self.request({"op": "health"})

    def metrics(self) -> Dict[str, object]:
        return self.request({"op": "metrics"})

    def buildinfo(self) -> Dict[str, object]:
        return self.request({"op": "buildinfo"})

    def flight(self, last: Optional[int] = None) -> Dict[str, object]:
        request: Dict[str, object] = {"op": "flight"}
        if last is not None:
            request["last"] = last
        return self.request(request)

    def crash_report(self) -> Dict[str, object]:
        return self.request({"op": "crash-report"})

    def shutdown(self) -> Dict[str, object]:
        return self.request({"op": "shutdown"})
