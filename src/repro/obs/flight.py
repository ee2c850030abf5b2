"""Flight recorder and crash forensics.

``/metrics`` shows the daemon's counters; when a daemon request blows
up (or never returns) the numbers alone cannot answer "what was the
process doing just before?".  This module closes that gap with two
cooperating pieces, all standard library:

* :class:`FlightRecorder` -- a bounded, always-on ring of recent
  request summaries, log lines, stalls and exception events per
  process.  Appends are one deque op under a lock held for
  nanoseconds, so the ring can stay on in the hot path
  (``repro.flight/1`` export).
* ``repro.error/1`` / ``repro.crash/1`` builders --
  :func:`exception_frames` turns an exception's traceback into
  structured ``{file, line, function, code}`` frames (instead of a bare
  ``str(exc)``), :func:`thread_stacks` walks every live thread into
  ``func (pkg/module.py:lineno)`` frame labels, and
  :class:`CrashHandler` assembles both plus the flight ring and
  buildinfo into a crash report written to a ``crashes/`` directory.
  ``install()`` chains ``sys.excepthook`` / ``threading.excepthook``,
  enables :mod:`faulthandler` into the crash directory for fatal
  signals, and registers an ``atexit`` sweep that removes empty
  faulthandler logs.

Nothing here imports the service layer.  The daemon counts its stalled
requests itself, when they are read, and writes their ``stall`` events
into the flight ring with :func:`thread_stacks`' frames.
"""

from __future__ import annotations

import atexit
import faulthandler
import gc
import json
import os
import sys
import threading
import time
import traceback
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, Iterable, List, Optional, Union

__all__ = [
    "ERROR_SCHEMA",
    "FLIGHT_SCHEMA",
    "CRASH_SCHEMA",
    "exception_frames",
    "error_document",
    "thread_stacks",
    "FlightRecorder",
    "CrashHandler",
]

#: Schema of a structured error (exception + traceback frames).
ERROR_SCHEMA = "repro.error/1"
#: Schema of an exported flight-recorder ring.
FLIGHT_SCHEMA = "repro.flight/1"
#: Schema of a crash report (error + threads + flight + buildinfo).
CRASH_SCHEMA = "repro.crash/1"

#: Event kinds a flight ring may hold (free-form kinds also allowed).
EVENT_KINDS = ("request", "error", "log", "stall")


# ----------------------------------------------------------------------
# structured errors (repro.error/1)
# ----------------------------------------------------------------------
def exception_frames(
    exc: BaseException, limit: int = 32
) -> List[Dict[str, object]]:
    """Structured traceback frames, outermost first.

    Each frame is ``{"file", "line", "function", "code"}`` with the
    same short two-component file paths as :func:`thread_stacks`'
    labels, so the raising frame and the thread stacks of one crash
    report agree on names.  ``limit`` keeps the innermost frames when
    the traceback is deeper.
    """
    frames: List[Dict[str, object]] = []
    try:
        extracted = traceback.extract_tb(exc.__traceback__)
    except Exception:  # pragma: no cover -- hostile __traceback__
        return frames
    for entry in extracted[-limit:]:
        parts = (entry.filename or "?").replace("\\", "/").rsplit("/", 2)
        short = "/".join(parts[-2:]) if len(parts) > 1 else entry.filename
        frames.append(
            {
                "file": short,
                "line": int(entry.lineno or 0),
                "function": entry.name or "?",
                "code": (entry.line or "").strip(),
            }
        )
    return frames


def error_document(
    exc: BaseException, limit: int = 32
) -> Dict[str, object]:
    """The ``repro.error/1`` document for ``exc``."""
    return {
        "schema": ERROR_SCHEMA,
        "error": str(exc),
        "error_type": type(exc).__name__,
        "frames": exception_frames(exc, limit=limit),
    }


# ----------------------------------------------------------------------
# thread stacks
# ----------------------------------------------------------------------
def _frame_label(frame) -> str:
    """``func (pkg/module.py:lineno)`` -- short, stable, greppable."""
    code = frame.f_code
    filename = code.co_filename
    parts = filename.replace("\\", "/").rsplit("/", 2)
    short = "/".join(parts[-2:]) if len(parts) > 1 else filename
    return f"{code.co_name} ({short}:{frame.f_lineno})"


#: Serialises :func:`current_frames`, so one caller cannot re-enable the
#: collector while another is still inside ``sys._current_frames()``.
_FRAMES_LOCK = threading.Lock()


def current_frames() -> Dict[int, object]:
    """``sys._current_frames()`` with the garbage collector paused.

    CPython 3.11 can run a collection inside that call while it holds
    the interpreter's thread-list lock.  Collecting a thread-local
    object takes the same lock again, and the process deadlocks.
    """
    with _FRAMES_LOCK:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return sys._current_frames()
        finally:
            if enabled:
                gc.enable()


def thread_stacks(
    max_depth: int = 64,
    exclude: Iterable[int] = (),
) -> List[Dict[str, object]]:
    """Every live thread's stack via :func:`current_frames`.

    Returns one row per thread -- ``{"thread_id", "name", "daemon",
    "frames"}`` with frames root-first in the
    ``func (pkg/module.py:lineno)`` label format -- so a crash report
    shows *all* threads, not just the one that raised.
    """
    names = {t.ident: t for t in threading.enumerate()}
    skip = frozenset(exclude)
    rows: List[Dict[str, object]] = []
    try:
        current = current_frames()
    except Exception:  # pragma: no cover -- interpreter teardown
        return rows
    for tid, frame in sorted(current.items()):
        if tid in skip:
            continue
        stack: List[str] = []
        depth = 0
        cursor = frame
        while cursor is not None and depth < max_depth:
            stack.append(_frame_label(cursor))
            cursor = cursor.f_back
            depth += 1
        stack.reverse()  # root-first
        thread = names.get(tid)
        rows.append(
            {
                "thread_id": tid,
                "name": thread.name if thread is not None else "?",
                "daemon": bool(thread.daemon) if thread is not None else None,
                "frames": stack,
            }
        )
    return rows


# ----------------------------------------------------------------------
# flight recorder (repro.flight/1)
# ----------------------------------------------------------------------
class FlightRecorder:
    """Bounded always-on ring of recent observable moments.

    Parameters
    ----------
    capacity:
        Events retained, oldest evicted first (default 256 -- enough to
        reconstruct the last minutes of a busy daemon while keeping the
        export a few tens of KB).

    Appending is a dict build plus one :class:`collections.deque`
    append under a lock -- cheap enough to run on every request.
    Events that fall off the ring are counted in :attr:`dropped` so an
    export says how much history it *doesn't* show.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._events: Deque[Dict[str, object]] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self.total = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring since construction."""
        with self._lock:
            return self.total - len(self._events)

    # ------------------------------------------------------------------
    # appends (never raise)
    # ------------------------------------------------------------------
    def record(self, kind: str, **fields: object) -> Dict[str, object]:
        """Append one event; returns it.  Never raises."""
        event: Dict[str, object] = {"ts": time.time(), "kind": str(kind)}
        for key, value in fields.items():
            if value is not None:
                event[key] = value
        try:
            with self._lock:
                self._events.append(event)
                self.total += 1
        except Exception:  # pragma: no cover -- must not hurt the host
            pass
        return event

    def record_request(
        self,
        op: Optional[str],
        design: Optional[str],
        status: str,
        duration_s: float,
        **facts: object,
    ) -> Dict[str, object]:
        """Summarise one finished request into the ring."""
        return self.record(
            "request",
            op=op,
            design=design,
            status=status,
            duration_ms=round(duration_s * 1000.0, 3),
            **facts,
        )

    def record_error(
        self,
        exc: BaseException,
        op: Optional[str] = None,
        design: Optional[str] = None,
        **facts: object,
    ) -> Dict[str, object]:
        """Record an exception with its ``repro.error/1`` frames."""
        return self.record(
            "error",
            op=op,
            design=design,
            error=error_document(exc),
            **facts,
        )

    def record_log(self, message: str, **facts: object) -> Dict[str, object]:
        """Record a notable free-form moment (startup, eviction, ...)."""
        return self.record("log", message=str(message), **facts)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def events(
        self, last: Optional[int] = None, kind: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """The most recent events, oldest first (optionally filtered)."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.get("kind") == kind]
        if last is not None and last >= 0:
            events = events[-last:] if last else []
        return events

    def to_dict(self, last: Optional[int] = None) -> Dict[str, object]:
        """The ``repro.flight/1`` document."""
        with self._lock:
            events = list(self._events)
            total = self.total
        dropped = total - len(events)
        if last is not None and last >= 0:
            events = events[-last:] if last else []
        return {
            "schema": FLIGHT_SCHEMA,
            "pid": os.getpid(),
            "capacity": self.capacity,
            "total": total,
            "dropped": dropped,
            "events": events,
        }


# ----------------------------------------------------------------------
# crash reports (repro.crash/1)
# ----------------------------------------------------------------------
class CrashHandler:
    """Assemble and persist ``repro.crash/1`` reports.

    Parameters
    ----------
    crash_dir:
        Directory crash reports (and the faulthandler log for fatal
        signals) are written to; ``None`` keeps reports in memory only.
    flight:
        Optional :class:`FlightRecorder` whose ring is embedded in
        every report.
    buildinfo:
        Optional zero-arg callable returning the buildinfo dict.
    keep:
        On-disk reports retained; older ones are pruned (default 20).
    """

    def __init__(
        self,
        crash_dir: Optional[Union[str, Path]] = None,
        flight: Optional[FlightRecorder] = None,
        buildinfo: Optional[Callable[[], Dict[str, object]]] = None,
        keep: int = 20,
    ) -> None:
        self.crash_dir = Path(crash_dir) if crash_dir is not None else None
        self.flight = flight
        self.buildinfo = buildinfo
        self.keep = max(1, int(keep))
        self.reports_written = 0
        self.last_report: Optional[Dict[str, object]] = None
        self.last_path: Optional[Path] = None
        self._lock = threading.Lock()
        self._installed = False
        self._prev_excepthook = None
        self._prev_threading_excepthook = None
        self._faulthandler_file = None
        self._faulthandler_path: Optional[Path] = None

    # ------------------------------------------------------------------
    # report assembly
    # ------------------------------------------------------------------
    def build(
        self,
        exc: Optional[BaseException] = None,
        kind: str = "exception",
        op: Optional[str] = None,
        thread: Optional[str] = None,
        **extra: object,
    ) -> Dict[str, object]:
        """Build (without persisting) a ``repro.crash/1`` document."""
        report: Dict[str, object] = {
            "schema": CRASH_SCHEMA,
            "ts": time.time(),
            "pid": os.getpid(),
            "kind": str(kind),
            "op": op,
            "thread": thread,
            "error": error_document(exc) if exc is not None else None,
            "threads": thread_stacks(),
        }
        try:
            report["flight"] = (
                self.flight.to_dict() if self.flight is not None else None
            )
        except Exception:  # pragma: no cover -- forensics must not raise
            report["flight"] = None
        try:
            report["buildinfo"] = (
                self.buildinfo() if self.buildinfo is not None else None
            )
        except Exception:  # pragma: no cover
            report["buildinfo"] = None
        for key, value in extra.items():
            report[key] = value
        return report

    def report(
        self,
        exc: Optional[BaseException] = None,
        kind: str = "exception",
        op: Optional[str] = None,
        thread: Optional[str] = None,
        **extra: object,
    ) -> Dict[str, object]:
        """Build, remember and (when ``crash_dir`` is set) persist."""
        doc = self.build(exc, kind=kind, op=op, thread=thread, **extra)
        with self._lock:
            self.last_report = doc
            self.reports_written += 1
            serial = self.reports_written
        if self.crash_dir is not None:
            try:
                self.crash_dir.mkdir(parents=True, exist_ok=True)
                name = f"crash-{int(doc['ts'])}-{os.getpid()}-{serial}.json"
                path = self.crash_dir / name
                path.write_text(
                    json.dumps(doc, sort_keys=True, default=str) + "\n"
                )
                with self._lock:
                    self.last_path = path
                self._prune()
            except Exception:  # pragma: no cover -- disk full, perms...
                pass
        return doc

    def latest(self) -> Optional[Dict[str, object]]:
        """The most recent report: in-memory first, then newest on disk."""
        with self._lock:
            if self.last_report is not None:
                return self.last_report
        path = self.latest_path()
        if path is None:
            return None
        try:
            doc = json.loads(path.read_text())
        except Exception:
            return None
        return doc if isinstance(doc, dict) else None

    def latest_path(self) -> Optional[Path]:
        """Newest persisted ``crash-*.json``, or ``None``."""
        with self._lock:
            if self.last_path is not None and self.last_path.exists():
                return self.last_path
        if self.crash_dir is None or not self.crash_dir.is_dir():
            return None
        candidates = sorted(self.crash_dir.glob("crash-*.json"))
        return candidates[-1] if candidates else None

    def _prune(self) -> None:
        if self.crash_dir is None:
            return
        reports = sorted(self.crash_dir.glob("crash-*.json"))
        for stale in reports[: -self.keep]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover -- racing prune
                pass

    # ------------------------------------------------------------------
    # process hooks (opt-in; ``repro-sta serve`` installs them)
    # ------------------------------------------------------------------
    def install(self) -> "CrashHandler":
        """Chain into the process-level unhandled-exception hooks.

        * ``sys.excepthook`` / ``threading.excepthook`` write a crash
          report, then delegate to the previous hook;
        * :mod:`faulthandler` is enabled into
          ``<crash_dir>/faulthandler-<pid>.log`` so fatal signals
          (SEGV, ABRT, FPE...) leave all-thread stacks even though
          Python code cannot run then;
        * an ``atexit`` sweep closes the faulthandler log and removes
          it when empty (a clean shutdown leaves no debris).

        Safe to call once per handler; :meth:`uninstall` restores the
        previous hooks (tests rely on that).
        """
        if self._installed:
            return self
        self._installed = True
        handler = self

        self._prev_excepthook = sys.excepthook

        def _excepthook(exc_type, exc, tb) -> None:
            try:
                if exc is not None:
                    exc.__traceback__ = tb
                    handler.report(exc, kind="unhandled_exception")
            except Exception:  # pragma: no cover -- never mask the crash
                pass
            prev = handler._prev_excepthook or sys.__excepthook__
            prev(exc_type, exc, tb)

        sys.excepthook = _excepthook

        self._prev_threading_excepthook = threading.excepthook

        def _threading_excepthook(args) -> None:
            try:
                if args.exc_value is not None:
                    handler.report(
                        args.exc_value,
                        kind="unhandled_thread_exception",
                        thread=getattr(args.thread, "name", None),
                    )
            except Exception:  # pragma: no cover
                pass
            prev = (
                handler._prev_threading_excepthook
                or threading.__excepthook__
            )
            prev(args)

        threading.excepthook = _threading_excepthook

        if self.crash_dir is not None:
            try:
                self.crash_dir.mkdir(parents=True, exist_ok=True)
                self._faulthandler_path = (
                    self.crash_dir / f"faulthandler-{os.getpid()}.log"
                )
                self._faulthandler_file = open(
                    self._faulthandler_path, "w"
                )
                faulthandler.enable(self._faulthandler_file)
                atexit.register(self._sweep_faulthandler)
            except Exception:  # pragma: no cover -- read-only dir
                self._faulthandler_file = None
                self._faulthandler_path = None
        return self

    def uninstall(self) -> None:
        """Restore the previous hooks (idempotent)."""
        if not self._installed:
            return
        self._installed = False
        if self._prev_excepthook is not None:
            sys.excepthook = self._prev_excepthook
            self._prev_excepthook = None
        if self._prev_threading_excepthook is not None:
            threading.excepthook = self._prev_threading_excepthook
            self._prev_threading_excepthook = None
        self._sweep_faulthandler()

    def _sweep_faulthandler(self) -> None:
        handle, self._faulthandler_file = self._faulthandler_file, None
        path, self._faulthandler_path = self._faulthandler_path, None
        if handle is None:
            return
        try:
            if faulthandler.is_enabled():
                faulthandler.disable()
            handle.close()
            if path is not None and path.exists() and path.stat().st_size == 0:
                path.unlink()
        except Exception:  # pragma: no cover -- teardown best effort
            pass
