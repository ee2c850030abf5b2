"""Structured access logs for the service layer.

One JSON object per line (schema ``repro.accesslog/1``), one line per
daemon request or batch job -- greppable with ``jq`` while the daemon is
alive, no log parser required::

    {"schema": "repro.accesslog/1", "ts": 1754500000.123,
     "kind": "daemon", "op": "analyze", "design": "pipeline",
     "engine": "incremental-warm", "cache_hit": false,
     "queue_wait_s": 0.0002, "handle_s": 0.0131,
     "status": "ok", "pid": 4242, "trace_id": null}

Required keys (always present, ``None`` when not applicable): ``schema``
``ts`` ``kind`` ``op`` ``design`` ``status`` ``duration_s``.  Optional
facts (``engine``, ``cache_hit``, ``queue_wait_s``, ``handle_s``,
``attempts``, ``worker_pid``, ``error``, ``trace_id``) appear when the
caller supplies them.

**Slow-request forensics:** entries whose duration exceeds
``slow_threshold_s`` additionally carry a ``spans`` tree (name,
start/duration, children) rebuilt from the request's recorder snapshot
-- full detail for the outliers, one flat line for everyone else.
"""

from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path
from typing import Dict, IO, List, Optional, Tuple, Union

__all__ = ["ACCESS_LOG_SCHEMA", "AccessLog", "span_tree_from_snapshot"]

#: Schema identifier stamped on every access-log line.
ACCESS_LOG_SCHEMA = "repro.accesslog/1"

#: Keys every line carries (the parseable contract; tests assert this).
REQUIRED_KEYS = (
    "schema",
    "ts",
    "kind",
    "op",
    "design",
    "status",
    "duration_s",
)


def _json_safe(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def span_tree_from_snapshot(
    snap: Optional[Dict[str, object]], max_spans: int = 200
) -> Optional[List[Dict[str, object]]]:
    """Rebuild a nested span tree from a ``repro.obs.snapshot/1`` doc.

    Each span nests under the innermost span of its thread that
    contains it in time (starts no later, ends no earlier).  The
    recorded ``depth`` is not used: a garbage collection that runs as a
    span opens is recorded one level deeper than that span, yet ends
    before it starts.  The result is a forest of ``{"name", "start_s",
    "duration_s", "children": [...]}`` nodes, capped at ``max_spans``
    records so one pathological request cannot bloat the log.
    """
    if not isinstance(snap, dict):
        return None
    spans = snap.get("spans")
    if not isinstance(spans, list) or not spans:
        return None
    rows = []
    for entry in spans[:max_spans]:
        try:
            # Longer spans first among equal starts: parents open first.
            rows.append(
                (
                    float(entry["start"]),
                    -float(entry["dur"]),
                    int(entry.get("tid", 0)),
                    str(entry["name"]),
                )
            )
        except (KeyError, TypeError, ValueError):
            continue
    forest: List[Dict[str, object]] = []
    # Per thread: (end, node) of the spans open at the last start.
    stacks: Dict[int, List[Tuple[float, Dict[str, object]]]] = {}
    for start, negative_dur, tid, name in sorted(rows):
        node = {
            "name": name,
            "start_s": round(start, 6),
            "duration_s": round(-negative_dur, 6),
            "children": [],
        }
        stack = stacks.setdefault(tid, [])
        while stack and stack[-1][0] < start:
            stack.pop()
        (stack[-1][1]["children"] if stack else forest).append(node)
        stack.append((start - negative_dur, node))
    return forest or None


class AccessLog:
    """Append-only JSON-lines access log with a slow-request threshold.

    Parameters
    ----------
    path:
        File to append to (opened lazily, line-buffered).  Pass an open
        file-like object instead to log into a test buffer.
    slow_threshold_s:
        Entries at least this slow also carry their full ``spans`` tree
        (when the caller provides the request's recorder snapshot).
    max_bytes:
        Size-based rotation (``--access-log-max-bytes``): once the live
        file reaches this many bytes it is renamed to ``<path>.1``
        (older generations shifting to ``.2`` ... ``.<backups>``, the
        oldest dropped) and a fresh file is opened.  ``None`` (the
        default) never rotates.  Rotation failures are swallowed like
        every other I/O error here -- the log keeps appending in place.
    backups:
        Rotated generations to keep (ignored without ``max_bytes``).
    """

    def __init__(
        self,
        path: Union[str, Path, IO[str]],
        slow_threshold_s: float = 1.0,
        max_bytes: Optional[int] = None,
        backups: int = 3,
    ) -> None:
        self.slow_threshold_s = float(slow_threshold_s)
        self.max_bytes = int(max_bytes) if max_bytes else None
        self.backups = max(1, int(backups))
        self.rotations = 0
        self.lines_written = 0
        self._bytes_written: Optional[int] = None
        self._lock = threading.Lock()
        if hasattr(path, "write"):
            self.path: Optional[Path] = None
            self._handle: Optional[IO[str]] = path  # type: ignore[assignment]
        else:
            self.path = Path(path)  # type: ignore[arg-type]
            self._handle = None

    def _file(self) -> IO[str]:
        if self._handle is None:
            assert self.path is not None
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", buffering=1)
            try:
                self._bytes_written = self._handle.tell()
            except OSError:
                self._bytes_written = 0
        return self._handle

    def _maybe_rotate_locked(self, pending: int) -> None:
        """Rotate ``path -> path.1 -> ... -> path.N`` when the next
        write would cross ``max_bytes``.  File-object logs (tests) and
        rotation failures leave the current handle in place."""
        if (
            self.max_bytes is None
            or self.path is None
            or self._bytes_written is None
            or self._bytes_written == 0
            or self._bytes_written + pending <= self.max_bytes
        ):
            return
        try:
            if self._handle is not None:
                self._handle.close()
            self._handle = None
            for index in range(self.backups, 1, -1):
                older = Path(f"{self.path}.{index - 1}")
                if older.exists():
                    older.replace(Path(f"{self.path}.{index}"))
            self.path.replace(Path(f"{self.path}.1"))
            self.rotations += 1
        except OSError:
            pass
        self._bytes_written = None

    def record(
        self,
        kind: str,
        op: str,
        design: Optional[str],
        status: str,
        duration_s: float,
        snapshot: Optional[Dict[str, object]] = None,
        force_spans: bool = False,
        **facts: object,
    ) -> Dict[str, object]:
        """Write one line; returns the entry (handy for tests).

        ``force_spans`` attaches the span tree regardless of the slow
        threshold -- the daemon sets it for failed requests, whose
        forensic value does not depend on their duration.

        Never raises: an unwritable log is reported once via the
        ``error`` counter path and then dropped -- telemetry must not
        take the serving path down.
        """
        from repro import obs

        entry: Dict[str, object] = {
            "schema": ACCESS_LOG_SCHEMA,
            "ts": round(time.time(), 6),
            "kind": kind,
            "op": op,
            "design": design,
            "status": status,
            "duration_s": round(float(duration_s), 6),
        }
        for key, value in facts.items():
            if value is not None:
                entry[key] = _json_safe(value)
        slow = duration_s >= self.slow_threshold_s
        if slow:
            entry["slow"] = True
        if slow or force_spans:
            tree = span_tree_from_snapshot(snapshot)
            if tree is not None:
                entry["spans"] = tree
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        try:
            with self._lock:
                self._maybe_rotate_locked(len(line) + 1)
                handle = self._file()
                handle.write(line + "\n")
                if self._bytes_written is not None:
                    self._bytes_written += len(line) + 1
                self.lines_written += 1
        except OSError:
            return entry
        obs.counter("service.accesslog.lines")
        return entry

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and self.path is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    def __enter__(self) -> "AccessLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
