"""Span-attributed sampling profiler (``repro.profile/1``).

The observability stack so far answers *how long* (spans, histograms)
but never *which frames*: when a phase is slow, nothing says whether
the milliseconds go to ``dmax_p`` sweeps, dict churn or JSON encoding.
:class:`SamplingProfiler` closes that gap with a background thread that
walks :func:`sys._current_frames` at a configurable rate (default
100 Hz) and attributes every sampled stack to the **innermost active
span** of the target thread, read lock-free from the recorder's
per-thread span stack (:meth:`repro.obs.recorder.Recorder.
active_span_stack`).

Design constraints:

* **standard library only** -- no native sampler, no signals; the GIL
  makes ``sys._current_frames()`` a consistent snapshot per thread;
* **bounded** -- at most ``max_stacks`` distinct (span, stack) keys
  accumulate; beyond that new stacks fold into a ``(truncated)`` row so
  a pathological workload cannot exhaust memory;
* **cheap when off** -- the only always-on cost is the recorder's
  span-stack push/pop (two list ops per span);
* **self-excluding** -- the sampler never samples its own thread, and
  samples whose thread is parked in a known waiter frame (``select``,
  ``wait``, ``accept`` ...) with no open span count as *idle*, not as
  unattributed work.

The profile document (schema ``repro.profile/1``) is JSON-safe and
merge-able across processes (workers ship theirs back next to the
``repro.obs.snapshot/1`` trace snapshot), and exports to collapsed-
stack text (FlameGraph / ``flamegraph.pl`` input) and speedscope JSON
(https://www.speedscope.app -- one sampled profile per process).

Typical in-process usage::

    from repro import obs
    from repro.obs.profile import SamplingProfiler, write_speedscope

    with obs.recording() as rec:
        with SamplingProfiler(hz=100, recorder=rec) as prof:
            Hummingbird(network, schedule).analyze()
    write_speedscope(prof.result(), "analyze.speedscope.json")
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.recorder import Recorder, active

__all__ = [
    "PROFILE_SCHEMA",
    "SamplingProfiler",
    "merge_profiles",
    "to_collapsed",
    "to_speedscope",
    "write_speedscope",
]

#: Schema identifier of a serialised profile document.
PROFILE_SCHEMA = "repro.profile/1"

#: Leaf function names that mean "this thread is parked, not working".
#: A sample whose thread has no open span *and* rests in one of these
#: is counted as idle instead of unattributed -- daemon accept loops
#: and sidecar servers would otherwise drown the profile in wait
#: frames.
_WAITER_LEAVES = frozenset(
    {
        "wait",
        "select",
        "poll",
        "epoll",
        "accept",
        "readline",
        "readinto",
        "recv",
        "recv_into",
        "sleep",
        "settimeout",
        "serve_forever",
        "get",
        "acquire",
        "_recv_msg",
        "kevent",
    }
)

#: Label used when a sample has no open span to attach to.
UNATTRIBUTED = "(no span)"

#: Synthetic stack row that absorbs samples past ``max_stacks``.
_TRUNCATED_KEY = ("(truncated)", ("(truncated)",))


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
    the interpreter's thread-list lock.  Collecting a ``threading.local``
    (the daemon keeps several) takes the same lock again, and the
    process deadlocks.
    """
    with _FRAMES_LOCK:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return sys._current_frames()
        finally:
            if enabled:
                gc.enable()


class SamplingProfiler:
    """Background-thread sampling profiler with span attribution.

    Parameters
    ----------
    hz:
        Target sampling rate (samples per second, default 100).
    recorder:
        The :class:`~repro.obs.recorder.Recorder` whose per-thread span
        stacks attribute samples; defaults to the process-wide recorder
        *at start time* (``None`` means samples are unattributed).
    max_stacks:
        Bound on distinct (span, stack) keys kept (default 10000).
    max_depth:
        Frames kept per sample, leaf-deepest truncated (default 128).
    threads:
        Optional explicit thread-id allowlist; default samples every
        thread except the profiler's own.
    """

    def __init__(
        self,
        hz: float = 100.0,
        recorder: Optional[Recorder] = None,
        max_stacks: int = 10_000,
        max_depth: int = 128,
        threads: Optional[Iterable[int]] = None,
    ) -> None:
        if not 0 < hz < math.inf:
            raise ValueError(f"hz must be finite and > 0, got {hz!r}")
        self.hz = float(hz)
        self._recorder = recorder
        self.max_stacks = int(max_stacks)
        self.max_depth = int(max_depth)
        self._threads = frozenset(threads) if threads is not None else None
        #: (span_path, frames_root_first) -> sample count.
        self._counts: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples = 0
        self.attributed = 0
        self.idle = 0
        self.dropped_ticks = 0
        self.started_wall: Optional[float] = None
        self._started_perf: Optional[float] = None
        self.duration_s = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self._recorder is None:
            self._recorder = active()
        self.started_wall = time.time()
        self._started_perf = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Dict[str, object]:
        """Stop sampling; returns the final profile document."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
            if self._started_perf is not None:
                self.duration_s = time.perf_counter() - self._started_perf
        return self.result()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # sampling loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        interval = 1.0 / self.hz
        own_ident = threading.get_ident()
        next_tick = time.perf_counter() + interval
        while not self._stop.is_set():
            delay = next_tick - time.perf_counter()
            if delay > 0:
                if self._stop.wait(delay):
                    break
            else:
                # Fell behind (sampling cost > interval): skip the
                # missed ticks instead of bursting to catch up.
                missed = int(-delay / interval)
                self.dropped_ticks += missed
                next_tick += missed * interval
            next_tick += interval
            self._sample_once(own_ident)

    def _sample_once(self, own_ident: int) -> None:
        recorder = self._recorder
        try:
            frames = current_frames()
        except Exception:  # pragma: no cover -- interpreter teardown
            return
        for tid, frame in frames.items():
            if tid == own_ident:
                continue
            if self._threads is not None and tid not in self._threads:
                continue
            stack: List[str] = []
            depth = 0
            current = frame
            while current is not None and depth < self.max_depth:
                stack.append(_frame_label(current))
                current = current.f_back
                depth += 1
            if not stack:
                continue
            span_stack = (
                recorder.active_span_stack(tid)
                if recorder is not None
                else ()
            )
            if span_stack:
                span_path = ";".join(name for name, __ in span_stack)
            else:
                leaf = frame.f_code.co_name
                if leaf in _WAITER_LEAVES:
                    self.idle += 1
                    continue
                span_path = UNATTRIBUTED
            stack.reverse()  # root-first, collapsed-stack order
            key = (span_path, tuple(stack))
            with self._lock:
                self.samples += 1
                if span_stack:
                    self.attributed += 1
                count = self._counts.get(key)
                if count is not None:
                    self._counts[key] = count + 1
                elif len(self._counts) < self.max_stacks:
                    self._counts[key] = 1
                else:
                    self._counts[_TRUNCATED_KEY] = (
                        self._counts.get(_TRUNCATED_KEY, 0) + 1
                    )

    # ------------------------------------------------------------------
    # result
    # ------------------------------------------------------------------
    def result(self) -> Dict[str, object]:
        """The ``repro.profile/1`` document (callable while running)."""
        if self._started_perf is not None and self.running:
            duration = time.perf_counter() - self._started_perf
        else:
            duration = self.duration_s
        with self._lock:
            stacks = [
                {
                    "span": span_path,
                    "frames": list(frames),
                    "count": count,
                }
                for (span_path, frames), count in sorted(
                    self._counts.items(),
                    key=lambda item: -item[1],
                )
            ]
            samples = self.samples
            attributed = self.attributed
        return {
            "schema": PROFILE_SCHEMA,
            "pid": os.getpid(),
            "hz": self.hz,
            "started_wall": self.started_wall,
            "duration_s": round(duration, 6),
            "samples": samples,
            "attributed": attributed,
            "idle": self.idle,
            "dropped_ticks": self.dropped_ticks,
            "stacks": stacks,
        }


def _valid(doc: Optional[Dict[str, object]]) -> bool:
    return isinstance(doc, dict) and doc.get("schema") == PROFILE_SCHEMA


def merge_profiles(
    docs: Iterable[Optional[Dict[str, object]]],
) -> Dict[str, object]:
    """Fold ``repro.profile/1`` documents into one multi-process doc.

    Stacks from different processes stay distinct (each merged stack
    row carries its originating ``pid``), aggregates sum, and malformed
    or ``None`` entries are skipped -- a worker that failed to profile
    never poisons the merge.  The merged document is itself a valid
    ``repro.profile/1`` (with a ``pids`` list instead of implying one
    process).
    """
    merged: Dict[str, object] = {
        "schema": PROFILE_SCHEMA,
        "pid": os.getpid(),
        "pids": [],
        "hz": None,
        "started_wall": None,
        "duration_s": 0.0,
        "samples": 0,
        "attributed": 0,
        "idle": 0,
        "dropped_ticks": 0,
        "stacks": [],
    }
    pids: List[int] = []
    for doc in docs:
        if not _valid(doc):
            continue
        pid = doc.get("pid")
        pid = int(pid) if isinstance(pid, (int, float)) else None
        if pid is not None and pid not in pids:
            pids.append(pid)
        if merged["hz"] is None:
            merged["hz"] = doc.get("hz")
        started = doc.get("started_wall")
        if isinstance(started, (int, float)):
            first = merged["started_wall"]
            if first is None or started < first:
                merged["started_wall"] = started
        for field in ("samples", "attributed", "idle", "dropped_ticks"):
            try:
                merged[field] += int(doc.get(field) or 0)
            except (TypeError, ValueError):
                pass
        try:
            merged["duration_s"] = round(
                float(merged["duration_s"])
                + float(doc.get("duration_s") or 0.0),
                6,
            )
        except (TypeError, ValueError):
            pass
        for row in doc.get("stacks") or ():
            if not isinstance(row, dict):
                continue
            out = {
                "span": str(row.get("span", UNATTRIBUTED)),
                "frames": [str(f) for f in (row.get("frames") or ())],
                "count": int(row.get("count") or 0),
            }
            row_pid = row.get("pid", pid)
            if row_pid is not None:
                out["pid"] = int(row_pid)
            merged["stacks"].append(out)
    merged["pids"] = pids
    return merged


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def to_collapsed(doc: Dict[str, object]) -> str:
    """Collapsed-stack text: ``span;frame;frame count`` per line.

    The span path is prepended as synthetic frames, so a flamegraph
    groups samples by analysis phase before code location (the whole
    point of span attribution).  Directly consumable by
    ``flamegraph.pl`` or speedscope's collapsed importer.
    """
    lines = []
    for row in doc.get("stacks") or ():
        span_path = str(row.get("span", UNATTRIBUTED))
        frames = [str(f) for f in (row.get("frames") or ())]
        parts = [f"[span] {name}" for name in span_path.split(";")]
        parts.extend(frames)
        prefix = ""
        if "pid" in row:
            prefix = f"pid {row['pid']};"
        lines.append(f"{prefix}{';'.join(parts)} {row.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(
    doc: Dict[str, object], name: str = "repro profile"
) -> Dict[str, object]:
    """Convert to speedscope's sampled-profile JSON file format.

    One speedscope profile per originating process (merged multi-pid
    documents render as side-by-side tabs), weights in seconds
    (``count / hz``), span names prepended as ``[span]`` frames.
    """
    hz = float(doc.get("hz") or 100.0)
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []

    def _index(label: str) -> int:
        idx = frame_index.get(label)
        if idx is None:
            idx = frame_index[label] = len(frames)
            frames.append({"name": label})
        return idx

    by_pid: Dict[object, List[Dict[str, object]]] = {}
    for row in doc.get("stacks") or ():
        by_pid.setdefault(row.get("pid", doc.get("pid")), []).append(row)
    if not by_pid:
        # Zero samples (short run, idle process): still emit one empty
        # profile so the file opens in speedscope.
        by_pid[doc.get("pid")] = []
    profiles = []
    for pid in sorted(by_pid, key=lambda p: (p is None, p)):
        samples: List[List[int]] = []
        weights: List[float] = []
        total = 0.0
        for row in by_pid[pid]:
            span_path = str(row.get("span", UNATTRIBUTED))
            stack = [
                _index(f"[span] {part}")
                for part in span_path.split(";")
            ]
            stack.extend(
                _index(str(f)) for f in (row.get("frames") or ())
            )
            weight = int(row.get("count") or 0) / hz
            samples.append(stack)
            weights.append(weight)
            total += weight
        profiles.append(
            {
                "type": "sampled",
                "name": f"pid {pid}" if pid is not None else "profile",
                "unit": "seconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        )
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro.obs.profile",
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def write_speedscope(
    doc: Dict[str, object],
    path: Union[str, Path],
    name: Optional[str] = None,
) -> Path:
    """Write the speedscope export of ``doc`` to ``path``."""
    path = Path(path)
    path.write_text(
        json.dumps(
            to_speedscope(doc, name=name or path.stem),
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
    )
    return path
