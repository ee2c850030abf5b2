"""Tests for the repro.obs instrumentation core."""

import gc
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _no_leak():
    """Every test must leave the process-wide recorder disabled."""
    assert obs.active() is None
    yield
    assert obs.active() is None


@pytest.fixture
def no_collections():
    """Automatic garbage collections are recorded as ``gc.*`` spans and
    counters; tests that check exact span and counter sets run without
    them (:class:`TestGarbageCollections` checks the recording)."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestDisabledNoOp:
    def test_disabled_by_default(self):
        assert obs.active() is None

    def test_span_returns_shared_null_object(self):
        first = obs.span("anything", category="x", arg=1)
        second = obs.span("other")
        assert first is obs.NULL_SPAN
        assert second is obs.NULL_SPAN
        with first:
            pass  # enter/exit must be no-ops

    def test_counter_gauge_event_noop(self):
        obs.counter("c", 5)
        obs.gauge("g", 1.0)
        obs.event("e", detail="ignored")
        assert obs.active() is None

    def test_null_span_reentrant(self):
        with obs.span("a"):
            with obs.span("b"):
                pass

    def test_disabled_overhead_is_small(self):
        """The disabled path must stay within a small constant factor of
        an empty loop (sanity bound, deliberately loose for CI noise)."""
        n = 20_000

        def empty():
            for __ in range(n):
                pass

        def instrumented():
            for __ in range(n):
                with obs.span("x"):
                    obs.counter("c")

        empty()  # warm up
        instrumented()
        t0 = time.perf_counter()
        empty()
        base = time.perf_counter() - t0
        t0 = time.perf_counter()
        instrumented()
        cost = time.perf_counter() - t0
        # ~3 global reads + a with-block per iteration; generous bound.
        assert cost < max(base * 60, 0.25)


@pytest.mark.usefixtures("no_collections")
class TestRecording:
    def test_recording_installs_and_restores(self):
        with obs.recording() as rec:
            assert obs.active() is rec
        assert obs.active() is None

    def test_recording_restores_previous(self):
        outer = obs.Recorder()
        with obs.recording(outer):
            with obs.recording() as inner:
                assert obs.active() is inner
            assert obs.active() is outer
        assert obs.active() is None

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.recording():
                raise RuntimeError("boom")
        assert obs.active() is None

    def test_counters_accumulate(self):
        with obs.recording() as rec:
            obs.counter("hits")
            obs.counter("hits", 2)
            obs.counter("misses", 0.5)
        assert rec.counters == {"hits": 3.0, "misses": 0.5}

    def test_gauges_overwrite(self):
        with obs.recording() as rec:
            obs.gauge("wns", -1.5)
            obs.gauge("wns", 2.5)
            rec.gauge_max("peak", 1.0)
            rec.gauge_max("peak", 0.5)
        assert rec.gauges == {"wns": 2.5, "peak": 1.0}

    def test_events_recorded_with_args(self):
        with obs.recording() as rec:
            obs.event("round_done", round=3, ok=True)
        assert len(rec.events) == 1
        assert rec.events[0].name == "round_done"
        assert dict(rec.events[0].args) == {"round": 3, "ok": True}


@pytest.mark.usefixtures("no_collections")
class TestSpans:
    def test_span_records_duration(self):
        with obs.recording() as rec:
            with obs.span("work"):
                time.sleep(0.002)
        assert len(rec.spans) == 1
        record = rec.spans[0]
        assert record.name == "work"
        assert record.duration >= 0.001
        assert record.depth == 0

    def test_span_nesting_depths(self):
        with obs.recording() as rec:
            with obs.span("outer"):
                with obs.span("inner"):
                    with obs.span("leaf"):
                        pass
                with obs.span("inner2"):
                    pass
        depths = {r.name: r.depth for r in rec.spans}
        assert depths == {"outer": 0, "inner": 1, "leaf": 2, "inner2": 1}
        # Children complete before parents.
        names = [r.name for r in rec.spans]
        assert names.index("leaf") < names.index("inner")
        assert names.index("inner") < names.index("outer")

    def test_span_stats_aggregate(self):
        with obs.recording() as rec:
            for __ in range(5):
                with obs.span("repeat"):
                    pass
        stats = rec.span_stats["repeat"]
        assert stats.count == 5
        assert stats.total >= 0.0
        assert stats.minimum <= stats.maximum
        assert math.isclose(stats.mean, stats.total / 5)

    def test_span_cap_drops_but_keeps_aggregates(self):
        with obs.recording(obs.Recorder(max_spans=3)) as rec:
            for __ in range(10):
                with obs.span("s"):
                    pass
        assert len(rec.spans) == 3
        assert rec.dropped_spans == 7
        assert rec.span_stats["s"].count == 10

    def test_event_cap(self):
        with obs.recording(obs.Recorder(max_events=2)) as rec:
            for index in range(5):
                obs.event("e", index=index)
        assert len(rec.events) == 2
        assert rec.dropped_events == 3

    def test_span_args_preserved(self):
        with obs.recording() as rec:
            with obs.span("pass", category="slack", cluster="c0", index=2):
                pass
        record = rec.spans[0]
        assert record.category == "slack"
        assert dict(record.args) == {"cluster": "c0", "index": 2}


class TestPhaseTree:
    def test_tree_reconstruction(self):
        with obs.recording() as rec:
            with obs.span("root"):
                with obs.span("child_a"):
                    with obs.span("grand"):
                        pass
                with obs.span("child_b"):
                    pass
        roots = obs.build_phase_tree(rec)
        assert len(roots) == 1
        root = roots[0]
        assert root.record.name == "root"
        assert [c.record.name for c in root.children] == [
            "child_a",
            "child_b",
        ]
        assert root.children[0].children[0].record.name == "grand"

    def test_render_contains_names_and_counters(self):
        with obs.recording() as rec:
            with obs.span("phase1"):
                pass
            obs.counter("things", 7)
        text = obs.render_phase_tree(rec)
        assert "phase1" in text
        assert "things" in text and "7" in text

    def test_render_empty_recording(self):
        with obs.recording() as rec:
            pass
        assert "no spans" in obs.render_phase_tree(rec)


@pytest.mark.usefixtures("no_collections")
class TestThreadLocalBinding:
    """PR 10: per-thread recorder binding (`obs.bound`) -- the daemon
    traces concurrent requests without a process-wide lock."""

    def test_bound_overrides_within_thread(self):
        with obs.recording() as ambient:
            private = obs.Recorder()
            with obs.bound(private):
                assert obs.active() is private
                obs.counter("inner")
                with obs.span("inner_span"):
                    pass
            assert obs.active() is ambient
            obs.counter("outer")
        assert private.counters.get("inner") == 1
        assert [s.name for s in private.spans] == ["inner_span"]
        assert "inner" not in ambient.counters
        assert ambient.counters.get("outer") == 1

    def test_bound_none_silences_a_thread(self):
        with obs.recording() as ambient:
            with obs.bound(None):
                assert obs.active() is None
                obs.counter("dropped")  # no-op: bound to None
            obs.counter("kept")
        assert "dropped" not in ambient.counters
        assert ambient.counters.get("kept") == 1

    def test_other_threads_see_the_ambient_recorder(self):
        import threading

        seen = {}
        gate = threading.Event()
        release = threading.Event()

        def other():
            gate.wait(timeout=10.0)
            seen["recorder"] = obs.active()
            obs.counter("from_other_thread")
            release.set()

        with obs.recording() as ambient:
            private = obs.Recorder()
            thread = threading.Thread(target=other)
            thread.start()
            with obs.bound(private):
                gate.set()  # the other thread samples while we're bound
                assert release.wait(timeout=10.0)
            thread.join(timeout=10.0)
            assert seen["recorder"] is ambient
        assert ambient.counters.get("from_other_thread") == 1
        assert "from_other_thread" not in private.counters

    def test_bound_restores_on_exception(self):
        with obs.recording() as ambient:
            private = obs.Recorder()
            with pytest.raises(RuntimeError):
                with obs.bound(private):
                    raise RuntimeError("boom")
            assert obs.active() is ambient

    def test_bindings_nest(self):
        with obs.recording():
            first, second = obs.Recorder(), obs.Recorder()
            with obs.bound(first):
                with obs.bound(second):
                    assert obs.active() is second
                assert obs.active() is first


class _Cycle:
    def __init__(self):
        self.me = self


class TestGarbageCollections:
    def test_collection_is_a_span_under_the_open_phase(self):
        with obs.recording() as rec:
            with obs.span("phase"):
                _Cycle()
                gc.collect()
        (collection,) = [s for s in rec.spans if s.name == "gc.gen2"]
        (phase,) = [s for s in rec.spans if s.name == "phase"]
        assert collection.category == "gc"
        assert collection.depth == phase.depth + 1
        assert phase.start <= collection.start
        assert dict(collection.args)["collected"] >= 1
        assert rec.counters["gc.collections"] >= 1
        assert rec.counters["gc.collected"] >= 1
        assert rec.counters["gc.seconds"] >= collection.duration > 0
        (root,) = obs.build_phase_tree(rec)
        assert "gc.gen2" in [child.record.name for child in root.children]

    def test_hook_is_removed_when_recording_ends(self):
        before = list(gc.callbacks)
        with obs.recording():
            assert len(gc.callbacks) == len(before) + 1
            with obs.recording():
                gc.collect()
            assert len(gc.callbacks) == len(before) + 1
        assert gc.callbacks == before

    def test_counters_and_collections_never_deadlock(self):
        """Collections land while another thread holds the recorder
        lock, in counter() and in span exits; the hook must not wait
        for it, and every collection is folded in exactly once.  The
        stress runs in a child process, so a deadlock fails the test
        instead of hanging it."""
        child = subprocess.run(
            [sys.executable, "-c", _STRESS],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert child.returncode == 0, child.stderr
        hammered, collections, gc_spans = map(float, child.stdout.split())
        assert hammered == 3 * 2000
        assert collections > 0 and gc_spans == collections


SRC = Path(__file__).resolve().parents[2] / "src"

#: Three threads hammer counters and spans (more threads than cores)
#: while a fourth litters cyclic garbage; prints the counter, the
#: collections counted and the gc spans recorded.
_STRESS = """
import gc, sys, threading
from repro import obs

# Collect at every allocation, so that collections also start inside
# the recorder's locked sections, and switch threads often.
gc.set_threshold(1)
sys.setswitchinterval(1e-5)

class Cycle:
    def __init__(self):
        self.me = self

done = threading.Event()

def hammer(rec):
    for _ in range(2000):
        rec.counter("hammer")
        with rec.span("tick"):
            pass

def litter():
    while not done.is_set():
        for _ in range(200):
            Cycle()

with obs.recording() as rec:
    hammers = [threading.Thread(target=hammer, args=(rec,)) for _ in range(3)]
    litterer = threading.Thread(target=litter)
    for thread in hammers + [litterer]:
        thread.start()
    for thread in hammers:
        thread.join()
    done.set()
    litterer.join()
# span_stats count the spans past the max_spans cap too.
spans = sum(
    stats.count for name, stats in rec.span_stats.items()
    if name.startswith("gc.gen")
)
print(rec.counters["hammer"], rec.counters["gc.collections"], spans)
"""
