"""Tests for the span-attributed sampling profiler (repro.obs.profile)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.obs.profile import (
    PROFILE_SCHEMA,
    UNATTRIBUTED,
    SamplingProfiler,
    merge_profiles,
    to_collapsed,
    to_speedscope,
    write_speedscope,
)


@pytest.fixture(autouse=True)
def _no_leak():
    assert obs.active() is None
    yield
    assert obs.active() is None


def _burn(deadline_s: float = 0.15) -> int:
    """Busy loop: guaranteed on-CPU Python frames to sample."""
    total = 0
    stop = time.perf_counter() + deadline_s
    while time.perf_counter() < stop:
        total += sum(range(200))
    return total


class TestSampling:
    def test_samples_and_attributes_under_spans(self):
        with obs.recording() as rec:
            profiler = SamplingProfiler(hz=400, recorder=rec)
            profiler.start()
            with obs.span("phase.outer"):
                with obs.span("phase.inner"):
                    _burn()
            doc = profiler.stop()
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["samples"] > 0
        assert doc["attributed"] > 0
        assert doc["hz"] == 400
        assert doc["duration_s"] > 0
        spans = {row["span"] for row in doc["stacks"]}
        assert any("phase.outer;phase.inner" in s for s in spans)
        # Frames are root-first; the busy loop's leaf is _burn.
        busy = [
            row
            for row in doc["stacks"]
            if row["span"].endswith("phase.inner")
        ]
        assert busy, spans
        assert any("_burn" in row["frames"][-1] for row in busy)

    def test_unattributed_without_recorder(self):
        profiler = SamplingProfiler(hz=400, recorder=None)
        # No process-wide recorder either (the autouse fixture
        # guarantees it), so start() binds to nothing.
        profiler.start()
        _burn()
        doc = profiler.stop()
        assert doc["samples"] > 0
        assert doc["attributed"] == 0
        assert {row["span"] for row in doc["stacks"]} == {UNATTRIBUTED}

    def test_waiter_leaf_counts_as_idle(self):
        release = threading.Event()
        started = threading.Event()

        def _parked():
            started.set()
            release.wait(5.0)  # leaf co_name "wait" -> idle

        waiter = threading.Thread(target=_parked, daemon=True)
        waiter.start()
        started.wait(5.0)
        profiler = SamplingProfiler(
            hz=400, threads=[waiter.ident]
        )
        profiler.start()
        time.sleep(0.1)
        doc = profiler.stop()
        release.set()
        waiter.join(timeout=5.0)
        assert doc["idle"] > 0
        assert doc["samples"] == 0  # idle samples are not stack rows

    def test_context_manager_and_result_while_running(self):
        with obs.recording() as rec:
            with SamplingProfiler(hz=400, recorder=rec) as profiler:
                with obs.span("phase.live"):
                    _burn(0.1)
                    live = profiler.result()
                assert profiler.running
            assert not profiler.running
        assert live["schema"] == PROFILE_SCHEMA
        assert live["duration_s"] > 0

    def test_own_thread_never_sampled(self):
        profiler = SamplingProfiler(hz=1000)
        profiler.start()
        time.sleep(0.1)
        doc = profiler.stop()
        for row in doc["stacks"]:
            assert "_sample_once" not in ";".join(row["frames"])

    def test_max_stacks_folds_into_truncated(self):
        def _shape_a(stop):
            while time.perf_counter() < stop:
                sum(range(100))

        def _shape_b(stop):
            while time.perf_counter() < stop:
                max(range(100))

        profiler = SamplingProfiler(hz=1000, max_stacks=1)
        profiler.start()
        # Two distinct stack shapes guarantee a second key that must
        # fold into the truncated row once the first slot is taken.
        for __ in range(4):
            _shape_a(time.perf_counter() + 0.05)
            _shape_b(time.perf_counter() + 0.05)
        doc = profiler.stop()
        assert doc["samples"] > 1
        assert len(doc["stacks"]) <= 2  # one real key + "(truncated)"
        assert any(
            row["span"] == "(truncated)" for row in doc["stacks"]
        )

    def test_rejects_bad_hz(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(hz=-5)
        for hz in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SamplingProfiler(hz=hz)

    def test_double_start_rejected(self):
        profiler = SamplingProfiler(hz=100)
        profiler.start()
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
        finally:
            profiler.stop()

    def test_frame_walk_survives_a_collection_of_thread_locals(self):
        """A collection that frees a ``threading.local`` and lands inside
        the frame walk must not deadlock the process.  Each step makes
        such garbage and sets the threshold so the collection triggers
        k allocations later, one of which is inside the walk."""
        code = (
            "import gc, threading\n"
            "from repro.obs.profile import current_frames\n"
            "class Holder:\n"
            "    pass\n"
            "def probe():\n"
            "    return current_frames()\n"
            "def garbage():\n"
            "    for __ in range(10):\n"
            "        h = Holder()\n"
            "        h.loc = threading.local()\n"
            "        h.loc.x = 1\n"
            "        h.me = h\n"
            "for k in range(8):\n"
            "    gc.collect()\n"
            "    gc.disable()\n"
            "    garbage()\n"
            "    gc.set_threshold(gc.get_count()[0] + k)\n"
            "    gc.enable()\n"
            "    probe()\n"
            "    gc.set_threshold(700)\n"
            "print('ok')\n"
        )
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src_dir},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.stdout.strip() == "ok", result.stderr


class TestMerge:
    def _doc(self, pid, span="alg1.iteration", count=3):
        return {
            "schema": PROFILE_SCHEMA,
            "pid": pid,
            "hz": 100.0,
            "started_wall": 1000.0 + pid,
            "duration_s": 1.0,
            "samples": count,
            "attributed": count,
            "idle": 1,
            "dropped_ticks": 0,
            "stacks": [
                {"span": span, "frames": ["main", "work"], "count": count}
            ],
        }

    def test_merge_sums_and_stamps_pids(self):
        merged = merge_profiles([self._doc(11), self._doc(22, count=2)])
        assert merged["schema"] == PROFILE_SCHEMA
        assert merged["pids"] == [11, 22]
        assert merged["samples"] == 5
        assert merged["attributed"] == 5
        assert merged["idle"] == 2
        assert merged["duration_s"] == 2.0
        assert merged["started_wall"] == 1011.0  # earliest wins
        assert {row["pid"] for row in merged["stacks"]} == {11, 22}

    def test_merge_skips_invalid_entries(self):
        merged = merge_profiles(
            [None, {"schema": "nope"}, 42, self._doc(7)]
        )
        assert merged["pids"] == [7]
        assert merged["samples"] == 3

    def test_merged_doc_is_itself_mergeable(self):
        merged = merge_profiles([self._doc(1), self._doc(2)])
        again = merge_profiles([merged, self._doc(3)])
        assert set(again["pids"]) >= {3}
        assert again["samples"] == 9


class TestExporters:
    def _doc(self):
        return {
            "schema": PROFILE_SCHEMA,
            "pid": 5,
            "hz": 100.0,
            "started_wall": None,
            "duration_s": 0.5,
            "samples": 4,
            "attributed": 4,
            "idle": 0,
            "dropped_ticks": 0,
            "stacks": [
                {
                    "span": "a;b",
                    "frames": ["root (m.py:1)", "leaf (m.py:2)"],
                    "count": 3,
                },
                {"span": UNATTRIBUTED, "frames": ["x (n.py:9)"], "count": 1},
            ],
        }

    def test_collapsed_format(self):
        text = to_collapsed(self._doc())
        lines = text.strip().splitlines()
        assert lines[0] == "[span] a;[span] b;root (m.py:1);leaf (m.py:2) 3"
        assert lines[1].endswith(" 1")
        assert to_collapsed({"stacks": []}) == ""

    def test_collapsed_prefixes_pid_on_merged_rows(self):
        doc = merge_profiles([self._doc()])
        text = to_collapsed(doc)
        assert text.startswith("pid 5;")

    def test_speedscope_structure_and_weights(self):
        scope = to_speedscope(self._doc(), name="unit")
        assert scope["$schema"].endswith("file-format-schema.json")
        assert scope["name"] == "unit"
        names = [f["name"] for f in scope["shared"]["frames"]]
        assert "[span] a" in names and "[span] b" in names
        (profile,) = scope["profiles"]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        # 3 samples at 100 Hz = 30 ms; 1 sample = 10 ms.
        assert profile["weights"] == [0.03, 0.01]
        assert profile["endValue"] == pytest.approx(0.04)
        # Sample index vectors resolve inside the frame table.
        for sample in profile["samples"]:
            assert all(0 <= idx < len(names) for idx in sample)

    def test_speedscope_one_profile_per_pid(self):
        merged = merge_profiles(
            [self._doc(), dict(self._doc(), pid=6)]
        )
        scope = to_speedscope(merged)
        assert [p["name"] for p in scope["profiles"]] == [
            "pid 5",
            "pid 6",
        ]

    def test_write_speedscope_round_trip(self, tmp_path):
        target = tmp_path / "out.speedscope.json"
        written = write_speedscope(self._doc(), target)
        assert written == target
        data = json.loads(target.read_text())
        assert data["name"] == "out.speedscope"
        assert data["profiles"]


class TestProfileTable:
    def test_phase_function_rows(self):
        doc = {
            "schema": PROFILE_SCHEMA,
            "hz": 100.0,
            "samples": 10,
            "attributed": 8,
            "duration_s": 0.1,
            "stacks": [
                {
                    "span": "cli.analyze;alg1.run",
                    "frames": ["a (x.py:1)", "b (x.py:2)"],
                    "count": 6,
                },
                {
                    "span": "cli.analyze",
                    "frames": ["a (x.py:1)"],
                    "count": 4,
                },
            ],
        }
        rows = obs.profile_table(doc)
        assert rows[0]["phase"] == "alg1.run"
        assert rows[0]["function"] == "b (x.py:2)"
        assert rows[0]["samples"] == 6
        assert rows[0]["share"] == pytest.approx(0.6)
        text = obs.render_profile_table(doc)
        assert "alg1.run" in text
        assert "100.0 Hz" in text or "100 Hz" in text

    def test_limit_and_empty(self):
        doc = {"schema": PROFILE_SCHEMA, "samples": 0, "stacks": []}
        assert obs.profile_table(doc) == []
        assert "0 samples" in obs.render_profile_table(doc)


class TestRecorderUnderSampler:
    """Satellite: recorder span-stack thread-safety under the sampler."""

    def test_concurrent_spans_while_sampling(self):
        errors = []

        def _worker(rec):
            try:
                for index in range(300):
                    with obs.span(f"load.w{index % 3}"):
                        with obs.span("load.inner"):
                            sum(range(50))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with obs.recording() as rec:
            profiler = SamplingProfiler(hz=1000, recorder=rec)
            profiler.start()
            threads = [
                threading.Thread(target=_worker, args=(rec,))
                for __ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            doc = profiler.stop()
        assert errors == []
        assert doc["samples"] >= 0  # no crash is the bar; counts vary
        # Every span stack drained: no thread left a dangling entry.
        for tid in list(rec._span_stacks):
            assert rec.active_span_stack(tid) == ()

    def test_span_stack_push_pop_visible_to_reader(self):
        with obs.recording() as rec:
            tid = threading.get_ident()
            assert rec.active_span_stack(tid) == ()
            with obs.span("outer"):
                with obs.span("inner"):
                    stack = rec.active_span_stack(tid)
                    assert [name for name, __ in stack] == [
                        "outer",
                        "inner",
                    ]
                    assert rec.active_span(tid)[0] == "inner"
            assert rec.active_span_stack(tid) == ()
            assert rec.active_span(tid) is None
