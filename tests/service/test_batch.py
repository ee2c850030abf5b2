"""BatchEngine: planning, caching, crash recovery, degradation."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cells import standard_library
from repro.netlist.persistence import load_network, save_network
from repro.service import (
    BatchEngine,
    BatchJob,
    ResultCache,
    load_jobs,
)


@pytest.fixture
def job(design_files):
    netlist, clocks = design_files
    return BatchJob("pipeline", netlist, clocks)


class TestJobSetFile:
    def test_load_resolves_relative_paths(self, tmp_path, design_files):
        netlist, clocks = design_files
        jobs_file = tmp_path / "jobs.json"
        jobs_file.write_text(
            json.dumps(
                {
                    "schema": "repro.batch/1",
                    "jobs": [
                        {"name": "a", "netlist": "pipeline.json",
                         "clocks": "clocks.json"},
                        {"netlist": "pipeline.json",
                         "clocks": "clocks.json",
                         "slow_path_limit": 5},
                    ],
                }
            )
        )
        jobs = load_jobs(jobs_file)
        assert [j.name for j in jobs] == ["a", "job_1"]
        assert jobs[0].netlist == netlist
        assert jobs[1].slow_path_limit == 5

    def test_rejects_bad_schema(self, tmp_path):
        bad = tmp_path / "jobs.json"
        bad.write_text(json.dumps({"schema": "nope", "jobs": []}))
        with pytest.raises(ValueError, match="repro.batch/1"):
            load_jobs(bad)

    def test_rejects_duplicates_and_missing_fields(self, tmp_path):
        dup = tmp_path / "dup.json"
        dup.write_text(
            json.dumps(
                {
                    "schema": "repro.batch/1",
                    "jobs": [
                        {"name": "a", "netlist": "x", "clocks": "y"},
                        {"name": "a", "netlist": "x", "clocks": "y"},
                    ],
                }
            )
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_jobs(dup)
        missing = tmp_path / "missing.json"
        missing.write_text(
            json.dumps(
                {"schema": "repro.batch/1", "jobs": [{"name": "a"}]}
            )
        )
        with pytest.raises(ValueError, match="missing"):
            load_jobs(missing)

    def test_rejects_empty(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema": "repro.batch/1", "jobs": []}))
        with pytest.raises(ValueError, match="empty"):
            load_jobs(empty)

    def test_rejects_bad_tolerance(self, tmp_path):
        # NaN or -inf would keep no slow path; true would count as 1.0.
        jobs_file = tmp_path / "jobs.json"
        for tolerance in (float("nan"), float("-inf"), True, "x", 1e999):
            jobs_file.write_text(
                json.dumps(
                    {
                        "schema": "repro.batch/1",
                        "jobs": [
                            {"name": "a", "netlist": "x", "clocks": "y",
                             "tolerance": tolerance},
                        ],
                    }
                )
            )
            with pytest.raises(ValueError, match="job 'a'.*tolerance"):
                load_jobs(jobs_file)

    def test_rejects_bad_slow_path_limit(self, tmp_path):
        # A worker would fail the job on each of three attempts.
        jobs_file = tmp_path / "jobs.json"
        for limit in (-1, True, 1.5, "x"):
            jobs_file.write_text(
                json.dumps(
                    {
                        "schema": "repro.batch/1",
                        "jobs": [
                            {"name": "a", "netlist": "x", "clocks": "y",
                             "slow_path_limit": limit},
                        ],
                    }
                )
            )
            with pytest.raises(
                ValueError, match="job 'a'.*slow_path_limit"
            ):
                load_jobs(jobs_file)


class TestPlanning:
    def test_plan_carries_partition_and_key(self, job):
        engine = BatchEngine(serial=True)
        plans = engine.plan([job])
        assert len(plans) == 1
        assert plans[0].partition == ("phi1", "phi2")
        assert len(plans[0].key) == 64
        assert plans[0].weight > 0

    def test_equal_content_means_equal_key(self, design_files):
        netlist, clocks = design_files
        engine = BatchEngine(serial=True)
        a = engine.plan([BatchJob("a", netlist, clocks)])[0]
        b = engine.plan([BatchJob("b", netlist, clocks)])[0]
        assert a.key == b.key
        c = engine.plan(
            [BatchJob("c", netlist, clocks, slow_path_limit=3)]
        )[0]
        assert c.key != a.key, "config is part of the content address"


class TestColdWarm:
    def test_warm_rerun_is_all_hits_and_zero_iterations(
        self, tmp_path, design_files
    ):
        netlist, clocks = design_files
        cache = ResultCache(tmp_path / "cache")
        engine = BatchEngine(cache=cache, serial=True)
        jobs = [
            BatchJob("a", netlist, clocks),
            BatchJob("b", netlist, clocks, slow_path_limit=9),
            BatchJob("c", netlist, clocks, tolerance=0.01),
        ]
        cold = engine.run(jobs)
        assert cold.computed == 3 and cold.cached == 0
        assert cold.total_iterations > 0
        warm = engine.run(jobs)
        assert warm.cached == 3 and warm.computed == 0
        assert warm.hit_rate == 1.0
        # The acceptance criterion: a warm batch runs zero Algorithm 1
        # iterations -- everything is served from the content cache.
        assert warm.total_iterations == 0
        # Hits return the same payload the cold run computed.
        for before, after in zip(cold.outcomes, warm.outcomes):
            assert after.payload["endpoint_slacks"] == (
                before.payload["endpoint_slacks"]
            )
            assert after.manifest["timing"] == before.manifest["timing"]

    def test_mutated_input_misses(self, tmp_path, design_files):
        netlist, clocks = design_files
        cache = ResultCache(tmp_path / "cache")
        engine = BatchEngine(cache=cache, serial=True)
        engine.run([BatchJob("a", netlist, clocks)])
        # Change the clock schedule on disk: content address changes.
        data = json.loads(open(clocks).read())
        for clock in data["clocks"]:
            clock["period"] = "999"
        with open(clocks, "w") as handle:
            json.dump(data, handle)
        again = engine.run([BatchJob("a", netlist, clocks)])
        assert again.computed == 1 and again.cached == 0

    def test_exit_codes(self, tmp_path, design_files):
        netlist, clocks = design_files
        engine = BatchEngine(serial=True)
        ok = engine.run([BatchJob("a", netlist, clocks)])
        assert ok.exit_code() == 0
        missing = engine.run(
            [BatchJob("gone", str(tmp_path / "missing.json"), clocks)]
        )
        assert missing.failed == 1
        assert missing.exit_code() == 2
        assert missing.outcomes[0].error


class TestFaultTolerance:
    def test_worker_crash_is_retried_to_completion(
        self, tmp_path, design_files
    ):
        netlist, clocks = design_files
        flag = tmp_path / "crash.flag"
        flag.write_text("boom")
        jobs = [
            BatchJob(
                "crashy",
                netlist,
                clocks,
                inject=(("inject_crash_file", str(flag)),),
            ),
            BatchJob("steady", netlist, clocks, slow_path_limit=9),
        ]
        with obs.recording() as recorder:
            report = BatchEngine(
                cache=ResultCache(tmp_path / "cache"),
                max_workers=2,
                retries=2,
            ).run(jobs)
        assert report.failed == 0
        assert report.computed == 2
        assert not flag.exists(), "crash injection fired exactly once"
        crashy = next(
            o for o in report.outcomes if o.job.name == "crashy"
        )
        assert crashy.attempts >= 2, "the crashed job was re-dispatched"
        assert crashy.payload["intended"] is True
        assert recorder.counters.get("service.batch.worker_crashes", 0) >= 1

    def test_crash_before_next_dispatch_is_retried(
        self, tmp_path, design_files, monkeypatch
    ):
        """The crashed worker breaks the pool before the second job is
        submitted: submission itself raises BrokenProcessPool, and the
        unsent job goes to the next round like the crashed one."""
        import time
        from concurrent.futures import ProcessPoolExecutor

        from repro.service import batch as batch_module

        pools = []

        class BreaksBeforeSecondSubmit(ProcessPoolExecutor):
            """The first pool holds its second submission until the
            crashed worker has broken it."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)
                self.submitted = 0

            def submit(self, fn, /, *args, **kwargs):
                if self is pools[0] and self.submitted == 1:
                    deadline = time.monotonic() + 30.0
                    while not self._broken and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert self._broken, "the crash did not break the pool"
                self.submitted += 1
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(
            batch_module, "ProcessPoolExecutor", BreaksBeforeSecondSubmit
        )
        netlist, clocks = design_files
        flag = tmp_path / "crash.flag"
        flag.write_text("boom")
        jobs = [
            BatchJob(
                "crashy",
                netlist,
                clocks,
                inject=(("inject_crash_file", str(flag)),),
            ),
            BatchJob("steady", netlist, clocks, slow_path_limit=9),
        ]
        report = BatchEngine(
            cache=ResultCache(tmp_path / "cache"), max_workers=2, retries=2
        ).run(jobs)
        assert report.failed == 0
        assert report.computed == 2
        assert not flag.exists()
        steady = next(o for o in report.outcomes if o.job.name == "steady")
        assert steady.attempts == 2, "the unsent job ran in the next round"

    def test_degrades_to_serial_when_retries_exhausted(
        self, tmp_path, design_files
    ):
        netlist, clocks = design_files
        flag = tmp_path / "crash.flag"
        flag.write_text("boom")
        jobs = [
            BatchJob(
                "crashy",
                netlist,
                clocks,
                inject=(("inject_crash_file", str(flag)),),
            )
        ]
        with obs.recording() as recorder:
            report = BatchEngine(max_workers=1, retries=0).run(jobs)
        assert report.failed == 0 and report.computed == 1
        assert report.outcomes[0].serial_fallback is True
        assert (
            recorder.counters.get("service.batch.serial_fallbacks", 0)
            >= 1
        )

    def test_worker_error_reported_not_raised(self, tmp_path, design_files):
        __, clocks = design_files
        bogus = tmp_path / "bogus.xyz"
        bogus.write_text("?")
        report = BatchEngine(max_workers=1, retries=0).run(
            [BatchJob("bad", str(bogus), clocks)]
        )
        assert report.failed == 1
        assert "unknown netlist format" in report.outcomes[0].error

    @pytest.mark.parametrize("cached", [False, True])
    def test_looped_job_fails_alone(self, tmp_path, design_files, cached):
        """Planning never walks the graph, so a combinational loop fails
        its own job, with the validation message, and not the batch."""
        netlist, clocks = design_files
        network = load_network(netlist, standard_library())
        gate = network.combinational_cells[0]
        network.reconnect_sink(
            gate.terminal("A"), gate.terminal("Z").net.name
        )
        looped = tmp_path / "looped.json"
        save_network(network, looped)
        cache = ResultCache(tmp_path / "cache") if cached else None
        report = BatchEngine(cache=cache, serial=True).run(
            [
                BatchJob("good", netlist, clocks),
                BatchJob("looped", str(looped), clocks),
            ]
        )
        assert (report.computed, report.failed) == (1, 1)
        (failure,) = [o for o in report.outcomes if o.status == "failed"]
        assert failure.job.name == "looped"
        assert failure.error.endswith(
            f"directed cycle through: {gate.name}"
        )

    def test_report_document_shape(self, tmp_path, design_files):
        netlist, clocks = design_files
        report = BatchEngine(
            cache=ResultCache(tmp_path / "cache"), serial=True
        ).run([BatchJob("a", netlist, clocks)])
        doc = report.to_dict()
        assert doc["schema"] == "repro.batchstats/1"
        assert doc["jobs"] == 1
        assert doc["cache"]["stores"] == 1
        row = doc["outcomes"][0]
        assert row["status"] == "computed"
        assert row["manifest_digest"]
        assert "batch: 1 job(s)" in report.render_text()


class TestWorkerCrashForensics:
    """PR 7: failed jobs carry a repro.crash/1 worker postmortem."""

    def _failed_report(self, design_files):
        netlist, clocks = design_files
        return BatchEngine(serial=True).run(
            [BatchJob("bad", netlist, clocks,
                      inject=(("inject_raise", "synthetic fault"),))]
        )

    def test_outcome_carries_crash_document(self, design_files):
        report = self._failed_report(design_files)
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        crash = outcome.crash
        assert crash["schema"] == "repro.crash/1"
        assert crash["kind"] == "worker_exception"
        assert crash["op"] == "bad"
        assert crash["error"]["error_type"] == "ValueError"
        assert crash["error"]["frames"]
        assert crash["threads"]

    def test_crash_survives_to_dict_and_json(self, design_files):
        report = self._failed_report(design_files)
        doc = report.to_dict()
        row = doc["outcomes"][0]
        assert row["crash"]["kind"] == "worker_exception"
        json.dumps(doc)  # the whole document stays serialisable

    def test_render_text_shows_crash_site(self, design_files):
        report = self._failed_report(design_files)
        text = report.render_text()
        # The innermost crash frame is shown inline for failed jobs.
        assert "synthetic fault" in text
        assert " in _maybe_inject_faults" in text
        assert "workers.py:" in text

    def test_successful_outcomes_have_no_crash(self, design_files):
        netlist, clocks = design_files
        report = BatchEngine(serial=True).run(
            [BatchJob("good", netlist, clocks)]
        )
        assert report.outcomes[0].crash is None
        assert report.to_dict()["outcomes"][0]["crash"] is None


class TestSourceMapPlanning:
    """The warm-plan fast path: raw-bytes digests, zero parent parses."""

    def _engine(self, tmp_path):
        return BatchEngine(
            cache=ResultCache(tmp_path / "cache", max_entries=32),
            serial=True,
        )

    def test_warm_plan_parses_nothing(self, tmp_path, job, monkeypatch):
        """After one run, planning the same bytes never parses."""
        import repro.service.batch as batch_mod

        engine = self._engine(tmp_path)
        report = engine.run([job])
        assert report.computed == 1

        warm = self._engine(tmp_path)  # fresh engine, same cache dir

        def explode(j):
            raise AssertionError("warm plan must not parse designs")

        monkeypatch.setattr(batch_mod, "_load_design", explode)
        plans = warm.plan([job], weigh=False)
        assert plans[0].error is None
        report2 = warm.run([job])
        assert report2.cached == 1
        assert report2.failed == 0

    def test_planner_output_identical_cold_vs_warm(self, tmp_path, job):
        engine = self._engine(tmp_path)
        cold = engine.plan([job], weigh=False)
        engine.run([job])
        warm_engine = self._engine(tmp_path)
        warm = warm_engine.plan([job], weigh=False)
        assert [(p.key, p.partition, p.weight) for p in warm] == [
            (p.key, p.partition, p.weight) for p in cold
        ]

    def test_worker_fingerprint_teaches_the_map(self, tmp_path, job):
        from repro.service.batch import SourceMap

        engine = self._engine(tmp_path)
        engine.run([job])
        sources = SourceMap(tmp_path / "cache" / "sources.json")
        assert len(sources) == 1
        (entry,) = [sources.get(s) for s in sources._load()]
        assert entry["partition"] == ["phi1", "phi2"]
        assert entry["weight"] > 0

    def test_map_weight_drives_lpt_on_cache_miss(self, tmp_path, job):
        """A fast-path plan weighs from the map when the result cache
        missed (e.g. evicted) -- no parse needed for LPT either."""
        engine = self._engine(tmp_path)
        engine.run([job])
        warm = self._engine(tmp_path)
        plans = warm.plan([job], weigh=True)
        assert plans[0].weight > 0
        assert plans[0].network is None  # no parse held

    def test_edited_source_falls_back_to_parse(self, tmp_path, job):
        from pathlib import Path

        engine = self._engine(tmp_path)
        engine.run([job])
        # Touch the netlist bytes (whitespace only -- same design).
        netlist = Path(job.netlist)
        netlist.write_text(netlist.read_text() + "\n")
        warm = self._engine(tmp_path)
        plans = warm.plan([job], weigh=False)
        # Parse path: semantic digest unchanged, so still a cache hit.
        assert plans[0].error is None
        report = warm.run([job])
        assert report.cached == 1

    def test_no_cache_means_no_map(self, tmp_path, job):
        engine = BatchEngine(cache=None, serial=True)
        assert engine._sources is None
        plans = engine.plan([job])
        assert plans[0].partition == ("phi1", "phi2")

    def test_corrupt_map_is_empty(self, tmp_path):
        from repro.service.batch import SourceMap

        path = tmp_path / "sources.json"
        path.write_text("{not json")
        sources = SourceMap(path)
        assert len(sources) == 0
        sources.record("s1", "k1", ("phi1",), 4)
        sources.flush()
        reloaded = SourceMap(path)
        assert reloaded.get("s1")["weight"] == 4

    def test_record_keeps_learned_weight(self, tmp_path):
        from repro.service.batch import SourceMap

        sources = SourceMap(tmp_path / "sources.json")
        sources.record("s1", "k1", ("phi1",), 7)
        sources.record("s1", "k1", ("phi1",), 0)  # weightless probe hit
        assert sources.get("s1")["weight"] == 7
        sources.record("s1", "k2", ("phi1",), 0)  # new key: reset
        assert sources.get("s1")["weight"] == 0

    def test_map_is_bounded(self, tmp_path):
        from repro.service.batch import SourceMap

        sources = SourceMap(tmp_path / "sources.json", max_entries=3)
        for i in range(5):
            sources.record(f"s{i}", f"k{i}", ("phi1",), 1)
        assert len(sources) == 3
        assert sources.get("s0") is None
        assert sources.get("s4") is not None
