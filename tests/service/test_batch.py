"""BatchEngine: planning, caching, crash recovery, degradation."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.cells import standard_library
from repro.clocks.serialize import save_schedule
from repro.generators import latch_pipeline
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
    def test_bad_config_is_a_value_error(self, design_files):
        netlist, clocks = design_files
        with pytest.raises(ValueError, match="tolerance"):
            BatchJob("a", netlist, clocks, tolerance=float("nan"))
        with pytest.raises(ValueError, match="slow_path_limit"):
            BatchJob("a", netlist, clocks, slow_path_limit=-1)

    def test_plan_carries_key_and_size(self, job):
        engine = BatchEngine(serial=True)
        plans = engine.plan([job])
        assert len(plans) == 1
        assert len(plans[0].key) == 64
        assert plans[0].size == len(Path(job.netlist).read_bytes())

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

    @pytest.mark.parametrize("tolerance", [0, None])
    def test_config_is_keyed_as_the_worker_reads_it(
        self, tmp_path, design_files, tolerance
    ):
        """``tolerance=0`` and ``None`` plan the key of ``0.0``, the
        value the worker analyses and keys."""
        netlist, clocks = design_files
        engine = BatchEngine(
            cache=ResultCache(tmp_path / "cache"), serial=True
        )
        job = BatchJob("a", netlist, clocks, tolerance=tolerance)
        assert job.tolerance == 0.0
        assert engine.run([job]).computed == 1
        assert engine.run([job]).cached == 1

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

    def test_malformed_input_fails_once(self, tmp_path, design_files):
        """A file that does not parse fails the same way on every try:
        no retry and no serial fallback, only the worker's report."""
        __, clocks = design_files
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with obs.recording() as recorder:
            report = BatchEngine(max_workers=1).run(
                [BatchJob("bad", str(bad), clocks)]
            )
        (outcome,) = report.outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 1
        assert outcome.serial_fallback is False
        assert outcome.crash["error"]["error_type"] == "JSONDecodeError"
        assert recorder.counters.get("service.batch.retries", 0) == 0
        assert recorder.counters.get("service.batch.serial_fallbacks", 0) == 0
        assert recorder.counters.get("service.batch.failures") == 1

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


class TestBytePlanning:
    """Planning reads and hashes each job's files, and parses nothing."""

    @pytest.fixture
    def no_parsing(self, monkeypatch):
        """Make every netlist and clocks parse fail while active."""
        import repro.clocks.serialize as clocks_serialize
        import repro.netlist as netlist_pkg

        def explode(*args, **kwargs):
            raise AssertionError("planning must not parse a design")

        def install():
            monkeypatch.setattr(netlist_pkg, "parse_netlist", explode)
            monkeypatch.setattr(
                clocks_serialize, "schedule_from_dict", explode
            )

        return install

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_planning_parses_nothing(self, tmp_path, job, no_parsing, warm):
        engine = BatchEngine(
            cache=ResultCache(tmp_path / "cache"), serial=True
        )
        if warm:
            assert engine.run([job]).computed == 1
        no_parsing()
        (plan,) = engine.plan([job])
        assert plan.error is None
        assert len(plan.key) == 64
        if warm:
            report = engine.run([job])
            assert (report.cached, report.failed) == (1, 0)

    def test_whitespace_edit_is_a_miss(self, tmp_path, job):
        """The key is the bytes: a reformatted file is a new key, even
        though it describes the same design."""
        engine = BatchEngine(
            cache=ResultCache(tmp_path / "cache"), serial=True
        )
        first = engine.run([job])
        netlist = Path(job.netlist)
        netlist.write_text(netlist.read_text() + "\n")
        again = engine.run([job])
        assert (again.computed, again.cached) == (1, 0)
        assert again.outcomes[0].key != first.outcomes[0].key
        assert again.outcomes[0].payload["endpoint_slacks"] == (
            first.outcomes[0].payload["endpoint_slacks"]
        )

    def test_unreadable_and_unknown_inputs_fail_before_any_worker(
        self, tmp_path, design_files, monkeypatch
    ):
        import repro.service.batch as batch_mod

        netlist, clocks = design_files
        unknown = tmp_path / "design.edif"
        unknown.write_bytes(Path(netlist).read_bytes())

        def no_worker(spec):
            raise AssertionError("a plan-time failure reached a worker")

        monkeypatch.setattr(batch_mod, "run_job", no_worker)
        report = BatchEngine(serial=True).run(
            [
                BatchJob("no_netlist", str(tmp_path / "gone.json"), clocks),
                BatchJob("no_clocks", netlist, str(tmp_path / "gone.json")),
                BatchJob("unknown", str(unknown), clocks),
            ]
        )
        assert report.failed == 3
        errors = {o.job.name: o.error for o in report.outcomes}
        assert "No such file" in errors["no_netlist"]
        assert "No such file" in errors["no_clocks"]
        assert "unknown netlist format '.edif'" in errors["unknown"]

    def test_outcomes_in_job_order_misses_largest_first(
        self, tmp_path, monkeypatch
    ):
        """Misses are dispatched largest netlist file first, ties by
        name; the report lists outcomes in job-set order."""
        import repro.service.batch as batch_mod

        sizes = {"small": 1, "big": 3, "mid_b": 2, "mid_a": 2}
        jobs = []
        for name, stages in sizes.items():
            network, schedule = latch_pipeline(
                stages=2, stage_lengths=[stages, 1], period=12.0
            )
            netlist = tmp_path / f"{name}.json"
            clocks = tmp_path / f"{name}.clocks.json"
            save_network(network, netlist)
            save_schedule(schedule, clocks)
            jobs.append(BatchJob(name, str(netlist), str(clocks)))
        assert len(Path(jobs[2].netlist).read_bytes()) == len(
            Path(jobs[3].netlist).read_bytes()
        )
        dispatched = []
        run_job = batch_mod.run_job

        def recording(spec):
            dispatched.append(spec["name"])
            return run_job(spec)

        monkeypatch.setattr(batch_mod, "run_job", recording)
        report = BatchEngine(serial=True).run(jobs)
        assert dispatched == ["big", "mid_a", "mid_b", "small"]
        assert [o.job.name for o in report.outcomes] == list(sizes)


class TestOneContentKey:
    """Planner, worker and daemon key a result by the bytes parsed."""

    def test_manifest_digests_the_bytes_the_job_parsed(
        self, tmp_path, job, monkeypatch
    ):
        """A netlist overwritten while its job is analysed: the
        manifest names the bytes the worker parsed, and the result is
        stored under the planned key, which names the same bytes."""
        from repro.core.analyzer import Hummingbird
        from repro.report.manifest import digest_inputs

        netlist = Path(job.netlist)
        parsed = digest_inputs(
            netlist.read_bytes(), Path(job.clocks).read_bytes()
        )
        other, __ = latch_pipeline(
            stages=3, stage_lengths=[2, 1, 1], period=12.0
        )
        analyze = Hummingbird.analyze

        def overwrite_then_analyze(self, *args, **kwargs):
            save_network(other, netlist)
            return analyze(self, *args, **kwargs)

        monkeypatch.setattr(Hummingbird, "analyze", overwrite_then_analyze)
        cache = ResultCache(tmp_path / "cache")
        report = BatchEngine(cache=cache, serial=True).run([job])
        (outcome,) = report.outcomes
        assert outcome.status == "computed"
        assert outcome.manifest["input_digest"] == parsed
        assert cache.get(outcome.key)["manifest"]["input_digest"] == parsed

    def test_file_replaced_after_planning_is_not_stored(
        self, tmp_path, job, monkeypatch
    ):
        import repro.service.batch as batch_mod
        from repro.core.analyzer import Hummingbird

        other, schedule = latch_pipeline(
            stages=3, stage_lengths=[2, 1, 1], period=12.0
        )
        run_job = batch_mod.run_job

        def replace_then_run(spec):
            save_network(other, spec["netlist"])
            return run_job(spec)

        monkeypatch.setattr(batch_mod, "run_job", replace_then_run)
        cache = ResultCache(tmp_path / "cache")
        engine = BatchEngine(cache=cache, serial=True)
        (plan,) = engine.plan([job])
        with obs.recording() as recorder:
            report = engine.run([job])
        (outcome,) = report.outcomes
        assert outcome.status == "computed"
        expected = Hummingbird(other, schedule).analyze().payload()
        assert outcome.payload["endpoint_slacks"] == (
            expected["endpoint_slacks"]
        )
        assert plan.key not in cache
        assert len(cache) == 0
        assert recorder.counters.get("service.cache.key_races") == 1

    def test_daemon_results_answer_a_batch(self, tmp_path, job):
        """A daemon given the cache directory writes its unmutated
        result under the key a batch of the same files plans.  A JSON
        netlist reads no default clock, so naming one, or another,
        keys the same result."""
        from dataclasses import replace

        from repro.service import DaemonClient, TimingDaemon

        sock = str(tmp_path / "daemon.sock")
        with TimingDaemon(
            sock, cache=ResultCache(tmp_path / "cache")
        ), DaemonClient(sock, timeout=30.0) as client:
            answer = client.analyze(
                job.netlist, job.clocks, default_clock="phi1"
            )
        assert answer["ok"]
        jobs = [job] + [
            replace(job, name=clock, default_clock=clock)
            for clock in ("phi1", "phi2")
        ]
        engine = BatchEngine(
            cache=ResultCache(tmp_path / "cache"), serial=True
        )
        report = engine.run(jobs)
        assert report.cached == 3
        for outcome in report.outcomes:
            assert outcome.payload["endpoint_slacks"] == (
                answer["payload"]["endpoint_slacks"]
            )
