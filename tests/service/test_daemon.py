"""TimingDaemon: protocol, warm serving, incremental re-query."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest

from repro.cells import standard_library
from repro.cli import main
from repro.clocks.serialize import load_schedule, save_schedule
from repro.core.analyzer import Hummingbird
from repro.delay.estimator import estimate_delays
from repro.generators import latch_pipeline
from repro.netlist import read_netlist
from repro.netlist.blif import network_to_blif
from repro.netlist.persistence import load_network, save_network
from repro.report.manifest import manifest_digest, timing_digest
from repro.service import (
    DaemonClient,
    ResultCache,
    TimingDaemon,
    doctor_exit_code,
    fetch_doctor,
)

from tests.conftest import MALFORMED_CLOCKS, MALFORMED_NETLISTS


@pytest.fixture
def daemon(tmp_path):
    sock = str(tmp_path / "repro.sock")
    with TimingDaemon(
        sock, cache=ResultCache(tmp_path / "cache")
    ) as server:
        yield server


@pytest.fixture
def client(daemon):
    with DaemonClient(daemon.socket_path, timeout=30.0) as c:
        yield c


class TestProtocol:
    def test_ping(self, client):
        response = client.ping()
        assert response["ok"] and response["pong"]
        assert response["protocol"] == 1

    def test_unknown_op_is_an_error_response(self, daemon, client):
        # "profile", "traces", "history" and "alerts" are unknown too:
        # the daemon has no profiler, trace store, metrics history or
        # alert engine.
        for op in ("frobnicate", "profile", "traces", "history", "alerts"):
            response = client.request({"op": op})
            assert response["ok"] is False
            assert "unknown op" in response["error"]
        assert client.crash_report()["crash"] is None
        assert daemon.crash.reports_written == 0

    def test_malformed_json_does_not_kill_the_daemon(self, daemon):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10.0)
        raw.connect(daemon.socket_path)
        raw.sendall(b"this is not json\n")
        reply = json.loads(raw.makefile("rb").readline())
        assert reply["ok"] is False
        raw.close()
        # The daemon still answers on a fresh connection.
        with DaemonClient(daemon.socket_path) as again:
            assert again.ping()["pong"]

    def test_request_id_is_echoed(self, client):
        response = client.request({"op": "ping", "id": "req-42"})
        assert response["id"] == "req-42"

    def test_missing_paths_rejected(self, client):
        response = client.request({"op": "analyze"})
        assert response["ok"] is False
        assert "netlist" in response["error"]

    def test_shutdown_op_stops_the_server(self, tmp_path, design_files):
        sock = str(tmp_path / "down.sock")
        daemon = TimingDaemon(sock)
        daemon.start()
        with DaemonClient(sock) as client:
            assert client.shutdown()["stopping"]
        # The socket disappears shortly after.
        import time

        for __ in range(100):
            try:
                DaemonClient(sock, timeout=0.2).close()
            except OSError:
                break
            time.sleep(0.05)
        else:  # pragma: no cover
            pytest.fail("daemon kept listening after shutdown")


class TestConnections:
    """Each connection is answered on its own thread, one line at a
    time: answers keep request order, and a new connection is answered
    whatever the others are doing."""

    def test_triage_answers_while_requests_are_stuck(self, tmp_path):
        sock = str(tmp_path / "stuck.sock")
        with TimingDaemon(
            sock, debug_ops=True, stall_timeout_s=0.2
        ) as server:

            def stuck():
                with DaemonClient(sock, timeout=30.0) as client:
                    client.request({"op": "sleep", "seconds": 1.5})

            threads = [threading.Thread(target=stuck) for __ in range(9)]
            for thread in threads:
                thread.start()
            try:
                deadline = time.monotonic() + 5.0
                while (
                    server.watchdog.stalled_count() < 9
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                with DaemonClient(sock, timeout=30.0) as triage:
                    started = time.perf_counter()
                    health = triage.health()
                    waited = time.perf_counter() - started
                    doc = fetch_doctor(triage)
            finally:
                for thread in threads:
                    thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert health["stalled"] == 9
        assert waited < 0.5, f"health waited {waited:.2f}s"
        assert doctor_exit_code(doc) == 1

    def test_lines_written_at_once_are_answered_in_order(
        self, daemon, design_files
    ):
        netlist, clocks = design_files
        requests = [
            {"op": "ping", "id": 1},
            {"op": "analyze", "netlist": netlist, "clocks": clocks, "id": 2},
            {"op": "frobnicate", "id": 3},
        ]
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(30.0)
            raw.connect(daemon.socket_path)
            raw.sendall(
                b"".join(
                    json.dumps(request).encode("utf-8") + b"\n"
                    for request in requests
                )
            )
            reader = raw.makefile("rb")
            answers = [json.loads(reader.readline()) for __ in requests]
        assert [answer["id"] for answer in answers] == [1, 2, 3]
        assert answers[0]["pong"]
        assert answers[1]["ok"] and answers[1]["engine"] == "cold"
        assert answers[2]["ok"] is False
        assert "unknown op" in answers[2]["error"]

    def test_concurrent_connections_are_all_answered_and_logged(
        self, tmp_path
    ):
        """More connections than cores, with frequent thread switches:
        every request is answered and logged, and stop() returns."""
        sock = str(tmp_path / "many.sock")
        log = tmp_path / "access.jsonl"
        server = TimingDaemon(sock, access_log=str(log))
        server.start()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:

            def pings():
                with DaemonClient(sock, timeout=30.0) as client:
                    for __ in range(50):
                        assert client.ping()["pong"]

            threads = [threading.Thread(target=pings) for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            stopper.join(timeout=30.0)
            assert not stopper.is_alive(), "stop() never returned"
        finally:
            sys.setswitchinterval(switch)
        assert server.requests == 400
        assert len(log.read_text().splitlines()) == 400

    def test_stop_waits_for_the_request_in_flight(self, tmp_path):
        sock = str(tmp_path / "stop.sock")
        log = tmp_path / "access.jsonl"
        server = TimingDaemon(sock, debug_ops=True, access_log=str(log))
        server.start()
        answers = []
        with DaemonClient(sock, timeout=30.0) as client:
            thread = threading.Thread(
                target=lambda: answers.append(
                    client.request({"op": "sleep", "seconds": 0.5})
                )
            )
            thread.start()
            deadline = time.monotonic() + 10.0
            while server.in_flight < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.in_flight == 1
            server.stop()
            # stop() returned: the request is done and logged, and its
            # answer reaches the client.
            logged = [
                json.loads(line) for line in log.read_text().splitlines()
            ]
            assert [line["op"] for line in logged] == ["sleep"]
            thread.join(timeout=5.0)
            assert answers and answers[0]["slept_s"] == 0.5
            # A line sent after stop gets no answer: the connection
            # closes.
            with pytest.raises(ConnectionError):
                client.ping()


class TestServing:
    def test_analyze_cold_then_warm(self, client, design_files):
        netlist, clocks = design_files
        first = client.analyze(netlist, clocks)
        assert first["ok"] and first["engine"] == "cold"
        assert first["intended"] is True
        # A repeat with no intervening mutation answers lock-free from
        # the published snapshot (PR 10).
        second = client.analyze(netlist, clocks)
        assert second["engine"] == "snapshot"
        # Same fixed point, same answer.
        assert second["timing_digest"] == first["timing_digest"]
        assert second["manifest_digest"] == first["manifest_digest"]

    def test_cold_manifest_matches_one_shot_cli_run(
        self, client, design_files
    ):
        netlist, clocks = design_files
        served = client.analyze(netlist, clocks)
        network = load_network(netlist, standard_library())
        schedule = load_schedule(clocks)
        result = Hummingbird(network, schedule).analyze()
        manifest = result.manifest(
            netlist_path=netlist, clocks_path=clocks
        )
        assert served["manifest_digest"] == manifest_digest(manifest)
        assert served["timing_digest"] == timing_digest(manifest)

    def test_new_label_answers_as_a_fresh_analysis(
        self, client, design_files
    ):
        """Algorithm 1 starts from the initial windows on every run, so
        an analyze under a second label does not inherit the fixed point
        the first one left behind."""
        netlist, clocks = design_files
        client.analyze(netlist, clocks, label="first")
        served = client.analyze(netlist, clocks, label="second")
        network = load_network(netlist, standard_library())
        result = Hummingbird(network, load_schedule(clocks)).analyze()
        manifest = result.manifest(
            netlist_path=netlist, clocks_path=clocks, label="second"
        )
        assert served["engine"] == "incremental-warm"
        assert served["iterations"] == result.algorithm1.iterations.total
        assert served["iterations"] == 1
        assert served["timing_digest"] == timing_digest(manifest)

    def test_default_clock_keys_the_warm_design(self, tmp_path, client):
        """A BLIF netlist without pad pragmas takes its pads' clock from
        the request: each default clock gets its own warm design, its
        own stats row, and is evicted on its own."""
        network, schedule = latch_pipeline(
            stages=3, stage_lengths=[8, 3, 2], period=12.0
        )
        netlist = tmp_path / "bare.blif"
        netlist.write_text(
            "\n".join(
                line
                for line in network_to_blif(network).splitlines()
                if not line.startswith(("# pragma input", "# pragma output"))
            )
            + "\n"
        )
        clocks = str(tmp_path / "clocks.json")
        save_schedule(schedule, clocks)
        design = {"netlist": str(netlist), "clocks": clocks}
        expected = {
            clock: Hummingbird(
                read_netlist(netlist, clock), schedule
            ).analyze().worst_slack
            for clock in ("phi1", "phi2")
        }
        assert expected["phi1"] != expected["phi2"]
        for clock in ("phi1", "phi2", "phi1"):
            served = client.analyze(**design, default_clock=clock)
            assert served["worst_slack"] == expected[clock], clock
        assert served["engine"] == "snapshot"
        rows = client.stats()["designs"]
        assert sorted(rows) == ["latch_pipeline@phi1", "latch_pipeline@phi2"]
        assert rows["latch_pipeline@phi2"]["default_clock"] == "phi2"
        evicted = client.request(
            {"op": "evict", **design, "default_clock": "phi2"}
        )
        assert evicted["dropped"] is True
        assert sorted(client.stats()["designs"]) == ["latch_pipeline@phi1"]
        # A JSON netlist names its pads' clocks: one warm design serves
        # every default clock.
        json_netlist = str(tmp_path / "pipeline.json")
        save_network(network, json_netlist)
        client.analyze(json_netlist, clocks)
        again = client.analyze(json_netlist, clocks, default_clock="phi2")
        assert again["engine"] == "snapshot"
        assert client.stats()["designs"]["latch_pipeline"][
            "default_clock"
        ] is None

    def test_analyze_mutate_reanalyze_sequence(
        self, client, design_files
    ):
        """The acceptance sequence: analyze -> mutate -> re-analyze,
        second answer from the incremental engine, result identical to
        a from-scratch run with the mutated delays."""
        netlist, clocks = design_files
        baseline = client.analyze(netlist, clocks)
        assert baseline["engine"] == "cold"

        mutated = client.mutate(
            netlist, clocks, "scale_cell", cell="s1_i0", factor=1.5
        )
        assert mutated["ok"]
        assert mutated["swaps"] + mutated["rebuilds"] == 1
        answer = mutated["analysis"]
        assert answer["engine"] == "incremental-warm"

        # From-scratch reference with the same delay mutation.
        network = load_network(netlist, standard_library())
        schedule = load_schedule(clocks)
        delays = estimate_delays(network).with_scaled_cell("s1_i0", 1.5)
        result = Hummingbird(network, schedule, delays=delays).analyze()
        manifest = result.manifest(
            netlist_path=netlist, clocks_path=clocks
        )
        assert answer["timing_digest"] == timing_digest(manifest)
        assert answer["payload"]["endpoint_slacks"] == (
            result.payload()["endpoint_slacks"]
        )

    def test_mutate_does_not_hash_the_network(
        self, tmp_path, design_files
    ):
        """The key is the bytes hashed at load, and only an unmutated
        result is cached: one analyze plus five mutates store one
        entry and answer as an uncached daemon does."""
        netlist, clocks = design_files

        def session(sock, cache):
            with TimingDaemon(sock, cache=cache), DaemonClient(
                sock, timeout=30.0
            ) as c:
                answers = [c.analyze(netlist, clocks)["timing_digest"]]
                for __ in range(5):
                    mutated = c.mutate(
                        netlist, clocks, "scale_cell", cell="s1_i0",
                        factor=1.1,
                    )
                    answers.append(mutated["analysis"]["timing_digest"])
            return answers

        cache = ResultCache(tmp_path / "digest-cache")
        cached = session(str(tmp_path / "cached.sock"), cache)
        assert len(cache) == 1
        assert cached == session(str(tmp_path / "plain.sock"), None)

    def test_manifest_digests_the_bytes_it_analysed(
        self, tmp_path, client, design_files
    ):
        """Overwriting the netlist after load changes neither the
        analysed design nor its ``input_digest``: the manifest names
        the bytes that were parsed, not the file as it is now."""
        netlist, clocks = design_files
        first = client.analyze(netlist, clocks)
        other, __ = latch_pipeline(
            stages=3, stage_lengths=[2, 1, 1], period=12.0
        )
        save_network(other, netlist)
        mutated = client.mutate(
            netlist, clocks, "scale_cell", cell="s1_i0", factor=1.0
        )["analysis"]
        assert mutated["design"] == first["design"]
        assert mutated["timing_digest"] == first["timing_digest"]
        assert (
            mutated["manifest"]["input_digest"]
            == first["manifest"]["input_digest"]
        )

    def test_report_endpoint(self, client, design_files):
        netlist, clocks = design_files
        analyzed = client.analyze(netlist, clocks)
        endpoint = next(
            iter(analyzed["payload"]["endpoint_slacks"])
        )
        response = client.request(
            {
                "op": "report",
                "netlist": netlist,
                "clocks": clocks,
                "endpoint": endpoint,
            }
        )
        assert response["ok"]
        assert endpoint in response["text"]
        assert response["report"]["schema"].startswith("repro.report/")

    def test_stats_reflects_serving_state(self, client, design_files):
        netlist, clocks = design_files
        client.analyze(netlist, clocks)
        client.mutate(
            netlist, clocks, "scale_cell", cell="s1_i0", factor=1.1,
            analyze=False,
        )
        stats = client.stats()
        assert stats["ok"]
        design = stats["designs"]["latch_pipeline"]
        assert design["analyses"] >= 1
        assert design["mutations"] == 1
        assert design["warm"] is True
        assert stats["cache"] is not None

    @pytest.mark.parametrize(
        "limit", [-1, -3, True, "x", 2.5, float("inf")], ids=repr
    )
    def test_bad_slow_path_limit_is_a_value_error(
        self, daemon, client, design_files, limit
    ):
        """A negative, boolean or non-integer limit is a bad request: it
        is not sliced from the end of the violations, answered from the
        snapshot published for a limit of 1, or cached."""
        netlist, clocks = design_files
        assert client.analyze(netlist, clocks, slow_path_limit=1)["ok"]
        cached = len(daemon.cache)
        for response in (
            client.analyze(netlist, clocks, slow_path_limit=limit),
            client.mutate(
                netlist, clocks, "scale_clocks", factor=1.0,
                slow_path_limit=limit,
            ),
        ):
            assert response["ok"] is False
            assert response["error_type"] == "ValueError"
            assert "slow_path_limit" in response["error"]
        assert len(daemon.cache) == cached
        design = next(iter(client.stats()["designs"].values()))
        assert design["mutations"] == 0
        assert client.crash_report()["crash"] is None
        assert daemon.crash.reports_written == 0

    def test_mutate_unknown_action(self, client, design_files):
        netlist, clocks = design_files
        response = client.mutate(netlist, clocks, "teleport")
        assert response["ok"] is False
        assert "unknown mutate action" in response["error"]

    def test_clock_mutation_rebuilds(self, client, design_files):
        netlist, clocks = design_files
        client.analyze(netlist, clocks)
        response = client.mutate(
            netlist, clocks, "scale_clocks", factor=2
        )
        assert response["ok"]
        answer = response["analysis"]
        # A rebuilt engine starts cold again but still answers.
        assert answer["ok"] and "worst_slack" in answer


class TestSelfDiagnosis:
    """Flight recorder, crash reports, stall watchdog."""

    @pytest.fixture
    def diag(self, tmp_path):
        sock = str(tmp_path / "diag.sock")
        with TimingDaemon(
            sock,
            crash_dir=tmp_path / "crashes",
            debug_ops=True,
            stall_timeout_s=0.2,
        ) as server:
            with DaemonClient(sock, timeout=30.0) as c:
                yield server, c

    # -- structured errors (satellite 1) -------------------------------
    def test_error_response_carries_frames(self, diag):
        __, c = diag
        response = c.request({"op": "analyze"})  # missing netlist
        assert response["ok"] is False
        doc = response["error_doc"]
        assert doc["schema"] == "repro.error/1"
        assert doc["error_type"] in ("ValueError", "KeyError")
        assert doc["frames"] and "file" in doc["frames"][0]

    def test_last_error_carries_frames(self, diag):
        __, c = diag
        c.request({"op": "analyze"})
        last = c.health()["last_error"]
        assert last["frames"]
        assert last["error_type"] in ("ValueError", "KeyError")

    def test_expected_errors_do_not_write_crash_reports(self, diag):
        server, c = diag
        c.request({"op": "analyze"})  # ValueError: bad request
        assert c.crash_report()["crash"] is None
        assert server.crash.reports_written == 0

    @pytest.mark.parametrize(
        "corrupt, culprit",
        [
            (lambda doc: doc["cells"][3].update(pins="oops"), "'pins'"),
            (lambda doc: doc["cells"].__setitem__(3, "oops"), "'oops'"),
        ],
    )
    def test_malformed_netlist_is_a_value_error(
        self, diag, tmp_path, design_files, corrupt, culprit
    ):
        server, c = diag
        netlist, clocks = design_files
        doc = json.loads(open(netlist).read())
        corrupt(doc)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        response = c.analyze(str(broken), clocks)
        assert response["ok"] is False
        assert response["error_type"] == "ValueError"
        assert culprit in response["error"]
        assert c.crash_report()["crash"] is None
        assert server.crash.reports_written == 0
        counters = c.metrics()["metrics"]["counters"]
        assert not counters.get("service.daemon.crash_reports")

    @pytest.mark.parametrize("corrupt, culprit", MALFORMED_NETLISTS)
    def test_malformed_netlists_are_value_errors(
        self, diag, tmp_path, design_files, corrupt, culprit
    ):
        server, c = diag
        netlist, clocks = design_files
        broken = corrupt(load_network(netlist, standard_library()), tmp_path)
        response = c.analyze(str(broken), clocks)
        assert response["ok"] is False
        # Every reader raises a ValueError: the JSON reader a plain one,
        # the BLIF and Verilog readers their own subclass.
        assert response["error_type"] == {
            ".json": "ValueError",
            ".blif": "BlifError",
            ".v": "VerilogError",
        }[broken.suffix]
        assert culprit in response["error"]
        assert c.crash_report()["crash"] is None
        assert server.crash.reports_written == 0

    @pytest.mark.parametrize("corrupt, culprit", MALFORMED_CLOCKS)
    def test_malformed_clocks_is_a_value_error(
        self, diag, tmp_path, design_files, corrupt, culprit
    ):
        server, c = diag
        netlist, clocks = design_files
        broken = tmp_path / "broken_clocks.json"
        broken.write_text(
            json.dumps(corrupt(json.loads(open(clocks).read())))
        )
        response = c.analyze(netlist, str(broken))
        assert response["ok"] is False
        assert response["error_type"] == "ValueError"
        assert culprit in response["error"]
        assert c.crash_report()["crash"] is None
        assert server.crash.reports_written == 0

    def test_negative_pulse_width_is_a_value_error(self, diag, design_files):
        """A negative width is not wrapped round the period."""
        server, c = diag
        netlist, clocks = design_files
        response = c.mutate(
            netlist, clocks, "set_pulse_width", clock="phi1", width=-1
        )
        assert response["ok"] is False
        assert response["error_type"] == "ValueError"
        assert "'phi1'" in response["error"]
        design = next(iter(c.stats()["designs"].values()))
        assert design["mutations"] == 0
        assert c.crash_report()["crash"] is None
        assert server.crash.reports_written == 0

    @pytest.mark.parametrize(
        "action, fields",
        [
            ("scale_clocks", {"factor": "1/0"}),
            ("set_pulse_width", {"clock": "phi1", "width": "1/0"}),
        ],
    )
    def test_zero_denominator_clock_mutate_is_a_value_error(
        self, diag, design_files, action, fields
    ):
        """A time of ``"1/0"`` is a bad request, not a crash."""
        server, c = diag
        netlist, clocks = design_files
        response = c.mutate(netlist, clocks, action, **fields)
        assert response["ok"] is False
        assert response["error_type"] == "ValueError"
        assert "'1/0'" in response["error"]
        design = next(iter(c.stats()["designs"].values()))
        assert design["mutations"] == 0
        assert c.crash_report()["crash"] is None
        assert server.crash.reports_written == 0

    @pytest.mark.parametrize(
        "tolerance", ["nan", "-inf", True, "x", 1e999], ids=repr
    )
    def test_bad_tolerance_is_a_value_error(
        self, daemon, client, design_files, tolerance
    ):
        """A NaN or -inf tolerance would keep no slow path and ``true``
        would count as 1.0: each is a bad request, on analyze and on
        mutate, that is neither cached nor applied."""
        netlist, clocks = design_files
        assert client.analyze(netlist, clocks)["ok"]
        cached = len(daemon.cache)
        for response in (
            client.analyze(netlist, clocks, tolerance=tolerance),
            client.mutate(
                netlist, clocks, "scale_clocks", factor=1.0,
                tolerance=tolerance,
            ),
        ):
            assert response["ok"] is False
            assert response["error_type"] == "ValueError"
            assert "tolerance" in response["error"]
        assert len(daemon.cache) == cached
        design = next(iter(client.stats()["designs"].values()))
        assert (design["mutations"], design["epoch"]) == (0, 0)
        assert client.crash_report()["crash"] is None
        assert daemon.crash.reports_written == 0

    @pytest.mark.parametrize(
        "fields, bad",
        [
            pytest.param(fields, bad, id=fields)
            for fields, bad in (
                ('"op": "flight", "last": 1e999', "inf"),
                ('"op": "flight", "last": "banana"', "banana"),
                ('"op": "mutate", "action": "scale_clocks", '
                 '"factor": 1e999', "inf"),
                ('"op": "mutate", "action": "set_pulse_width", '
                 '"clock": "phi1", "width": 1e999', "inf"),
            )
        ],
    )
    def test_non_finite_number_is_a_value_error(
        self, diag, design_files, fields, bad
    ):
        """JSON ``1e999`` parses to ``inf``, and a ``last`` that is no
        number is no count either: a bad request, not a crash."""
        server, c = diag
        netlist, clocks = design_files
        line = (
            f'{{{fields}, "netlist": {json.dumps(netlist)}, '
            f'"clocks": {json.dumps(clocks)}}}\n'
        )
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(30.0)
            raw.connect(server.socket_path)
            raw.sendall(line.encode("utf-8"))
            response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error_type"] == "ValueError"
        assert bad in response["error"]
        assert c.crash_report()["crash"] is None
        assert server.crash.reports_written == 0
        assert main(["doctor", "--socket", server.socket_path]) == 0

    def test_failed_request_logs_spans_regardless_of_threshold(
        self, tmp_path
    ):
        sock = str(tmp_path / "log.sock")
        log_path = tmp_path / "access.jsonl"
        trace = {"trace_id": "0123456789abcdef", "span_id": "fedcba98"}
        with TimingDaemon(
            sock,
            access_log=log_path,
            slow_threshold_s=9999.0,  # nothing is "slow"
            debug_ops=True,
        ) as server:
            with DaemonClient(sock) as c:
                c.request({"op": "ping", "trace": trace})
                c.request({"op": "fail", "trace": trace})
            server.access_log.close()
        entries = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        ok = [e for e in entries if e["status"] == "ok"]
        failed = [e for e in entries if e["status"] == "error"]
        # Identical snapshots either side: the ok line stays flat (not
        # slow), the failed line gets its span tree force-attached.
        assert ok and all("spans" not in e for e in ok)
        assert failed and all("spans" in e for e in failed)
        assert not any(e.get("slow") for e in entries)

    # -- crash reports -------------------------------------------------
    def test_fail_op_writes_crash_report(self, diag):
        server, c = diag
        response = c.request({"op": "fail", "message": "kapow"})
        assert response["ok"] is False
        assert response["error_type"] == "RuntimeError"
        report = c.crash_report()
        assert report["ok"]
        crash = report["crash"]
        assert crash["schema"] == "repro.crash/1"
        assert crash["kind"] == "handler_exception"
        assert crash["op"] == "fail"
        assert crash["error"]["error"] == "kapow"
        assert crash["threads"]
        assert crash["flight"]["events"]
        # Persisted to the crash dir as well.
        import pathlib

        path = pathlib.Path(report["path"])
        assert path.is_file()
        on_disk = json.loads(path.read_text())
        assert on_disk["error"]["error"] == "kapow"

    def test_crash_report_op_spelled_with_hyphen(self, diag):
        __, c = diag
        response = c.request({"op": "crash-report"})
        assert response["ok"] and response["crash"] is None

    def test_private_ops_still_rejected(self, diag):
        __, c = diag
        response = c.request({"op": "-op_ping"})
        assert response["ok"] is False

    # -- flight recorder -----------------------------------------------
    def test_flight_op_records_requests_and_errors(self, diag):
        __, c = diag
        c.ping()
        c.request({"op": "fail"})
        doc = c.flight()
        assert doc["ok"] and doc["schema"] == "repro.flight/1"
        kinds = [e["kind"] for e in doc["events"]]
        assert "request" in kinds and "error" in kinds and "log" in kinds
        trimmed = c.flight(last=2)
        assert len(trimmed["events"]) == 2

    # -- debug ops gating ----------------------------------------------
    def test_debug_ops_refused_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG_OPS", raising=False)
        sock = str(tmp_path / "nodbg.sock")
        with TimingDaemon(sock) as server:
            assert server.debug_ops is False
            with DaemonClient(sock) as c:
                for op in ("fail", "sleep"):
                    response = c.request({"op": op})
                    assert response["ok"] is False
                    assert "disabled" in response["error"]

    def test_debug_ops_enabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_OPS", "1")
        sock = str(tmp_path / "envdbg.sock")
        with TimingDaemon(sock) as server:
            assert server.debug_ops is True

    # -- stall watchdog ------------------------------------------------
    def test_stall_fires_and_resolves(self, diag):
        import threading
        import time

        server, c = diag
        done = threading.Event()

        def slow_request():
            with DaemonClient(server.socket_path, timeout=30.0) as other:
                other.request({"op": "sleep", "seconds": 0.8})
            done.set()

        thread = threading.Thread(target=slow_request)
        thread.start()
        try:
            # The watchdog (deadline 0.2 s) must count the sleep op as
            # stalled while it is still in flight.
            deadline = time.time() + 10.0
            stalled = 0
            while time.time() < deadline and not done.is_set():
                stalled = c.health()["stalled"]
                if stalled:
                    break
                time.sleep(0.02)
            assert stalled == 1, "the sleep op was never counted stalled"
        finally:
            thread.join(timeout=30.0)
        assert done.is_set()
        # Once the request finishes nothing is stalled any more.
        assert c.health()["stalled"] == 0
        stall_events = [
            e for e in c.flight()["events"] if e["kind"] == "stall"
        ]
        assert [e["status"] for e in stall_events] == [
            "stalled",
            "resolved",
        ]
        assert {e["op"] for e in stall_events} == {"sleep"}
        assert stall_events[0]["stack"]  # the stuck thread's frames

    def test_watchdog_disabled_with_none_timeout(self, tmp_path):
        sock = str(tmp_path / "nowd.sock")
        with TimingDaemon(sock, stall_timeout_s=None) as server:
            assert server.watchdog is None
            with DaemonClient(sock) as c:
                assert c.ping()["pong"]

    # -- buildinfo / gauges --------------------------------------------
    def test_buildinfo_reports_diagnosis_config(self, diag):
        server, c = diag
        config = c.buildinfo()["config"]
        for gone in ("alert_rules", "history_interval_s", "history_capacity"):
            assert gone not in config
        assert config["flight_capacity"] == server.flight.capacity
        assert config["crash_dir"].endswith("crashes")
        assert config["stall_timeout_s"] == 0.2
        assert config["debug_ops"] is True

    def test_sync_gauges_exports_diagnosis_state(self, diag):
        server, c = diag
        c.request({"op": "fail"})
        metrics = c.metrics()["metrics"]
        gauges = metrics["gauges"]
        assert "service.daemon.stalled" in gauges
        assert gauges["service.flight.events"] >= 1
        assert not [
            name
            for name in gauges
            if name.startswith(("service.alerts.", "service.tsdb."))
        ]
        counters = metrics["counters"]
        assert counters["service.daemon.crash_reports"] == 1
