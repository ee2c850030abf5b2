"""CLI integration: ``repro-sta batch`` / ``serve`` / ``query``."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.cli import build_parser, main
from repro.service import DaemonClient, TimingDaemon


@pytest.fixture
def jobs_file(tmp_path, design_files):
    netlist, clocks = design_files
    path = tmp_path / "jobs.json"
    path.write_text(
        json.dumps(
            {
                "schema": "repro.batch/1",
                "jobs": [
                    {"name": "a", "netlist": "pipeline.json",
                     "clocks": "clocks.json"},
                    {"name": "b", "netlist": "pipeline.json",
                     "clocks": "clocks.json", "slow_path_limit": 9},
                ],
            }
        )
    )
    return str(path)


class TestBatchCommand:
    def test_cold_then_warm_run(self, tmp_path, jobs_file, capsys):
        cache_dir = str(tmp_path / "cache")
        stats = tmp_path / "stats.json"
        argv = [
            "batch",
            jobs_file,
            "--cache-dir",
            cache_dir,
            "--serial",
            "--manifest-dir",
            str(tmp_path / "runs"),
            "--stats-out",
            str(stats),
        ]
        assert main(argv) == 0
        cold = json.loads(stats.read_text())
        assert cold["computed"] == 2 and cold["cached"] == 0
        manifests = sorted((tmp_path / "runs").glob("*.manifest.json"))
        assert [p.name for p in manifests] == [
            "a.manifest.json",
            "b.manifest.json",
        ]

        assert main(argv) == 0
        warm = json.loads(stats.read_text())
        assert warm["cached"] == 2 and warm["computed"] == 0
        assert warm["hit_rate"] == 1.0
        assert warm["alg1_iterations_total"] == 0
        # Manifests served from cache are identical records.
        for cold_row, warm_row in zip(
            cold["outcomes"], warm["outcomes"]
        ):
            assert (
                cold_row["manifest_digest"] == warm_row["manifest_digest"]
            )
        out = capsys.readouterr().out
        assert "hit rate 100%" in out

    def test_batch_with_metrics_export(self, tmp_path, jobs_file):
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "batch",
                    jobs_file,
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--serial",
                    "--metrics",
                    str(metrics),
                ]
            )
            == 0
        )
        dump = json.loads(metrics.read_text())
        assert dump["counters"]["service.batch.jobs"] == 2
        assert dump["counters"]["service.cache.misses"] == 2

    def test_bad_jobs_file(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        with pytest.raises(SystemExit):
            main(["batch", str(bogus)])


class TestQueryCommand:
    def test_query_against_live_daemon(
        self, tmp_path, design_files, capsys
    ):
        netlist, clocks = design_files
        sock = str(tmp_path / "repro.sock")
        with TimingDaemon(sock):
            assert main(["query", "--socket", sock, '{"op": "ping"}']) == 0
            out = capsys.readouterr().out
            assert json.loads(out)["pong"] is True
            request = json.dumps(
                {"op": "analyze", "netlist": netlist, "clocks": clocks}
            )
            assert main(["query", "--socket", sock, request]) == 0
            analyzed = json.loads(capsys.readouterr().out)
            assert analyzed["engine"] == "cold"
            assert analyzed["intended"] is True

    def test_query_bad_json(self, tmp_path):
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["query", "--socket", str(tmp_path / "x.sock"), "{"])

    def test_query_no_daemon(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot reach daemon"):
            main(
                [
                    "query",
                    "--socket",
                    str(tmp_path / "nothing.sock"),
                    '{"op": "ping"}',
                ]
            )


def _serve(argv, sock):
    """Run ``main(["serve", ...])`` on a thread; returns (client, done,
    status) once the socket answers."""
    import time

    done = threading.Event()
    status = {}

    def run():
        status["code"] = main(["serve", "--socket", sock, *argv])
        done.set()

    threading.Thread(target=run, daemon=True).start()
    # Wait for the socket to appear, then drive it.
    for __ in range(200):
        try:
            return DaemonClient(sock, timeout=30.0), done, status
        except OSError:
            time.sleep(0.05)
    pytest.fail("serve never came up")  # pragma: no cover


class TestServeCommand:
    def test_serve_foreground_until_shutdown(
        self, tmp_path, design_files
    ):
        sock = str(tmp_path / "serve.sock")
        client, done, status = _serve(["--no-cache"], sock)
        with client:
            assert client.ping()["pong"]
            client.shutdown()
        assert done.wait(timeout=10.0)
        assert status["code"] == 0

    def test_serve_lists_its_http_routes(self, tmp_path, capsys):
        """The start-up message names exactly the sidecar's routes."""
        sock = str(tmp_path / "serve.sock")
        client, done, status = _serve(
            ["--no-cache", "--http-port", "0"], sock
        )
        with client:
            # A ping is answered only once serving has begun, after the
            # start-up message.
            assert client.ping()["pong"]
            line = next(
                line
                for line in capsys.readouterr().err.splitlines()
                if line.startswith("telemetry http on ")
            )
            # ``--http-port 0`` prints the port the sidecar bound.
            address = line[len("telemetry http on ") : line.index(" (GET ")]
            host, port = address.split(":")
            assert int(port) > 0
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=5
            ) as response:
                assert response.status == 200
            client.shutdown()
        assert done.wait(timeout=10.0)
        assert status["code"] == 0
        listed = line[line.index("(GET ") + 5 : line.rindex(")")]
        assert listed.split(", ") == [
            path for path, __ in TimingDaemon.HTTP_ROUTES
        ]
        assert "/profile" not in listed
        assert "/traces" not in listed

    def test_serve_writes_no_cluster_artifacts(
        self, tmp_path, design_files
    ):
        """The daemon keeps no cluster cache: analyses and mutations
        against ``--cache-dir D`` leave ``D/clusters`` empty."""
        netlist, clocks = design_files
        cache_dir = tmp_path / "cache"
        sock = str(tmp_path / "serve.sock")
        client, done, status = _serve(["--cache-dir", str(cache_dir)], sock)
        with client:
            assert client.analyze(netlist, clocks)["ok"]
            mutated = client.mutate(
                netlist, clocks, "scale_cell", cell="s1_i0", factor=1.5
            )
            assert mutated["ok"] and mutated["analysis"]["ok"]
            assert "touched_cluster" not in mutated
            client.shutdown()
        assert done.wait(timeout=10.0)
        assert status["code"] == 0
        clusters = cache_dir / "clusters"
        assert not clusters.exists() or not any(clusters.rglob("*"))
        # The result cache under the same directory is still in use.
        assert any(cache_dir.rglob("*.json"))

    def test_serve_rejects_zero_workers(self, tmp_path):
        with pytest.raises(SystemExit, match="--workers must be at least 1"):
            main(
                [
                    "serve",
                    "--socket",
                    str(tmp_path / "zero.sock"),
                    "--workers",
                    "0",
                ]
            )

    def test_cluster_cache_flags_are_batch_only(self, capsys):
        for command, present in (("batch", True), ("serve", False)):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = capsys.readouterr().out
            for flag in ("--no-cluster-cache", "--cluster-cache-entries"):
                assert (flag in text) is present, (command, flag)
        assert "--no-snapshot-reads" not in text

    def test_cache_peer_flags_are_gone(self, capsys):
        """Processes share a cache through one --cache-dir and each
        daemon is triaged on its own; there are no peer, cache-server
        or fleet-collector flags any more, no sampling profiler, no
        trace store and no alert engine."""
        for argv in (
            ["batch", "jobs.json", "--peers", "http://127.0.0.1:9400"],
            ["batch", "jobs.json", "--peers-file", "peers.txt"],
            ["batch", "jobs.json", "--peer-timeout", "1"],
            ["serve", "--socket", "s.sock", "--peers",
             "http://127.0.0.1:9400"],
            ["serve", "--socket", "s.sock", "--peer-timeout", "1"],
            ["serve", "--socket", "s.sock", "--cache-listen", "0"],
            ["serve", "--socket", "s.sock", "--collect"],
            ["serve", "--socket", "s.sock", "--peers-file", "peers.txt"],
            ["serve", "--socket", "s.sock", "--collect-interval", "1"],
            ["doctor", "--socket", "s.sock", "--fleet"],
            ["doctor", "--socket", "s.sock", "--peers",
             "http://127.0.0.1:9400"],
            ["doctor", "--socket", "s.sock", "--peers-file", "peers.txt"],
            ["serve", "--socket", "s.sock", "--profile", "p.json"],
            ["serve", "--socket", "s.sock", "--profile-hz", "100"],
            ["query", "--socket", "s.sock", "--profile", "p.json",
             '{"op": "ping"}'],
            ["query", "--socket", "s.sock", "--profile-hz", "100",
             '{"op": "ping"}'],
            ["analyze", "d.json", "--clocks", "c.json", "--profile",
             "p.json"],
            ["analyze", "d.json", "--clocks", "c.json", "--profile-hz",
             "100"],
            ["batch", "jobs.json", "--profile", "p.json"],
            ["batch", "jobs.json", "--profile-hz", "100"],
            ["serve", "--socket", "s.sock", "--trace-dir", "D"],
            ["serve", "--socket", "s.sock", "--trace-max-bytes", "1"],
            ["serve", "--socket", "s.sock", "--trace-sample", "1.0"],
            ["serve", "--socket", "s.sock", "--alert-rules", "F"],
        ):
            with pytest.raises(SystemExit) as exc_info:
                build_parser().parse_args(argv)
            assert exc_info.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err
        for command in ("collect", "fleet", "traces", "top", "alerts"):
            with pytest.raises(SystemExit) as exc_info:
                build_parser().parse_args([command])
            assert exc_info.value.code == 2, command
            assert "invalid choice" in capsys.readouterr().err
