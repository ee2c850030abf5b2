"""Integration: ``repro-sta ... --trace --metrics --verbose``."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.clocks.serialize import save_schedule
from repro.generators import latch_pipeline
from repro.netlist.persistence import save_network

from tests.conftest import build_ff_stage


@pytest.fixture
def pipeline_workspace(tmp_path):
    network, schedule = latch_pipeline(
        stages=6, stage_lengths=[12, 1, 1, 1, 1, 1], period=12.0
    )
    netlist = tmp_path / "pipeline.json"
    clocks = tmp_path / "clocks.json"
    save_network(network, netlist)
    save_schedule(schedule, clocks)
    return network, netlist, clocks, tmp_path


class TestAnalyzeWithObservability:
    def test_trace_and_metrics_files_written(
        self, pipeline_workspace, capsys
    ):
        network, netlist, clocks, tmp_path = pipeline_workspace
        trace = tmp_path / "out.trace.json"
        metrics = tmp_path / "out.metrics.json"
        code = main(
            [
                "analyze",
                str(netlist),
                "--clocks",
                str(clocks),
                "--trace",
                str(trace),
                "--metrics",
                str(metrics),
                "--verbose",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "behaves as intended" in captured.out
        # Phase tree on stderr.
        assert "analyzer.preprocess" in captured.err
        assert "counters:" in captured.err

        # Trace file: valid Chrome trace-event JSON.
        trace_data = json.loads(trace.read_text())
        assert obs.validate_chrome_trace(trace_data) == []
        names = {e["name"] for e in trace_data["traceEvents"]}
        assert "cli.analyze" in names
        assert "analyzer.preprocess" in names
        assert "analyzer.analysis" in names

        # Metrics file: the acceptance-criteria catalogue.
        data = json.loads(metrics.read_text())
        counters = data["counters"]
        spans = data["spans"]
        # per-phase durations
        assert spans["analyzer.preprocess"]["total_s"] >= 0.0
        assert spans["analyzer.analysis"]["total_s"] >= 0.0
        # Algorithm-1 iteration count (>=1 on this borrowing pipeline)
        assert counters["alg1.iterations_total"] >= 1
        bound = len(network.synchronisers) + 1
        assert counters["alg1.forward_cycles"] <= bound
        # slack-transfer / snatch counters (snatch zero-filled here)
        assert counters["transfer.complete_forward.moved"] > 0
        assert "transfer.snatch_forward.moved" in counters
        # per-cluster pass counts
        assert counters["slack.cluster_passes"] >= 1
        assert data["gauges"]["model.total_passes"] >= 1
        # incremental swaps/rebuilds (zero-filled for plain analyze)
        assert counters["incremental.swaps"] == 0
        assert counters["incremental.rebuilds"] == 0

    def test_recorder_disabled_after_cli_run(self, pipeline_workspace):
        __, netlist, clocks, tmp_path = pipeline_workspace
        main(
            [
                "analyze",
                str(netlist),
                "--clocks",
                str(clocks),
                "--trace",
                str(tmp_path / "t.json"),
            ]
        )
        assert obs.active() is None

    def test_plain_run_writes_nothing(
        self, pipeline_workspace, capsys
    ):
        __, netlist, clocks, tmp_path = pipeline_workspace
        code = main(["analyze", str(netlist), "--clocks", str(clocks)])
        assert code == 0
        assert not list(tmp_path.glob("*.trace.json"))
        assert "counters:" not in capsys.readouterr().err


class TestOtherSubcommandsAcceptFlags:
    @pytest.mark.parametrize(
        "command", ["constraints", "stats", "maxfreq"]
    )
    def test_subcommand_trace(
        self, lib, tmp_path, command, capsys
    ):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        netlist = tmp_path / "d.json"
        clocks = tmp_path / "c.json"
        save_network(network, netlist)
        save_schedule(schedule, clocks)
        trace = tmp_path / f"{command}.trace.json"
        code = main(
            [
                command,
                str(netlist),
                "--clocks",
                str(clocks),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        data = json.loads(trace.read_text())
        assert obs.validate_chrome_trace(data) == []
        assert any(
            e["name"] == f"cli.{command}" for e in data["traceEvents"]
        )

    def test_waveforms_trace(self, lib, tmp_path):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        clocks = tmp_path / "c.json"
        save_schedule(schedule, clocks)
        trace = tmp_path / "w.trace.json"
        code = main(
            ["waveforms", "--clocks", str(clocks), "--trace", str(trace)]
        )
        assert code == 0
        assert json.loads(trace.read_text())["traceEvents"]

    def test_help_text_mentions_verilog(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        out = capsys.readouterr().out
        assert ".json, .blif or .v" in out
        assert "--trace" in out and "--metrics" in out
