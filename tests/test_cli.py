"""Tests for the repro-sta command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.clocks import ClockSchedule
from repro.clocks.serialize import (
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.generators import generate_sm1h, latch_pipeline
from repro.netlist.blif import save_blif
from repro.netlist.persistence import network_to_dict, save_network

from tests.conftest import MALFORMED_CLOCKS, MALFORMED_NETLISTS, build_ff_stage


@pytest.fixture
def workspace(lib, tmp_path):
    network, schedule = build_ff_stage(lib, chain=2, period=10)
    netlist_json = tmp_path / "design.json"
    netlist_blif = tmp_path / "design.blif"
    clocks = tmp_path / "clocks.json"
    save_network(network, netlist_json)
    save_blif(network, netlist_blif)
    save_schedule(schedule, clocks)
    return netlist_json, netlist_blif, clocks, tmp_path


class TestScheduleSerialisation:
    def test_roundtrip(self, tmp_path):
        schedule = ClockSchedule.two_phase(100)
        path = tmp_path / "clk.json"
        save_schedule(schedule, path)
        loaded = load_schedule(path)
        assert loaded.overall_period == schedule.overall_period
        assert loaded.clock_names == schedule.clock_names
        assert loaded.waveform("phi1").leading == schedule.waveform(
            "phi1"
        ).leading

    def test_fractional_times(self):
        schedule = ClockSchedule.single("clk", "1/3", leading=0, trailing="1/6")
        data = schedule_to_dict(schedule)
        assert data["clocks"][0]["period"] == "1/3"
        loaded = schedule_from_dict(data)
        assert loaded.waveform("clk").period == schedule.waveform("clk").period

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            schedule_from_dict({"clocks": []})


class TestAnalyzeCommand:
    def test_analyze_json_ok(self, workspace, capsys):
        netlist_json, __, clocks, __ = workspace
        code = main(["analyze", str(netlist_json), "--clocks", str(clocks)])
        out = capsys.readouterr().out
        assert code == 0
        assert "behaves as intended" in out

    def test_analyze_blif_ok(self, workspace, capsys):
        __, netlist_blif, clocks, __ = workspace
        code = main(["analyze", str(netlist_blif), "--clocks", str(clocks)])
        assert code == 0

    def test_analyze_slow_design_exit_code(self, lib, tmp_path, capsys):
        network, schedule = build_ff_stage(lib, chain=2, period=2.0)
        netlist = tmp_path / "slow.json"
        clocks = tmp_path / "clk.json"
        save_network(network, netlist)
        save_schedule(schedule, clocks)
        code = main(["analyze", str(netlist), "--clocks", str(clocks)])
        out = capsys.readouterr().out
        assert code == 1
        assert "slow path" in out

    def test_min_delay_flag(self, workspace, capsys):
        netlist_json, __, clocks, __ = workspace
        code = main(
            [
                "analyze",
                str(netlist_json),
                "--clocks",
                str(clocks),
                "--min-delay",
            ]
        )
        out = capsys.readouterr().out
        assert "min-delay" in out
        assert code == 0

    def test_bad_limit_exits_2(self, workspace, capsys):
        """A negative slow-path count would slice from the end."""
        netlist_json, __, clocks, tmp_path = workspace
        for argv in (
            ["analyze", str(netlist_json), "--clocks", str(clocks)],
            ["report", str(netlist_json), "--clocks", str(clocks)],
            ["constraints", str(netlist_json), "--clocks", str(clocks)],
            ["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")],
            ["serve", "--socket", str(tmp_path / "s.sock")],
        ):
            for limit in ("-1", "2.5", "x"):
                with pytest.raises(SystemExit) as exc_info:
                    main([*argv, "--limit", limit])
                assert exc_info.value.code == 2, (argv[0], limit)
                err = capsys.readouterr().err
                assert "--limit: must be a whole number >= 0" in err
        assert not (tmp_path / "s.sock").exists()

    def test_unknown_extension_rejected(self, workspace):
        __, __, clocks, tmp_path = workspace
        bogus = tmp_path / "design.vhdl"
        bogus.write_text("")
        with pytest.raises(SystemExit):
            main(["analyze", str(bogus), "--clocks", str(clocks)])


class TestOtherCommands:
    def test_constraints(self, workspace, capsys):
        netlist_json, __, clocks, __ = workspace
        code = main(
            [
                "constraints",
                str(netlist_json),
                "--clocks",
                str(clocks),
                "--net",
                "n1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "n1" in out and "required" in out

    def test_maxfreq(self, workspace, capsys):
        netlist_json, __, clocks, __ = workspace
        code = main(["maxfreq", str(netlist_json), "--clocks", str(clocks)])
        out = capsys.readouterr().out
        assert code == 0
        assert "minimum feasible overall period: 3.0" in out

    def test_waveforms(self, workspace, capsys):
        __, __, clocks, __ = workspace
        code = main(["waveforms", "--clocks", str(clocks)])
        out = capsys.readouterr().out
        assert code == 0
        assert "clk" in out and "#" in out

    def test_stats(self, workspace, capsys):
        netlist_json, __, clocks, __ = workspace
        code = main(["stats", str(netlist_json), "--clocks", str(clocks)])
        out = capsys.readouterr().out
        assert code == 0
        assert "WNS" in out and "TNS" in out

    def test_simulate_clean(self, workspace, capsys):
        netlist_json, __, clocks, __ = workspace
        code = main(
            [
                "simulate",
                str(netlist_json),
                "--clocks",
                str(clocks),
                "--cycles",
                "6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "behaves as intended (dynamic)" in out

    def test_simulate_slow_design(self, lib, tmp_path, capsys):
        network, schedule = build_ff_stage(lib, chain=3, period=2.5)
        netlist = tmp_path / "slow.json"
        clocks = tmp_path / "clk.json"
        save_network(network, netlist)
        save_schedule(schedule, clocks)
        code = main(
            [
                "simulate",
                str(netlist),
                "--clocks",
                str(clocks),
                "--cycles",
                "12",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert "dynamic check" in out
        # With a toggling-enough random seed the slow design mismatches;
        # at minimum the command must complete and report.
        assert code in (0, 1)


class TestVerilogAndCorners:
    def test_analyze_verilog(self, lib, tmp_path, capsys):
        from repro.netlist.verilog import save_verilog

        network, schedule = build_ff_stage(lib, chain=2, period=10)
        netlist = tmp_path / "design.v"
        clocks = tmp_path / "clk.json"
        save_verilog(network, netlist)
        save_schedule(schedule, clocks)
        code = main(["analyze", str(netlist), "--clocks", str(clocks)])
        assert code == 0
        assert "behaves as intended" in capsys.readouterr().out

    def test_corners_command(self, lib, tmp_path, capsys):
        network, schedule = build_ff_stage(lib, chain=2, period=20)
        network.cell("din").attrs["offset"] = 1.0
        netlist = tmp_path / "d.json"
        clocks = tmp_path / "clk.json"
        save_network(network, netlist)
        save_schedule(schedule, clocks)
        code = main(["corners", str(netlist), "--clocks", str(clocks)])
        out = capsys.readouterr().out
        assert code == 0
        assert "all corners clean" in out
        assert "slow" in out and "fast" in out

    def test_corners_command_failure_exit(self, lib, tmp_path, capsys):
        network, schedule = build_ff_stage(lib, chain=2, period=3.3)
        netlist = tmp_path / "d.json"
        clocks = tmp_path / "clk.json"
        save_network(network, netlist)
        save_schedule(schedule, clocks)
        code = main(["corners", str(netlist), "--clocks", str(clocks)])
        assert code == 1


@pytest.fixture
def borrow_workspace(tmp_path):
    """A cycle-borrowing latch pipeline saved to disk."""
    from repro.generators.pipelines import latch_pipeline

    network, schedule = latch_pipeline(
        stages=4, stage_lengths=[12, 1, 1, 1], period=12.0
    )
    netlist = tmp_path / "pipeline.json"
    clocks = tmp_path / "clocks.json"
    save_network(network, netlist)
    save_schedule(schedule, clocks)
    return netlist, clocks, tmp_path


class TestForensicsCommands:
    def test_analyze_manifest_and_audit(self, borrow_workspace, capsys):
        netlist, clocks, tmp_path = borrow_workspace
        code = main(
            [
                "analyze", str(netlist), "--clocks", str(clocks),
                "--manifest", str(tmp_path / "runs"),
                "--label", "base",
                "--audit", str(tmp_path / "audit.json"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "manifest written" in err and "audit trail written" in err
        manifest = json.loads(
            (tmp_path / "runs" / "base.manifest.json").read_text()
        )
        assert manifest["schema"] == "repro.manifest/1"
        audit = json.loads((tmp_path / "audit.json").read_text())
        assert audit["schema"] == "repro.audit/1"
        assert audit["total_events"] > 0

    def test_report_named_endpoint(self, borrow_workspace, capsys):
        netlist, clocks, __ = borrow_workspace
        code = main(
            [
                "report", str(netlist), "--clocks", str(clocks),
                "--endpoint", "s1_l",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "D_p" in out and "borrow chain" in out

    def test_report_default_worst_endpoints(self, borrow_workspace, capsys):
        netlist, clocks, __ = borrow_workspace
        code = main(
            ["report", str(netlist), "--clocks", str(clocks), "--limit", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("endpoint ") >= 1

    def test_report_json_to_file(self, borrow_workspace, capsys):
        netlist, clocks, tmp_path = borrow_workspace
        target = tmp_path / "report.json"
        code = main(
            [
                "report", str(netlist), "--clocks", str(clocks),
                "--format", "json", "--out", str(target),
            ]
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["schema"] == "repro.report/1"
        assert doc["endpoints"]

    def test_report_html(self, borrow_workspace, capsys):
        netlist, clocks, __ = borrow_workspace
        code = main(
            [
                "report", str(netlist), "--clocks", str(clocks),
                "--format", "html", "--endpoint", "s1_l",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("<!DOCTYPE html>")

    def test_report_unknown_endpoint_exits(self, borrow_workspace):
        netlist, clocks, __ = borrow_workspace
        with pytest.raises(SystemExit):
            main(
                [
                    "report", str(netlist), "--clocks", str(clocks),
                    "--endpoint", "no_such_net",
                ]
            )

    def test_diff_identical_runs(self, borrow_workspace, capsys):
        netlist, clocks, tmp_path = borrow_workspace
        for label in ("a", "b"):
            main(
                [
                    "analyze", str(netlist), "--clocks", str(clocks),
                    "--manifest", str(tmp_path / f"{label}.json"),
                    "--label", label,
                ]
            )
        capsys.readouterr()
        code = main(
            ["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no regression" in out

    def test_diff_regression_exit_code(self, borrow_workspace, capsys):
        from repro.clocks.serialize import load_schedule as _load
        from repro.generators.pipelines import latch_pipeline

        netlist, clocks, tmp_path = borrow_workspace
        main(
            [
                "analyze", str(netlist), "--clocks", str(clocks),
                "--manifest", str(tmp_path / "slow.json"), "--label", "slow",
            ]
        )
        # Re-save a tighter schedule and rerun: endpoints regress.
        network, fast_schedule = latch_pipeline(
            stages=4, stage_lengths=[12, 1, 1, 1], period=8.0
        )
        fast_clocks = tmp_path / "fast_clocks.json"
        save_schedule(fast_schedule, fast_clocks)
        main(
            [
                "analyze", str(netlist), "--clocks", str(fast_clocks),
                "--manifest", str(tmp_path / "fast.json"), "--label", "fast",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "diff", str(tmp_path / "slow.json"),
                str(tmp_path / "fast.json"), "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        doc = json.loads(out)
        assert doc["schema"] == "repro.diff/1"
        assert doc["has_regression"] is True

    def test_diff_rejects_non_manifest(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(SystemExit):
            main(["diff", str(bogus), str(bogus)])

    def test_stats_json(self, borrow_workspace, capsys):
        netlist, clocks, __ = borrow_workspace
        code = main(
            ["stats", str(netlist), "--clocks", str(clocks), "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "repro.stats/1"
        assert doc["timing"]["endpoint_slacks"]
        assert doc["histogram"]

    def test_stats_json_matches_manifest_timing(self, borrow_workspace, capsys):
        netlist, clocks, tmp_path = borrow_workspace
        main(
            [
                "analyze", str(netlist), "--clocks", str(clocks),
                "--manifest", str(tmp_path / "m.json"),
            ]
        )
        capsys.readouterr()
        main(["stats", str(netlist), "--clocks", str(clocks), "--json"])
        out = capsys.readouterr().out
        stats_doc = json.loads(out)
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert stats_doc["timing"] == manifest["timing"]


REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def _add_inverter_loop(doc):
    doc["modules"]["SM1_LOGIC"]["inner"]["cells"] += [
        {"name": "cyc1", "spec": "INV", "attrs": {},
         "pins": {"A": "cyc_b", "Z": "cyc_a"}},
        {"name": "cyc2", "spec": "INV", "attrs": {},
         "pins": {"A": "cyc_a", "Z": "cyc_b"}},
    ]


def _dangle_output_port(doc):
    doc["modules"]["SM1_LOGIC"]["output_ports"]["ns0"] = "no_such_net"


def _unknown_inner_spec(doc):
    doc["modules"]["SM1_LOGIC"]["inner"]["cells"][0]["spec"] = "NAND9"


def _unknown_instance_pin(doc):
    instance = next(c for c in doc["cells"] if c["spec"] == "SM1_LOGIC")
    instance["pins"]["bogus"] = "xin0"


def _unknown_top_spec(doc):
    register = next(c for c in doc["cells"] if c["spec"] == "DFF")
    register["spec"] = "DFFX"


class TestMalformedHierarchicalNetlists:
    """Broken SM1H files exit 1 with a one-line error, not a traceback."""

    @pytest.mark.parametrize(
        "corrupt, culprit",
        [
            (_add_inverter_loop, "directed cycle through: cyc1, cyc2"),
            (_dangle_output_port, "no net named 'no_such_net'"),
            (_unknown_inner_spec, "has no cell 'NAND9'"),
            (_unknown_instance_pin, "cell 'logic' (SM1_LOGIC) has no pin 'bogus'"),
            (_unknown_top_spec, "has no cell 'DFFX'"),
        ],
    )
    def test_analyze_exits_with_message(self, tmp_path, corrupt, culprit):
        network, schedule = generate_sm1h()
        doc = network_to_dict(network)
        corrupt(doc)
        netlist = tmp_path / "broken.json"
        clocks = tmp_path / "clocks.json"
        netlist.write_text(json.dumps(doc))
        save_schedule(schedule, clocks)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "analyze", str(netlist),
                "--clocks", str(clocks),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert culprit in proc.stderr
        assert not proc.stderr.startswith(("'", '"'))


def _self_loop(doc, clocks):
    _pins(doc, "s0_i0")["A"] = "s0_c0"


def _floating_input(doc, clocks):
    _pins(doc, "s0_i0")["A"] = "nowhere"


def _unknown_clock(doc, clocks):
    source = next(c for c in doc["cells"] if c["name"] == "clkgen_phi1")
    source["attrs"]["clock"] = "phi9"


def _untagged_clocks(doc, clocks):
    del clocks["format"]


def _missing_clocks(doc, clocks):
    return "no_such_clocks.json"


def _pins_not_an_object(doc, clocks):
    next(c for c in doc["cells"] if c["name"] == "s0_i0")["pins"] = "oops"


def _cell_not_an_object(doc, clocks):
    doc["cells"][0] = "oops"


def _pins(doc, cell_name):
    return next(c for c in doc["cells"] if c["name"] == cell_name)["pins"]


class TestInvalidDesignOrClocks:
    """A design that fails validation, or a clocks file that cannot be
    read, exits 1 with a one-line error from every analysing subcommand,
    not a traceback."""

    @pytest.mark.parametrize(
        "command, corrupt, culprit",
        [
            ("analyze", _self_loop, "directed cycle through: s0_i0"),
            ("analyze", _floating_input, "input terminal s0_i0/A is floating"),
            (
                "analyze",
                _unknown_clock,
                "clock source 'clkgen_phi1' refers to unknown clock 'phi9'",
            ),
            ("analyze", _untagged_clocks, "missing format tag"),
            ("analyze", _missing_clocks, "No such file or directory"),
            (
                "analyze",
                _pins_not_an_object,
                "netlist cell 's0_i0': 'pins' has the wrong type (str)",
            ),
            (
                "analyze",
                _cell_not_an_object,
                "netlist cell entry 'oops' is not an object",
            ),
            ("stats", _self_loop, "directed cycle through: s0_i0"),
            ("stats", _missing_clocks, "No such file or directory"),
        ],
    )
    def test_exits_with_message(self, tmp_path, command, corrupt, culprit):
        network, schedule = latch_pipeline(
            stages=4, stage_lengths=[10, 1, 1, 1], period=12.0
        )
        doc = network_to_dict(network)
        clocks_doc = schedule_to_dict(schedule)
        clocks = tmp_path / (corrupt(doc, clocks_doc) or "clocks.json")
        netlist = tmp_path / "design.json"
        netlist.write_text(json.dumps(doc))
        (tmp_path / "clocks.json").write_text(json.dumps(clocks_doc))
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", command, str(netlist),
                "--clocks", str(clocks),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert culprit in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not proc.stderr.startswith(("'", '"'))

    @pytest.mark.parametrize("corrupt, culprit", MALFORMED_NETLISTS)
    def test_malformed_netlists_exit_with_message(
        self, tmp_path, corrupt, culprit
    ):
        network, schedule = latch_pipeline(
            stages=3, stage_lengths=[3, 1, 1], period=12.0
        )
        netlist = corrupt(network, tmp_path)
        clocks = tmp_path / "clocks.json"
        save_schedule(schedule, clocks)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "analyze", str(netlist),
                "--clocks", str(clocks),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert culprit in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("corrupt, culprit", MALFORMED_CLOCKS)
    def test_malformed_clocks_exit_with_message(
        self, tmp_path, corrupt, culprit
    ):
        network, schedule = latch_pipeline(
            stages=3, stage_lengths=[3, 1, 1], period=12.0
        )
        netlist = tmp_path / "design.json"
        clocks = tmp_path / "clocks.json"
        save_network(network, netlist)
        clocks.write_text(json.dumps(corrupt(schedule_to_dict(schedule))))
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "analyze", str(netlist),
                "--clocks", str(clocks),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert culprit in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
