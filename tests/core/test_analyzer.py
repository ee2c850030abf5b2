"""Unit tests for the Hummingbird facade."""

import math

import pytest

from repro import obs
from repro.clocks import ClockSchedule
from repro.core import Hummingbird
from repro.delay import estimate_delays
from repro.generators import random_design

from tests.conftest import build_ff_stage


class TestAnalyze:
    def test_timing_result_fields(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        hb = Hummingbird(network, schedule)
        result = hb.analyze()
        assert result.intended
        assert result.worst_slack == pytest.approx(7.0)
        assert result.preprocess_seconds >= 0.0
        assert result.analysis_seconds >= 0.0
        assert result.stats["cells"] == network.num_cells

    def test_summary_and_report_strings(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        result = Hummingbird(network, schedule).analyze()
        assert "intended" in result.summary()
        assert "pre-processing" in result.summary()
        assert "No slow paths" in result.report()

    def test_slow_design_reported(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=2.0)
        result = Hummingbird(network, schedule).analyze()
        assert not result.intended
        assert result.slow_paths
        assert "slow path" in result.report()

    @pytest.mark.parametrize("limit", [-1, True, 2.5, "3"], ids=repr)
    def test_bad_slow_path_limit_is_rejected(self, lib, limit):
        """A negative limit would slice from the end of the violations."""
        network, schedule = build_ff_stage(lib, chain=2, period=2.0)
        hb = Hummingbird(network, schedule)
        with pytest.raises(ValueError, match="slow_path_limit"):
            hb.analyze(slow_path_limit=limit)
        assert len(hb.analyze(slow_path_limit=0).slow_paths) == 0
        assert hb.analyze(slow_path_limit=None).slow_paths

    @pytest.mark.parametrize(
        "tolerance", [math.nan, -math.inf, math.inf, True, "0"], ids=repr
    )
    def test_bad_tolerance_is_rejected(self, lib, tolerance):
        """A NaN or -inf tolerance would keep no slow path at all."""
        network, schedule = build_ff_stage(lib, chain=2, period=2.0)
        hb = Hummingbird(network, schedule)
        with pytest.raises(ValueError, match="tolerance"):
            hb.analyze(tolerance=tolerance)
        assert hb.analyze(tolerance=None).slow_paths
        assert hb.analyze(tolerance=0).slow_paths

    def test_explicit_delay_map_respected(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        delays = estimate_delays(network).with_scaled_cell("inv0", 10.0)
        hb = Hummingbird(network, schedule, delays=delays)
        slowed = hb.analyze()
        assert slowed.worst_slack < 7.0


class TestWhatIfHelpers:
    def test_with_schedule_reuses_delays(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        hb = Hummingbird(network, schedule)
        hb2 = hb.with_schedule(ClockSchedule.single("clk", 20))
        assert hb2.delays is hb.delays
        assert hb2.analyze().worst_slack == pytest.approx(17.0)

    def test_with_delays(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        hb = Hummingbird(network, schedule)
        hb2 = hb.with_delays(hb.delays.with_scaled_cell("inv0", 0.5))
        assert hb2.analyze().worst_slack > hb.analyze().worst_slack


class TestFlagging:
    def test_flag_slow_paths_sets_attrs(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=2.0)
        hb = Hummingbird(network, schedule)
        flagged = hb.flag_slow_paths()
        assert flagged >= 1
        assert network.cell("inv0").attrs.get("slow_path") is True

    def test_no_flags_on_fast_design(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=20)
        hb = Hummingbird(network, schedule)
        assert hb.flag_slow_paths() == 0


class TestTableRow:
    def test_row_shape(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        row = Hummingbird(network, schedule).table_row()
        assert row["design"] == network.name
        assert row["cells"] == network.num_cells
        assert row["intended"] is True
        assert row["preprocess_s"] >= 0.0

    def test_constraints_entry_point(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        hb = Hummingbird(network, schedule)
        outcome = hb.generate_constraints()
        assert outcome.constraints.ready_time("n1") is not None


def _constraints_view(outcome):
    """Ready and required times bit for bit, and the snatch cycles."""

    def side(times):
        return sorted(
            (
                net,
                [
                    (e.cluster, e.pass_index, e.value.rise.hex(),
                     e.value.fall.hex())
                    for e in entries
                ],
            )
            for net, entries in times.items()
        )

    return (
        side(outcome.constraints.ready),
        side(outcome.constraints.required),
        outcome.backward_snatch_cycles,
        outcome.forward_snatch_cycles,
        outcome.converged,
    )


@pytest.mark.parametrize("scale", ["1", "0.5"], ids=["clean", "violating"])
def test_constraints_reuse_the_analysis_run(scale):
    """After analyze(), generate_constraints() runs no second Algorithm
    1, and each call answers what a fresh analyser's does: the windows
    the first call's snatching moved are put back for the second."""
    network, schedule = random_design(
        7, n_banks=4, gates_per_bank=100, bits=4, style="latch"
    )
    schedule = schedule.scaled(scale)
    hb = Hummingbird(network, schedule)
    with obs.recording() as rec:
        intended = hb.analyze().intended
        first = _constraints_view(hb.generate_constraints())
        second = _constraints_view(hb.generate_constraints())
    assert rec.counters["alg1.runs"] == 1
    fresh = Hummingbird(network, schedule).generate_constraints()
    assert first == second == _constraints_view(fresh)
    assert intended == (scale == "1")
    assert (first[3] > 0) == (not intended)
