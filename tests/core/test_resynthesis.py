"""Behavioural tests for Algorithm 3 (analysis-redesign loop)."""

import pytest

from repro.core import resynthesis
from repro.core.frequency import find_max_frequency
from repro.core.resynthesis import SpeedupModel, run_redesign_loop
from repro.delay import estimate_delays
from repro.generators import random_design

from tests.conftest import build_ff_stage


class TestSpeedupModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpeedupModel(speedup_factor=1.0)
        with pytest.raises(ValueError):
            SpeedupModel(speedup_factor=0.5, min_scale=0.0)


class TestRedesignLoop:
    def test_already_fast_design_trivially_succeeds(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=20)
        delays = estimate_delays(network)
        result = run_redesign_loop(network, schedule, delays)
        assert result.success
        assert result.num_rounds == 1
        assert result.rounds[0].chosen_module is None
        assert result.area_cost == 0.0

    def test_slow_design_converges_with_speedups(self, lib):
        # Feasible only below ~3.0ns budget; 2.5 requires ~17% speed-up.
        network, schedule = build_ff_stage(lib, chain=2, period=2.7)
        delays = estimate_delays(network)
        result = run_redesign_loop(network, schedule, delays)
        assert result.success
        assert result.num_rounds >= 2
        assert result.area_cost > 0.0
        chosen = [r.chosen_module for r in result.rounds if r.chosen_module]
        assert set(chosen) <= {"inv0", "inv1"}

    def test_final_delays_are_feasible(self, lib):
        from tests.conftest import analyze

        network, schedule = build_ff_stage(lib, chain=3, period=3.2)
        delays = estimate_delays(network)
        result = run_redesign_loop(network, schedule, delays)
        assert result.success
        outcome, __, __ = analyze(network, schedule, result.final_delays)
        assert outcome.intended

    def test_impossible_budget_fails_gracefully(self, lib):
        """Even at min_scale the design cannot fit: the loop reports
        failure instead of spinning."""
        network, schedule = build_ff_stage(lib, chain=2, period=0.5)
        delays = estimate_delays(network)
        result = run_redesign_loop(
            network,
            schedule,
            delays,
            speedup=SpeedupModel(speedup_factor=0.5, min_scale=0.5),
            max_rounds=10,
        )
        assert not result.success
        assert result.num_rounds <= 10

    def test_rounds_record_constraint_budget(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=2.7)
        delays = estimate_delays(network)
        result = run_redesign_loop(network, schedule, delays)
        working = [r for r in result.rounds if r.chosen_module]
        assert working
        assert all(r.allowed_delay is not None for r in working)

    def test_worst_slack_monotone_progress(self, lib):
        """Each speed-up should not make the worst slack worse."""
        network, schedule = build_ff_stage(lib, chain=4, period=3.5)
        delays = estimate_delays(network)
        result = run_redesign_loop(network, schedule, delays)
        slacks = [r.worst_slack for r in result.rounds]
        assert all(b >= a - 1e-9 for a, b in zip(slacks, slacks[1:]))

    def test_network_not_mutated(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=2.7)
        delays = estimate_delays(network)
        before = delays.arc_delay(network.cell("inv0"), "A", "Z")
        run_redesign_loop(network, schedule, delays)
        assert delays.arc_delay(network.cell("inv0"), "A", "Z") == before


def _round_view(result):
    """Every round bit for bit, the area cost and the outcome."""
    return (
        [
            (
                r.round_index,
                r.chosen_module,
                r.slow_path_count,
                r.worst_slack.hex(),
                r.scale_applied,
                None if r.allowed_delay is None else r.allowed_delay.hex(),
            )
            for r in result.rounds
        ],
        result.area_cost.hex(),
        result.success,
    )


def test_one_slow_path_extraction_per_round(monkeypatch):
    """The round's slow paths both count the round and choose its
    module; both modes run the same rounds."""
    network, schedule = random_design(
        seed=404, n_banks=3, gates_per_bank=35, bits=6, style="latch"
    )
    delays = estimate_delays(network)
    search = find_max_frequency(network, schedule, delays)
    schedule = search.schedule.scaled("0.88")
    calls = []
    extract = resynthesis.extract_slow_paths

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return extract(*args, **kwargs)

    monkeypatch.setattr(resynthesis, "extract_slow_paths", counting)
    views = {}
    for incremental in (True, False):
        calls.clear()
        result = run_redesign_loop(
            network,
            schedule,
            delays,
            speedup=SpeedupModel(speedup_factor=0.7, min_scale=0.2),
            max_rounds=200,
            incremental=incremental,
        )
        assert result.success and result.num_rounds > 2
        # The final round meets timing and extracts nothing.
        assert len(calls) == result.num_rounds - 1
        views[incremental] = _round_view(result)
    assert views[True] == views[False]
