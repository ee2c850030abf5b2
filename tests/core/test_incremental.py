"""Tests for incremental re-analysis."""

import pytest

from repro.core.analyzer import Hummingbird
from repro.core.incremental import IncrementalAnalyzer
from repro.core.model import AnalysisModel
from repro.core.slack import SlackEngine
from repro.core.algorithm1 import run_algorithm1
from repro.delay import estimate_delays
from repro.generators import ff_pipeline, latch_pipeline
from repro.generators.gating import clock_gated_design
from repro.generators.random_logic import random_design

from tests.conftest import build_ff_stage


class TestWarmStart:
    def test_same_verdict_as_cold(self, lib):
        network, schedule = latch_pipeline(
            stages=3, stage_lengths=[14, 4, 14], period=30, library=lib
        )
        inc = IncrementalAnalyzer(network, schedule)
        first = inc.analyze()
        for factor, expected in [(1.5, None), (0.4, None)]:
            for cell in ("s0_i2", "s2_i5"):
                inc.scale_cell(cell, factor)
            warm = inc.analyze()
            # Cold reference with identical delays.
            model = AnalysisModel(network, schedule, inc.delays)
            cold = run_algorithm1(model, SlackEngine(model))
            # Different fixed points may assign different (equally valid)
            # offsets, so slack *values* can differ; the verdict and the
            # sign of the worst slack are what Algorithm 1 guarantees.
            assert warm.intended == cold.intended
            assert (warm.worst_slack > 0) == (cold.worst_slack > 0)

    def test_data_change_swaps_without_rebuild(self, lib):
        network, schedule = build_ff_stage(lib, chain=3, period=10)
        inc = IncrementalAnalyzer(network, schedule)
        inc.analyze()
        model_before = inc.model
        inc.scale_cell("inv1", 0.5)
        assert inc.model is model_before
        assert inc.swaps == 1
        assert inc.rebuilds == 0

    def test_control_change_triggers_rebuild(self):
        network, schedule = clock_gated_design()
        inc = IncrementalAnalyzer(network, schedule)
        inc.analyze()
        model_before = inc.model
        inc.scale_cell("clk_gate", 2.0)  # AND gate on the control path
        assert inc.model is not model_before
        assert inc.rebuilds == 1

    def test_control_rebuild_updates_o_ac(self):
        network, schedule = clock_gated_design()
        inc = IncrementalAnalyzer(network, schedule)
        (before,) = [
            i
            for i in inc.model.instances["gated_l"]
        ]
        o_zc_before = before.o_zc
        inc.scale_cell("clk_gate", 3.0)
        (after,) = [i for i in inc.model.instances["gated_l"]]
        assert after.o_zc > o_zc_before

    def test_verdict_tracks_delay_changes(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=3.2)
        inc = IncrementalAnalyzer(network, schedule)
        assert inc.analyze().intended
        inc.scale_cell("inv0", 3.0)
        assert not inc.analyze().intended
        inc.scale_cell("inv0", 1 / 3.0)
        assert inc.analyze().intended

    def test_set_delays_rebuilds(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        inc = IncrementalAnalyzer(network, schedule)
        inc.set_delays(estimate_delays(network))
        assert inc.rebuilds == 1


def _generator_circuits():
    """Distinct circuit families for the mutate-matches-scratch sweep."""
    return [
        ("ff_pipeline", ff_pipeline(stages=3, chain_length=4, period=20.0)),
        (
            "latch_pipeline",
            latch_pipeline(
                stages=4, stage_lengths=[10, 1, 1, 1], period=12.0
            ),
        ),
        (
            "random_latch",
            random_design(seed=7, n_banks=3, gates_per_bank=20, bits=4),
        ),
        (
            "random_ff",
            random_design(
                seed=11, n_banks=2, gates_per_bank=15, bits=4, style="ff"
            ),
        ),
    ]


class TestMutateMatchesFromScratch:
    """Deterministic re-analysis: after an edge-delay mutation the
    incremental answer must be *identical* to a from-scratch run with
    the same delays -- on every circuit family, latch or flip-flop.

    This is the contract the service daemon relies on: every run
    starts from the initial windows (latch networks can admit several
    self-consistent fixed points, and iterating from stale offsets may
    land on a non-canonical one) while still reusing the preprocessed
    model.
    """

    @pytest.mark.parametrize(
        "name,design",
        _generator_circuits(),
        ids=[name for name, __ in _generator_circuits()],
    )
    def test_endpoint_slacks_match(self, name, design):
        network, schedule = design
        inc = IncrementalAnalyzer(network, schedule)
        inc.analyze()
        # Mutate a handful of combinational cells, both up and down.
        targets = [c.name for c in network.combinational_cells][:3]
        assert targets, f"{name}: no combinational cells to mutate"
        for factor, cell in zip((1.5, 0.5, 2.0), targets):
            inc.scale_cell(cell, factor)
        warm = inc.timing_result()

        scratch = Hummingbird(
            network, schedule, delays=inc.delays
        ).analyze()

        assert warm.intended == scratch.intended
        assert (
            warm.payload()["endpoint_slacks"]
            == scratch.payload()["endpoint_slacks"]
        )
        assert warm.payload()["worst_slack"] == (
            scratch.payload()["worst_slack"]
        )

    @pytest.mark.parametrize(
        "cell, factor, error",
        [
            ("no_such_cell", 1.5, KeyError),
            ("s1_i0", float("nan"), ValueError),
            ("s1_i0", float("inf"), ValueError),
            ("s1_i0", -1.0, ValueError),
        ],
    )
    def test_rejected_scale_changes_nothing(self, lib, cell, factor, error):
        network, schedule = latch_pipeline(
            stages=4, stage_lengths=[10, 1, 1, 1], period=12.0,
            library=lib,
        )
        inc = IncrementalAnalyzer(network, schedule)
        before = inc.timing_result().payload()
        delays = inc.delays
        with pytest.raises(error):
            inc.scale_cell(cell, factor)
        assert inc.delays is delays and inc.model.delays is delays
        assert (inc.swaps, inc.rebuilds) == (0, 0)
        after = inc.timing_result().payload()
        assert after["endpoint_slacks"] == before["endpoint_slacks"]

    def test_repeat_query_is_stable(self, lib):
        """Unchanged delays: repeat answers are byte-identical."""
        network, schedule = latch_pipeline(
            stages=3, stage_lengths=[8, 2, 8], period=24.0, library=lib
        )
        inc = IncrementalAnalyzer(network, schedule)
        first = inc.timing_result()
        second = inc.timing_result()
        assert first.payload()["endpoint_slacks"] == (
            second.payload()["endpoint_slacks"]
        )
