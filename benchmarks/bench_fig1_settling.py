"""Figure 1: time-multiplexed logic needs a minimum of two settling times.

The paper's Figure 1 shows a gate fed by latches on different clock
phases whose output must settle to two different valid states per clock
period.  Section 7's pre-processing finds the minimum number of analysis
passes; the prior per-edge attribution (Wallace/Szymanski style) computes
one settling time per clock edge -- eight for the four-phase clock.
"""

from __future__ import annotations

import pytest

from repro.baselines import settling_comparison
from repro.core import Hummingbird
from repro.core.model import AnalysisModel
from repro.delay import estimate_delays
from repro.generators import fig1_circuit

from benchmarks.conftest import emit


@pytest.fixture(scope="module")
def fig1():
    network, schedule = fig1_circuit()
    return network, schedule, estimate_delays(network)


def test_fig1_minimum_pass_analysis(time_algorithm1, fig1):
    network, schedule, delays = fig1
    time_algorithm1(AnalysisModel(network, schedule, delays))


def test_fig1_per_edge_analysis(time_algorithm1, fig1):
    network, schedule, delays = fig1
    time_algorithm1(
        AnalysisModel(network, schedule, delays, pass_strategy="per_edge")
    )


def test_fig1_settling_report(benchmark, fig1):
    network, schedule, delays = fig1
    comparison = benchmark(
        lambda: settling_comparison(network, schedule, delays)
    )
    hb = Hummingbird(network, schedule, delays=delays)
    constraints = hb.generate_constraints().constraints
    gate_settlings = constraints.settling_count("g_out")

    emit(
        "Figure 1: settling times for the time-multiplexed gate",
        [
            f"clock edge times in period:        {comparison.clock_edge_times}",
            f"minimum passes (Hummingbird):      {comparison.minimum_passes_total}",
            f"per-edge passes (prior work):      {comparison.per_edge_passes_total}",
            f"settlings evaluated (minimum):     {comparison.minimum_settlings}",
            f"settlings evaluated (per-edge):    {comparison.per_edge_settlings}",
            f"gate output settling times:        {gate_settlings} "
            "(paper: two valid states per period)",
        ],
    )
    # The paper's headline claims for this configuration:
    assert gate_settlings == 2
    assert hb.model.stats()["max_passes_per_cluster"] == 2
    assert comparison.minimum_settlings < comparison.per_edge_settlings
