"""Section 8's observation: iteration counts depend on clock speed.

"We point out that the number of iterations required, and hence the run
times, depend upon the specified clock speeds."  Sweeping the overall
period of a latch pipeline from comfortable to infeasible shows slack
transfer working hardest near the feasibility boundary, and iteration
counts bounded by roughly the number of synchronising elements in a
directed path (paper: "typically less than ten").
"""

from __future__ import annotations

import pytest

from repro.core.model import AnalysisModel
from repro.delay import estimate_delays
from repro.generators import latch_pipeline

from benchmarks.conftest import emit

#: Overall periods to sweep (the pipeline is feasible down to ~13ns).
PERIODS = [60, 30, 20, 16, 14, 12, 10]

_rows = {}


@pytest.fixture(scope="module")
def pipeline(lib):
    network, schedule = latch_pipeline(
        stages=6, stage_lengths=[2, 12, 2, 12, 2, 12], period=60, library=lib
    )
    return network, schedule, estimate_delays(network)


@pytest.mark.parametrize("period", PERIODS)
def test_iterations_vs_clock_speed(time_algorithm1, pipeline, period):
    network, base_schedule, delays = pipeline
    schedule = base_schedule.scaled(
        __import__("fractions").Fraction(period, 60)
    )
    result = time_algorithm1(AnalysisModel(network, schedule, delays))
    _rows[period] = result


def test_iterations_report(benchmark, pipeline):
    benchmark(lambda: None)
    network, __, __ = pipeline
    n_latches = len(network.synchronisers)
    header = (
        f"{'period':>7} {'intended':>9} {'fwd':>4} {'bwd':>4} "
        f"{'pfwd':>5} {'pbwd':>5} {'total':>6}"
    )
    lines = [header, "-" * len(header)]
    for period in PERIODS:
        r = _rows.get(period)
        if r is None:
            continue
        it = r.iterations
        lines.append(
            f"{period:>7} {str(r.intended):>9} {it.forward:>4} "
            f"{it.backward:>4} {it.partial_forward:>5} "
            f"{it.partial_backward:>5} {it.total:>6}"
        )
    lines.append("")
    lines.append(
        f"pipeline has {n_latches} latches; the paper bounds complete "
        "iterations by elements-in-a-path + 1 ('typically less than ten')"
    )
    emit("Iteration counts vs clock speed (Algorithm 1)", lines)

    results = [_rows[p] for p in PERIODS if p in _rows]
    if results:
        # Fast clocks need transfer work; slow clocks may finish with 0.
        slowest = _rows[max(_rows)]
        assert slowest.intended
        assert all(r.converged for r in results)
        bound = n_latches + 2
        for r in results:
            assert r.iterations.forward <= bound
            assert r.iterations.backward <= bound
        # Iteration effort is non-trivial somewhere in the sweep.
        assert any(r.iterations.total > 0 for r in results)
