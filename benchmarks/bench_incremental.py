"""Ablation D: incremental re-analysis inside the redesign loop.

Algorithm 3 re-analyses after every module change.  The incremental
loop reuses all pre-processing (clusters, requirement arcs, pass plans)
-- delays do not affect them -- and the slack engine's sweep memos of
the clusters an edit did not touch; Algorithm 1 itself starts from the
initial window positions every time.  This bench measures the speed-up
of the incremental loop over rebuild-everything-per-round, and of a
single incremental re-analysis after a point delay change on the full
DES design.
"""

from __future__ import annotations

import pytest

from repro.core.incremental import IncrementalAnalyzer
from repro.core.frequency import find_max_frequency
from repro.core.model import AnalysisModel
from repro.core.resynthesis import SpeedupModel, run_redesign_loop
from repro.core.slack import SlackEngine
from repro.core.algorithm1 import run_algorithm1
from repro.delay import estimate_delays
from repro.generators import generate_des, random_design

from benchmarks.conftest import emit

_times = {}


@pytest.fixture(scope="module")
def overclocked():
    network, schedule = random_design(
        seed=404, n_banks=3, gates_per_bank=35, bits=6, style="latch"
    )
    delays = estimate_delays(network)
    search = find_max_frequency(network, schedule, delays)
    assert search.min_period is not None
    return network, search.schedule.scaled("0.88"), delays


@pytest.mark.parametrize("mode", ["incremental", "cold"])
def test_redesign_loop_mode(benchmark, overclocked, mode):
    network, schedule, delays = overclocked
    result = benchmark.pedantic(
        lambda: run_redesign_loop(
            network,
            schedule,
            delays,
            speedup=SpeedupModel(speedup_factor=0.7, min_scale=0.2),
            max_rounds=200,
            incremental=(mode == "incremental"),
        ),
        rounds=3,
        iterations=1,
    )
    assert result.success
    _times[f"loop_{mode}"] = benchmark.stats.stats.mean
    _times[f"loop_{mode}_rounds"] = result.num_rounds


@pytest.mark.parametrize("mode", ["incremental", "cold"])
def test_des_reanalysis_after_point_change(benchmark, mode):
    network, schedule = generate_des()
    delays = estimate_delays(network)
    if mode == "incremental":
        inc = IncrementalAnalyzer(network, schedule, delays)
        inc.analyze()

        def reanalyse():
            inc.scale_cell("r8_s2_g3", 0.95)
            return inc.analyze()

        benchmark.pedantic(reanalyse, rounds=5, iterations=1)
    else:
        current = [delays]

        def reanalyse():
            current[0] = current[0].with_scaled_cell("r8_s2_g3", 0.95)
            model = AnalysisModel(network, schedule, current[0])
            return run_algorithm1(model, SlackEngine(model))

        benchmark.pedantic(reanalyse, rounds=3, iterations=1)
    _times[f"des_{mode}"] = benchmark.stats.stats.mean


def test_incremental_report(benchmark):
    benchmark(lambda: None)
    lines = []
    if {"loop_incremental", "loop_cold"} <= set(_times):
        ratio = _times["loop_cold"] / _times["loop_incremental"]
        lines.append(
            f"redesign loop ({_times['loop_cold_rounds']} rounds): "
            f"cold {_times['loop_cold']:.3f}s vs incremental "
            f"{_times['loop_incremental']:.3f}s -> {ratio:.1f}x"
        )
    if {"des_incremental", "des_cold"} <= set(_times):
        ratio = _times["des_cold"] / _times["des_incremental"]
        lines.append(
            f"DES point re-analysis: cold {_times['des_cold']:.3f}s vs "
            f"incremental {_times['des_incremental']:.3f}s -> {ratio:.1f}x"
        )
    emit("Ablation D: incremental re-analysis", lines)
    if {"des_incremental", "des_cold"} <= set(_times):
        # Reusing pre-processing must be clearly faster on a full chip.
        assert _times["des_incremental"] < _times["des_cold"]
