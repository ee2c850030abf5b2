"""Scaling shape behind Table 1: analysis time vs design size.

The paper's run times (SM1F ~ hundreds of cells to DES at 3681 cells)
indicate near-linear growth of both pre-processing and analysis with the
number of standard cells; this bench sweeps random two-phase latch
designs from ~100 to ~3200 cells and checks the growth stays sub-quadratic.
"""

from __future__ import annotations

import pytest

from repro.core import Hummingbird
from repro.core.model import AnalysisModel
from repro.delay import estimate_delays
from repro.generators import random_design
from repro.generators._util import standard_cell_count

from benchmarks.conftest import emit

SIZES = [(2, 50), (4, 100), (8, 200), (8, 400)]  # (banks, gates per bank)

_rows = {}


@pytest.fixture(scope="module", params=range(len(SIZES)))
def design(request):
    banks, gates = SIZES[request.param]
    network, schedule = random_design(
        seed=1000 + request.param,
        n_banks=banks,
        gates_per_bank=gates,
        bits=8,
        style="latch",
    )
    return request.param, network, schedule


def test_scaling_preprocess(benchmark, design):
    index, network, schedule = design
    hb = benchmark.pedantic(
        lambda: Hummingbird(network, schedule), rounds=3, iterations=1
    )
    row = _rows.setdefault(index, {})
    row["cells"] = standard_cell_count(network)
    row["preprocess_s"] = benchmark.stats.stats.mean


def test_scaling_analysis(benchmark, time_algorithm1, design):
    index, network, schedule = design
    delays = estimate_delays(network)
    time_algorithm1(AnalysisModel(network, schedule, delays))
    _rows.setdefault(index, {})["analysis_s"] = benchmark.stats.stats.mean


def test_scaling_report(benchmark):
    benchmark(lambda: None)
    header = f"{'cells':>7} {'preproc_s':>10} {'analysis_s':>11}"
    lines = [header, "-" * len(header)]
    ordered = [
        _rows[i] for i in sorted(_rows) if "analysis_s" in _rows[i]
    ]
    for row in ordered:
        lines.append(
            f"{row['cells']:>7} {row.get('preprocess_s', float('nan')):>10.4f} "
            f"{row['analysis_s']:>11.4f}"
        )
    emit("Scaling: analysis time vs standard cells", lines)
    if len(ordered) >= 2:
        first, last = ordered[0], ordered[-1]
        cell_ratio = last["cells"] / first["cells"]
        time_ratio = last["analysis_s"] / max(first["analysis_s"], 1e-9)
        lines_note = (
            f"cells x{cell_ratio:.1f} -> analysis x{time_ratio:.1f}"
        )
        print(lines_note)
        # Sub-quadratic growth (near-linear claim, with generous slop for
        # timer noise on small designs).
        assert time_ratio < cell_ratio**2
