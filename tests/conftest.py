"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.cells import standard_library
from repro.clocks import ClockSchedule
from repro.core.algorithm1 import run_algorithm1
from repro.core.model import AnalysisModel
from repro.core.slack import SlackEngine
from repro.delay import estimate_delays
from repro.netlist import NetworkBuilder
from repro.netlist.blif import network_to_blif
from repro.netlist.persistence import network_to_dict
from repro.netlist.verilog import network_to_verilog


@pytest.fixture(scope="session")
def lib():
    return standard_library()


@pytest.fixture
def two_phase():
    return ClockSchedule.two_phase(100)


@pytest.fixture
def single_clock():
    return ClockSchedule.single("clk", 100)


def build_ff_stage(
    lib,
    chain: int = 2,
    period: float = 100.0,
    name: str = "ff_stage",
):
    """PI -> DFF -> inverter chain -> DFF -> PO on one clock."""
    b = NetworkBuilder(lib, name=name)
    b.clock("clk")
    b.input("din", "n_in", clock="clk", edge="trailing")
    b.latch("ff_a", "DFF", D="n_in", CK="clk", Q="n0")
    current = "n0"
    for i in range(chain):
        b.gate(f"inv{i}", "INV", A=current, Z=f"n{i + 1}")
        current = f"n{i + 1}"
    b.latch("ff_b", "DFF", D=current, CK="clk", Q="n_q")
    b.output("dout", "n_q", clock="clk", edge="trailing")
    return b.build(), ClockSchedule.single("clk", period)


def _clock_without_trailing(doc):
    del doc["clocks"][0]["trailing"]
    return doc


def _clocks_as_list(doc):
    return doc["clocks"]


def _clock_as_string(doc):
    doc["clocks"][1] = "phi2"
    return doc


def _null_period(doc):
    doc["clocks"][0]["period"] = None
    return doc


def _huge_exponent_edge(doc):
    doc["clocks"][0]["leading"] = "1e10000000"
    return doc


#: Malformed clocks files: ``(corrupt, message)`` where ``corrupt``
#: maps a two-clock :func:`schedule_to_dict` document to the document
#: written to disk, and ``message`` is part of the one-line error.
MALFORMED_CLOCKS = [
    pytest.param(
        _clock_without_trailing,
        "clock 'phi1': missing key 'trailing'",
        id="no-trailing",
    ),
    pytest.param(
        _clocks_as_list, "not a repro clock schedule", id="top-level-list"
    ),
    pytest.param(
        _clock_as_string,
        "clock entry 1 ('phi2') is not an object",
        id="string-entry",
    ),
    pytest.param(
        _null_period,
        "clock 'phi1': 'period' is not a time (None)",
        id="null-period",
    ),
    pytest.param(
        _huge_exponent_edge,
        "clock 'phi1': 'leading' is not a time ('1e10000000')",
        id="huge-exponent-edge",
    ),
]


def _first_cell(doc, spec):
    return next(cell for cell in doc["cells"] if cell["spec"] == spec)


def _unknown_pin(doc):
    _first_cell(doc, "CLOCK")["pins"]["Q7"] = "phi1"
    return doc


def _unknown_spec(doc):
    _first_cell(doc, "INV")["spec"] = "NAND9"
    return doc


def _without(key):
    def corrupt(doc):
        del _first_cell(doc, "INV")[key]
        return doc

    return corrupt


def _net_name_not_a_string(doc):
    _first_cell(doc, "INV")["pins"]["A"] = 42
    return doc


def _modules_not_an_object(doc):
    doc["modules"] = 42
    return doc


def _json(corrupt):
    """Write the network's JSON document as ``corrupt`` changes it."""

    def write(network, directory):
        path = Path(directory) / "design.json"
        path.write_text(json.dumps(corrupt(network_to_dict(network))))
        return path

    return write


def _text(suffix, serialise, old, new):
    """Write the network in a text format with the first ``old``
    replaced by ``new``."""

    def write(network, directory):
        text = serialise(network)
        assert old in text, (suffix, old)
        path = Path(directory) / f"design{suffix}"
        path.write_text(text.replace(old, new, 1))
        return path

    return write


#: Malformed netlist files: ``(corrupt, message)`` where
#: ``corrupt(network, directory)`` writes a broken copy of a design
#: with ``CLOCK`` generators and ``INV`` gates, the first of them
#: ``s0_i0`` (any :func:`latch_pipeline`), into ``directory`` and
#: returns its path (the suffix picks the reader), and ``message`` is
#: part of the one-line error naming the cell and the key, spec or pin.
MALFORMED_NETLISTS = [
    pytest.param(
        _json(_unknown_pin),
        "cell 'clkgen_phi1' (CLOCK) has no pin 'Q7'",
        id="unknown-pin",
    ),
    pytest.param(
        _json(_unknown_spec), "unknown spec 'NAND9'", id="unknown-spec"
    ),
    pytest.param(
        _json(_without("name")), ": missing key 'name'", id="missing-name"
    ),
    pytest.param(
        _json(_without("spec")), ": missing key 'spec'", id="missing-spec"
    ),
    pytest.param(
        _json(_without("pins")), ": missing key 'pins'", id="missing-pins"
    ),
    pytest.param(
        _json(_net_name_not_a_string),
        "pin 'A' names net 42, which is not a string",
        id="net-name-not-a-string",
    ),
    pytest.param(
        _json(_modules_not_an_object),
        "netlist 'modules' must be an object",
        id="modules-not-an-object",
    ),
    pytest.param(
        _text(".blif", network_to_blif, ".gate INV A=", ".gate INV Q7="),
        "cell 's0_i0' (INV) has no pin 'Q7'",
        id="blif-unknown-pin",
    ),
    pytest.param(
        _text(".blif", network_to_blif, ".gate INV ", ".gate NAND9 "),
        "cell 's0_i0': unknown spec 'NAND9'",
        id="blif-unknown-spec",
    ),
    pytest.param(
        _text(".v", network_to_verilog, "INV s0_i0 (.A(", "INV s0_i0 (.Q7("),
        "cell 's0_i0' (INV) has no pin 'Q7'",
        id="verilog-unknown-pin",
    ),
    pytest.param(
        _text(".v", network_to_verilog, "INV s0_i0 ", "NAND9 s0_i0 "),
        "cell 's0_i0': unknown spec 'NAND9'",
        id="verilog-unknown-spec",
    ),
]


def analyze(network, schedule, delays=None):
    """Build a model+engine and run Algorithm 1; returns (result, model,
    engine)."""
    delays = delays if delays is not None else estimate_delays(network)
    model = AnalysisModel(network, schedule, delays)
    engine = SlackEngine(model)
    result = run_algorithm1(model, engine)
    return result, model, engine


def brute_force_feasible(
    model: AnalysisModel,
    engine: SlackEngine,
    points: int = 13,
    margin: float = 0.0,
) -> Tuple[bool, float, Optional[Tuple[float, ...]]]:
    """Grid-search the transparency windows for a feasible offset set.

    Returns ``(feasible, best_min_slack, witness)`` where ``witness`` is
    the window vector achieving the best minimum port slack.  Uses the
    same slack engine as Algorithm 1, so the comparison isolates the
    *search* (slack transfer) from the *model*.
    """
    adjustable = model.adjustable_instances()
    grids: List[Sequence[float]] = [
        [inst.width * k / (points - 1) for k in range(points)]
        for inst in adjustable
    ]
    best = float("-inf")
    witness = None
    saved = [inst.w for inst in adjustable]
    try:
        for combo in itertools.product(*grids) if grids else [()]:
            for inst, w in zip(adjustable, combo):
                inst.w = w
            worst = engine.port_slacks().worst()
            if worst > best:
                best = worst
                witness = tuple(combo)
    finally:
        for inst, w in zip(adjustable, saved):
            inst.w = w
    return best > margin, best, witness
