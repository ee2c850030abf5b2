"""Delay estimation against slow, obviously-right references.

* Module delays: the one-sweep :func:`module_pin_delays` equals one
  longest- and one shortest-path propagation per input port
  (:func:`reference_propagate`), compared by ``float.hex``.
* Module arcs: the bitset sweep of
  :meth:`ModuleDefinition.reachable_pairs` equals one breadth-first
  search per input port, pair for pair and in the same order.
* Gate delays: :func:`estimate_delays` equals one load evaluation per
  arc, with module port loads applied afterwards as per-arc overrides
  (:func:`reference_estimate`).
* Work: one topological sort per module definition and none while
  characterising; one :func:`terminal_load` per gate output pin.
"""

import itertools
import math
from dataclasses import astuple
from typing import Dict, Tuple

import pytest

from repro.cells import standard_library
from repro.cells.combinational import GateSpec
from repro.cells.sequential import SyncSpec
from repro.delay import estimator
from repro.delay.estimator import (
    DelayMap,
    DelayParameters,
    SyncTiming,
    estimate_delays,
    terminal_load,
)
from repro.delay.module_delay import module_pin_delays
from repro.generators import random_design
from repro.generators.alu import generate_alu
from repro.generators.des import generate_des
from repro.generators.fsm import generate_sm1f, generate_sm1h
from repro.netlist import ModuleDefinition, ModuleSpec, NetworkBuilder
from repro.netlist.kinds import Unateness
from repro.netlist.network import Network
from repro.netlist.persistence import network_from_dict, network_to_dict
from repro.rftime import RiseFall, max_over, min_over

PARAMS = {
    "default": DelayParameters(),
    "custom": DelayParameters(
        wire_cap_per_fanout=0.55,
        default_pin_cap=1.25,
        min_derate=0.6,
        module_port_load=4.5,
        dangling_output_load=0.0,
    ),
}


# ----------------------------------------------------------------------
# references: the per-port and per-arc algorithms the sweeps replaced
# ----------------------------------------------------------------------
def reference_propagate(
    order, delays: DelayMap, source_net: str, maximum: bool
) -> Dict[str, RiseFall]:
    """Single-source longest/shortest rise-fall delays, per net name."""
    arrival: Dict[str, RiseFall] = {source_net: RiseFall.both(0.0)}
    for cell in order:
        candidates: Dict[str, list] = {}
        for in_pin, out_pin in delays.arcs_of(cell):
            in_net = cell.terminal(in_pin).net
            out_net = cell.terminal(out_pin).net
            if in_net is None or out_net is None:
                continue
            at_input = arrival.get(in_net.name)
            if at_input is None:
                continue
            unateness = delays.arc_unateness(cell, in_pin, out_pin)
            if maximum:
                arc = delays.arc_delay(cell, in_pin, out_pin)
                through = at_input.through_arc(unateness)
            else:
                arc = delays.arc_delay_min(cell, in_pin, out_pin)
                through = at_input.back_through_arc(unateness)
            candidates.setdefault(out_net.name, []).append(through.plus(arc))
        for net_name, values in candidates.items():
            combined = max_over(values) if maximum else min_over(values)
            existing = arrival.get(net_name)
            if existing is not None:
                combined = (
                    existing.max_with(combined)
                    if maximum
                    else existing.min_with(combined)
                )
            arrival[net_name] = combined
    return arrival


def reference_pin_delays(spec: ModuleSpec, inner_delays: DelayMap) -> Dict:
    definition = spec.definition
    order = definition.inner.comb_topological_cells()
    result = {}
    for in_port, in_net in definition.input_ports.items():
        longest = reference_propagate(order, inner_delays, in_net, True)
        shortest = reference_propagate(order, inner_delays, in_net, False)
        for out_port, out_net in definition.output_ports.items():
            if out_net in longest:
                result[(in_port, out_port)] = (
                    longest[out_net],
                    shortest[out_net],
                )
    return result


def reference_pairs(definition: ModuleDefinition) -> Tuple:
    """One breadth-first search per input port."""
    pairs = []
    for in_port, in_net in definition.input_ports.items():
        reached = {in_net}
        frontier = [in_net]
        while frontier:
            net = definition.inner.net(frontier.pop())
            for sink in net.sinks:
                for out_terminal in sink.cell.output_terminals:
                    out_net = out_terminal.net
                    if out_net is not None and out_net.name not in reached:
                        reached.add(out_net.name)
                        frontier.append(out_net.name)
        for out_port, out_net in definition.output_ports.items():
            if out_net in reached:
                pairs.append((in_port, out_port))
    return tuple(pairs)


def reference_estimate(network: Network, params: DelayParameters) -> DelayMap:
    """One load evaluation per arc; modules characterised uncached."""
    arc_max, arc_min, arc_sense, cell_arcs, sync = {}, {}, {}, {}, {}
    arc_keys = {}
    for cell in network.cells:
        spec = cell.spec
        if isinstance(spec, SyncSpec):
            sync[cell.name] = SyncTiming(
                setup=spec.setup,
                d_to_q=spec.d_to_q,
                c_to_q=spec.c_to_q,
                hold=spec.hold,
                c_to_q_min=spec.c_to_q * params.min_derate,
            )
        elif isinstance(spec, ModuleSpec):
            pairs = []
            for pins, (dmax, dmin) in reference_characterise(
                spec, params
            ).items():
                key = (cell.name, *pins)
                arc_max[key], arc_min[key] = dmax, dmin
                arc_sense[key] = Unateness.NON_UNATE
                pairs.append(pins)
            cell_arcs[cell.name] = tuple(pairs)
            arc_keys[cell.name] = tuple((cell.name, *p) for p in pairs)
        elif isinstance(spec, GateSpec):
            pairs = []
            for (in_pin, out_pin), arc in spec.arcs.items():
                load = terminal_load(network, cell.terminal(out_pin), params)
                delay = arc.delay_at(load)
                key = (cell.name, in_pin, out_pin)
                arc_max[key] = delay
                arc_min[key] = delay.scaled(params.min_derate)
                arc_sense[key] = arc.unateness
                pairs.append((in_pin, out_pin))
            cell_arcs[cell.name] = tuple(pairs)
            arc_keys[cell.name] = tuple((cell.name, *p) for p in pairs)
    return DelayMap(arc_max, arc_min, arc_sense, cell_arcs, arc_keys, sync)


def reference_inner_map(spec: ModuleSpec, params: DelayParameters) -> DelayMap:
    """The inner network's delays, then every arc driving an output-port
    net re-estimated with ``module_port_load`` added, one copy each."""
    inner = spec.definition.inner
    port_nets = set(spec.definition.output_ports.values())
    adjusted = reference_estimate(inner, params)
    for cell in inner.cells:
        if not isinstance(cell.spec, GateSpec):
            continue
        for (in_pin, out_pin), arc in cell.spec.arcs.items():
            net = cell.terminal(out_pin).net
            if net is None or net.name not in port_nets:
                continue
            load = (
                terminal_load(inner, cell.terminal(out_pin), params)
                + params.module_port_load
            )
            delay = arc.delay_at(load)
            adjusted = adjusted.with_arc_override(
                cell.name,
                in_pin,
                out_pin,
                delay,
                delay.scaled(params.min_derate),
            )
    return adjusted


def reference_characterise(spec: ModuleSpec, params: DelayParameters) -> Dict:
    return reference_pin_delays(spec, reference_inner_map(spec, params))


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def _hex(value: RiseFall) -> Tuple[str, str]:
    return value.rise.hex(), value.fall.hex()


def _hex_pin_delays(pin_delays: Dict) -> list:
    return [
        (pins, _hex(dmax), _hex(dmin))
        for pins, (dmax, dmin) in pin_delays.items()
    ]


def assert_same_map(network: Network, ours: DelayMap, theirs: DelayMap):
    arcs = 0
    for cell in network.cells:
        assert ours.arcs_of(cell) == theirs.arcs_of(cell), cell.name
        assert ours.arc_keys(cell) == theirs.arc_keys(cell), cell.name
        for in_pin, out_pin in theirs.arcs_of(cell):
            arcs += 1
            where = (cell.name, in_pin, out_pin)
            assert _hex(ours.arc_delay(cell, in_pin, out_pin)) == _hex(
                theirs.arc_delay(cell, in_pin, out_pin)
            ), where
            assert _hex(ours.arc_delay_min(cell, in_pin, out_pin)) == _hex(
                theirs.arc_delay_min(cell, in_pin, out_pin)
            ), where
            assert ours.arc_unateness(
                cell, in_pin, out_pin
            ) is theirs.arc_unateness(cell, in_pin, out_pin), where
        if cell.is_synchroniser:
            assert [x.hex() for x in astuple(ours.sync_timing(cell))] == [
                x.hex() for x in astuple(theirs.sync_timing(cell))
            ], cell.name
    return arcs


# ----------------------------------------------------------------------
# hand-built modules
# ----------------------------------------------------------------------
def _module(build, input_ports, output_ports, name="M"):
    builder = NetworkBuilder(standard_library(), name=name.lower())
    build(builder)
    return ModuleSpec(
        name, ModuleDefinition(builder.build(), input_ports, output_ports)
    )


def _reconvergent():
    """Short and long paths from A reconverge; the long one also feeds an
    output port (so its driver sees the port load) and B joins late."""

    def build(b):
        b.gate("s0", "INV", A="pa", Z="sp")
        b.gate("l0", "INV", A="pa", Z="n0")
        b.gate("l1", "INV", A="n0", Z="n1")
        b.gate("l2", "NAND2", A="n1", B="pb", Z="lp")
        b.gate("out", "NAND2", A="sp", B="lp", Z="pz")
        b.gate("tap", "AOI21", A="n1", B="sp", C="pb", Z="py")

    return _module(
        build, {"A": "pa", "B": "pb"}, {"Z": "pz", "Y": "py", "W": "lp"}
    )


def _non_unate():
    """XOR2 and MUX2 (non-unate select, positive data) arcs."""

    def build(b):
        b.gate("x", "XOR2", A="pa", B="pb", Z="nx")
        b.gate("m", "MUX2", A="nx", B="pb", S="ps", Z="pz")
        b.gate("i", "INV", A="nx", Z="ni")
        b.gate("xn", "XNOR2", A="ni", B="ps", Z="py")

    return _module(
        build, {"A": "pa", "B": "pb", "S": "ps"}, {"Z": "pz", "Y": "py"}
    )


def _dead_end_port():
    """Port C feeds a gate that drives nothing; port D feeds nothing."""

    def build(b):
        b.gate("g", "NAND2", A="pa", B="pb", Z="pz")
        b.gate("dead", "INV", A="pc", Z="unused")
        b.network.net_or_create("pd")

    return _module(
        build,
        {"A": "pa", "B": "pb", "C": "pc", "D": "pd"},
        {"Z": "pz"},
    )


def _feedthrough():
    """Input port A's net is also output port Y's net."""

    def build(b):
        b.gate("g", "INV", A="pa", Z="n")
        b.gate("h", "NOR2", A="n", B="pb", Z="pz")

    return _module(build, {"A": "pa", "B": "pb"}, {"Z": "pz", "Y": "pa"})


def _shared_input_net():
    """Input ports A and B are the same net."""

    def build(b):
        b.gate("g", "NAND2", A="pa", B="pc", Z="n")
        b.gate("h", "OR2", A="n", B="pa", Z="pz")

    return _module(build, {"A": "pa", "B": "pa", "C": "pc"}, {"Z": "pz"})


def _two_drivers():
    """Two gates drive one output net, so later candidates fold against
    the value the net already holds."""

    def build(b):
        b.gate("g", "INV", A="pa", Z="pz")
        b.gate("h", "BUF", A="pb", Z="n")
        b.gate("k", "NAND2", A="n", B="pa", Z="pz")

    return _module(build, {"A": "pa", "B": "pb"}, {"Z": "pz"})


def _nested():
    """A module instance inside a module."""
    child = _reconvergent()

    def build(b):
        b.gate("buf", "BUF", A="ma", Z="mb")
        b.instantiate("child", child, A="mb", B="mc", Z="mz", Y="my", W="mw")
        b.gate("j", "XOR2", A="mz", B="mc", Z="mx")

    return _module(
        build, {"A": "ma", "C": "mc"}, {"Z": "mx", "Y": "my"}, name="MID"
    )


HAND_BUILT = {
    "reconvergent": _reconvergent,
    "non_unate": _non_unate,
    "dead_end_port": _dead_end_port,
    "feedthrough": _feedthrough,
    "shared_input_net": _shared_input_net,
    "two_drivers": _two_drivers,
    "nested": _nested,
}


def _sm1h_module(seed: int) -> ModuleSpec:
    network, _ = generate_sm1h(seed=seed)
    return network.cell("logic").spec


MODULES = {
    **HAND_BUILT,
    **{
        f"SM1H-{seed}": (lambda seed=seed: _sm1h_module(seed))
        for seed in range(1989, 1995)
    },
}


# ----------------------------------------------------------------------
# module arcs and module delays
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(MODULES))
def test_reachable_pairs_match_bfs(name):
    definition = MODULES[name]().definition
    assert definition.reachable_pairs() == reference_pairs(definition)


@pytest.mark.parametrize("params", sorted(PARAMS))
@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_pin_delays_match_per_port_search(name, params):
    spec = MODULES[name]()
    inner_map = reference_inner_map(spec, PARAMS[params])
    ours = module_pin_delays(spec, inner_map)
    theirs = reference_pin_delays(spec, inner_map)
    assert _hex_pin_delays(ours) == _hex_pin_delays(theirs)
    assert tuple(ours) == spec.definition.reachable_pairs()


#: Arc delays that make the fold order visible: NaN is never taken by
#: ``b if b > a else a``, equal values keep the first, and signed zeros
#: compare equal.
SPECIAL = (
    RiseFall(math.nan, 1.0),
    RiseFall(-0.0, 0.0),
    RiseFall(math.inf, -math.inf),
    RiseFall(2.0, math.nan),
    RiseFall(-math.inf, -0.0),
    RiseFall(1.0, 1.0),
)


@pytest.mark.parametrize("offset", range(len(SPECIAL)))
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_module_pin_delays_match_with_special_values(name, offset):
    spec = HAND_BUILT[name]()
    inner = spec.definition.inner
    delays = reference_inner_map(spec, PARAMS["default"])
    values = itertools.cycle(SPECIAL[offset:] + SPECIAL[:offset])
    for cell in inner.cells:
        for in_pin, out_pin in delays.arcs_of(cell):
            delays = delays.with_arc_override(
                cell.name, in_pin, out_pin, next(values), next(values)
            )
    ours = module_pin_delays(spec, delays)
    theirs = reference_pin_delays(spec, delays)
    assert _hex_pin_delays(ours) == _hex_pin_delays(theirs)


def test_hand_built_corner_cases():
    """The corner cases are really there."""
    delays = module_pin_delays(
        _feedthrough(), reference_inner_map(_feedthrough(), PARAMS["default"])
    )
    assert delays[("A", "Y")] == (RiseFall.both(0.0), RiseFall.both(0.0))
    pairs = _dead_end_port().definition.reachable_pairs()
    assert {in_port for in_port, _ in pairs} == {"A", "B"}
    shared = _shared_input_net()
    delays = module_pin_delays(
        shared, reference_inner_map(shared, PARAMS["default"])
    )
    assert delays[("A", "Z")] == delays[("B", "Z")]


# ----------------------------------------------------------------------
# whole-design delay maps
# ----------------------------------------------------------------------
DESIGNS = {
    "DES": generate_des,
    "ALU": generate_alu,
    "SM1F": generate_sm1f,
    "SM1H": generate_sm1h,
    "violator": lambda: random_design(
        2026, n_banks=8, gates_per_bank=400, bits=8, style="latch"
    ),
}


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def design(request):
    network, _ = DESIGNS[request.param]()
    return network


@pytest.mark.parametrize("params", sorted(PARAMS))
def test_estimate_delays_match_per_arc_loop(design, params):
    # A fresh load: no characterisation cached on the module specs.
    network = network_from_dict(network_to_dict(design), standard_library())
    ours = estimate_delays(network, PARAMS[params])
    theirs = reference_estimate(network, PARAMS[params])
    assert assert_same_map(network, ours, theirs) == len(theirs._arc_max)
    assert list(ours._arc_max) == list(theirs._arc_max)


def test_nested_module_instance_matches_reference():
    spec = _nested()
    b = NetworkBuilder(standard_library())
    b.clock("clk")
    b.input("ia", "wa", clock="clk")
    b.input("ic", "wc", clock="clk")
    b.instantiate("m", spec, A="wa", C="wc", Z="wz", Y="wy")
    b.gate("j", "NAND2", A="wz", B="wy", Z="wj")
    b.latch("l", "DFF", D="wj", CK="clk", Q="wq")
    b.output("o", "wq", clock="clk")
    network = b.build()
    for params in PARAMS.values():
        assert_same_map(
            network,
            estimate_delays(network, params),
            reference_estimate(network, params),
        )


# ----------------------------------------------------------------------
# work guards
# ----------------------------------------------------------------------
def test_one_topological_sort_per_module_definition(monkeypatch):
    calls = []
    original = Network.comb_topological_cells

    def counting(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(Network, "comb_topological_cells", counting)
    network, _ = generate_sm1h()
    assert calls == ["sm1_logic"]
    loaded = network_from_dict(network_to_dict(network), standard_library())
    assert calls == ["sm1_logic"] * 2
    spec = loaded.cell("logic").spec
    estimate_delays(loaded)
    module_pin_delays(spec, reference_inner_map(spec, PARAMS["default"]))
    assert calls == ["sm1_logic"] * 2


def test_one_terminal_load_per_gate_output_pin(monkeypatch):
    network, _ = generate_des()
    calls = []

    def counting(*args):
        calls.append(args[1])
        return terminal_load(*args)

    monkeypatch.setattr(estimator, "terminal_load", counting)
    delays = estimate_delays(network)
    output_pins = {
        (cell.name, out_pin)
        for cell in network.cells
        if isinstance(cell.spec, GateSpec)
        for _, out_pin in cell.spec.arcs
    }
    assert len(calls) == len(output_pins)
    assert len({t.full_name for t in calls}) == len(calls)
    arcs = sum(len(delays.arcs_of(cell)) for cell in network.cells)
    assert arcs > len(calls)
