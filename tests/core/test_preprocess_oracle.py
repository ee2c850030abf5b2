"""Pre-processing against slow, obviously-right references.

* Topological order: :meth:`Network.comb_topological_cells` over cell
  numbers equals Kahn's algorithm over generator fanin/fanout walks with
  per-name seen-sets (:func:`reference_topological_cells`).
* Partition: :func:`extract_clusters` on an integer union-find equals
  the string-keyed union-find (:func:`reference_extract_clusters`) in
  cluster names, cells, nets, sources and captures.
* Reachability: the one-sweep bitset map of
  :meth:`Cluster.reachable_captures` equals one breadth-first search per
  source (:meth:`Cluster._nets_reachable_from`).
* Pass plans: every cluster's breaks and every capture's pass equal
  :func:`plan_for_cluster` on arcs enumerated one per source instance x
  capture instance, as the model once built them.
* Clock-edge positions: every capture's pass and every engine position
  equal the plan's own arithmetic per port.
* Work: a DES model build runs no breadth-first search, one pass
  selection per distinct arc set, and each clock-edge computation once
  per distinct key.
"""

from collections import Counter, deque
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import pytest

from repro.cells import standard_library
from repro.clocks import ClockSchedule, ClockWaveform
from repro.core import model as model_module
from repro.core.analyzer import Hummingbird
from repro.core.breakopen import BreakOpenPlan, RequirementArc, plan_for_cluster
from repro.core.clusters import Cluster, extract_clusters
from repro.core.model import AnalysisModel
from repro.core.slack import SlackEngine
from repro.delay import estimate_delays
from repro.generators import fig1_circuit, random_design
from repro.generators.alu import generate_alu
from repro.generators.bus import tristate_bus_design
from repro.generators.clock_tree import skewed_clock_pipeline
from repro.generators.des import generate_des
from repro.generators.fsm import generate_sm1f, generate_sm1h
from repro.netlist import NetworkBuilder
from repro.netlist.cell import Cell
from repro.netlist.kinds import CellRole
from repro.netlist.network import CombinationalCycleError, Network
from repro.netlist.terminals import Terminal
from repro.netlist.validate import validate_network


def _multi_frequency():
    """A clk_b element expands into four instances per overall period."""
    schedule = ClockSchedule(
        [
            ClockWaveform("clk_a", 100, 0, 50),
            ClockWaveform("clk_b", 25, 0, "12.5"),
        ]
    )
    b = NetworkBuilder(standard_library(), name="multi_frequency")
    b.clock("clk_a")
    b.clock("clk_b")
    b.input("i", "w", clock="clk_a")
    b.latch("slow", "DFF", D="w", CK="clk_a", Q="q1")
    b.gate("g1", "INV", A="q1", Z="z1")
    b.latch("fast", "DFF", D="z1", CK="clk_b", Q="q2")
    b.gate("g2", "NAND2", A="q2", B="q1", Z="z2")
    b.latch("slow2", "DFF", D="z2", CK="clk_a", Q="q3")
    b.output("o", "q3", clock="clk_a")
    return b.build(), schedule


DESIGNS = {
    "DES": generate_des,
    "ALU": generate_alu,
    "SM1F": generate_sm1f,
    "SM1H": generate_sm1h,
    "fig1": fig1_circuit,
    "latch": lambda: random_design(5, n_banks=3, gates_per_bank=60, bits=6),
    "ff": lambda: random_design(
        6, n_banks=3, gates_per_bank=60, bits=6, style="ff"
    ),
    # A source-less clock-buffer cluster.
    "clock_tree": skewed_clock_pipeline,
    # Several tristate sources on one net.
    "bus": tristate_bus_design,
    # Several launch and capture instances per element.
    "multi_frequency": _multi_frequency,
}


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def analyzer(request):
    network, schedule = DESIGNS[request.param]()
    return Hummingbird(network, schedule)


def reference_reach(network, cluster: Cluster) -> Dict[str, FrozenSet[str]]:
    """One breadth-first search per source terminal."""
    captures_on: Dict[str, List[str]] = {}
    for capture in cluster.captures:
        captures_on.setdefault(capture.net.name, []).append(capture.full_name)
    return {
        source.full_name: frozenset(
            name
            for net in cluster._nets_reachable_from(network, source.net.name)
            for name in captures_on.get(net, ())
        )
        for source in cluster.sources
    }


def reference_arcs(model: AnalysisModel, cluster: Cluster):
    """One arc per (source instance, capture instance) pair a switching
    path connects."""
    reach = reference_reach(model.network, cluster)
    capture_cell = {t.full_name: t.cell.name for t in cluster.captures}
    arcs: List[RequirementArc] = []
    for source in cluster.sources:
        launches = [
            i
            for i in model.instances[source.cell.name]
            if i.has_output and i.assertion_edge is not None
        ]
        for target in reach[source.full_name]:
            for capture in model.instances[capture_cell[target]]:
                if not capture.has_input or capture.closure_edge is None:
                    continue
                for launch in launches:
                    arcs.append(
                        RequirementArc(
                            launch.assertion_edge, capture.closure_edge
                        )
                    )
    return arcs


def test_cluster_kinds_covered():
    kinds = set()
    for make in DESIGNS.values():
        for cluster in extract_clusters(make()[0]):
            if cluster.is_degenerate:
                kinds.add("degenerate")
            elif not cluster.sources:
                kinds.add("source-less")
            elif len({s.net.name for s in cluster.sources}) < len(
                cluster.sources
            ):
                kinds.add("shared source net")
    assert kinds == {"degenerate", "source-less", "shared source net"}


def test_reachability_matches_bfs(analyzer):
    network = analyzer.network
    for cluster in extract_clusters(network):
        assert cluster.reachable_captures(network) == reference_reach(
            network, cluster
        ), cluster.name


def test_plans_match_per_instance_arcs(analyzer):
    model = analyzer.model
    period = model.schedule.overall_period
    candidates = model.schedule.edge_times()
    for cluster in model.clusters:
        arcs = reference_arcs(model, cluster)
        assert model._requirement_arcs(cluster) == frozenset(arcs)
        plan = plan_for_cluster(period, candidates, arcs, 4)
        assert model.plans[cluster.name].breaks == plan.breaks, cluster.name
        for port in model.capture_ports[cluster.name]:
            assert port.pass_index == plan.designated_pass(
                port.instance.closure_edge
            ), port.terminal_name


def test_des_build_work(monkeypatch):
    network, schedule = generate_des()
    delays = estimate_delays(network)
    calls = {"bfs": 0, "plans": 0}
    bfs = Cluster._nets_reachable_from
    plan = model_module.plan_for_cluster

    def counted_bfs(*args, **kwargs):
        calls["bfs"] += 1
        return bfs(*args, **kwargs)

    def counted_plan(*args, **kwargs):
        calls["plans"] += 1
        return plan(*args, **kwargs)

    monkeypatch.setattr(Cluster, "_nets_reachable_from", counted_bfs)
    monkeypatch.setattr(model_module, "plan_for_cluster", counted_plan)
    model = AnalysisModel(network, schedule, delays)
    assert calls["bfs"] == 0
    monkeypatch.undo()

    arc_sets = {
        frozenset(reference_arcs(model, cluster))
        for cluster in model.clusters
    }
    assert calls["plans"] == len(arc_sets) == 2
    assert len(model.clusters) == 185


# ----------------------------------------------------------------------
# References for the numbered walks: topological order and partition
# over generator walks, per-name seen-sets and string keys.
# ----------------------------------------------------------------------
def _comb_fanin_cells(cell: Cell) -> Iterator[Cell]:
    """Combinational cells driving any data input of ``cell``."""
    seen = set()
    for terminal in cell.input_terminals:
        net = terminal.net
        if net is None:
            continue
        for driver in net.drivers:
            upstream = driver.cell
            if upstream.is_combinational and upstream.name not in seen:
                seen.add(upstream.name)
                yield upstream


def _comb_fanout_cells(network: Network, cell: Cell) -> Iterator[Cell]:
    """Combinational cells fed by any output of ``cell``."""
    seen = set()
    for terminal in cell.output_terminals:
        for sink in network.sinks_of(terminal):
            downstream = sink.cell
            if downstream.is_combinational and downstream.name not in seen:
                seen.add(downstream.name)
                yield downstream


def reference_topological_cells(network: Network) -> Tuple[Cell, ...]:
    """Kahn's FIFO algorithm, indegrees counted over fanin walks; a
    cycle raises naming every cell left with indegree."""
    comb = network.combinational_cells
    indegree: Dict[str, int] = {c.name: 0 for c in comb}
    for cell in comb:
        for __ in _comb_fanin_cells(cell):
            indegree[cell.name] += 1
    ready = deque(c for c in comb if indegree[c.name] == 0)
    order: List[Cell] = []
    while ready:
        cell = ready.popleft()
        order.append(cell)
        for downstream in _comb_fanout_cells(network, cell):
            indegree[downstream.name] -= 1
            if indegree[downstream.name] == 0:
                ready.append(downstream)
    if len(order) != len(comb):
        stuck = [name for name, degree in indegree.items() if degree > 0]
        raise CombinationalCycleError(stuck)
    return tuple(order)


class _ReferenceUnionFind:
    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def find(self, key: str) -> str:
        parent = self._parent
        root = parent.setdefault(key, key)
        while parent[root] != root:
            root = parent[root]
        while key != root:
            up = parent[key]
            parent[key] = root
            key = up
        return root

    def union(self, a: str, b: str) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a


def _is_launch_terminal(terminal: Terminal) -> bool:
    cell = terminal.cell
    return (
        cell.is_synchroniser and terminal.is_driver
    ) or cell.role is CellRole.PRIMARY_INPUT


def _is_capture_terminal(terminal: Terminal) -> bool:
    cell = terminal.cell
    if cell.is_synchroniser:
        return terminal is cell.data_input
    return cell.role is CellRole.PRIMARY_OUTPUT


def reference_boundary_terminals(
    network: Network, net_names: Sequence[str]
) -> Tuple[List[Terminal], List[Terminal]]:
    sources: List[Terminal] = []
    captures: List[Terminal] = []
    for net_name in net_names:
        net = network.net(net_name)
        for driver in net.drivers:
            if _is_launch_terminal(driver):
                sources.append(driver)
        for sink in net.sinks:
            if _is_capture_terminal(sink):
                captures.append(sink)
    return sources, captures


def reference_extract_clusters(
    network: Network, order: Optional[Sequence[Cell]] = None
) -> Tuple[Cluster, ...]:
    """Union-find over ``"c:<cell>"`` / ``"n:<net>"`` keys; clusters
    named in sorted root-key order."""
    uf = _ReferenceUnionFind()
    for cell in network.combinational_cells:
        cell_key = f"c:{cell.name}"
        for terminal in cell.terminals():
            if terminal.net is not None:
                uf.union(cell_key, f"n:{terminal.net.name}")
    if order is None:
        order = reference_topological_cells(network)
    cells_by_root: Dict[str, List[Cell]] = {}
    for cell in order:
        cells_by_root.setdefault(uf.find(f"c:{cell.name}"), []).append(cell)
    nets_by_root: Dict[str, List[str]] = {}
    degenerate_nets: List[str] = []
    for net in network.nets:
        key = f"n:{net.name}"
        root = uf.find(key)
        if root != key or root in cells_by_root:
            nets_by_root.setdefault(root, []).append(net.name)
        else:
            has_launch = any(_is_launch_terminal(t) for t in net.drivers)
            has_capture = any(_is_capture_terminal(t) for t in net.sinks)
            if has_launch and has_capture:
                degenerate_nets.append(net.name)
    clusters: List[Cluster] = []
    for index, (root, cells) in enumerate(sorted(cells_by_root.items())):
        net_names = sorted(nets_by_root.get(root, ()))
        sources, captures = reference_boundary_terminals(network, net_names)
        clusters.append(
            Cluster(f"cluster_{index}", cells, net_names, sources, captures)
        )
    for net_name in sorted(degenerate_nets):
        sources, captures = reference_boundary_terminals(network, [net_name])
        clusters.append(
            Cluster(f"cluster_net_{net_name}", (), [net_name], sources, captures)
        )
    return tuple(clusters)


# ----------------------------------------------------------------------
# Networks: every design above, the benchmark's violator, SM1H's module
# logic and hand-built corner cases.
# ----------------------------------------------------------------------
def _builder(name: str) -> NetworkBuilder:
    b = NetworkBuilder(standard_library(), name=name)
    b.clock("clk")
    return b


def _unconnected_pin() -> Network:
    b = _builder("unconnected_pin")
    b.input("i", "w", clock="clk")
    b.gate("g", "NAND2", A="w", Z="z")
    b.gate("h", "INV", A="z", Z="y")
    b.latch("l", "DFF", D="y", CK="clk", Q="q")
    b.output("o", "q", clock="clk")
    return b.build()


def _no_connected_pins() -> Network:
    b = _builder("no_connected_pins")
    b.input("i", "w", clock="clk")
    b.gate("lonely", "NAND2")
    b.gate("g", "INV", A="w", Z="z")
    b.gate("floating", "INV")
    b.latch("l", "DFF", D="z", CK="clk", Q="q")
    b.output("o", "q", clock="clk")
    return b.build()


def _degenerate_net() -> Network:
    """Latch to latch and pad to pad with no gate between, next to a
    gated path, plus an unloaded pad net (no capture, so no cluster)
    and a gate whose input net has no driver."""
    b = _builder("degenerate_net")
    b.input("i", "w", clock="clk")
    b.latch("l1", "DFF", D="w", CK="clk", Q="q1")
    b.latch("l2", "DFF", D="q1", CK="clk", Q="q2")
    b.gate("g", "INV", A="q2", Z="z")
    b.latch("l3", "DFF", D="z", CK="clk", Q="q3")
    b.output("o", "q3", clock="clk")
    b.input("i2", "direct", clock="clk")
    b.output("o2", "direct", clock="clk")
    b.input("i3", "unloaded", clock="clk")
    b.gate("tie", "INV", A="undriven", Z="dangling")
    return b.build()


def _wide_net(gates: int = 5000) -> Network:
    """One net feeding ``gates`` gates.  Every other gate sits on it
    twice, its second pin attached after every gate's first, so a
    fanout list that kept repeats would release the one-pin gates
    first."""
    b = _builder("wide_net")
    b.input("i", "w0", clock="clk")
    b.gate("src", "INV", A="w0", Z="wide")
    for k in range(gates):
        b.gate(f"s{k}", "INV" if k % 2 else "NAND2", A="wide", Z=f"z{k}")
    for k in range(0, gates, 2):
        b.network.connect("wide", b.network.cell(f"s{k}").terminal("B"))
    b.gate("join", "NAND2", A="z0", B=f"z{gates - 1}", Z="y")
    b.latch("l", "DFF", D="y", CK="clk", Q="q")
    b.output("o", "q", clock="clk")
    return b.build()


def _violator() -> Network:
    """The end-to-end benchmark's violator design (seed 0)."""
    network, __ = random_design(
        seed=2026, n_banks=8, gates_per_bank=400, bits=8, style="latch"
    )
    return network


def _sm1h_module_logic() -> Network:
    (definition,) = {
        cell.spec.definition
        for cell in generate_sm1h()[0].cells
        if hasattr(cell.spec, "definition")
    }
    return definition.inner


NETWORKS = {
    **{name: (lambda make=make: make()[0]) for name, make in DESIGNS.items()},
    "violator": _violator,
    "SM1H_module": _sm1h_module_logic,
    "unconnected_pin": _unconnected_pin,
    "no_connected_pins": _no_connected_pins,
    "degenerate_net": _degenerate_net,
    "wide_net": _wide_net,
}


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def network(request):
    return NETWORKS[request.param]()


def _names(cells) -> List[str]:
    return [cell.name for cell in cells]


def _rows(clusters):
    return [
        (
            cluster.name,
            _names(cluster.cells),
            cluster.net_names,
            [t.full_name for t in cluster.sources],
            [t.full_name for t in cluster.captures],
        )
        for cluster in clusters
    ]


def test_topological_order_matches_reference(network):
    assert _names(network.comb_topological_cells()) == _names(
        reference_topological_cells(network)
    )


def test_clusters_match_reference(network):
    order = network.comb_topological_cells()
    assert _rows(extract_clusters(network, order)) == _rows(
        reference_extract_clusters(network, order)
    )
    assert _rows(extract_clusters(network)) == _rows(
        reference_extract_clusters(network)
    )


def test_hand_built_cases_cover_their_shapes():
    degenerate = extract_clusters(_degenerate_net())
    assert [c.name for c in degenerate if c.is_degenerate] == [
        "cluster_net_direct",
        "cluster_net_q1",
        "cluster_net_q3",
        "cluster_net_w",
    ]
    (lonely,) = [
        c
        for c in extract_clusters(_no_connected_pins())
        if _names(c.cells) == ["lonely"]
    ]
    assert not lonely.net_names and not lonely.sources
    wide = _wide_net()
    assert len(wide.net("wide").sinks) == 7500
    assert _names(wide.comb_topological_cells())[:3] == ["src", "s0", "s1"]
    assert [c.name for c in extract_clusters(wide)] == [
        "cluster_0",
        "cluster_net_q",
    ]


def test_stats_match_role_scans(network):
    stats = network.stats()
    assert stats == {
        "cells": len(network.cells),
        "nets": len(network.nets),
        "combinational": len(network.cells_with_role(CellRole.COMBINATIONAL)),
        "synchronisers": len(network.cells_with_role(CellRole.SYNCHRONISER)),
        "clock_sources": len(network.cells_with_role(CellRole.CLOCK_SOURCE)),
        "primary_inputs": len(network.cells_with_role(CellRole.PRIMARY_INPUT)),
        "primary_outputs": len(
            network.cells_with_role(CellRole.PRIMARY_OUTPUT)
        ),
    }
    for role in CellRole:
        assert network.cells_with_role(role) == tuple(
            cell for cell in network.cells if cell.role is role
        )


# ----------------------------------------------------------------------
# Combinational cycles: both sides raise; only cells on a cycle are named.
# ----------------------------------------------------------------------
def _self_loop_random() -> Network:
    """A random latch design whose first gate feeds its own input."""
    network, __ = random_design(
        1, n_banks=2, gates_per_bank=20, bits=2, style="latch"
    )
    gate = network.cell("b0_g0")
    network.reconnect_sink(gate.terminal("A"), gate.terminal("Z").net.name)
    return network


def _self_loop_chain() -> Network:
    b = _builder("self_loop_chain")
    b.input("i", "w", clock="clk")
    b.gate("g0", "NAND2", A="z0", B="w", Z="z0")
    for k in range(1, 6):
        b.gate(f"g{k}", "INV", A=f"z{k - 1}", Z=f"z{k}")
    return b.build()


def _ring_feeding_chain() -> Network:
    b = _builder("ring_feeding_chain")
    b.input("i", "w", clock="clk")
    b.gate("r0", "NAND2", A="w", B="r2z", Z="r0z")
    b.gate("r1", "INV", A="r0z", Z="r1z")
    b.gate("r2", "INV", A="r1z", Z="r2z")
    previous = "r2z"
    for k in range(10):
        b.gate(f"d{k}", "INV", A=previous, Z=f"d{k}z")
        previous = f"d{k}z"
    return b.build()


def _two_rings_joined() -> Network:
    b = _builder("two_rings_joined")
    b.input("i", "w", clock="clk")
    b.gate("a0", "NAND2", A="w", B="a1z", Z="a0z")
    b.gate("a1", "INV", A="a0z", Z="a1z")
    b.gate("p0", "INV", A="a1z", Z="p0z")
    b.gate("p1", "INV", A="p0z", Z="p1z")
    b.gate("b0", "NAND2", A="p1z", B="b1z", Z="b0z")
    b.gate("b1", "INV", A="b0z", Z="b1z")
    b.gate("tail", "INV", A="b1z", Z="tz")
    return b.build()


def _two_inverter_ring() -> Network:
    b = _builder("two_inverter_ring")
    b.gate("cyc1", "INV", A="cyc_b", Z="cyc_a")
    b.gate("cyc2", "INV", A="cyc_a", Z="cyc_b")
    return b.build()


CYCLIC = {
    "self_loop_random": (_self_loop_random, ["b0_g0"]),
    "self_loop_chain": (_self_loop_chain, ["g0"]),
    "ring_feeding_chain": (_ring_feeding_chain, ["r0", "r1", "r2"]),
    "two_rings_joined": (_two_rings_joined, ["a0", "a1", "b0", "b1"]),
    "two_inverter_ring": (_two_inverter_ring, ["cyc1", "cyc2"]),
}


@pytest.mark.parametrize("case", sorted(CYCLIC))
def test_cycle_names_only_cells_on_a_cycle(case):
    make, on_cycle = CYCLIC[case]
    network = make()
    with pytest.raises(CombinationalCycleError) as raised:
        network.comb_topological_cells()
    assert raised.value.cells == on_cycle
    message = (
        "combinational logic contains a directed cycle through: "
        + ", ".join(on_cycle)
    )
    assert str(raised.value) == message
    with pytest.raises(CombinationalCycleError):
        reference_topological_cells(network)
    with pytest.raises(CombinationalCycleError):
        extract_clusters(network)
    with pytest.raises(CombinationalCycleError):
        reference_extract_clusters(network)
    assert message in validate_network(network).errors


def test_cycle_search_survives_a_long_chain():
    """A ring below a 5,000-gate chain fed by another ring: no recursion."""
    b = _builder("long_chain")
    b.gate("a0", "INV", A="a1z", Z="a0z")
    b.gate("a1", "INV", A="a0z", Z="a1z")
    previous = "a1z"
    for k in range(5000):
        b.gate(f"c{k}", "INV", A=previous, Z=f"c{k}z")
        previous = f"c{k}z"
    b.gate("b0", "NAND2", A=previous, B="b0z", Z="b0z")
    with pytest.raises(CombinationalCycleError) as raised:
        b.build().comb_topological_cells()
    assert raised.value.cells == ["a0", "a1", "b0"]


# ----------------------------------------------------------------------
# Clock-edge arithmetic: once per key, the same floats per port.
# ----------------------------------------------------------------------
def test_capture_passes_match_plan(analyzer):
    model = analyzer.model
    for cluster in model.clusters:
        plan = model.plans[cluster.name]
        for port in model.capture_ports[cluster.name]:
            assert port.pass_index == plan.designated_pass(
                port.instance.closure_edge
            ), port.terminal_name


def test_engine_positions_match_plan(analyzer):
    """Every boundary time the engine reads is the plan's position plus
    the instance's offset: through ``_assertion_time`` /
    ``_closure_time``, and from the per-pass lists ``port_slacks``
    reads."""
    model, engine = analyzer.model, analyzer.engine
    for cluster in model.clusters:
        plan = model.plans[cluster.name]
        launches = model.launch_ports[cluster.name]
        captures = model.capture_ports[cluster.name]

        def assertion(port, pass_index):
            return float(plan.position_assertion(
                port.instance.assertion_edge, pass_index
            ))

        def closure(port):
            return float(plan.position_closure(
                port.instance.closure_edge, port.pass_index
            ))

        for pass_index in range(plan.num_passes):
            for port in launches:
                key = (cluster.name, pass_index, port.instance.name)
                assert engine._assertion_time(
                    cluster.name, pass_index, port
                ).hex() == (
                    assertion(port, pass_index)
                    + port.instance.assertion_offset
                ).hex(), key
        for port in captures:
            key = (cluster.name, port.instance.name)
            assert engine._closure_time(cluster.name, port).hex() == (
                closure(port) + port.instance.closure_offset
            ).hex(), key
        passes = engine._passes[cluster.name]
        assert [step.index for step in passes] == sorted(
            {port.pass_index for port in captures}
        )
        for step in passes:
            assert [p.hex() for p in step.launch_positions] == [
                assertion(port, step.index).hex() for port in launches
            ], (cluster.name, step.index)
            designated = [
                port for port in captures if port.pass_index == step.index
            ]
            assert [port for port, __ in step.captures] == designated
            assert [p.hex() for p in step.closure_positions] == [
                closure(port).hex() for port in designated
            ], (cluster.name, step.index)


def test_des_edge_arithmetic_once_per_key(monkeypatch):
    network, schedule = generate_des()
    delays = estimate_delays(network)
    calls: Counter = Counter()

    def counted(method):
        original = getattr(BreakOpenPlan, method)

        def wrapper(plan, *args):
            calls[(method, id(plan)) + args] += 1
            return original(plan, *args)

        monkeypatch.setattr(BreakOpenPlan, method, wrapper)

    for method in ("designated_pass", "position_assertion", "position_closure"):
        counted(method)
    model = AnalysisModel(network, schedule, delays)
    SlackEngine(model)
    monkeypatch.undo()
    assert calls and max(calls.values()) == 1
    ports = sum(len(ports) for ports in model.capture_ports.values())
    designated = sum(1 for key in calls if key[0] == "designated_pass")
    assert designated < ports / 10
