"""Pre-processing against slow, obviously-right references.

* Reachability: the one-sweep bitset map of
  :meth:`Cluster.reachable_captures` equals one breadth-first search per
  source (:meth:`Cluster._nets_reachable_from`).
* Pass plans: every cluster's breaks and every capture's pass equal
  :func:`plan_for_cluster` on arcs enumerated one per source instance x
  capture instance, as the model once built them.
* Work: a DES model build runs no breadth-first search and one pass
  selection per distinct arc set.
"""

from typing import Dict, FrozenSet, List

import pytest

from repro.cells import standard_library
from repro.clocks import ClockSchedule, ClockWaveform
from repro.core import model as model_module
from repro.core.analyzer import Hummingbird
from repro.core.breakopen import RequirementArc, plan_for_cluster
from repro.core.clusters import Cluster, extract_clusters
from repro.core.model import AnalysisModel
from repro.delay import estimate_delays
from repro.generators import fig1_circuit, random_design
from repro.generators.alu import generate_alu
from repro.generators.bus import tristate_bus_design
from repro.generators.clock_tree import skewed_clock_pipeline
from repro.generators.des import generate_des
from repro.generators.fsm import generate_sm1f, generate_sm1h
from repro.netlist import NetworkBuilder


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
