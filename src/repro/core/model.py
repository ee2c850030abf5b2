"""The prepared analysis model ("pre-processing" in Table 1's terms).

Building an :class:`AnalysisModel` performs everything the paper counts as
pre-processing: validation, expansion of synchronisers into generic
instances, control-path delay extraction, cluster generation, requirement
arc construction and the Section 7 minimum-pass selection.  The model is
then iterated over cheaply by Algorithms 1 and 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro import obs
from repro.clocks.schedule import ClockSchedule
from repro.core.breakopen import BreakOpenPlan, RequirementArc, plan_for_cluster
from repro.core.clusters import Cluster, extract_clusters
from repro.core.control_paths import control_arrivals
from repro.core.sync_elements import (
    GenericInstance,
    InstanceKind,
    pad_instance_of,
    synchroniser_instances,
)
from repro.delay.estimator import DelayMap
from repro.netlist.kinds import CellRole
from repro.netlist.network import Network
from repro.netlist.validate import validate_network


@dataclass(frozen=True)
class LaunchPort:
    """A generic instance's output feeding one cluster."""

    instance: GenericInstance
    terminal_name: str
    net_name: str
    cluster_name: str


@dataclass(frozen=True)
class CapturePort:
    """A generic instance's data input fed by one cluster.

    ``pass_index`` is the cluster analysis pass in which this capture's
    slack is computed (its closure time is closest to the end of that
    pass's broken-open period).
    """

    instance: GenericInstance
    terminal_name: str
    net_name: str
    cluster_name: str
    pass_index: int


class AnalysisModel:
    """Everything Algorithms 1/2 need, prepared once per network."""

    def __init__(
        self,
        network: Network,
        schedule: ClockSchedule,
        delays: DelayMap,
        exhaustive_limit: int = 4,
        latch_model: str = "transparent",
        pass_strategy: str = "minimum",
        clusters: Optional[Tuple[Cluster, ...]] = None,
    ) -> None:
        """``latch_model="edge"`` degrades every transparent latch to an
        edge-triggered element (the McWilliams-style baseline of Section
        2); ``pass_strategy="per_edge"`` analyses every cluster once per
        clock edge instead of the Section 7 minimum (the per-edge
        settling-time attribution of Wallace/Szymanski).

        ``clusters`` accepts a precomputed partition of *this* network
        (e.g. one whose reachability maps were seeded from the cluster
        cache); when omitted the partition is extracted here.  Passing
        clusters of a different network is undefined."""
        if latch_model not in ("transparent", "edge"):
            raise ValueError(f"unknown latch model {latch_model!r}")
        if pass_strategy not in ("minimum", "per_edge"):
            raise ValueError(f"unknown pass strategy {pass_strategy!r}")
        self.network = network
        self.schedule = schedule
        self.delays = delays
        self.latch_model = latch_model
        self.pass_strategy = pass_strategy

        with obs.span("model.validate", category="model"):
            report = validate_network(network, set(schedule.clock_names))
            report.raise_if_failed()
        self.validation = report

        self.instances: Dict[str, Tuple[GenericInstance, ...]] = {}
        with obs.span("model.instances", category="model"):
            self._build_instances()
            if latch_model == "edge":
                self._degrade_to_edge_triggered()

        with obs.span("model.clusters", category="model"):
            self.clusters: Tuple[Cluster, ...] = (
                clusters
                if clusters is not None
                else extract_clusters(network, report.comb_ids)
            )
        self.plans: Dict[str, BreakOpenPlan] = {}
        self.launch_ports: Dict[str, Tuple[LaunchPort, ...]] = {}
        self.capture_ports: Dict[str, Tuple[CapturePort, ...]] = {}
        with obs.span("model.ports", category="model"):
            self._build_ports(exhaustive_limit)

    # ------------------------------------------------------------------
    # instance expansion
    # ------------------------------------------------------------------
    def _build_instances(self) -> None:
        network = self.network
        names, specs = network.cell_names, network.cell_specs
        arrivals = control_arrivals(network, self.delays)
        for cell in network.cell_ids_with_role(CellRole.SYNCHRONISER):
            name, spec = names[cell], specs[cell]
            trace = self.validation.control_traces[name]
            arrival = arrivals[name]
            self.instances[name] = synchroniser_instances(
                name,
                spec,
                self.schedule,
                trace.clock,
                trace.sense,
                self.delays.sync_timing_of(name, spec.role),
                control_arrival=arrival.latest,
                control_arrival_min=arrival.earliest,
            )
        for role in (CellRole.PRIMARY_INPUT, CellRole.PRIMARY_OUTPUT):
            for cell in network.cell_ids_with_role(role):
                self.instances[names[cell]] = (
                    pad_instance_of(
                        names[cell], role, network.cell_attrs[cell],
                        self.schedule,
                    ),
                )

    def _degrade_to_edge_triggered(self) -> None:
        """Treat every transparent element as closing *and* asserting on
        the trailing edge of its pulse -- McWilliams-style modelling with
        no cycle borrowing."""
        for group in self.instances.values():
            for instance in group:
                if instance.kind is InstanceKind.TRANSPARENT:
                    instance.kind = InstanceKind.EDGE_TRIGGERED
                    instance.assertion_edge = instance.closure_edge
                    instance.w = 0.0

    def all_instances(self) -> List[GenericInstance]:
        return [i for group in self.instances.values() for i in group]

    def adjustable_instances(self) -> List[GenericInstance]:
        return [i for i in self.all_instances() if i.adjustable]

    def reset_windows(self) -> None:
        """Restore every instance's initial offsets ("Select any set of
        offsets satisfying the synchronising element constraints")."""
        for instance in self.all_instances():
            instance.reset_window()

    # ------------------------------------------------------------------
    # ports and pass plans
    # ------------------------------------------------------------------
    def _build_ports(self, exhaustive_limit: int) -> None:
        candidate_breaks = self.schedule.edge_times()
        period = self.schedule.overall_period
        network = self.network
        cell_names, net_names = network.cell_names, network.net_names
        pin_cells, pin_nets = network.pin_cells, network.pin_nets
        # A plan depends only on the cluster's distinct arc set, and
        # clusters share a handful of those (DES: 2 over 185 clusters).
        plans: Dict[FrozenSet[RequirementArc], BreakOpenPlan] = {}
        # (plan, closure edge) -> designated pass; plans are keyed by id,
        # all of them being alive in self.plans for the whole build.
        passes: Dict[Tuple[int, Fraction], int] = {}
        for cluster in self.clusters:
            if self.pass_strategy == "per_edge":
                # Wallace/Szymanski-style: one settling time per clock edge.
                plan = BreakOpenPlan(
                    period=period, breaks=tuple(candidate_breaks)
                )
            else:
                arcs = self._requirement_arcs(cluster)
                plan = plans.get(arcs)
                if plan is None:
                    plan = plans[arcs] = plan_for_cluster(
                        period, candidate_breaks, arcs, exhaustive_limit
                    )
            self.plans[cluster.name] = plan

            launches: List[LaunchPort] = []
            for pin in cluster.source_pins:
                terminal_name = network.pin_full_name(pin)
                net_name = net_names[pin_nets[pin]]
                for instance in self.instances[cell_names[pin_cells[pin]]]:
                    if not instance.has_output:
                        continue
                    launches.append(
                        LaunchPort(
                            instance=instance,
                            terminal_name=terminal_name,
                            net_name=net_name,
                            cluster_name=cluster.name,
                        )
                    )
            self.launch_ports[cluster.name] = tuple(launches)

            captures: List[CapturePort] = []
            for pin in cluster.capture_pins:
                terminal_name = network.pin_full_name(pin)
                net_name = net_names[pin_nets[pin]]
                for instance in self.instances[cell_names[pin_cells[pin]]]:
                    if not instance.has_input:
                        continue
                    edge = instance.closure_edge
                    assert edge is not None
                    pass_index = passes.get((id(plan), edge))
                    if pass_index is None:
                        pass_index = passes[(id(plan), edge)] = (
                            plan.designated_pass(edge)
                        )
                    captures.append(
                        CapturePort(
                            instance=instance,
                            terminal_name=terminal_name,
                            net_name=net_name,
                            cluster_name=cluster.name,
                            pass_index=pass_index,
                        )
                    )
            self.capture_ports[cluster.name] = tuple(captures)

    def _requirement_arcs(
        self, cluster: Cluster
    ) -> FrozenSet[RequirementArc]:
        """The distinct (assertion edge, closure edge) pairs connected by
        a switching path: per source, its launch instances' assertion
        edges times the closure edges of every capture it reaches."""
        network = self.network
        names, pin_cells = network.cell_names, network.pin_cells
        reach = cluster.reachable_captures(network)
        closures_of: Dict[str, FrozenSet[Fraction]] = {
            network.pin_full_name(pin): frozenset(
                i.closure_edge
                for i in self.instances[names[pin_cells[pin]]]
                if i.has_input and i.closure_edge is not None
            )
            for pin in cluster.capture_pins
        }
        pairs: Set[Tuple[Fraction, Fraction]] = set()
        for pin in cluster.source_pins:
            targets = reach.get(network.pin_full_name(pin), frozenset())
            if not targets:
                continue
            assertions = {
                i.assertion_edge
                for i in self.instances[names[pin_cells[pin]]]
                if i.has_output and i.assertion_edge is not None
            }
            closures: Set[Fraction] = set()
            for target in targets:
                closures |= closures_of[target]
            pairs.update(itertools.product(assertions, closures))
        return frozenset(RequirementArc(a, c) for a, c in pairs)

    # ------------------------------------------------------------------
    # statistics (Table 1 style)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        stats = dict(self.network.stats())
        stats["clusters"] = len(self.clusters)
        stats["generic_instances"] = len(self.all_instances())
        stats["total_passes"] = sum(
            plan.num_passes for plan in self.plans.values()
        )
        stats["max_passes_per_cluster"] = max(
            (plan.num_passes for plan in self.plans.values()), default=0
        )
        return stats


def build_model(
    network: Network,
    schedule: ClockSchedule,
    delays: Optional[DelayMap] = None,
    exhaustive_limit: int = 4,
) -> AnalysisModel:
    """Convenience constructor estimating delays when not supplied."""
    if delays is None:
        from repro.delay.estimator import estimate_delays

        delays = estimate_delays(network)
    return AnalysisModel(network, schedule, delays, exhaustive_limit)
