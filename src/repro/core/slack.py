"""Block-method slack evaluation (paper, Section 7, equations 1-2).

Per cluster and per analysis pass:

* cluster input assertion times become node *ready times* and are traced
  forward through the combinational components (equation 1),
* slack at each cluster output designated to the pass is the difference
  between its closure time and the ready time,
* slacks (equivalently *required times*) are traced backward through the
  components (equation 2).

The node slack of a terminal is the minimum over the passes in which it is
evaluated; outputs not designated to a pass take "a large number"
(:data:`math.inf`) for that pass.  Ready/required values are rise/fall
pairs propagated with arc unateness (the Bening et al. [7] refinement).

The block method deliberately does not discard false paths -- pessimistic
slacks are safe and fast, which is what an analysis-redesign loop needs
(Section 7's discussion).  The exact alternative is implemented in
:mod:`repro.baselines.path_enumeration` for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.clusters import Cluster
from repro.core.model import AnalysisModel, CapturePort, LaunchPort
from repro.delay.estimator import ArcKey
from repro.netlist.kinds import Unateness
from repro.rftime import RiseFall


@dataclass
class PortSlacks:
    """Scalar node slacks at the generic-instance boundary terminals.

    Keyed by instance name.  Instances whose terminal is unconstrained
    (e.g. an unloaded output) are present with ``+inf``.
    """

    capture: Dict[str, float] = field(default_factory=dict)
    launch: Dict[str, float] = field(default_factory=dict)

    def worst(self) -> float:
        values = list(self.capture.values()) + list(self.launch.values())
        return min(values, default=math.inf)

    def all_positive(self, tolerance: float = 0.0) -> bool:
        return self.worst() > tolerance


@dataclass
class PassDetail:
    """Ready/required times of one cluster analysis pass (one settling
    time per node)."""

    pass_index: int
    break_time: float
    ready: Dict[str, RiseFall]
    required: Dict[str, RiseFall]

    def slack_of(self, net_name: str) -> float:
        ready = self.ready.get(net_name)
        required = self.required.get(net_name)
        if ready is None or required is None:
            return math.inf
        pair = required.minus(ready)
        return pair.best


@dataclass
class ClusterDetail:
    """Full analysis record of one cluster (for reports / Algorithm 2)."""

    cluster_name: str
    passes: List[PassDetail]

    def net_slack(self, net_name: str) -> float:
        return min(
            (p.slack_of(net_name) for p in self.passes), default=math.inf
        )

    def settling_times(self, net_name: str) -> int:
        """How many distinct settling times the node has (finite ready
        values across passes) -- the quantity Section 7 minimises."""
        return sum(
            1
            for p in self.passes
            if p.ready.get(net_name, RiseFall.never()).is_finite()
        )


@dataclass(frozen=True)
class ArcTable:
    """One cluster's combinational arcs over numbered nets.

    ``nets[i]`` names net *i*.  ``arcs`` holds one ``(input net, output
    net, sense, key)`` tuple per arc, in the cluster's topological
    order; the sense is 0 positive, 1 negative or 2 non-unate, and the
    :data:`~repro.delay.estimator.ArcKey` indexes
    :attr:`~repro.delay.estimator.DelayMap.max_delays`.  ``launches``
    and ``captures`` pair each boundary port with its net's number.
    """

    name: str
    nets: Tuple[str, ...]
    arcs: Tuple[Tuple[int, int, int, ArcKey], ...]
    launches: Tuple[Tuple[LaunchPort, int], ...]
    captures: Tuple[Tuple[CapturePort, int], ...]
    num_passes: int


#: One sweep's result: per net number the rise and fall values
#: (``None``: not reached), and the reached nets in first-touch order.
Sweep = Tuple[List[Optional[float]], List[Optional[float]], List[int]]


class SlackEngine:
    """Evaluates node slacks for the current offsets of a model.

    Construction numbers each cluster's nets and flattens its arcs into
    an :class:`ArcTable`, and precomputes, per cluster and pass, the axis
    positions of every boundary edge (pure clock arithmetic); repeated
    slack queries during Algorithm 1/2 iterations then only involve
    float work linear in the cluster sizes.  Delays are read from the
    model at every sweep, so a delay map swapped under the model is seen
    by the next query.
    """

    def __init__(self, model: AnalysisModel) -> None:
        self._model = model
        # (cluster, pass, instance) -> axis position of the assertion edge
        self._launch_pos: Dict[Tuple[str, int, str], float] = {}
        # (cluster, instance) -> axis position of the closure edge in the
        # capture's designated pass
        self._capture_pos: Dict[Tuple[str, str], float] = {}
        #: Cluster name -> its :class:`ArcTable`, in cluster order.
        self.tables: Dict[str, ArcTable] = {}
        delays = model.delays
        senses = delays.senses
        positive, negative = Unateness.POSITIVE, Unateness.NEGATIVE
        # (plan, edge, pass) -> axis position; plans are keyed by id, all
        # of them being alive in model.plans.  Clusters share a few plans
        # and instances a few edges, so each Fraction is computed once.
        assertion_at: Dict[Tuple[int, Fraction, int], float] = {}
        closure_at: Dict[Tuple[int, Fraction, int], float] = {}
        for cluster in model.clusters:
            index: Dict[str, int] = {}
            arcs = []
            for cell in cluster.cells:
                for key in delays.arc_keys(cell):
                    __, in_pin, out_pin = key
                    in_net = cell.terminal(in_pin).net
                    out_net = cell.terminal(out_pin).net
                    if in_net is None or out_net is None:
                        continue
                    sense = senses[key]
                    arcs.append(
                        (
                            index.setdefault(in_net.name, len(index)),
                            index.setdefault(out_net.name, len(index)),
                            0 if sense is positive else
                            1 if sense is negative else 2,
                            key,
                        )
                    )
            launches = tuple(
                (port, index.setdefault(port.net_name, len(index)))
                for port in model.launch_ports[cluster.name]
            )
            captures = tuple(
                (port, index.setdefault(port.net_name, len(index)))
                for port in model.capture_ports[cluster.name]
            )
            plan = model.plans[cluster.name]
            self.tables[cluster.name] = ArcTable(
                cluster.name,
                tuple(index),
                tuple(arcs),
                launches,
                captures,
                plan.num_passes,
            )
            for port, __ in launches:
                edge = port.instance.assertion_edge
                assert edge is not None
                for pass_index in range(plan.num_passes):
                    key = (id(plan), edge, pass_index)
                    position = assertion_at.get(key)
                    if position is None:
                        position = assertion_at[key] = float(
                            plan.position_assertion(edge, pass_index)
                        )
                    self._launch_pos[
                        (cluster.name, pass_index, port.instance.name)
                    ] = position
            for port, __ in captures:
                edge = port.instance.closure_edge
                assert edge is not None
                key = (id(plan), edge, port.pass_index)
                position = closure_at.get(key)
                if position is None:
                    position = closure_at[key] = float(
                        plan.position_closure(edge, port.pass_index)
                    )
                self._capture_pos[(cluster.name, port.instance.name)] = (
                    position
                )

    # ------------------------------------------------------------------
    # fast path: boundary slacks only (the Algorithm 1/2 inner loop)
    # ------------------------------------------------------------------
    def port_slacks(self) -> PortSlacks:
        rec = obs.active()
        slacks = PortSlacks()
        for instance in self._model.all_instances():
            if instance.has_input:
                slacks.capture.setdefault(instance.name, math.inf)
            if instance.has_output:
                slacks.launch.setdefault(instance.name, math.inf)
        for table in self.tables.values():
            self._cluster_port_slacks(table, slacks, rec)
        if rec is not None:
            rec.counter("slack.evaluations")
        return slacks

    def _cluster_port_slacks(
        self,
        table: ArcTable,
        slacks: PortSlacks,
        rec: Optional["obs.Recorder"] = None,
    ) -> None:
        capture = slacks.capture
        launch = slacks.launch
        for pass_index in range(table.num_passes):
            ready_rise, ready_fall, reached = self._forward(table, pass_index)
            if rec is not None:
                rec.counter("slack.cluster_passes")
                rec.counter("slack.forward_sweeps")
                rec.counter("slack.nodes_visited", len(reached))
            for port, net in table.captures:
                if port.pass_index != pass_index:
                    continue
                rise = ready_rise[net]
                if (
                    rise is not None
                    and math.isfinite(rise)
                    and math.isfinite(ready_fall[net])
                ):
                    closure = self._closure_time(table.name, port)
                    slack = min(closure - rise, closure - ready_fall[net])
                else:
                    slack = math.inf
                name = port.instance.name
                capture[name] = min(capture[name], slack)
            need_rise, need_fall, constrained = self._backward(
                table, pass_index
            )
            if not constrained:
                continue
            if rec is not None:
                rec.counter("slack.backward_sweeps")
            for port, net in table.launches:
                need = need_rise[net]
                if need is None:
                    continue
                t = self._assertion_time(table.name, pass_index, port)
                slack = min(need, need_fall[net]) - t
                name = port.instance.name
                launch[name] = min(launch[name], slack)

    # ------------------------------------------------------------------
    # full detail (reports, Algorithm 2 outputs)
    # ------------------------------------------------------------------
    def cluster_detail(self, cluster: Cluster) -> ClusterDetail:
        with obs.span(
            "slack.cluster_detail", category="slack", cluster=cluster.name
        ):
            return self._cluster_detail(cluster)

    def _cluster_detail(self, cluster: Cluster) -> ClusterDetail:
        table = self.tables[cluster.name]
        plan = self._model.plans[cluster.name]
        details: List[PassDetail] = []
        for pass_index in range(table.num_passes):
            details.append(
                PassDetail(
                    pass_index=pass_index,
                    break_time=float(plan.breaks[pass_index]),
                    ready=_pairs(table, self._forward(table, pass_index)),
                    required=_pairs(table, self._backward(table, pass_index)),
                )
            )
        return ClusterDetail(cluster_name=cluster.name, passes=details)

    def details(self) -> Dict[str, ClusterDetail]:
        return {
            cluster.name: self.cluster_detail(cluster)
            for cluster in self._model.clusters
        }

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def _assertion_time(
        self, cluster_name: str, pass_index: int, port: LaunchPort
    ) -> float:
        return (
            self._launch_pos[(cluster_name, pass_index, port.instance.name)]
            + port.instance.assertion_offset
        )

    def _closure_time(self, cluster_name: str, port: CapturePort) -> float:
        return (
            self._capture_pos[(cluster_name, port.instance.name)]
            + port.instance.closure_offset
        )

    def _forward(self, table: ArcTable, pass_index: int) -> Sweep:
        """Equation 1: trace ready times forward through the cluster,
        from its launch ports' assertion times in pass ``pass_index``.

        The arc loop is the analysis's innermost loop: it runs over the
        flat table with the rise/fall algebra inlined on two float lists
        (see DESIGN.md performance note).
        """
        rise: List[Optional[float]] = [None] * len(table.nets)
        fall: List[Optional[float]] = [None] * len(table.nets)
        reached: List[int] = []
        for port, net in table.launches:
            t = self._assertion_time(table.name, pass_index, port)
            if rise[net] is None:
                rise[net] = fall[net] = t
                reached.append(net)
            else:
                if t > rise[net]:
                    rise[net] = t
                if t > fall[net]:
                    fall[net] = t
        delays = self._model.delays.max_delays
        for in_net, out_net, sense, key in table.arcs:
            in_rise = rise[in_net]
            if in_rise is None:
                continue
            in_fall = fall[in_net]
            delay = delays[key]
            if sense == 0:  # positive unate
                out_rise = in_rise + delay.rise
                out_fall = in_fall + delay.fall
            elif sense == 1:  # negative unate: output rise from input fall
                out_rise = in_fall + delay.rise
                out_fall = in_rise + delay.fall
            else:  # non-unate: worst input transition drives both
                worst = in_rise if in_rise >= in_fall else in_fall
                out_rise = worst + delay.rise
                out_fall = worst + delay.fall
            existing = rise[out_net]
            if existing is None:
                rise[out_net] = out_rise
                fall[out_net] = out_fall
                reached.append(out_net)
            else:
                if out_rise > existing:
                    rise[out_net] = out_rise
                if out_fall > fall[out_net]:
                    fall[out_net] = out_fall
        return rise, fall, reached

    def _backward(self, table: ArcTable, pass_index: int) -> Sweep:
        """Equation 2: trace required times backward through the
        cluster, from the closure times of the captures designated to
        pass ``pass_index``.  With no such capture nothing is reached."""
        rise: List[Optional[float]] = [None] * len(table.nets)
        fall: List[Optional[float]] = [None] * len(table.nets)
        reached: List[int] = []
        for port, net in table.captures:
            if port.pass_index != pass_index:
                continue
            closure = self._closure_time(table.name, port)
            if rise[net] is None:
                rise[net] = fall[net] = closure
                reached.append(net)
            else:
                if closure < rise[net]:
                    rise[net] = closure
                if closure < fall[net]:
                    fall[net] = closure
        if not reached:
            return rise, fall, reached
        delays = self._model.delays.max_delays
        for in_net, out_net, sense, key in reversed(table.arcs):
            out_rise = rise[out_net]
            if out_rise is None:
                continue
            delay = delays[key]
            out_rise -= delay.rise
            out_fall = fall[out_net] - delay.fall
            if sense == 0:
                in_rise, in_fall = out_rise, out_fall
            elif sense == 1:  # adjoint of the forward swap
                in_rise, in_fall = out_fall, out_rise
            else:  # non-unate: the tighter requirement binds both
                in_rise = in_fall = (
                    out_rise if out_rise <= out_fall else out_fall
                )
            existing = rise[in_net]
            if existing is None:
                rise[in_net] = in_rise
                fall[in_net] = in_fall
                reached.append(in_net)
            else:
                if in_rise < existing:
                    rise[in_net] = in_rise
                if in_fall < fall[in_net]:
                    fall[in_net] = in_fall
        return rise, fall, reached


def _pairs(table: ArcTable, sweep: Sweep) -> Dict[str, RiseFall]:
    """A sweep as ``{net name: RiseFall}``, in first-touch order."""
    rise, fall, reached = sweep
    return {table.nets[net]: RiseFall(rise[net], fall[net]) for net in reached}
