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

A cluster's boundary values are a function of its boundary times alone
(the view of Li et al.'s timing model extraction): the ready times at
its captures depend only on its arc delays and launch times, the
required times at its launches only on its arc delays and closure
times.  A violating design takes Algorithm 1 through a score of
evaluations of every cluster (19 on the e2e edit-loop design), and
Algorithm 3 re-runs it after every edit, mostly with boundary times
some earlier evaluation already had, so :meth:`SlackEngine.port_slacks`
sweeps a cluster only for boundary times it has not seen since the
cluster's delays last changed.  Each transfer step of Algorithms 1 and
2 reads either the capture or the launch slacks, so a call evaluates
only the directions it is asked for: capture slacks take forward
sweeps alone, launch slacks backward sweeps alone.

A run of Algorithm 1 reads nothing of the delays but these boundary
values, so after a delay swap that leaves every value the last run read
bit for bit as it was, a new run would repeat the last one call for
call.  The engine keeps, per (cluster, pass, direction), the boundary
times and values each run evaluates, re-sweeps those of a cluster whose
delays change, and tells (:meth:`SlackEngine.repeats_last_run`) whether
they all still hold.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import is_not
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.clusters import Cluster
from repro.core.model import AnalysisModel, CapturePort, LaunchPort
from repro.netlist.kinds import Unateness
from repro.rftime import RiseFall


@dataclass
class PortSlacks:
    """Scalar node slacks at the generic-instance boundary terminals.

    Keyed by instance name.  Instances whose terminal is unconstrained
    (e.g. an unloaded output) are present with ``+inf``.  A direction
    :meth:`SlackEngine.port_slacks` was not asked for is empty.
    """

    capture: Dict[str, float] = field(default_factory=dict)
    launch: Dict[str, float] = field(default_factory=dict)

    def worst(self) -> float:
        """The ``min`` fold of the capture, then the launch slacks: of
        the directions evaluated only."""
        values = list(self.capture.values()) + list(self.launch.values())
        return min(values, default=math.inf)

    def all_positive(self) -> bool:
        """Whether :meth:`worst` is above 0.0: of the directions
        evaluated only."""
        return self.worst() > 0.0

    def all_positive_lazily(
        self, port_slacks: Callable[..., "PortSlacks"], capture: bool
    ) -> bool:
        """:meth:`all_positive` of both directions, where this holds
        only the capture slacks (``capture``) or only the launch slacks,
        and ``port_slacks`` (a :meth:`SlackEngine.port_slacks`) still
        evaluates the offsets they were taken at.  The other direction
        is evaluated into this only when the one at hand cannot decide.

        A value at or below 0.0 is a number (a NaN never compares
        ``<=``), and once :meth:`worst`'s fold holds such a number, or
        started on a NaN, it cannot end above 0.0: so that value
        decides ``False`` in whichever direction it sits, and the answer
        is exact.
        """
        side = self.capture if capture else self.launch
        if any(value <= 0.0 for value in side.values()):
            return False
        if capture:
            self.launch = port_slacks(capture=False).launch
        else:
            self.capture = port_slacks(launch=False).capture
        return self.all_positive()


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
    """One cluster's combinational arcs over its numbered nets.

    ``nets[i]`` names net *i*, the cluster's *i*-th net
    (:attr:`Cluster.net_ids <repro.core.clusters.Cluster.net_ids>`).
    ``arcs`` holds one ``(input net, output net, sense, arc)`` tuple per
    arc, in the cluster's topological order; the sense is 0 positive, 1
    negative or 2 non-unate, and the arc number indexes the delay map's
    flat delay lists (:attr:`~repro.delay.estimator.DelayMap.max_rise`
    and the like).  ``launches`` and ``captures`` pair each boundary port
    with its net's number.
    """

    name: str
    nets: Tuple[str, ...]
    arcs: Tuple[Tuple[int, int, int, int], ...]
    launches: Tuple[Tuple[LaunchPort, int], ...]
    captures: Tuple[Tuple[CapturePort, int], ...]
    num_passes: int


#: One sweep's result: per net number the rise and fall values
#: (``None``: not reached), and the reached nets in first-touch order.
Sweep = Tuple[List[Optional[float]], List[Optional[float]], List[int]]

#: Evaluations kept by each (cluster, pass, direction) memo of
#: :meth:`SlackEngine.port_slacks`; the least recently used goes first.
_MEMO_ENTRIES = 32


@functools.lru_cache(maxsize=None)
def _packer(count: int) -> Callable[..., bytes]:
    """Packs ``count`` floats into a memo key.  Bytes tell apart what
    float equality does not: ``-0.0`` from ``0.0``, and NaNs."""
    return struct.Struct(f"{count}d").pack


def _unpacked(key: bytes) -> List[float]:
    """The floats a :func:`_packer` key was packed from, bit for bit."""
    return list(struct.unpack(f"{len(key) // 8}d", key))


_bits = struct.Struct("d").pack


def _identical(old: List[Optional[float]], new: List[Optional[float]]) -> bool:
    """Whether two lists of boundary values (``None``: not reached) are
    bit for bit the same: ``-0.0`` is not ``0.0``, and a NaN is the NaN
    with its bits."""
    return all(
        a is b or (a is not None and b is not None and _bits(a) == _bits(b))
        for a, b in zip(old, new)
    )


def _position(cache, compute, plan, edge: Fraction, pass_index: int) -> float:
    """``compute(edge, pass_index)``, a method of ``plan``, as a float,
    computed once per (plan, edge, pass) in ``cache``.  Plans are keyed
    by id, all of them being alive in ``model.plans``."""
    assert edge is not None
    key = (id(plan), edge, pass_index)
    position = cache.get(key)
    if position is None:
        position = cache[key] = float(compute(edge, pass_index))
    return position


class _Forgetful(dict):
    """A memo that keeps nothing: the memos and records of an engine's
    passes until its second call (see :meth:`SlackEngine.port_slacks`)."""

    def __setitem__(self, key, value) -> None:
        pass

    def setdefault(self, key, default=None):
        return default


_FORGETFUL = _Forgetful()


class _Pass:
    """One analysis pass of one cluster, as flat lists, and its memos.
    Only a pass with captures designated to it has one: any other pass
    yields no slack."""

    __slots__ = (
        "index",
        "launch_positions",
        "captures",
        "closure_positions",
        "pack_times",
        "pack_closures",
        "forward",
        "backward",
        "ran_forward",
        "ran_backward",
    )

    def __init__(
        self,
        index: int,
        launch_positions: Tuple[float, ...],
        captures: Tuple[Tuple[CapturePort, int], ...],
        closure_positions: Tuple[float, ...],
        pack_times: Callable[..., bytes],
        pack_closures: Callable[..., bytes],
    ) -> None:
        self.index = index
        #: Axis position of each launch port's assertion edge, in the
        #: order of :attr:`ArcTable.launches`.
        self.launch_positions = launch_positions
        #: The (port, net) pairs of the captures designated to the pass,
        #: in table order, and the axis positions of their closure edges.
        self.captures = captures
        self.closure_positions = closure_positions
        #: Pack the launch times and the closure times into memo keys.
        self.pack_times = pack_times
        self.pack_closures = pack_closures
        #: Packed launch times -> the ready rise values, then the ready
        #: fall values, at the designated captures (``None``: not
        #: reached).
        self.forward: Dict[bytes, List[Optional[float]]] = _FORGETFUL
        #: Packed closure times -> ``min(need rise, need fall)`` at each
        #: launch port (``None``: not reached).
        self.backward: Dict[bytes, List[Optional[float]]] = _FORGETFUL
        #: The keys and values of the two memos that every evaluation
        #: since the engine's last run started used, in first-use order:
        #: what :meth:`SlackEngine.repeats_last_run` re-checks.
        self.ran_forward: Dict[bytes, List[Optional[float]]] = _FORGETFUL
        self.ran_backward: Dict[bytes, List[Optional[float]]] = _FORGETFUL


class SlackEngine:
    """Evaluates node slacks for the current offsets of a model.

    Construction numbers each cluster's nets and flattens its arcs into
    an :class:`ArcTable`, and precomputes, per cluster and per pass that
    takes slacks, the axis positions of its boundary edges (pure clock
    arithmetic); repeated slack queries during Algorithm 1/2 iterations
    then only involve float work linear in the cluster sizes.  Delays
    are read from the model at every sweep, so a delay map swapped under
    the model is seen by the next query, and :meth:`port_slacks`
    re-checks or drops the memo of each cluster the new map changes.
    """

    def __init__(self, model: AnalysisModel) -> None:
        self._model = model
        # (plan, edge, pass) -> axis position of an assertion or closure
        # edge; plans are keyed by id, all of them being alive in
        # model.plans.  Clusters share a few plans and instances a few
        # edges, so each Fraction is computed once.
        self._assertion_at: Dict[Tuple[int, Fraction, int], float] = {}
        self._closure_at: Dict[Tuple[int, Fraction, int], float] = {}
        self._build_tables()
        # Every call starts from +inf at each boundary terminal, in
        # instance order.
        instances = model.all_instances()
        self._capture_names = tuple(i.name for i in instances if i.has_input)
        self._launch_names = tuple(i.name for i in instances if i.has_output)
        # The delay map the memos were filled from.
        self._filled_from = model.delays
        self._calls = 0
        #: Runs of Algorithm 1 started on this engine (:meth:`start_run`).
        self.runs = 0
        # Whether every boundary value evaluated since the last run
        # started still holds under the delays (False before a run).
        self._holds = False

    def _build_tables(self) -> None:
        """Number each cluster's nets and flatten its arcs, numbered as
        in ``model.delays``, into an :class:`ArcTable`."""
        model = self._model
        network = model.network
        delays = model.delays
        arc_pins, senses = delays.arc_pins, delays.arc_senses
        names, layouts = network.cell_names, network.cell_layouts
        cell_pins, pin_nets = network.cell_pins, network.pin_nets
        net_ids = network.net_ids
        positive, negative = Unateness.POSITIVE, Unateness.NEGATIVE
        #: Cluster name -> its :class:`ArcTable`, in cluster order.
        self.tables: Dict[str, ArcTable] = {}
        #: Cluster name -> its passes that take slacks.
        self._passes: Dict[str, Tuple[_Pass, ...]] = {}
        # Arc number -> the name of the cluster whose table holds it,
        # built on the first delay swap: a one-shot analysis makes none.
        self._arc_clusters: Optional[List[Optional[str]]] = None
        # local[n]: the number of net n within the cluster at hand; every
        # net an arc or a port of a cluster touches is one of its nets.
        local = [0] * len(network.net_names)
        for cluster in model.clusters:
            for number, net in enumerate(cluster.net_ids):
                local[net] = number
            arcs = []
            for cell in cluster.cell_ids:
                index = layouts[cell].index
                first = cell_pins[cell]
                for arc in delays.arc_numbers(names[cell]):
                    in_pin, out_pin = arc_pins[arc]
                    in_net = pin_nets[first + index[in_pin]]
                    out_net = pin_nets[first + index[out_pin]]
                    if in_net < 0 or out_net < 0:
                        continue
                    sense = senses[arc]
                    arcs.append(
                        (
                            local[in_net],
                            local[out_net],
                            0 if sense is positive else
                            1 if sense is negative else 2,
                            arc,
                        )
                    )
            table = self.tables[cluster.name] = ArcTable(
                cluster.name,
                tuple([network.net_names[net] for net in cluster.net_ids]),
                tuple(arcs),
                tuple(
                    (port, local[net_ids[port.net_name]])
                    for port in model.launch_ports[cluster.name]
                ),
                tuple(
                    (port, local[net_ids[port.net_name]])
                    for port in model.capture_ports[cluster.name]
                ),
                model.plans[cluster.name].num_passes,
            )
            self._passes[cluster.name] = self._slack_passes(table)

    def _slack_passes(self, table: ArcTable) -> Tuple[_Pass, ...]:
        """``table``'s passes that take slacks, with the axis positions
        of their boundary edges."""
        plan = self._model.plans[table.name]
        pack_times = _packer(len(table.launches))
        passes = []
        for pass_index in range(table.num_passes):
            captures = tuple(
                [
                    pair
                    for pair in table.captures
                    if pair[0].pass_index == pass_index
                ]
            )
            if not captures:
                continue
            passes.append(
                _Pass(
                    pass_index,
                    tuple([
                        _position(
                            self._assertion_at, plan.position_assertion,
                            plan, port.instance.assertion_edge, pass_index,
                        )
                        for port, __ in table.launches
                    ]),
                    captures,
                    tuple([
                        _position(
                            self._closure_at, plan.position_closure,
                            plan, port.instance.closure_edge, pass_index,
                        )
                        for port, __ in captures
                    ]),
                    pack_times,
                    _packer(len(captures)),
                )
            )
        return tuple(passes)

    def _forget(self, cluster_name: str) -> None:
        """Drop the memos of one cluster: the last run no longer
        repeats."""
        self._holds = False
        for step in self._passes[cluster_name]:
            step.forward.clear()
            step.backward.clear()

    def _ready(
        self, table: ArcTable, step: _Pass, times: List[float]
    ) -> Tuple[List[Optional[float]], int]:
        """The forward sweep's values at ``step``'s designated captures,
        from launch times ``times``: the rise values, then the fall
        values (``None``: not reached); and how many nets it reached."""
        rise, fall, reached = self._sweep_forward(table, table.launches, times)
        ready = [rise[net] for __, net in step.captures]
        ready += [fall[net] for __, net in step.captures]
        return ready, len(reached)

    def _needs(
        self, table: ArcTable, step: _Pass, closures: List[float]
    ) -> List[Optional[float]]:
        """The backward sweep's ``min(need rise, need fall)`` at each
        launch port (``None``: not reached), from the closure times
        ``closures`` of ``step``'s designated captures."""
        rise, fall, __ = self._sweep_backward(table, step.captures, closures)
        return [
            None if rise[net] is None else min(rise[net], fall[net])
            for __, net in table.launches
        ]

    # ------------------------------------------------------------------
    # replay: does a new run of Algorithm 1 repeat the last one?
    # ------------------------------------------------------------------
    def start_run(self) -> None:
        """Start recording a run of Algorithm 1: from here on every
        evaluation's boundary times and values are kept, for
        :meth:`repeats_last_run`.  An engine's first call keeps nothing,
        so the run that makes it never repeats."""
        for steps in self._passes.values():
            for step in steps:
                step.ran_forward.clear()
                step.ran_backward.clear()
        self.runs += 1
        self._holds = self._calls > 0

    def _remember(self) -> None:
        """Give every pass memos and records that keep what they are
        given."""
        for steps in self._passes.values():
            for step in steps:
                step.forward, step.backward = {}, {}
                step.ran_forward, step.ran_backward = {}, {}

    def repeats_last_run(self) -> bool:
        """Whether every boundary value :meth:`port_slacks` evaluated
        since the last run started still holds, bit for bit, under the
        current delay map.

        A run starts from the initial windows, and each of its steps
        reads only those values and the offsets the steps before it
        left.  So when they hold, a new run would repeat the last one
        call for call, and end with its result and windows.  A delay
        swap re-sweeps, for each cluster it changes, exactly the
        boundary times recorded since then, in first-use order, and
        stops at the first value that differs (:meth:`_recheck`).
        """
        if self._model.delays is not self._filled_from:
            self._follow_delays()
        return self._holds

    def _recheck(self, cluster_name: str) -> None:
        """Under new delays, re-sweep the boundary times each (pass,
        direction) of one cluster evaluated since the last run started,
        in first-use order, and keep those values as its memos.  At the
        first value that is not bit for bit the recorded one the last
        run no longer repeats, and the rest of the memos is dropped."""
        table = self.tables[cluster_name]
        for step in self._passes[cluster_name]:
            step.forward = self._resweep(
                step.ran_forward,
                lambda times: self._ready(table, step, times)[0],
            )
            step.backward = self._resweep(
                step.ran_backward,
                lambda closures: self._needs(table, step, closures),
            )

    def _resweep(
        self,
        ran: Dict[bytes, List[Optional[float]]],
        sweep: Callable[[List[float]], List[Optional[float]]],
    ) -> Dict[bytes, List[Optional[float]]]:
        """The new memo of one (pass, direction): ``sweep`` of each key
        of ``ran`` in turn, while every value swept matches the one in
        ``ran``."""
        kept: Dict[bytes, List[Optional[float]]] = {}
        swept = 0
        for key, value in ran.items():
            if not self._holds:
                break
            again = sweep(_unpacked(key))
            if len(kept) >= _MEMO_ENTRIES:
                del kept[next(iter(kept))]
            kept[key] = again
            swept += 1
            self._holds = _identical(value, again)
        if swept:
            obs.counter("slack.rechecks", swept)
        return kept

    # ------------------------------------------------------------------
    # fast path: boundary slacks only (the Algorithm 1/2 inner loop)
    # ------------------------------------------------------------------
    def port_slacks(
        self, capture: bool = True, launch: bool = True
    ) -> PortSlacks:
        """Node slacks at the boundary terminals for the current offsets:
        at the captures (inputs) when ``capture``, at the launches
        (outputs) when ``launch``, at least one of the two.  The dict of
        a direction not asked for stays empty.

        A cluster's forward sweep in a pass depends only on its arc
        delays and its launch times, and its backward sweep only on its
        arc delays and the closure times of the pass's captures.  So a
        capture slack needs no backward sweep and a launch slack no
        forward sweep, and each (cluster, pass, direction) keeps a memo
        from those exact times (packed, so ``-0.0`` and ``0.0`` are
        different keys) to the boundary values the slacks are computed
        from, and sweeps only for times it has not seen since the
        cluster's delays last changed.  The slacks take the same float
        operations in the same order whether the values are swept or
        recalled, and whether the other direction is evaluated or not,
        so the answer is bit-identical to sweeping everything every
        time.  A pass with no capture designated to it yields no slack
        and is not evaluated.

        The first call of an engine stores nothing, in its memos or its
        records (:meth:`start_run`): a one-shot analysis of an intended
        design makes no other, and would pay for a memo it never reads.
        """
        assert capture or launch, "port_slacks() of no direction"
        rec = obs.active()
        if self._model.delays is not self._filled_from:
            self._follow_delays()
        if self._calls == 1:  # the second call: start remembering
            self._remember()
        self._calls += 1
        slacks = PortSlacks(
            dict.fromkeys(self._capture_names, math.inf) if capture else {},
            dict.fromkeys(self._launch_names, math.inf) if launch else {},
        )
        capture_slacks = slacks.capture
        launch_slacks = slacks.launch
        isfinite = math.isfinite
        inf = math.inf
        cluster_passes = forward = backward = visited = reused = 0
        for table in self.tables.values():
            launches = table.launches
            offsets = [port.instance.assertion_offset for port, __ in launches]
            for step in self._passes[table.name]:
                captures = step.captures
                swept = False
                times = [
                    position + offset
                    for position, offset in zip(step.launch_positions, offsets)
                ]
                closures = [
                    position + port.instance.closure_offset
                    for position, (port, __) in zip(
                        step.closure_positions, captures
                    )
                ]
                if capture:
                    memo = step.forward
                    key = step.pack_times(*times)
                    ready = memo.pop(key, None)
                    if ready is None:
                        ready, reached = self._ready(table, step, times)
                        if len(memo) >= _MEMO_ENTRIES:
                            del memo[next(iter(memo))]
                        swept = True
                        forward += 1
                        visited += reached
                    else:
                        reused += 1
                    memo[key] = ready
                    step.ran_forward.setdefault(key, ready)
                    count = len(captures)
                    for k, (port, __) in enumerate(captures):
                        rise = ready[k]
                        fall = ready[count + k]
                        if (
                            rise is not None
                            and isfinite(rise)
                            and isfinite(fall)
                        ):
                            closure = closures[k]
                            slack = min(closure - rise, closure - fall)
                        else:
                            slack = inf
                        name = port.instance.name
                        capture_slacks[name] = min(capture_slacks[name], slack)
                if launch:
                    memo = step.backward
                    key = step.pack_closures(*closures)
                    needs = memo.pop(key, None)
                    if needs is None:
                        needs = self._needs(table, step, closures)
                        if len(memo) >= _MEMO_ENTRIES:
                            del memo[next(iter(memo))]
                        swept = True
                        backward += 1
                    else:
                        reused += 1
                    memo[key] = needs
                    step.ran_backward.setdefault(key, needs)
                    for need, t, (port, __) in zip(needs, times, launches):
                        if need is not None:
                            slack = need - t
                            name = port.instance.name
                            launch_slacks[name] = min(
                                launch_slacks[name], slack
                            )
                if swept:
                    cluster_passes += 1
        if rec is not None:
            rec.counter("slack.evaluations")
            for name, value in (
                ("slack.cluster_passes", cluster_passes),
                ("slack.forward_sweeps", forward),
                ("slack.backward_sweeps", backward),
                ("slack.nodes_visited", visited),
                ("slack.sweeps_reused", reused),
            ):
                if value:
                    rec.counter(name, value)
        return slacks

    def _follow_delays(self) -> None:
        """Bring the memos up to ``model.delays``: re-check
        (:meth:`_recheck`) or, once the last run no longer repeats, drop
        those of every cluster with an arc whose maximum delay is not,
        bit for bit, the one the memos were filled from.

        A map derived from another (:meth:`DelayMap.with_scaled_cell
        <repro.delay.estimator.DelayMap.with_scaled_cell>` and the like)
        shares the float objects of every arc it does not write, so one
        identity pass over the two maps' lists names the candidate arcs,
        and the tables' arc-to-cluster index their clusters.  A map with
        other arcs (not derived from the same estimate) renumbers them:
        the tables are rebuilt and every memo goes.
        """
        new = self._model.delays
        old = self._filled_from
        self._filled_from = new
        if not new.numbering.same_arcs(old.numbering):
            self._build_tables()
            self._holds = False
            if self._calls > 1:
                self._remember()
            return
        owners = self._arc_clusters
        if owners is None:
            owners = self._arc_clusters = [None] * len(new.max_rise)
            for table in self.tables.values():
                for arc in table.arcs:
                    owners[arc[3]] = table.name
        changed: Dict[str, None] = {}
        copysign = math.copysign
        for before, after in (
            (old.max_rise, new.max_rise),
            (old.max_fall, new.max_fall),
        ):
            moved = map(is_not, before, after)
            for arc in compress(range(len(after)), moved):
                name = owners[arc]
                if name is None or name in changed:
                    continue
                was, now = before[arc], after[arc]
                # Equal floats differ only as 0.0 and -0.0.
                if was != now or (
                    was == 0.0 and copysign(1.0, was) != copysign(1.0, now)
                ):
                    changed[name] = None
        for name in changed:
            if self._holds:
                self._recheck(name)
            else:
                self._forget(name)

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
        plan = self._model.plans[cluster_name]
        instance = port.instance
        return _position(
            self._assertion_at, plan.position_assertion, plan,
            instance.assertion_edge, pass_index,
        ) + instance.assertion_offset

    def _closure_time(self, cluster_name: str, port: CapturePort) -> float:
        plan = self._model.plans[cluster_name]
        instance = port.instance
        return _position(
            self._closure_at, plan.position_closure, plan,
            instance.closure_edge, port.pass_index,
        ) + instance.closure_offset

    def _forward(self, table: ArcTable, pass_index: int) -> Sweep:
        """Equation 1: trace ready times forward through the cluster,
        from its launch ports' assertion times in pass ``pass_index``."""
        times = [
            self._assertion_time(table.name, pass_index, port)
            for port, __ in table.launches
        ]
        return self._sweep_forward(table, table.launches, times)

    def _backward(self, table: ArcTable, pass_index: int) -> Sweep:
        """Equation 2: trace required times backward through the
        cluster, from the closure times of the captures designated to
        pass ``pass_index``.  With no such capture nothing is reached."""
        captures = [
            pair for pair in table.captures if pair[0].pass_index == pass_index
        ]
        closures = [
            self._closure_time(table.name, port) for port, __ in captures
        ]
        return self._sweep_backward(table, captures, closures)

    def _sweep_forward(
        self, table: ArcTable, ports: Sequence[tuple], times: List[float]
    ) -> Sweep:
        """The forward sweep from ready time ``times[j]`` at the net of
        the (port, net) pair ``ports[j]`` (the latest where several ports
        share a net).

        The arc loop is the analysis's innermost loop: it runs over the
        flat table with the rise/fall algebra inlined on two float lists
        (see DESIGN.md performance note).
        """
        rise: List[Optional[float]] = [None] * len(table.nets)
        fall: List[Optional[float]] = [None] * len(table.nets)
        reached: List[int] = []
        for (__, net), t in zip(ports, times):
            if rise[net] is None:
                rise[net] = fall[net] = t
                reached.append(net)
            else:
                if t > rise[net]:
                    rise[net] = t
                if t > fall[net]:
                    fall[net] = t
        delays = self._model.delays
        rise_delay, fall_delay = delays.max_rise, delays.max_fall
        for in_net, out_net, sense, arc in table.arcs:
            in_rise = rise[in_net]
            if in_rise is None:
                continue
            in_fall = fall[in_net]
            if sense == 0:  # positive unate
                out_rise = in_rise + rise_delay[arc]
                out_fall = in_fall + fall_delay[arc]
            elif sense == 1:  # negative unate: output rise from input fall
                out_rise = in_fall + rise_delay[arc]
                out_fall = in_rise + fall_delay[arc]
            else:  # non-unate: worst input transition drives both
                worst = in_rise if in_rise >= in_fall else in_fall
                out_rise = worst + rise_delay[arc]
                out_fall = worst + fall_delay[arc]
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

    def _sweep_backward(
        self, table: ArcTable, ports: Sequence[tuple], closures: List[float]
    ) -> Sweep:
        """The backward sweep from required time ``closures[k]`` at the
        net of the (port, net) pair ``ports[k]`` (the earliest where
        several ports share a net)."""
        rise: List[Optional[float]] = [None] * len(table.nets)
        fall: List[Optional[float]] = [None] * len(table.nets)
        reached: List[int] = []
        for (__, net), closure in zip(ports, closures):
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
        delays = self._model.delays
        rise_delay, fall_delay = delays.max_rise, delays.max_fall
        for in_net, out_net, sense, arc in reversed(table.arcs):
            out_rise = rise[out_net]
            if out_rise is None:
                continue
            out_rise -= rise_delay[arc]
            out_fall = fall[out_net] - fall_delay[arc]
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
