"""The slack engine's indexed arc-table sweeps against dict references.

The references below are the engine and slow-path tracer the arc table
replaced, kept here unchanged in arithmetic: ready and required times
as ``Dict[str, RiseFall]`` swept over per-arc tuples of cells, pins and
net names, boundary slacks and cluster detail built on them, and a
tracer that runs a full :meth:`cluster_detail` and rebuilds its driver
index for every path.  Every comparison is bit for bit (``float.hex``),
and dict comparisons include key order:

* every :meth:`SlackEngine.port_slacks` call Algorithm 1 makes, in
  each direction it asks for (the other must be empty);
* :meth:`SlackEngine.cluster_detail` of every cluster after analysis;
* :func:`extract_slow_paths` (as analysed, and over every capture) and
  :func:`trace_endpoint_path` for every capture port;

on the Table 1 generators, the paper's figure and ring designs, random
latch and flip-flop designs, the pre-processing oracle's corner-case
designs, 30 incremental delay swaps, and hand-built cases (NaN and
infinite arcs, split rise/fall maxima, non-unate arcs, an unreached
capture, several launch ports on one net).  A count guard checks that
slow-path extraction takes one forward sweep per violated cluster pass.

The memo of :meth:`SlackEngine.port_slacks` is checked against an
engine that forgets it before every call (edit sequences on the e2e
edit-loop and violator designs), and against a fresh engine after
every kind of delay map, a window move and a ``-0.0`` boundary time.

Algorithm 1 and 2 ask each call for only the direction its transfer
step reads.  Their answers are checked against an engine that evaluates
both directions on every call, Algorithm 1's one-direction verdict
against the verdict of both (hypothesis), and a count guard checks that
only the first and the final call of an edit-loop run evaluate both.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, List, Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.cells import standard_library
from repro.clocks import ClockSchedule
from repro.core.algorithm2 import run_algorithm2
from repro.core.analyzer import Hummingbird
from repro.core.incremental import IncrementalAnalyzer
from repro.core.report import (
    PathStep,
    SlowPath,
    _TRACE_TOLERANCE,
    extract_slow_paths,
    trace_endpoint_path,
)
from repro.core.slack import (
    _MEMO_ENTRIES,
    ClusterDetail,
    PassDetail,
    PortSlacks,
    SlackEngine,
)
from repro.delay import DelayMap, estimate_delays
from repro.generators import fig1_circuit, loop_of_latches, random_design
from repro.generators.alu import generate_alu
from repro.generators.des import generate_des
from repro.generators.fsm import generate_sm1f, generate_sm1h
from repro.netlist import NetworkBuilder
from repro.netlist.kinds import CellRole, Unateness
from repro.report.manifest import manifest_digest
from repro.rftime import RiseFall

from tests.core.test_preprocess_oracle import DESIGNS as PREPROCESS_DESIGNS


# ----------------------------------------------------------------------
# references: the dict-based sweeps and the per-path tracer
# ----------------------------------------------------------------------
_SENSE_CODES = {
    Unateness.POSITIVE: 0,
    Unateness.NEGATIVE: 1,
    Unateness.NON_UNATE: 2,
}


class Reference:
    """Dict-based slack evaluation and slow-path tracing of one model.

    Positions of boundary edges come from ``engine`` (pure clock
    arithmetic); delays are read from the model at every sweep.  While
    :attr:`memo` is a dict, the tracer keeps each cluster's detail and
    driver map in it: set it only while the offsets hold still.
    """

    def __init__(self, model, engine: SlackEngine) -> None:
        self.model = model
        self.engine = engine
        self.memo: Optional[Dict[str, tuple]] = None
        # Per cluster: ((cell name, in_pin, out_pin), in_net, out_net,
        # sense code) in topological order.  The first item is the key
        # :meth:`DelayMap.arc_delay` looks the arc up by.
        self.cluster_arcs = {}
        for cluster in model.clusters:
            arcs = []
            for cell in cluster.cells:
                for in_pin, out_pin in model.delays.arcs_of(cell):
                    in_net = cell.terminal(in_pin).net
                    out_net = cell.terminal(out_pin).net
                    if in_net is None or out_net is None:
                        continue
                    arcs.append(
                        (
                            (cell.name, in_pin, out_pin),
                            in_net.name,
                            out_net.name,
                            _SENSE_CODES[
                                model.delays.arc_unateness(
                                    cell, in_pin, out_pin
                                )
                            ],
                        )
                    )
            self.cluster_arcs[cluster.name] = tuple(arcs)

    # -- boundary slacks ----------------------------------------------
    def port_slacks(self) -> PortSlacks:
        slacks = PortSlacks()
        for instance in self.model.all_instances():
            if instance.has_input:
                slacks.capture.setdefault(instance.name, math.inf)
            if instance.has_output:
                slacks.launch.setdefault(instance.name, math.inf)
        for cluster in self.model.clusters:
            self._cluster_port_slacks(cluster, slacks)
        return slacks

    def _cluster_port_slacks(self, cluster, slacks: PortSlacks) -> None:
        model, engine = self.model, self.engine
        plan = model.plans[cluster.name]
        launches = model.launch_ports[cluster.name]
        captures = model.capture_ports[cluster.name]
        for pass_index in range(plan.num_passes):
            designated = [c for c in captures if c.pass_index == pass_index]
            arrival = self._forward(cluster, launches, pass_index)
            required: Dict[str, RiseFall] = {}
            for port in designated:
                closure = engine._closure_time(cluster.name, port)
                ready = arrival.get(port.net_name)
                if ready is not None and ready.is_finite():
                    slack = min(closure - ready.rise, closure - ready.fall)
                else:
                    slack = math.inf
                name = port.instance.name
                slacks.capture[name] = min(slacks.capture[name], slack)
                existing = required.get(port.net_name)
                pair = RiseFall.both(closure)
                required[port.net_name] = (
                    pair if existing is None else existing.min_with(pair)
                )
            if not required:
                continue
            self._backward(cluster, required)
            for port in launches:
                need = required.get(port.net_name)
                if need is None:
                    continue
                t = engine._assertion_time(cluster.name, pass_index, port)
                slack = need.best - t
                name = port.instance.name
                slacks.launch[name] = min(slacks.launch[name], slack)

    # -- full detail ----------------------------------------------------
    def _cluster_detail(self, cluster) -> ClusterDetail:
        model, engine = self.model, self.engine
        plan = model.plans[cluster.name]
        launches = model.launch_ports[cluster.name]
        captures = model.capture_ports[cluster.name]
        details: List[PassDetail] = []
        for pass_index in range(plan.num_passes):
            arrival = self._forward(cluster, launches, pass_index)
            required: Dict[str, RiseFall] = {}
            for port in captures:
                if port.pass_index != pass_index:
                    continue
                closure = engine._closure_time(cluster.name, port)
                pair = RiseFall.both(closure)
                existing = required.get(port.net_name)
                required[port.net_name] = (
                    pair if existing is None else existing.min_with(pair)
                )
            self._backward(cluster, required)
            details.append(
                PassDetail(
                    pass_index=pass_index,
                    break_time=float(plan.breaks[pass_index]),
                    ready=arrival,
                    required=required,
                )
            )
        return ClusterDetail(cluster_name=cluster.name, passes=details)

    # -- sweeps ---------------------------------------------------------
    def _forward(self, cluster, launches, pass_index) -> Dict[str, RiseFall]:
        arc_max = self.model.delays._arc_max
        arrival: Dict[str, RiseFall] = {}
        for port in launches:
            t = self.engine._assertion_time(cluster.name, pass_index, port)
            pair = RiseFall.both(t)
            existing = arrival.get(port.net_name)
            arrival[port.net_name] = (
                pair if existing is None else existing.max_with(pair)
            )
        get = arrival.get
        for key, in_net, out_net, sense in self.cluster_arcs[cluster.name]:
            at_input = get(in_net)
            if at_input is None:
                continue
            delay = arc_max[key]
            if sense == 0:
                rise = at_input.rise + delay.rise
                fall = at_input.fall + delay.fall
            elif sense == 1:
                rise = at_input.fall + delay.rise
                fall = at_input.rise + delay.fall
            else:
                worst = (
                    at_input.rise
                    if at_input.rise >= at_input.fall
                    else at_input.fall
                )
                rise = worst + delay.rise
                fall = worst + delay.fall
            existing = get(out_net)
            if existing is None:
                arrival[out_net] = RiseFall(rise, fall)
            elif rise > existing.rise or fall > existing.fall:
                arrival[out_net] = RiseFall(
                    rise if rise > existing.rise else existing.rise,
                    fall if fall > existing.fall else existing.fall,
                )
        return arrival

    def _backward(self, cluster, required: Dict[str, RiseFall]) -> None:
        arc_max = self.model.delays._arc_max
        get = required.get
        for key, in_net, out_net, sense in reversed(
            self.cluster_arcs[cluster.name]
        ):
            at_output = get(out_net)
            if at_output is None:
                continue
            delay = arc_max[key]
            out_rise = at_output.rise - delay.rise
            out_fall = at_output.fall - delay.fall
            if sense == 0:
                rise, fall = out_rise, out_fall
            elif sense == 1:
                rise, fall = out_fall, out_rise
            else:
                best = out_rise if out_rise <= out_fall else out_fall
                rise = fall = best
            existing = get(in_net)
            if existing is None:
                required[in_net] = RiseFall(rise, fall)
            elif rise < existing.rise or fall < existing.fall:
                required[in_net] = RiseFall(
                    rise if rise < existing.rise else existing.rise,
                    fall if fall < existing.fall else existing.fall,
                )

    # -- slow paths -----------------------------------------------------
    def extract_slow_paths(
        self,
        capture_slacks: Dict[str, float],
        tolerance: float = 0.0,
        limit: Optional[int] = 50,
    ) -> List[SlowPath]:
        violations = []
        for cluster in self.model.clusters:
            for port in self.model.capture_ports[cluster.name]:
                slack = capture_slacks.get(port.instance.name, math.inf)
                if slack <= tolerance:
                    violations.append((slack, port))
        violations.sort(key=lambda item: item[0])
        if limit is not None:
            violations = violations[:limit]
        paths = []
        for slack, port in violations:
            path = self.trace_endpoint_path(port, slack)
            if path is not None:
                paths.append(path)
        return paths

    def trace_endpoint_path(self, port, slack: float) -> Optional[SlowPath]:
        for cluster in self.model.clusters:
            if cluster.name == port.cluster_name:
                return self._trace_path(cluster, port, slack)
        return None

    def _trace_path(self, cluster, port, slack: float) -> Optional[SlowPath]:
        detail, cells_by_out_net = self._tracing_inputs(cluster)
        ready = detail.passes[port.pass_index].ready
        at_capture = ready.get(port.net_name)
        if at_capture is None or not at_capture.is_finite():
            return None
        closure = self.engine._closure_time(cluster.name, port)
        transition = "rise" if at_capture.rise >= at_capture.fall else "fall"
        net_name = port.net_name
        steps: List[PathStep] = []
        guard = len(cluster.cells) + 2
        while guard > 0:
            guard -= 1
            hop = self._find_driving_arc(
                cells_by_out_net, ready, net_name, transition
            )
            if hop is None:
                break
            cell_name, in_pin, out_pin, in_net, in_transition = hop
            steps.append(
                PathStep(
                    cell_name=cell_name,
                    in_pin=in_pin,
                    out_pin=out_pin,
                    net_name=net_name,
                    arrival=getattr(ready[net_name], transition),
                )
            )
            net_name = in_net
            transition = in_transition
        launch = self._launch_at(cluster, port.pass_index, net_name, ready)
        return SlowPath(
            cluster=cluster.name,
            pass_index=port.pass_index,
            launch_instance=launch,
            capture_instance=port.instance.name,
            capture_net=port.net_name,
            slack=slack,
            arrival=at_capture.worst,
            closure=closure,
            steps=tuple(steps),
        )

    def _tracing_inputs(self, cluster):
        if self.memo is not None and cluster.name in self.memo:
            return self.memo[cluster.name]
        inputs = (
            self._cluster_detail(cluster),
            self._cells_by_output_net(cluster),
        )
        if self.memo is not None:
            self.memo[cluster.name] = inputs
        return inputs

    def _cells_by_output_net(self, cluster) -> Dict[str, List]:
        by_net: Dict[str, List] = {}
        for cell in cluster.cells:
            for in_pin, out_pin in self.model.delays.arcs_of(cell):
                out_net = cell.terminal(out_pin).net
                if out_net is not None:
                    by_net.setdefault(out_net.name, []).append(
                        (cell, in_pin, out_pin)
                    )
        return by_net

    def _find_driving_arc(self, cells_by_out_net, ready, net_name, transition):
        delays = self.model.delays
        target = getattr(ready.get(net_name, RiseFall.never()), transition)
        if not math.isfinite(target):
            return None
        for cell, in_pin, out_pin in cells_by_out_net.get(net_name, ()):
            in_net = cell.terminal(in_pin).net
            if in_net is None:
                continue
            at_input = ready.get(in_net.name)
            if at_input is None:
                continue
            sense = delays.arc_unateness(cell, in_pin, out_pin)
            value = at_input.through_arc(sense).plus(
                delays.arc_delay(cell, in_pin, out_pin)
            )
            if abs(getattr(value, transition) - target) > _TRACE_TOLERANCE:
                continue
            in_transition = _input_transition(sense, transition, at_input)
            return cell.name, in_pin, out_pin, in_net.name, in_transition
        return None

    def _launch_at(self, cluster, pass_index, net_name, ready):
        target = ready.get(net_name)
        if target is None:
            return None
        launches = self.model.launch_ports[cluster.name]
        for port in launches:
            if port.net_name != net_name:
                continue
            t = self.engine._assertion_time(cluster.name, pass_index, port)
            if abs(t - target.worst) <= _TRACE_TOLERANCE:
                return port.instance.name
        for port in launches:
            if port.net_name == net_name:
                return port.instance.name
        return None


def _input_transition(sense, transition: str, at_input: RiseFall) -> str:
    if sense is Unateness.POSITIVE:
        return transition
    if sense is Unateness.NEGATIVE:
        return "fall" if transition == "rise" else "rise"
    return "rise" if at_input.rise >= at_input.fall else "fall"


# ----------------------------------------------------------------------
# bit-exact views
# ----------------------------------------------------------------------
def _hex(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def slacks_view(slacks: PortSlacks):
    return tuple(
        tuple((name, _hex(value)) for name, value in side.items())
        for side in (slacks.capture, slacks.launch)
    )


def pairs_view(pairs: Dict[str, RiseFall]):
    return [
        (name, _hex(value.rise), _hex(value.fall))
        for name, value in pairs.items()
    ]


def detail_view(detail: ClusterDetail):
    return (
        detail.cluster_name,
        [
            (
                p.pass_index,
                _hex(p.break_time),
                pairs_view(p.ready),
                pairs_view(p.required),
            )
            for p in detail.passes
        ],
    )


def path_view(path: Optional[SlowPath]):
    if path is None:
        return None
    return (
        path.cluster,
        path.pass_index,
        path.launch_instance,
        path.capture_instance,
        path.capture_net,
        _hex(path.slack),
        _hex(path.arrival),
        _hex(path.closure),
        tuple(
            (s.cell_name, s.in_pin, s.out_pin, s.net_name, _hex(s.arrival))
            for s in path.steps
        ),
    )


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
class Checked:
    """An analyser whose every ``port_slacks()`` call is recorded next
    to the reference's answer for the same offsets."""

    def __init__(self, analyzer) -> None:
        self.analyzer = analyzer
        self.calls: List[tuple] = []
        self.engine: Optional[SlackEngine] = None
        self.watch()

    def watch(self) -> None:
        """(Re-)instrument the analyser's current engine."""
        engine = self.analyzer.engine
        if engine is self.engine:
            return
        self.engine = engine
        self.reference = Reference(self.analyzer.model, engine)
        original = engine.port_slacks

        def port_slacks(
            capture: bool = True, launch: bool = True
        ) -> PortSlacks:
            ours = original(capture=capture, launch=launch)
            theirs = self.reference.port_slacks()
            # Each direction asked for against the reference's; the one
            # not asked for must be empty.
            self.calls.append(
                (
                    slacks_view(ours),
                    slacks_view(
                        PortSlacks(
                            theirs.capture if capture else {},
                            theirs.launch if launch else {},
                        )
                    ),
                )
            )
            return ours

        engine.port_slacks = port_slacks

    def assert_agrees(self, result) -> None:
        """Every recorded call, then detail and slow paths at the final
        offsets of ``result``."""
        assert self.calls, "Algorithm 1 made no port_slacks() call"
        for index, (ours, theirs) in enumerate(self.calls):
            assert ours == theirs, f"port_slacks call {index}"
        self.calls.clear()
        model, engine = self.analyzer.model, self.engine
        reference = self.reference
        for cluster in model.clusters:
            assert detail_view(engine.cluster_detail(cluster)) == detail_view(
                reference._cluster_detail(cluster)
            ), cluster.name
        capture = result.algorithm1.slacks.capture
        reference.memo = {}
        assert [path_view(p) for p in result.slow_paths] == [
            path_view(p) for p in reference.extract_slow_paths(capture)
        ]
        everything = dict(tolerance=math.inf, limit=None)
        assert [
            path_view(p)
            for p in extract_slow_paths(model, engine, capture, **everything)
        ] == [
            path_view(p)
            for p in reference.extract_slow_paths(capture, **everything)
        ]
        for cluster in model.clusters:
            for port in model.capture_ports[cluster.name]:
                slack = capture.get(port.instance.name, math.inf)
                assert path_view(
                    trace_endpoint_path(model, engine, port, slack)
                ) == path_view(reference.trace_endpoint_path(port, slack))
        reference.memo = None


def check(network, schedule, delays: Optional[DelayMap] = None) -> Checked:
    checked = Checked(Hummingbird(network, schedule, delays=delays))
    checked.assert_agrees(checked.analyzer.analyze())
    return checked


def violator():
    return random_design(
        2026, n_banks=8, gates_per_bank=400, bits=8, style="latch"
    )


DESIGNS = {
    "DES": generate_des,
    "ALU": generate_alu,
    "SM1F": generate_sm1f,
    "SM1H": generate_sm1h,
    "fig1": fig1_circuit,
    "violator": violator,
    "loop_of_latches": loop_of_latches,
    "ff": lambda: random_design(
        6, n_banks=3, gates_per_bank=60, bits=6, style="ff"
    ),
    "bus": PREPROCESS_DESIGNS["bus"],
    "clock_tree": PREPROCESS_DESIGNS["clock_tree"],
    "multi_frequency": PREPROCESS_DESIGNS["multi_frequency"],
}


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_agrees_with_reference(design):
    check(*DESIGNS[design]())


def edit_loop_design():
    return random_design(
        2026, n_banks=4, gates_per_bank=150, bits=8, style="latch"
    )


def _gates(network) -> List[str]:
    return sorted(
        c.name for c in network.cells if c.role is CellRole.COMBINATIONAL
    )


def _edit(rng: random.Random, cells: List[str]):
    """One random edit of the e2e edit loop: (cell, scale factor)."""
    return rng.choice(cells), round(rng.uniform(1.01, 1.15), 3)


def test_incremental_delay_swaps():
    """The edit loop's design through 30 one-cell delay swaps: the
    engine reads each swapped delay map with no rebuild, and answers
    most cluster evaluations from its memo."""
    network, schedule = edit_loop_design()
    analyzer = IncrementalAnalyzer(network, schedule)
    checked = Checked(analyzer)
    checked.assert_agrees(analyzer.timing_result())
    cells = _gates(network)
    rng = random.Random(0)
    with obs.recording() as rec:
        for __ in range(30):
            analyzer.scale_cell(*_edit(rng, cells))
            checked.watch()
            checked.assert_agrees(analyzer.timing_result())
    assert analyzer.swaps + analyzer.rebuilds == 30
    assert analyzer.swaps > 0
    reused = rec.counters["slack.sweeps_reused"]
    swept = (
        rec.counters["slack.forward_sweeps"]
        + rec.counters["slack.backward_sweeps"]
    )
    assert reused > swept > 0


# ----------------------------------------------------------------------
# the boundary memo of port_slacks()
# ----------------------------------------------------------------------
class FullSweeps(SlackEngine):
    """An engine that forgets its memo before every call, so every
    cluster evaluation sweeps."""

    def port_slacks(
        self, capture: bool = True, launch: bool = True
    ) -> PortSlacks:
        for name in self.tables:
            self._forget(name)
        return super().port_slacks(capture, launch)


class FullSweepAnalyzer(IncrementalAnalyzer):
    def _build(self) -> None:
        super()._build()
        self.engine = FullSweeps(self.model)


def _recording_calls(engine: SlackEngine) -> List[tuple]:
    """Every later ``port_slacks()`` call of ``engine``: the directions
    asked for, and the answer bit-exact."""
    calls: List[tuple] = []
    method = type(engine).port_slacks

    def port_slacks(capture: bool = True, launch: bool = True) -> PortSlacks:
        slacks = method(engine, capture, launch)
        calls.append(((capture, launch), slacks_view(slacks)))
        return slacks

    engine.port_slacks = port_slacks
    return calls


def _answer(analyzer) -> tuple:
    calls = _recording_calls(analyzer.engine)
    result = analyzer.timing_result()
    return (
        calls,
        result.intended,
        result.algorithm1.iterations,
        manifest_digest(result.manifest()),
    )


@pytest.mark.parametrize(
    "design, edits", [(edit_loop_design, 50), (violator, 5)]
)
def test_memo_equals_full_sweeps(design, edits):
    """Every port_slacks() answer, verdict, iteration count and
    manifest digest of an edit sequence equals that of an engine that
    sweeps every cluster on every call."""
    network, schedule = design()
    ours = IncrementalAnalyzer(network, schedule)
    full = FullSweepAnalyzer(network, schedule)
    assert _answer(ours) == _answer(full)
    cells = _gates(network)
    rng = random.Random(1)
    for edit in range(edits):
        cell, factor = _edit(rng, cells)
        ours.scale_cell(cell, factor)
        full.scale_cell(cell, factor)
        assert _answer(ours) == _answer(full), edit


def _agrees_with_fresh_engine(model, engine) -> tuple:
    view = slacks_view(engine.port_slacks())
    assert view == slacks_view(SlackEngine(model).port_slacks())
    return view


def test_memo_follows_every_kind_of_delay_map():
    network, schedule = edit_loop_design()
    analyzer = Hummingbird(network, schedule)
    analyzer.analyze()
    model, engine = analyzer.model, analyzer.engine
    original = model.delays
    before = _agrees_with_fresh_engine(model, engine)
    (cell, in_pin, out_pin), = _gate_arcs(network, original, 1)
    maps = {
        "arc_override": original.with_arc_override(
            cell, in_pin, out_pin, RiseFall(50.0, 50.0)
        ),
        "globally_scaled": original.globally_scaled(1.5),
        "re_estimated": estimate_delays(network),
        "scaled_cell": original.with_scaled_cell(cell, 3.0),
        "original": original,
    }
    for name, delays in maps.items():
        model.delays = delays
        view = _agrees_with_fresh_engine(model, engine)
        assert (view == before) == (name in ("re_estimated", "original")), (
            name
        )
        # Again, from the memo just filled.
        assert _agrees_with_fresh_engine(model, engine) == view, name


def test_memo_follows_scale_cell():
    network, schedule = edit_loop_design()
    analyzer = IncrementalAnalyzer(network, schedule)
    analyzer.analyze()
    before = _agrees_with_fresh_engine(analyzer.model, analyzer.engine)
    cell = next(
        name for name in _gates(network)
        if name not in analyzer._control_cells
    )
    analyzer.scale_cell(cell, 10.0)
    assert analyzer.swaps == 1
    after = _agrees_with_fresh_engine(analyzer.model, analyzer.engine)
    assert after != before


def test_memo_follows_windows():
    """Algorithm 2 (time snatching on a violating design) and a window
    reset move the offsets under a filled memo."""
    network, schedule = violator()
    analyzer = Hummingbird(network, schedule)
    analyzer.analyze()
    model, engine = analyzer.model, analyzer.engine
    analyzed = _agrees_with_fresh_engine(model, engine)
    run_algorithm2(model, engine)
    constrained = _agrees_with_fresh_engine(model, engine)
    model.reset_windows()
    reset = _agrees_with_fresh_engine(model, engine)
    assert len({analyzed, constrained, reset}) == 3


def test_memo_tells_negative_zero_from_zero():
    """A launch time of -0.0 is a new boundary time, not a hit on 0.0.

    Clock positions are never -0.0, so the pad's position is set to
    -0.0 by hand, in the engine under test and in the fresh one alike;
    the pad's offset then picks the sign of its launch time."""
    network, schedule = _two_input_stage("AND2", 2.0)
    model = Hummingbird(network, schedule).model
    (pad,) = model.instances["din"]

    def negative_zero_position(engine: SlackEngine) -> SlackEngine:
        (name,) = [
            name for name, table in engine.tables.items()
            if any(port.instance is pad for port, __ in table.launches)
        ]
        for step in engine._passes[name]:
            step.launch_positions = (-0.0,)
        return engine

    engine = negative_zero_position(SlackEngine(model))
    pad.fixed_offset = 0.0  # launch time -0.0 + 0.0 == 0.0
    engine.port_slacks()
    engine.port_slacks()  # the first call keeps nothing; this one does
    pad.fixed_offset = -0.0  # launch time -0.0 + -0.0 == -0.0
    with obs.recording() as rec:
        view = slacks_view(engine.port_slacks())
    assert rec.counters["slack.forward_sweeps"] == 1
    fresh = negative_zero_position(SlackEngine(model))
    assert view == slacks_view(fresh.port_slacks())


def test_one_shot_analysis_keeps_no_memo():
    """An intended design converges in one port_slacks() call, so the
    memo would be pure overhead: the first call keeps nothing."""
    network, schedule = generate_sm1f()
    analyzer = Hummingbird(network, schedule)
    result = analyzer.analyze()
    assert result.intended and result.algorithm1.iterations.total == 0
    assert not any(
        step.forward or step.backward
        for passes in analyzer.engine._passes.values()
        for step in passes
    )


def test_memo_stays_bounded():
    """300 edits fill some memo to the bound and none past it."""
    network, schedule = edit_loop_design()
    analyzer = IncrementalAnalyzer(network, schedule)
    cells = _gates(network)
    rng = random.Random(2)
    for __ in range(300):
        analyzer.scale_cell(*_edit(rng, cells))
        analyzer.analyze()
    sizes = [
        len(memo)
        for passes in analyzer.engine._passes.values()
        for step in passes
        for memo in (step.forward, step.backward)
    ]
    assert max(sizes) == _MEMO_ENTRIES


# ----------------------------------------------------------------------
# hand-built cases
# ----------------------------------------------------------------------
def _small_latch_design():
    return random_design(5, n_banks=3, gates_per_bank=60, bits=6)


def _gate_arcs(network, delays: DelayMap, count: int):
    """The first arc of every few combinational cells."""
    gates = [c for c in network.cells if c.role is CellRole.COMBINATIONAL]
    step = max(1, len(gates) // count)
    return [(c.name, *delays.arcs_of(c)[0]) for c in gates[::step][:count]]


SPECIAL = {
    "nan_rise": RiseFall(math.nan, 1.0),
    "nan_fall": RiseFall(1.0, math.nan),
    "nan_both": RiseFall(math.nan, math.nan),
    "inf_rise": RiseFall(math.inf, 1.0),
    "inf_fall": RiseFall(0.5, math.inf),
    "neg_inf": RiseFall(-math.inf, 2.0),
    "inf_and_neg_inf": RiseFall(math.inf, -math.inf),
}


def _special_delays(network, value: str) -> DelayMap:
    """Estimated delays with the first arc of six gates set to
    ``SPECIAL[value]``."""
    delays = estimate_delays(network)
    for cell, in_pin, out_pin in _gate_arcs(network, delays, 6):
        delays = delays.with_arc_override(
            cell, in_pin, out_pin, SPECIAL[value]
        )
    return delays


@pytest.mark.parametrize("value", sorted(SPECIAL))
def test_special_arc_delays(value):
    network, schedule = _small_latch_design()
    check(network, schedule, _special_delays(network, value))


def _two_input_stage(gate: str, period: float):
    """Two flip-flops (``a`` behind three inverters) feed one two-input
    gate whose output is captured."""
    b = NetworkBuilder(standard_library(), name=f"{gate.lower()}_stage")
    b.clock("clk")
    b.input("din", "n_in", clock="clk")
    b.latch("ff_a", "DFF", D="n_in", CK="clk", Q="a0")
    b.latch("ff_b", "DFF", D="n_in", CK="clk", Q="b0")
    for i in range(3):
        b.gate(f"inv{i}", "INV", A=f"a{i}", Z=f"a{i + 1}")
    b.gate("g", gate, A="a3", B="b0", Z="z")
    b.latch("ff_z", "DFF", D="z", CK="clk", Q="q")
    b.output("dout", "q", clock="clk")
    return b.build(), ClockSchedule.single("clk", period)


def test_rise_and_fall_maxima_from_different_arcs():
    network, schedule = _two_input_stage("NAND2", 2.0)
    delays = estimate_delays(network)
    # A drives the latest rise, B the latest fall (NAND2 is inverting).
    delays = delays.with_arc_override("g", "A", "Z", RiseFall(5.0, 0.1))
    delays = delays.with_arc_override("g", "B", "Z", RiseFall(0.1, 7.0))
    checked = check(network, schedule, delays)
    engine = checked.analyzer.engine
    cluster = next(
        c for c in checked.analyzer.model.clusters
        if "z" in engine.tables[c.name].nets
    )
    ready = engine.cluster_detail(cluster).passes[0].ready
    assert ready["z"].rise == ready["a3"].fall + 5.0
    assert ready["z"].fall == ready["b0"].rise + 7.0
    assert not checked.analyzer._last_result.intended


@pytest.mark.parametrize("gate", ["XOR2", "XNOR2"])
def test_non_unate_arc(gate):
    network, schedule = _two_input_stage(gate, 2.0)
    delays = estimate_delays(network)
    assert delays.arc_unateness(
        network.cell("g"), "A", "Z"
    ) is Unateness.NON_UNATE
    # Unequal rise/fall on the path into the non-unate arc.
    delays = delays.with_arc_override("inv2", "A", "Z", RiseFall(0.3, 1.9))
    checked = check(network, schedule, delays)
    result = checked.analyzer._last_result
    assert any(
        step.cell_name == "g" for p in result.slow_paths for step in p.steps
    )


def test_nan_delay_on_a_non_unate_arc():
    """Backward through a non-unate arc with a NaN rise delay: the
    comparison that picks the tighter requirement sees the NaN."""
    network, schedule = _two_input_stage("XOR2", 2.0)
    delays = estimate_delays(network).with_arc_override(
        "g", "A", "Z", RiseFall(math.nan, 1.0)
    )
    check(network, schedule, delays)


def test_nan_arrival_into_a_non_unate_arc():
    """The tracer meets a NaN input arrival on a non-unate arc while
    the other input sets the output's arrival: a NaN never fails the
    tolerance test, so the arc order decides the step."""
    network, schedule = _two_input_stage("XOR2", 2.0)
    delays = estimate_delays(network)
    delays = delays.with_arc_override(
        "inv2", "A", "Z", RiseFall(math.nan, 0.3)
    )
    delays = delays.with_arc_override("g", "B", "Z", RiseFall(9.0, 9.0))
    checked = check(network, schedule, delays)
    (path,) = [
        p
        for p in checked.analyzer._last_result.slow_paths
        if p.capture_net == "z"
    ]
    assert path.steps[0].cell_name == "g"


def test_capture_net_no_launch_reaches():
    """A gate with no timing arcs cuts its output off from every launch:
    the capture behind it has no ready time and infinite slack."""
    network, schedule = _two_input_stage("AND2", 2.0)
    delays = estimate_delays(network)
    cut = DelayMap(
        delays._arc_max,
        delays._arc_min,
        delays._arc_sense,
        {**delays._cell_arcs, "g": ()},
        {**delays._arc_keys, "g": ()},
        delays._sync,
    )
    checked = check(network, schedule, cut)
    engine = checked.analyzer.engine
    table = next(t for t in engine.tables.values() if "z" in t.nets)
    assert any(table.nets[net] == "z" for __, net in table.captures)
    for pass_index in range(table.num_passes):
        rise, fall, reached = engine._forward(table, pass_index)
        assert rise[table.nets.index("z")] is None
    assert checked.analyzer._last_result.algorithm1.slacks.capture[
        "ff_z@0"
    ] == math.inf


def test_two_launch_ports_on_one_net():
    network, schedule = PREPROCESS_DESIGNS["multi_frequency"]()
    checked = check(network, schedule)
    nets = [
        net
        for table in checked.analyzer.engine.tables.values()
        for __, net in table.launches
    ]
    assert len(nets) > len(set(nets))


# ----------------------------------------------------------------------
# the direction flags of port_slacks()
# ----------------------------------------------------------------------
class BothDirections(SlackEngine):
    """An engine that ignores the direction flags: every call evaluates
    the capture and the launch slacks."""

    def port_slacks(
        self, capture: bool = True, launch: bool = True
    ) -> PortSlacks:
        return super().port_slacks()


class BothDirectionsAnalyzer(IncrementalAnalyzer):
    def _build(self) -> None:
        super()._build()
        self.engine = BothDirections(self.model)


def _analysis_view(result) -> tuple:
    outcome = result.algorithm1
    return (
        slacks_view(outcome.slacks),
        outcome.iterations,
        result.intended,
        outcome.converged,
        [path_view(p) for p in result.slow_paths],
        manifest_digest(result.manifest()),
    )


def _constraints_view(model, engine) -> tuple:
    constraints = run_algorithm2(model, engine).constraints
    return tuple(
        [
            (
                name,
                [
                    (e.cluster, e.pass_index, _hex(e.value.rise),
                     _hex(e.value.fall))
                    for e in entries
                ],
            )
            for name, entries in side.items()
        ]
        for side in (constraints.ready, constraints.required)
    )


def _agrees_with_both_directions(network, schedule, delays=None) -> None:
    ours = Hummingbird(network, schedule, delays=delays)
    both = Hummingbird(network, schedule, delays=delays)
    both.engine = BothDirections(both.model)
    assert _analysis_view(ours.analyze()) == _analysis_view(both.analyze())
    assert _constraints_view(ours.model, ours.engine) == _constraints_view(
        both.model, both.engine
    )


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_one_direction_equals_both(design):
    """Algorithm 1's answer and Algorithm 2's ready and required times
    do not depend on which directions each call evaluates."""
    _agrees_with_both_directions(*DESIGNS[design]())


@pytest.mark.parametrize("value", sorted(SPECIAL))
def test_one_direction_equals_both_on_special_arcs(value):
    network, schedule = _small_latch_design()
    _agrees_with_both_directions(
        network, schedule, _special_delays(network, value)
    )


def test_one_direction_equals_both_through_edits():
    network, schedule = edit_loop_design()
    ours = IncrementalAnalyzer(network, schedule)
    both = BothDirectionsAnalyzer(network, schedule)
    cells = _gates(network)
    rng = random.Random(3)
    for edit in range(50):
        cell, factor = _edit(rng, cells)
        ours.scale_cell(cell, factor)
        both.scale_cell(cell, factor)
        assert _analysis_view(ours.timing_result()) == _analysis_view(
            both.timing_result()
        ), edit
    assert _constraints_view(ours.model, ours.engine) == _constraints_view(
        both.model, both.engine
    )


class _Fixed:
    """An engine at fixed offsets: answers every call from ``slacks``,
    with the dict of a direction not asked for empty."""

    def __init__(self, capture: Dict[str, float], launch: Dict[str, float]):
        self.slacks = PortSlacks(capture, launch)
        self.calls = 0

    def port_slacks(
        self, capture: bool = True, launch: bool = True
    ) -> PortSlacks:
        self.calls += 1
        return PortSlacks(
            dict(self.slacks.capture) if capture else {},
            dict(self.slacks.launch) if launch else {},
        )


_SLACK_EDGES = [math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -1.0]
_slack_values = st.one_of(st.sampled_from(_SLACK_EDGES), st.floats())
_slack_dicts = st.lists(_slack_values, max_size=5).map(
    lambda values: {f"i{k}": value for k, value in enumerate(values)}
)


@given(_slack_dicts, _slack_dicts)
def test_lazy_verdict_is_exact(capture, launch):
    """Algorithm 1 decides ``all_positive()`` from one direction where a
    value at or below 0.0 sits in it, and from both where not: either
    direction first, the verdict is that of both, and a positive
    verdict leaves both directions in the slacks."""
    both = PortSlacks(capture, launch)
    expected = both.all_positive()
    for first in (True, False):
        engine = _Fixed(capture, launch)
        slacks = engine.port_slacks(capture=first, launch=not first)
        at_hand = (capture if first else launch).values()
        decided = any(value <= 0.0 for value in at_hand)
        verdict = slacks.all_positive_lazily(engine.port_slacks, first)
        assert verdict == expected
        assert engine.calls == (1 if decided else 2)
        if expected:
            assert slacks_view(slacks) == slacks_view(both)


def test_no_direction_is_rejected():
    engine = Hummingbird(*_small_latch_design()).engine
    with pytest.raises(AssertionError):
        engine.port_slacks(capture=False, launch=False)


def test_each_loop_evaluates_one_direction():
    """On the edit-loop design only the first and the final call of a
    run evaluate both directions, and 30 edits sweep 922 times (1,616
    with every call evaluating both)."""
    network, schedule = edit_loop_design()
    analyzer = IncrementalAnalyzer(network, schedule)
    analyzer.analyze()
    cells = _gates(network)
    rng = random.Random(0)
    with obs.recording() as rec:
        for __ in range(30):
            analyzer.scale_cell(*_edit(rng, cells))
            calls = _recording_calls(analyzer.engine)
            analyzer.analyze()
            flags = [directions for directions, __ in calls]
            assert flags[0] == flags[-1] == (True, True)
            assert (True, True) not in flags[1:-1]
    assert analyzer.swaps == 30
    assert (
        rec.counters["slack.forward_sweeps"]
        + rec.counters["slack.backward_sweeps"]
    ) == 922


# ----------------------------------------------------------------------
# work
# ----------------------------------------------------------------------
def test_slow_paths_take_one_forward_sweep_per_cluster_pass(monkeypatch):
    network, schedule = violator()
    analyzer = Hummingbird(network, schedule)
    result = analyzer.analyze()
    calls: Counter = Counter()
    for name in ("_forward", "_backward", "cluster_detail"):
        original = getattr(SlackEngine, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(SlackEngine, name, counted)
    paths = extract_slow_paths(
        analyzer.model, analyzer.engine, result.algorithm1.slacks.capture
    )
    assert len(paths) == 50
    assert len({(p.cluster, p.pass_index) for p in paths}) == 8
    assert calls == Counter({"_forward": 8})
