"""Slow-path extraction and human-readable timing reports.

The original Hummingbird could "flag all slow paths in the OCT data base"
for viewing in VEM.  Here slow paths are extracted as explicit objects
(launch instance, traversed arcs, capture instance, slack) by tracing the
critical arrival backwards through the cluster, and rendered as text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.model import AnalysisModel, CapturePort
from repro.core.slack import ArcTable, SlackEngine, Sweep

_TRACE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class PathStep:
    """One traversed arc of a slow path."""

    cell_name: str
    in_pin: str
    out_pin: str
    net_name: str  # the net at the arc's output
    arrival: float


@dataclass(frozen=True)
class SlowPath:
    """A combinational path that is too slow (negative/zero node slack)."""

    cluster: str
    pass_index: int
    launch_instance: Optional[str]
    capture_instance: str
    capture_net: str
    slack: float
    arrival: float
    closure: float
    steps: Tuple[PathStep, ...]

    @property
    def violation(self) -> float:
        """How much too slow the path is (positive number)."""
        return max(0.0, -self.slack)

    def describe(self) -> str:
        cells = " -> ".join(step.cell_name for step in reversed(self.steps))
        origin = self.launch_instance or "<unresolved>"
        return (
            f"{origin} -> [{cells or 'direct'}] -> {self.capture_instance}"
            f"  slack={self.slack:.3f}"
        )


def extract_slow_paths(
    model: AnalysisModel,
    engine: SlackEngine,
    capture_slacks: Dict[str, float],
    tolerance: float = 0.0,
    limit: Optional[int] = 50,
) -> List[SlowPath]:
    """Trace one critical path per violated capture port.

    ``capture_slacks`` are Algorithm 1's final capture-side node slacks.
    Paths are returned most-violating first.  Each (cluster, pass) among
    the violated captures takes one forward sweep, shared by its paths.
    """
    violations: List[Tuple[float, CapturePort, ArcTable, int]] = []
    for table in engine.tables.values():
        for port, net in table.captures:
            slack = capture_slacks.get(port.instance.name, math.inf)
            if slack <= tolerance:
                violations.append((slack, port, table, net))
    violations.sort(key=lambda item: item[0])
    if limit is not None:
        violations = violations[:limit]

    drivers: Dict[str, Dict[int, List[tuple]]] = {}
    sweeps: Dict[Tuple[str, int], Sweep] = {}
    paths = []
    for slack, port, table, net in violations:
        if table.name not in drivers:
            drivers[table.name] = _drivers(table)
        key = (table.name, port.pass_index)
        if key not in sweeps:
            sweeps[key] = engine._forward(table, port.pass_index)
        path = _trace_path(
            model, engine, table, drivers[table.name], sweeps[key], port,
            net, slack,
        )
        if path is not None:
            paths.append(path)
    return paths


def trace_endpoint_path(
    model: AnalysisModel,
    engine: SlackEngine,
    port: CapturePort,
    slack: float,
) -> Optional[SlowPath]:
    """Trace the critical path ending at one capture port.

    Public provenance hook: :class:`repro.report.PathForensics` uses it
    to explain *any* endpoint (passing the endpoint's current node
    slack), not just the slow ones.
    """
    table = engine.tables.get(port.cluster_name)
    if table is None:
        return None
    return _trace_path(
        model,
        engine,
        table,
        _drivers(table),
        engine._forward(table, port.pass_index),
        port,
        table.nets.index(port.net_name),
        slack,
    )


def _drivers(table: ArcTable) -> Dict[int, List[tuple]]:
    """The arcs driving each net, by net number, in table order."""
    drivers: Dict[int, List[tuple]] = {}
    for arc in table.arcs:
        drivers.setdefault(arc[1], []).append(arc)
    return drivers


def _trace_path(
    model: AnalysisModel,
    engine: SlackEngine,
    table: ArcTable,
    drivers: Dict[int, List[tuple]],
    ready: Sweep,
    port: CapturePort,
    net: int,
    slack: float,
) -> Optional[SlowPath]:
    """Trace the latest-arriving transition at ``net`` (the capture's)
    backwards: each step takes the first driving arc whose input
    arrival plus delay reproduces the output arrival."""
    rise, fall, _ = ready
    at_rise, at_fall = rise[net], fall[net]
    if at_rise is None or not (
        math.isfinite(at_rise) and math.isfinite(at_fall)
    ):
        return None
    delays = model.delays
    arc_delays = (delays.max_rise, delays.max_fall)  # 0 rise, 1 fall
    arrivals = (rise, fall)  # indexed by transition: 0 rise, 1 fall
    transition = 0 if at_rise >= at_fall else 1
    steps: List[PathStep] = []
    for __ in table.nets:  # a path visits each net at most once
        target = arrivals[transition][net]
        if target is None or not math.isfinite(target):
            break
        for in_net, _, sense, arc in drivers.get(net, ()):
            in_rise = rise[in_net]
            if in_rise is None:
                continue
            in_fall = fall[in_net]
            if sense == 0:
                at_input = in_rise if transition == 0 else in_fall
                in_transition = transition
            elif sense == 1:
                at_input = in_fall if transition == 0 else in_rise
                in_transition = 1 - transition
            else:  # the worse input transition drives both
                at_input = in_fall if in_fall > in_rise else in_rise
                in_transition = 0 if in_rise >= in_fall else 1
            value = at_input + arc_delays[transition][arc]
            if abs(value - target) > _TRACE_TOLERANCE:
                continue
            cell_name, in_pin, out_pin = delays.arc_key(arc)
            steps.append(
                PathStep(
                    cell_name=cell_name,
                    in_pin=in_pin,
                    out_pin=out_pin,
                    net_name=table.nets[net],
                    arrival=target,
                )
            )
            net = in_net
            transition = in_transition
            break
        else:  # no driving arc reproduces the arrival: the path starts here
            break

    return SlowPath(
        cluster=table.name,
        pass_index=port.pass_index,
        launch_instance=_launch_at(engine, table, port.pass_index, net, ready),
        capture_instance=port.instance.name,
        capture_net=port.net_name,
        slack=slack,
        arrival=at_fall if at_fall > at_rise else at_rise,
        closure=engine._closure_time(table.name, port),
        steps=tuple(steps),
    )


def _launch_at(
    engine: SlackEngine,
    table: ArcTable,
    pass_index: int,
    net: int,
    ready: Sweep,
) -> Optional[str]:
    """Which launch port asserts ``net`` at its ready time."""
    rise, fall, _ = ready
    if rise[net] is None:
        return None
    worst = fall[net] if fall[net] > rise[net] else rise[net]
    for port, port_net in table.launches:
        if port_net != net:
            continue
        t = engine._assertion_time(table.name, pass_index, port)
        if abs(t - worst) <= _TRACE_TOLERANCE:
            return port.instance.name
    # Fall back to any launch port on the net (conservative arrival from a
    # different instance of the same element).
    for port, port_net in table.launches:
        if port_net == net:
            return port.instance.name
    return None


def format_slow_paths(paths: List[SlowPath], limit: int = 20) -> str:
    """Multi-line report of the worst slow paths."""
    if not paths:
        return "No slow paths: the system behaves as intended."
    lines = [f"{len(paths)} slow path(s); worst first:"]
    for path in paths[:limit]:
        lines.append(f"  {path.describe()}")
        lines.append(
            f"    cluster={path.cluster} pass={path.pass_index} "
            f"arrival={path.arrival:.3f} closure={path.closure:.3f} "
            f"violation={path.violation:.3f}"
        )
    if len(paths) > limit:
        lines.append(f"  ... and {len(paths) - limit} more")
    return "\n".join(lines)
