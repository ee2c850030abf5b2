"""Validation of the paper's Section 3 behavioural assumptions.

The analysis algorithms are only correct for networks satisfying:

* data flows from input terminals to output terminals (structurally: every
  net has exactly one driver, except tristate buses where every driver is a
  clocked tristate element);
* no directed cycles within any portion of combinational logic;
* every synchronising element has a data input, a control input and a data
  output;
* the signal at every synchronising element's control input is a
  *monotonic* combinational function of *exactly one* clock signal.

:func:`validate_network` checks all of these (plus hygiene such as floating
input pins) and :func:`trace_control` extracts, for one synchroniser, the
controlling clock and the sense (non-inverted / inverted) of its control
function -- information the timing model needs to pick the effective pulse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.netlist.cell import Cell
from repro.netlist.kinds import CellRole, SyncStyle, Unateness
from repro.netlist.network import CombinationalCycleError, Network
from repro.netlist.terminals import Terminal, TerminalKind


class ValidationError(ValueError):
    """A network violates the assumptions of the paper's Section 3."""


@dataclass(frozen=True)
class ControlTrace:
    """Result of tracing a synchroniser's control pin back to its clock.

    ``sense`` is :data:`Unateness.POSITIVE` when the control signal switches
    in the same direction as the clock and :data:`Unateness.NEGATIVE` when
    it always switches in the opposite direction (an inverted control means
    the element is transparent while the clock is *low*).
    ``comb_cells`` lists the combinational cells on the control path, in no
    particular order; their delays form the control-path delay.

    ``enable_sources`` lists synchroniser outputs / primary inputs found in
    the control cone: the starting terminals of *enable paths* (paper,
    Section 4 -- "a combinational logic path from a synchronising element
    output to a synchronising element control input").  Their constraints
    are checked by :mod:`repro.core.enable_paths`.
    """

    clock: str
    sense: Unateness
    comb_cells: Tuple[str, ...]
    enable_sources: Tuple[str, ...] = ()


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_network`."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    control_traces: Dict[str, ControlTrace] = field(default_factory=dict)
    #: ``network.comb_topological_cells()``, kept for cluster extraction;
    #: empty when the combinational logic has a cycle.
    comb_order: Tuple[Cell, ...] = field(default=(), init=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ValidationError("; ".join(self.errors))


def _arc_unateness(cell: Cell, in_pin: str, out_pin: str) -> Unateness:
    """Unateness of the ``in_pin -> out_pin`` arc of ``cell``.

    Falls back to NON_UNATE when the spec does not expose arcs (e.g.
    hierarchical modules), which makes control paths through it invalid.
    """
    arcs = getattr(cell.spec, "arcs", None)
    if arcs is None:
        return Unateness.NON_UNATE
    arc = arcs.get((in_pin, out_pin))
    if arc is None:
        return Unateness.NON_UNATE
    return arc.unateness


def trace_control(network: Network, sync_cell: Cell) -> ControlTrace:
    """Trace the control pin of ``sync_cell`` back to its clock source.

    Raises :class:`ValidationError` when the control signal is not a
    monotonic combinational function of exactly one clock.
    """
    control = sync_cell.control_terminal
    if control is None:
        raise ValidationError(
            f"synchroniser {sync_cell.name!r} has no control terminal"
        )

    clocks: Set[str] = set()
    senses: Set[Unateness] = set()
    comb_cells: Set[str] = set()
    enable_sources: Set[str] = set()

    # Depth-first walk against the direction of data flow.  Each stack
    # entry carries the accumulated sense from the visited terminal up to
    # the control pin.
    stack: List[Tuple[Terminal, Unateness]] = [(control, Unateness.POSITIVE)]
    visited: Set[Tuple[str, Unateness]] = set()
    while stack:
        terminal, sense = stack.pop()
        key = (terminal.full_name, sense)
        if key in visited:
            continue
        visited.add(key)
        net = terminal.net
        if net is None or not net.drivers:
            raise ValidationError(
                f"control path of {sync_cell.name!r} reaches undriven "
                f"terminal {terminal.full_name}"
            )
        for driver in net.drivers:
            cell = driver.cell
            if cell.role is CellRole.CLOCK_SOURCE:
                clocks.add(cell.attrs.get("clock", cell.name))
                senses.add(sense)
            elif cell.is_combinational:
                comb_cells.add(cell.name)
                for in_terminal in cell.input_terminals:
                    arc_sense = _arc_unateness(cell, in_terminal.pin, driver.pin)
                    if arc_sense is Unateness.NON_UNATE:
                        raise ValidationError(
                            f"control path of {sync_cell.name!r} crosses "
                            f"non-unate arc {in_terminal.pin}->{driver.pin} "
                            f"of cell {cell.name!r}"
                        )
                    combined = (
                        sense
                        if arc_sense is Unateness.POSITIVE
                        else _invert(sense)
                    )
                    stack.append((in_terminal, combined))
            elif (
                cell.is_synchroniser
                or cell.role is CellRole.PRIMARY_INPUT
            ):
                # An enable path: gating data entering the control cone.
                enable_sources.add(driver.full_name)
            else:
                raise ValidationError(
                    f"control path of {sync_cell.name!r} reaches "
                    f"{cell.role.value} cell {cell.name!r}; control inputs "
                    "must be combinational functions of a clock"
                )

    if len(clocks) != 1:
        raise ValidationError(
            f"control input of {sync_cell.name!r} depends on clocks "
            f"{sorted(clocks)}; exactly one is required"
        )
    if len(senses) != 1:
        raise ValidationError(
            f"control input of {sync_cell.name!r} is not a monotonic "
            "function of its clock (both senses reachable)"
        )
    return ControlTrace(
        clocks.pop(),
        senses.pop(),
        tuple(sorted(comb_cells)),
        tuple(sorted(enable_sources)),
    )


def _invert(sense: Unateness) -> Unateness:
    return (
        Unateness.NEGATIVE
        if sense is Unateness.POSITIVE
        else Unateness.POSITIVE
    )


def validate_network(
    network: Network, clock_names: Optional[Set[str]] = None
) -> ValidationReport:
    """Check all Section 3 assumptions; never raises, returns a report.

    ``clock_names``, when given, is the set of clocks the schedule defines;
    clock sources and primary I/O referring to unknown clocks are errors.
    """
    report = ValidationReport()

    _check_net_drivers(network, report)
    _check_connectivity(network, report)
    _check_acyclic(network, report)
    _check_synchronisers(network, report)
    _check_clock_references(network, clock_names, report)
    return report


def _check_net_drivers(network: Network, report: ValidationReport) -> None:
    for net in network.nets:
        if not net.drivers:
            if net.sinks:
                report.errors.append(f"net {net.name!r} has sinks but no driver")
            continue
        if len(net.drivers) > 1:
            non_tristate = [
                d.cell.name
                for d in net.drivers
                if d.cell.sync_style is not SyncStyle.TRISTATE
            ]
            if non_tristate:
                report.errors.append(
                    f"net {net.name!r} has multiple drivers and not all are "
                    f"tristate elements: {sorted(non_tristate)}"
                )


def _check_connectivity(network: Network, report: ValidationReport) -> None:
    for cell in network.cells:
        for terminal in cell.terminals():
            if terminal.kind.is_sink and (
                terminal.net is None or not terminal.net.drivers
            ):
                report.errors.append(
                    f"input terminal {terminal.full_name} is floating"
                )
            if terminal.kind is TerminalKind.OUTPUT and terminal.net is None:
                report.warnings.append(
                    f"output terminal {terminal.full_name} is unconnected"
                )


def _check_acyclic(network: Network, report: ValidationReport) -> None:
    try:
        report.comb_order = network.comb_topological_cells()
    except CombinationalCycleError as exc:
        report.errors.append(str(exc))


def _check_synchronisers(network: Network, report: ValidationReport) -> None:
    for cell in network.synchronisers:
        if len(cell.spec.inputs) != 1 or len(cell.spec.outputs) != 1:
            report.errors.append(
                f"synchroniser {cell.name!r} must have exactly one data "
                "input and one data output"
            )
            continue
        try:
            trace = trace_control(network, cell)
        except ValidationError as exc:
            report.errors.append(str(exc))
            continue
        report.control_traces[cell.name] = trace
        if trace.enable_sources:
            report.warnings.append(
                f"synchroniser {cell.name!r} has enable paths from "
                f"{list(trace.enable_sources)}; check them with "
                "repro.core.enable_paths.check_enable_paths"
            )


def _check_clock_references(
    network: Network,
    clock_names: Optional[Set[str]],
    report: ValidationReport,
) -> None:
    if clock_names is None:
        return
    for cell in network.clock_sources:
        clock = cell.attrs.get("clock", cell.name)
        if clock not in clock_names:
            report.errors.append(
                f"clock source {cell.name!r} refers to unknown clock {clock!r}"
            )
    for cell in network.primary_inputs + network.primary_outputs:
        clock = cell.attrs.get("clock")
        if clock is not None and clock not in clock_names:
            report.errors.append(
                f"pad {cell.name!r} refers to unknown clock {clock!r}"
            )
        edge = cell.attrs.get("edge", "trailing")
        if edge not in ("leading", "trailing"):
            report.errors.append(
                f"pad {cell.name!r} has invalid edge kind {edge!r}"
            )
