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
from repro.netlist.terminals import TerminalKind


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
    #: ``network.comb_topological_ids()``, kept for cluster extraction;
    #: empty when the combinational logic has a cycle.
    comb_ids: Tuple[int, ...] = field(default=(), init=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ValidationError("; ".join(self.errors))


def _arc_unateness(spec, in_pin: str, out_pin: str) -> Unateness:
    """Unateness of the ``in_pin -> out_pin`` arc of ``spec``.

    Falls back to NON_UNATE when the spec does not expose arcs (e.g.
    hierarchical modules), which makes control paths through it invalid.
    """
    arcs = getattr(spec, "arcs", None)
    if arcs is None:
        return Unateness.NON_UNATE
    arc = arcs.get((in_pin, out_pin))
    if arc is None:
        return Unateness.NON_UNATE
    return arc.unateness


def trace_control(network: Optional[Network], sync_cell: Cell) -> ControlTrace:
    """Trace the control pin of ``sync_cell`` back to its clock source.

    ``network`` is the cell's network (``None``: the one the cell is
    in).  Raises :class:`ValidationError` when the control signal is not
    a monotonic combinational function of exactly one clock.
    """
    control = sync_cell.control_terminal
    if control is None:
        raise ValidationError(
            f"synchroniser {sync_cell.name!r} has no control terminal"
        )
    network = sync_cell._network
    if network is None:
        raise ValidationError(
            f"control path of {sync_cell.name!r} reaches undriven "
            f"terminal {control.full_name}"
        )
    return _trace_control(network, sync_cell._id)


def _trace_control(network: Network, sync_cell: int) -> ControlTrace:
    """:func:`trace_control` of cell ``sync_cell``, over pin ids."""
    names, specs, attrs = (
        network.cell_names, network.cell_specs, network.cell_attrs
    )
    cell_pins, pin_cells, pin_nets = (
        network.cell_pins, network.pin_cells, network.pin_nets
    )
    fans = network.fanout_index()
    driver_starts, drivers = fans.driver_starts, fans.drivers
    name = names[sync_cell]
    control = network.pin_id(sync_cell, specs[sync_cell].control)

    clocks: Set[str] = set()
    senses: Set[Unateness] = set()
    comb_cells: Set[str] = set()
    enable_sources: Set[str] = set()

    # Depth-first walk against the direction of data flow.  Each stack
    # entry carries the accumulated sense from the visited pin up to the
    # control pin.
    stack: List[Tuple[int, Unateness]] = [(control, Unateness.POSITIVE)]
    visited: Set[Tuple[int, Unateness]] = set()
    while stack:
        pin, sense = stack.pop()
        key = (pin, sense)
        if key in visited:
            continue
        visited.add(key)
        net = pin_nets[pin]
        if net < 0 or driver_starts[net] == driver_starts[net + 1]:
            raise ValidationError(
                f"control path of {name!r} reaches undriven "
                f"terminal {network.pin_full_name(pin)}"
            )
        for driver in drivers[driver_starts[net]:driver_starts[net + 1]]:
            cell = pin_cells[driver]
            spec = specs[cell]
            role = spec.role
            if role is CellRole.CLOCK_SOURCE:
                clocks.add(attrs[cell].get("clock", names[cell]))
                senses.add(sense)
            elif role is CellRole.COMBINATIONAL:
                comb_cells.add(names[cell])
                layout = network.cell_layouts[cell]
                first = cell_pins[cell]
                out_pin = layout.pins[driver - first]
                for in_pin in spec.inputs:
                    arc_sense = _arc_unateness(spec, in_pin, out_pin)
                    if arc_sense is Unateness.NON_UNATE:
                        raise ValidationError(
                            f"control path of {name!r} crosses "
                            f"non-unate arc {in_pin}->{out_pin} "
                            f"of cell {names[cell]!r}"
                        )
                    combined = (
                        sense
                        if arc_sense is Unateness.POSITIVE
                        else _invert(sense)
                    )
                    stack.append((first + layout.index[in_pin], combined))
            elif (
                role is CellRole.SYNCHRONISER
                or role is CellRole.PRIMARY_INPUT
            ):
                # An enable path: gating data entering the control cone.
                enable_sources.add(network.pin_full_name(driver))
            else:
                raise ValidationError(
                    f"control path of {name!r} reaches "
                    f"{role.value} cell {names[cell]!r}; control inputs "
                    "must be combinational functions of a clock"
                )

    if len(clocks) != 1:
        raise ValidationError(
            f"control input of {name!r} depends on clocks "
            f"{sorted(clocks)}; exactly one is required"
        )
    if len(senses) != 1:
        raise ValidationError(
            f"control input of {name!r} is not a monotonic "
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
    fans = network.fanout_index()
    driver_starts, drivers = fans.driver_starts, fans.drivers
    sink_starts = fans.sink_starts
    pin_cells, specs = network.pin_cells, network.cell_specs
    for name, net in network.net_ids.items():
        first, last = driver_starts[net], driver_starts[net + 1]
        if first == last:
            if sink_starts[net] != sink_starts[net + 1]:
                report.errors.append(f"net {name!r} has sinks but no driver")
            continue
        if last - first > 1:
            non_tristate = [
                network.cell_names[pin_cells[d]]
                for d in drivers[first:last]
                if specs[pin_cells[d]].sync_style is not SyncStyle.TRISTATE
            ]
            if non_tristate:
                report.errors.append(
                    f"net {name!r} has multiple drivers and not all are "
                    f"tristate elements: {sorted(non_tristate)}"
                )


def _check_connectivity(network: Network, report: ValidationReport) -> None:
    output = TerminalKind.OUTPUT
    driver_starts = network.fanout_index().driver_starts
    pin_nets, pin_kinds = network.pin_nets, network.pin_kinds
    cell_pins = network.cell_pins
    for cell in network.cell_ids.values():
        for pin in range(cell_pins[cell], cell_pins[cell + 1]):
            net = pin_nets[pin]
            if pin_kinds[pin] is output:
                if net < 0:
                    report.warnings.append(
                        f"output terminal {network.pin_full_name(pin)} is "
                        "unconnected"
                    )
            elif net < 0 or driver_starts[net] == driver_starts[net + 1]:
                report.errors.append(
                    f"input terminal {network.pin_full_name(pin)} is floating"
                )


def _check_acyclic(network: Network, report: ValidationReport) -> None:
    try:
        report.comb_ids = tuple(network.comb_topological_ids())
    except CombinationalCycleError as exc:
        report.errors.append(str(exc))


def _check_synchronisers(network: Network, report: ValidationReport) -> None:
    specs = network.cell_specs
    for cell in network.cell_ids_with_role(CellRole.SYNCHRONISER):
        spec = specs[cell]
        name = network.cell_names[cell]
        if len(spec.inputs) != 1 or len(spec.outputs) != 1:
            report.errors.append(
                f"synchroniser {name!r} must have exactly one data "
                "input and one data output"
            )
            continue
        if spec.control is None:
            report.errors.append(
                f"synchroniser {name!r} has no control terminal"
            )
            continue
        try:
            trace = _trace_control(network, cell)
        except ValidationError as exc:
            report.errors.append(str(exc))
            continue
        report.control_traces[name] = trace
        if trace.enable_sources:
            report.warnings.append(
                f"synchroniser {name!r} has enable paths from "
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
    names, attrs = network.cell_names, network.cell_attrs
    for cell in network.cell_ids_with_role(CellRole.CLOCK_SOURCE):
        clock = attrs[cell].get("clock", names[cell])
        if clock not in clock_names:
            report.errors.append(
                f"clock source {names[cell]!r} refers to unknown clock "
                f"{clock!r}"
            )
    for cell in network.cell_ids_with_role(
        CellRole.PRIMARY_INPUT
    ) + network.cell_ids_with_role(CellRole.PRIMARY_OUTPUT):
        clock = attrs[cell].get("clock")
        if clock is not None and clock not in clock_names:
            report.errors.append(
                f"pad {names[cell]!r} refers to unknown clock {clock!r}"
            )
        edge = attrs[cell].get("edge", "trailing")
        if edge not in ("leading", "trailing"):
            report.errors.append(
                f"pad {names[cell]!r} has invalid edge kind {edge!r}"
            )
