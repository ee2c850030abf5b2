"""Hierarchical modules and flattening.

Table 1 of the paper distinguishes SM1F -- a "flattened" network of standard
cells -- from SM1H -- the same machine with its combinational logic
"contained in a single module".  A :class:`ModuleDefinition` captures a
combinational subnetwork with named ports; a :class:`ModuleSpec` wraps it as
an ordinary combinational cell spec so the analyser can treat the module as
one component (using pin-to-pin delays from :mod:`repro.delay.module_delay`);
:func:`flatten` expands module instances back into their standard cells.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.netlist.cell import Cell
from repro.netlist.kinds import CellRole, SyncStyle, TimingArc, Unateness
from repro.netlist.network import Network


class ModuleDefinition:
    """A purely combinational subnetwork with named ports.

    Parameters
    ----------
    inner:
        The subnetwork; every cell must be combinational.
    input_ports / output_ports:
        Mappings from port (pin) name to the inner net carrying it.

    The inner cells' topological order is computed once, here, and kept
    on :attr:`order`; a module whose logic has a combinational cycle
    raises :class:`~repro.netlist.network.CombinationalCycleError`.
    """

    def __init__(
        self,
        inner: Network,
        input_ports: Mapping[str, str],
        output_ports: Mapping[str, str],
    ) -> None:
        for cell in inner.cells:
            if not cell.is_combinational:
                raise ValueError(
                    f"module {inner.name!r}: cell {cell.name!r} is "
                    f"{cell.role.value}; modules must be purely combinational"
                )
        for port, net_name in {**input_ports, **output_ports}.items():
            inner.net(net_name)  # raises KeyError on dangling port
        overlap = set(input_ports) & set(output_ports)
        if overlap:
            raise ValueError(f"ports used as both input and output: {overlap}")
        self.inner = inner
        self.input_ports: Dict[str, str] = dict(input_ports)
        self.output_ports: Dict[str, str] = dict(output_ports)
        self.order: Tuple[Cell, ...] = inner.comb_topological_cells()

    def reachable_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """All (input port, output port) pairs connected by a path.

        One forward sweep over :attr:`order` with a bitset per net (bit
        *i* = the *i*-th input port): a cell passes the union of its
        input nets' bits on to every one of its output nets.
        """
        reach: Dict[str, int] = {}
        for index, net_name in enumerate(self.input_ports.values()):
            reach[net_name] = reach.get(net_name, 0) | (1 << index)
        for cell in self.order:
            bits = 0
            for terminal in cell.input_terminals:
                if terminal.net is not None:
                    bits |= reach.get(terminal.net.name, 0)
            if not bits:
                continue
            for terminal in cell.output_terminals:
                if terminal.net is not None:
                    name = terminal.net.name
                    reach[name] = reach.get(name, 0) | bits
        pairs: List[Tuple[str, str]] = []
        for index, in_port in enumerate(self.input_ports):
            for out_port, out_net in self.output_ports.items():
                if reach.get(out_net, 0) >> index & 1:
                    pairs.append((in_port, out_port))
        return tuple(pairs)


class ModuleSpec:
    """A module definition wrapped as a combinational cell spec."""

    def __init__(self, name: str, definition: ModuleDefinition) -> None:
        self._name = name
        self.definition = definition
        self._inputs = tuple(definition.input_ports)
        self._outputs = tuple(definition.output_ports)
        # Hierarchical arcs are conservatively non-unate: control paths may
        # not cross modules, and rise/fall analysis treats both transitions.
        self.arcs: Dict[Tuple[str, str], TimingArc] = {
            pair: TimingArc(Unateness.NON_UNATE)
            for pair in definition.reachable_pairs()
        }

    @property
    def name(self) -> str:
        return self._name

    @property
    def role(self) -> CellRole:
        return CellRole.COMBINATIONAL

    @property
    def inputs(self) -> Tuple[str, ...]:
        return self._inputs

    @property
    def outputs(self) -> Tuple[str, ...]:
        return self._outputs

    @property
    def control(self) -> Optional[str]:
        return None

    @property
    def sync_style(self) -> Optional[SyncStyle]:
        return None

    def __repr__(self) -> str:
        return f"ModuleSpec({self._name!r}, {len(self.arcs)} arcs)"


def flatten(network: Network, name: Optional[str] = None) -> Network:
    """Expand every module instance into its standard cells.

    Inner cell ``g`` of module instance ``m`` becomes ``m.g``; inner net
    ``n`` becomes ``m.n`` unless it is a port net, in which case it merges
    with the outer net bound to that port.  Flattening recurses until no
    module instances remain.
    """
    flat = Network(name or network.name)
    _flatten_into(network, flat, prefix="", port_binding={})
    while any(isinstance(c.spec, ModuleSpec) for c in flat.cells):
        flat = flatten(flat, name or network.name)  # pragma: no cover
    return flat


def _flatten_into(
    source: Network,
    target: Network,
    prefix: str,
    port_binding: Mapping[str, str],
) -> None:
    """Copy ``source`` into ``target``.

    ``port_binding`` maps a source net name to an existing target net name
    (used to merge module port nets with outer nets); all other net names
    are prefixed.
    """

    def target_net_name(inner_name: str) -> str:
        bound = port_binding.get(inner_name)
        if bound is not None:
            return bound
        return prefix + inner_name

    for cell in source.cells:
        if isinstance(cell.spec, ModuleSpec):
            definition = cell.spec.definition
            binding: Dict[str, str] = {}
            for port, inner_net in {
                **definition.input_ports,
                **definition.output_ports,
            }.items():
                outer_net = cell.terminal(port).net
                if outer_net is None:
                    raise ValueError(
                        f"module instance {cell.name!r}: port {port!r} "
                        "is unconnected"
                    )
                binding[inner_net] = target_net_name(outer_net.name)
            _flatten_into(
                definition.inner,
                target,
                prefix=prefix + cell.name + ".",
                port_binding=binding,
            )
        else:
            clone = target.add_cell(
                Cell(prefix + cell.name, cell.spec, cell.attrs)
            )
            for terminal in cell.terminals():
                if terminal.net is not None:
                    target.connect(
                        target_net_name(terminal.net.name),
                        clone.terminal(terminal.pin),
                    )
