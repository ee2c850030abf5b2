"""Cell instances."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.netlist.kinds import CellRole, CellSpecLike, SyncStyle
from repro.netlist.terminals import Terminal, TerminalKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.netlist.network import Network


def arc_pairs(spec: CellSpecLike) -> Tuple[Tuple[str, str], ...]:
    """The (input pin, output pin) connectivity of a combinational spec:
    its timing arcs when it has any, every input to every output
    otherwise."""
    arcs = getattr(spec, "arcs", None)
    if arcs:
        return tuple(arcs)
    return tuple((i, o) for i in spec.inputs for o in spec.outputs)


class PinLayout:
    """A spec's pins in pin order -- inputs, outputs, control -- with
    their kinds and positions.

    A cell's pins are numbered in this order in its network (see
    :class:`~repro.netlist.network.Network`).  ``role`` is the spec's
    role, and ``arcs`` the (input, output) position pairs a switching
    path can take through a combinational cell: the spec's timing arcs
    when it has any, every input to every output otherwise.
    """

    __slots__ = ("spec", "role", "pins", "kinds", "index", "outputs", "arcs")

    def __init__(self, spec: CellSpecLike, cell_name: str) -> None:
        pins: List[str] = []
        kinds: List[TerminalKind] = []
        index: Dict[str, int] = {}
        for pin in spec.inputs:
            if pin not in index:
                index[pin] = len(pins)
                pins.append(pin)
                kinds.append(TerminalKind.INPUT)
        for pin in spec.outputs:
            if pin in index:
                raise ValueError(f"cell {cell_name!r}: duplicate pin {pin!r}")
            index[pin] = len(pins)
            pins.append(pin)
            kinds.append(TerminalKind.OUTPUT)
        if spec.control is not None:
            if spec.control in index:
                raise ValueError(
                    f"cell {cell_name!r}: control pin {spec.control!r} "
                    "collides"
                )
            index[spec.control] = len(pins)
            pins.append(spec.control)
            kinds.append(TerminalKind.CONTROL)
        self.spec = spec
        self.role: CellRole = spec.role
        self.pins: Tuple[str, ...] = tuple(pins)
        self.kinds: Tuple[TerminalKind, ...] = tuple(kinds)
        self.index = index
        self.outputs: Tuple[int, ...] = tuple(
            index[pin] for pin in spec.outputs
        )
        self.arcs: Tuple[Tuple[int, int], ...] = (
            tuple((index[i], index[o]) for i, o in arc_pairs(spec))
            if spec.role is CellRole.COMBINATIONAL
            else ()
        )


class Cell:
    """One instance of a library cell (or module) in a network.

    Parameters
    ----------
    name:
        Instance name, unique within its network.
    spec:
        The cell spec (see :class:`~repro.netlist.kinds.CellSpecLike`)
        describing pins and role.
    attrs:
        Free-form attributes.  Used for e.g. primary-input arrival
        specifications (``clock``, ``pulse_index``, ``offset``) and module
        bindings; the netlist itself does not interpret them.

    A cell built here is *detached*: it belongs to no network until
    :meth:`Network.add_cell <repro.netlist.network.Network.add_cell>`
    adopts it.  A network hands out one view per cell, built on first
    request; the view's ``attrs`` is the network's own dict for the
    cell, and setting :attr:`spec` writes through to the network.
    """

    __slots__ = ("name", "attrs", "_spec", "_layout", "_network", "_id",
                 "_terminals")

    def __init__(
        self,
        name: str,
        spec: CellSpecLike,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self._spec = spec
        self._layout = PinLayout(spec, name)
        self._network: Optional["Network"] = None
        self._id = -1
        self._terminals: Optional[List[Optional[Terminal]]] = None

    @classmethod
    def _view(cls, network: "Network", cell_id: int) -> "Cell":
        """The view of cell ``cell_id`` of ``network`` (which caches it)."""
        cell = cls.__new__(cls)
        cell.name = network.cell_names[cell_id]
        cell.attrs = network.cell_attrs[cell_id]
        cell._spec = network.cell_specs[cell_id]
        cell._layout = network.cell_layouts[cell_id]
        cell._network = network
        cell._id = cell_id
        cell._terminals = None
        return cell

    @property
    def spec(self) -> CellSpecLike:
        return self._spec

    @spec.setter
    def spec(self, spec: CellSpecLike) -> None:
        """Swap the spec for one with the same pins (e.g. a drive-strength
        variant); the network's numbered form is updated too."""
        layout = PinLayout(spec, self.name)
        if (layout.pins, layout.kinds) != (
            self._layout.pins, self._layout.kinds
        ):
            raise ValueError(
                f"cell {self.name!r}: spec {spec.name} has other pins than "
                f"{self._spec.name}"
            )
        if self._network is not None:
            layout = self._network.respec(self._id, spec)
        self._spec = spec
        self._layout = layout

    # ------------------------------------------------------------------
    # role shortcuts
    # ------------------------------------------------------------------
    @property
    def role(self) -> CellRole:
        return self._spec.role

    @property
    def is_combinational(self) -> bool:
        return self._spec.role is CellRole.COMBINATIONAL

    @property
    def is_synchroniser(self) -> bool:
        return self._spec.role is CellRole.SYNCHRONISER

    @property
    def is_clock_source(self) -> bool:
        return self._spec.role is CellRole.CLOCK_SOURCE

    @property
    def sync_style(self) -> Optional[SyncStyle]:
        return self._spec.sync_style

    # ------------------------------------------------------------------
    # terminal access
    # ------------------------------------------------------------------
    def terminal_at(self, position: int) -> Terminal:
        """The terminal of the pin at ``position`` in pin order."""
        terminals = self._terminals
        if terminals is None:
            terminals = self._terminals = [None] * len(self._layout.pins)
        terminal = terminals[position]
        if terminal is None:
            layout = self._layout
            terminal = terminals[position] = Terminal(
                self, layout.pins[position], layout.kinds[position], position
            )
        return terminal

    def terminal(self, pin: str) -> Terminal:
        position = self._layout.index.get(pin)
        if position is None:
            raise KeyError(
                f"cell {self.name!r} ({self._spec.name}) has no pin {pin!r}"
            )
        return self.terminal_at(position)

    def terminals(self) -> Tuple[Terminal, ...]:
        """The cell's terminals, in pin order (inputs, outputs,
        control)."""
        return tuple(
            self.terminal_at(position)
            for position in range(len(self._layout.pins))
        )

    @property
    def input_terminals(self) -> Tuple[Terminal, ...]:
        return tuple(self.terminal(pin) for pin in self._spec.inputs)

    @property
    def output_terminals(self) -> Tuple[Terminal, ...]:
        return tuple(self.terminal(pin) for pin in self._spec.outputs)

    @property
    def control_terminal(self) -> Optional[Terminal]:
        if self._spec.control is None:
            return None
        return self.terminal(self._spec.control)

    @property
    def data_input(self) -> Terminal:
        """The data input of a synchroniser (which has exactly one)."""
        if not self.is_synchroniser:
            raise ValueError(f"{self.name!r} is not a synchroniser")
        (terminal,) = self.input_terminals
        return terminal

    @property
    def data_output(self) -> Terminal:
        """The data output of a synchroniser (which has exactly one)."""
        if not self.is_synchroniser:
            raise ValueError(f"{self.name!r} is not a synchroniser")
        (terminal,) = self.output_terminals
        return terminal

    def __repr__(self) -> str:
        return f"Cell({self.name!r}, {self._spec.name})"
