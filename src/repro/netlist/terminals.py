"""Cell terminals.

A :class:`Terminal` is one pin of one cell instance.  Terminals are the
nodes the timing analysis reasons about: signal ready times live on them,
node slacks live on them, and synchronising-element offsets are attached to
the data-input and data-output terminals of synchroniser cells.

A terminal is a view of one pin of its :class:`~repro.netlist.cell.Cell`:
the pin's net is read from the network's numbered form (see
:class:`~repro.netlist.network.Network`) on every access.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.netlist.cell import Cell
    from repro.netlist.net import Net


class TerminalKind(enum.Enum):
    """Direction of a terminal, from the cell's point of view."""

    INPUT = "input"
    OUTPUT = "output"
    CONTROL = "control"


class Terminal:
    """One pin of a cell instance.

    Terminals are made by their :class:`~repro.netlist.cell.Cell`, one
    per pin, and are identified by ``(cell name, pin name)``; equality is
    identity, which is safe because a cell hands out one terminal object
    per pin.  ``position`` is the pin's place in the spec's pin order
    (inputs, outputs, control).
    """

    __slots__ = ("cell", "pin", "kind", "position")

    def __init__(
        self, cell: "Cell", pin: str, kind: TerminalKind, position: int
    ) -> None:
        self.cell = cell
        self.pin = pin
        self.kind = kind
        self.position = position

    @property
    def net(self) -> "Net | None":
        """The net this terminal connects to (``None`` when unconnected
        or when the cell is in no network)."""
        cell = self.cell
        network = cell._network
        if network is None:
            return None
        net = network.pin_nets[network.cell_pins[cell._id] + self.position]
        return None if net < 0 else network.net_view(net)

    @property
    def full_name(self) -> str:
        """Globally unique ``cell/pin`` identifier."""
        return f"{self.cell.name}/{self.pin}"

    @property
    def is_driver(self) -> bool:
        return self.kind is TerminalKind.OUTPUT

    def __repr__(self) -> str:
        return f"Terminal({self.full_name}, {self.kind.value})"

    def __str__(self) -> str:
        return self.full_name
