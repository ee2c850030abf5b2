"""Cell terminals.

A :class:`Terminal` is one pin of one cell instance.  Terminals are the
nodes the timing analysis reasons about: signal ready times live on them,
node slacks live on them, and synchronising-element offsets are attached to
the data-input and data-output terminals of synchroniser cells.
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

    Terminals are created by :class:`~repro.netlist.cell.Cell` and are
    identified by ``(cell name, pin name)``; equality is identity, which is
    safe because every terminal object is owned by exactly one cell in one
    network.
    """

    __slots__ = ("cell", "pin", "kind", "net")

    def __init__(self, cell: "Cell", pin: str, kind: TerminalKind) -> None:
        self.cell = cell
        self.pin = pin
        self.kind = kind
        #: The net this terminal connects to; assigned by Network.connect.
        self.net: "Net | None" = None

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
