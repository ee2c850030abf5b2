"""Cell instances."""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, ValuesView

from repro.netlist.kinds import CellRole, CellSpecLike, SyncStyle
from repro.netlist.terminals import Terminal, TerminalKind


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
    """

    __slots__ = ("name", "spec", "attrs", "_terminals")

    def __init__(
        self,
        name: str,
        spec: CellSpecLike,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.spec = spec
        self.attrs: Dict[str, Any] = dict(attrs or {})
        terminals: Dict[str, Terminal] = {}
        for pin in spec.inputs:
            terminals[pin] = Terminal(self, pin, TerminalKind.INPUT)
        for pin in spec.outputs:
            if pin in terminals:
                raise ValueError(f"cell {name!r}: duplicate pin {pin!r}")
            terminals[pin] = Terminal(self, pin, TerminalKind.OUTPUT)
        if spec.control is not None:
            if spec.control in terminals:
                raise ValueError(
                    f"cell {name!r}: control pin {spec.control!r} collides"
                )
            terminals[spec.control] = Terminal(
                self, spec.control, TerminalKind.CONTROL
            )
        self._terminals = terminals

    # ------------------------------------------------------------------
    # role shortcuts
    # ------------------------------------------------------------------
    @property
    def role(self) -> CellRole:
        return self.spec.role

    @property
    def is_combinational(self) -> bool:
        return self.role is CellRole.COMBINATIONAL

    @property
    def is_synchroniser(self) -> bool:
        return self.role is CellRole.SYNCHRONISER

    @property
    def is_clock_source(self) -> bool:
        return self.role is CellRole.CLOCK_SOURCE

    @property
    def sync_style(self) -> Optional[SyncStyle]:
        return self.spec.sync_style

    # ------------------------------------------------------------------
    # terminal access
    # ------------------------------------------------------------------
    def terminal(self, pin: str) -> Terminal:
        try:
            return self._terminals[pin]
        except KeyError:
            raise KeyError(
                f"cell {self.name!r} ({self.spec.name}) has no pin {pin!r}"
            ) from None

    def terminals(self) -> ValuesView[Terminal]:
        """A read-only view of the cell's terminals, in pin order
        (inputs, outputs, control)."""
        return self._terminals.values()

    @property
    def input_terminals(self) -> Tuple[Terminal, ...]:
        return tuple(self.terminal(pin) for pin in self.spec.inputs)

    @property
    def output_terminals(self) -> Tuple[Terminal, ...]:
        return tuple(self.terminal(pin) for pin in self.spec.outputs)

    @property
    def control_terminal(self) -> Optional[Terminal]:
        if self.spec.control is None:
            return None
        return self.terminal(self.spec.control)

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
        return f"Cell({self.name!r}, {self.spec.name})"
