"""Control-path delay extraction.

A *control path* is a combinational path from a clock generator output to
a synchronising element's control input (paper, Section 4).  Control paths
have an ideal path constraint of exactly zero; their real delay shows up
as the assertion-control arrival offset ``O_ac >= 0`` of the element's
model.  This module computes, per synchroniser, the maximum and minimum
control-path delay with a memoised backward traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.delay.estimator import DelayMap
from repro.netlist.cell import Cell
from repro.netlist.kinds import CellRole
from repro.netlist.network import Network
from repro.netlist.terminals import Terminal

#: One driver of a control-cone net: ``None`` for a clock source, else a
#: combinational (cell, in pin, out pin) arc.
_Fanin = Optional[Tuple[Cell, str, str]]


@dataclass(frozen=True)
class ControlArrival:
    """Max/min delay from the clock source to a control pin."""

    latest: float
    earliest: float

    @property
    def skew_spread(self) -> float:
        """Uncertainty of the control arrival (within one pin)."""
        return self.latest - self.earliest


class ControlDelayExtractor:
    """Computes control arrivals for every synchroniser of a network."""

    def __init__(self, network: Network, delays: DelayMap) -> None:
        self._network = network
        self._delays = delays
        self._memo: Dict[str, Tuple[float, float]] = {}

    def arrival(self, sync_cell: Cell) -> ControlArrival:
        """Control arrival of ``sync_cell`` (validated networks only)."""
        control = sync_cell.control_terminal
        if control is None:
            raise ValueError(f"{sync_cell.name!r} has no control terminal")
        latest, earliest = self._arrival_at(control)
        if latest == float("-inf"):
            raise ValueError(
                f"no clock source reachable from {control.full_name}"
            )
        return ControlArrival(latest=latest, earliest=earliest)

    def all_arrivals(self) -> Dict[str, ControlArrival]:
        return {
            cell.name: self.arrival(cell)
            for cell in self._network.synchronisers
        }

    # ------------------------------------------------------------------
    def _arrival_at(self, terminal: Terminal) -> Tuple[float, float]:
        """(max, min) delay from the clock source to a sink terminal.

        A post-order walk of the control cone on an explicit stack, so
        clock-buffer chains of any depth fit: a terminal is summed once
        all its fanin terminals are memoised.
        """
        memo = self._memo
        stack: List[Tuple[Terminal, Optional[List[_Fanin]]]] = [
            (terminal, None)
        ]
        open_names: Set[str] = set()
        while stack:
            node, fanin = stack.pop()
            name = node.full_name
            if fanin is not None:
                memo[name] = self._sum(fanin)
                open_names.discard(name)
                continue
            if name in memo:
                continue
            if name in open_names:
                raise ValueError(f"control path through {name} is cyclic")
            open_names.add(name)
            fanin = self._fanin(node)
            stack.append((node, fanin))
            for arc in reversed(fanin):
                if arc is not None:
                    stack.append((arc[0].terminal(arc[1]), None))
        return memo[terminal.full_name]

    def _fanin(self, terminal: Terminal) -> List[_Fanin]:
        """The drivers shaping ``terminal``'s control arrival, in net
        order: ``None`` for a clock source, else a combinational
        (cell, in pin, out pin) arc."""
        net = terminal.net
        if net is None or not net.drivers:
            raise ValueError(
                f"control path reaches undriven terminal {terminal.full_name}"
            )
        fanin: List[_Fanin] = []
        for driver in net.drivers:
            cell = driver.cell
            if cell.role is CellRole.CLOCK_SOURCE:
                fanin.append(None)
                continue
            if cell.is_synchroniser or cell.role is CellRole.PRIMARY_INPUT:
                # Enable-path branch: carries gating data, not the clock
                # transition, so it does not shape the control arrival.
                # Its own constraint is checked by core.enable_paths.
                continue
            if not cell.is_combinational:
                raise ValueError(
                    f"control path reaches {cell.role.value} cell "
                    f"{cell.name!r}; validate the network first"
                )
            for in_pin, out_pin in self._delays.arcs_of(cell):
                if out_pin == driver.pin:
                    fanin.append((cell, in_pin, out_pin))
        return fanin

    def _sum(self, fanin: List[_Fanin]) -> Tuple[float, float]:
        """(max, min) over ``fanin``, whose terminals are all memoised."""
        latest = float("-inf")
        earliest = float("inf")
        for arc in fanin:
            if arc is None:
                latest = max(latest, 0.0)
                earliest = min(earliest, 0.0)
                continue
            cell, in_pin, out_pin = arc
            up_latest, up_earliest = self._memo[
                cell.terminal(in_pin).full_name
            ]
            if up_latest == float("-inf"):
                continue  # branch carries no clock transition
            arc_max = self._delays.arc_delay(cell, in_pin, out_pin)
            arc_min = self._delays.arc_delay_min(cell, in_pin, out_pin)
            latest = max(latest, up_latest + arc_max.worst)
            earliest = min(earliest, up_earliest + arc_min.best)
        return latest, earliest


def control_arrivals(
    network: Network, delays: DelayMap
) -> Dict[str, ControlArrival]:
    """Control arrivals for every synchroniser of ``network``."""
    return ControlDelayExtractor(network, delays).all_arrivals()
