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

#: One driver of a control-cone net: ``None`` for a clock source, else a
#: combinational arc as (input pin id, arc number).
_Fanin = Optional[Tuple[int, int]]


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
        #: Sink pin id -> (max, min) delay from its clock source.
        self._memo: Dict[int, Tuple[float, float]] = {}

    def arrival(self, sync_cell: Cell) -> ControlArrival:
        """Control arrival of ``sync_cell`` (validated networks only)."""
        return self._arrival(self._network.cell_ids[sync_cell.name])

    def all_arrivals(self) -> Dict[str, ControlArrival]:
        network = self._network
        return {
            network.cell_names[cell]: self._arrival(cell)
            for cell in network.cell_ids_with_role(CellRole.SYNCHRONISER)
        }

    # ------------------------------------------------------------------
    def _arrival(self, sync_cell: int) -> ControlArrival:
        network = self._network
        control = network.cell_specs[sync_cell].control
        if control is None:
            raise ValueError(
                f"{network.cell_names[sync_cell]!r} has no control terminal"
            )
        pin = network.pin_id(sync_cell, control)
        latest, earliest = self._arrival_at(pin)
        if latest == float("-inf"):
            raise ValueError(
                "no clock source reachable from "
                f"{network.pin_full_name(pin)}"
            )
        return ControlArrival(latest=latest, earliest=earliest)

    def _arrival_at(self, pin: int) -> Tuple[float, float]:
        """(max, min) delay from the clock source to sink pin ``pin``.

        A post-order walk of the control cone on an explicit stack, so
        clock-buffer chains of any depth fit: a pin is summed once all
        its fanin pins are memoised.
        """
        memo = self._memo
        stack: List[Tuple[int, Optional[List[_Fanin]]]] = [(pin, None)]
        open_pins: Set[int] = set()
        while stack:
            node, fanin = stack.pop()
            if fanin is not None:
                memo[node] = self._sum(fanin)
                open_pins.discard(node)
                continue
            if node in memo:
                continue
            if node in open_pins:
                raise ValueError(
                    "control path through "
                    f"{self._network.pin_full_name(node)} is cyclic"
                )
            open_pins.add(node)
            fanin = self._fanin(node)
            stack.append((node, fanin))
            for arc in reversed(fanin):
                if arc is not None:
                    stack.append((arc[0], None))
        return memo[pin]

    def _fanin(self, pin: int) -> List[_Fanin]:
        """The drivers shaping sink pin ``pin``'s control arrival, in net
        order: ``None`` for a clock source, else a combinational
        (input pin, arc) pair."""
        network = self._network
        net = network.pin_nets[pin]
        fans = network.fanout_index()
        start = fans.driver_starts[net] if net >= 0 else 0
        stop = fans.driver_starts[net + 1] if net >= 0 else 0
        if start == stop:
            raise ValueError(
                "control path reaches undriven terminal "
                f"{network.pin_full_name(pin)}"
            )
        arc_pins = self._delays.arc_pins
        fanin: List[_Fanin] = []
        for driver in fans.drivers[start:stop]:
            cell = network.pin_cells[driver]
            role = network.cell_specs[cell].role
            if role is CellRole.CLOCK_SOURCE:
                fanin.append(None)
                continue
            if role is CellRole.SYNCHRONISER or role is CellRole.PRIMARY_INPUT:
                # Enable-path branch: carries gating data, not the clock
                # transition, so it does not shape the control arrival.
                # Its own constraint is checked by core.enable_paths.
                continue
            if role is not CellRole.COMBINATIONAL:
                raise ValueError(
                    f"control path reaches {role.value} cell "
                    f"{network.cell_names[cell]!r}; validate the network "
                    "first"
                )
            out_pin = network.pin_name(driver)
            for arc in self._delays.arc_numbers(network.cell_names[cell]):
                in_pin, arc_out = arc_pins[arc]
                if arc_out == out_pin:
                    fanin.append((network.pin_id(cell, in_pin), arc))
        return fanin

    def _sum(self, fanin: List[_Fanin]) -> Tuple[float, float]:
        """(max, min) over ``fanin``, whose pins are all memoised."""
        delays = self._delays
        latest = float("-inf")
        earliest = float("inf")
        for source in fanin:
            if source is None:
                latest = max(latest, 0.0)
                earliest = min(earliest, 0.0)
                continue
            pin, arc = source
            up_latest, up_earliest = self._memo[pin]
            if up_latest == float("-inf"):
                continue  # branch carries no clock transition
            worst = max(delays.max_rise[arc], delays.max_fall[arc])
            best = min(delays.min_rise[arc], delays.min_fall[arc])
            latest = max(latest, up_latest + worst)
            earliest = min(earliest, up_earliest + best)
        return latest, earliest


def control_arrivals(
    network: Network, delays: DelayMap
) -> Dict[str, ControlArrival]:
    """Control arrivals for every synchroniser of ``network``."""
    return ControlDelayExtractor(network, delays).all_arrivals()
