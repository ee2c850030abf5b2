"""The flat network container and its graph queries."""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.netlist.cell import Cell
from repro.netlist.kinds import CellRole
from repro.netlist.net import Net
from repro.netlist.terminals import Terminal


class CombinationalCycleError(ValueError):
    """Raised when the combinational portion of a network has a directed
    cycle, violating the paper's Section 3 assumption."""

    def __init__(self, cells: List[str]) -> None:
        self.cells = cells
        super().__init__(
            "combinational logic contains a directed cycle through: "
            + ", ".join(sorted(cells))
        )


class Network:
    """A flat network of cells and nets.

    The network is a plain container plus graph queries; all timing
    semantics live in :mod:`repro.core`.  Cells and nets are identified by
    unique names.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self._cells: Dict[str, Cell] = {}
        self._nets: Dict[str, Net] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_cell(self, cell: Cell) -> Cell:
        if cell.name in self._cells:
            raise ValueError(f"duplicate cell name {cell.name!r}")
        self._cells[cell.name] = cell
        return cell

    def add_net(self, name: str) -> Net:
        if name in self._nets:
            raise ValueError(f"duplicate net name {name!r}")
        net = Net(name)
        self._nets[name] = net
        return net

    def net_or_create(self, name: str) -> Net:
        net = self._nets.get(name)
        if net is None:
            net = self.add_net(name)
        return net

    def connect(self, net_name: str, terminal: Terminal) -> Net:
        """Attach ``terminal`` to the net called ``net_name`` (created on
        first use)."""
        net = self.net_or_create(net_name)
        net.attach(terminal)
        return net

    def remove_cell(self, name: str) -> None:
        """Remove a cell, detaching its terminals from their nets."""
        cell = self.cell(name)
        for terminal in cell.terminals():
            net = terminal.net
            if net is None:
                continue
            if terminal in net.drivers:
                net.drivers.remove(terminal)
            if terminal in net.sinks:
                net.sinks.remove(terminal)
            terminal.net = None
        del self._cells[name]

    def reconnect_sink(self, terminal: Terminal, net_name: str) -> Net:
        """Move a sink terminal onto another net (netlist surgery, e.g.
        buffer insertion).  The terminal must currently be a sink."""
        if terminal.is_driver:
            raise ValueError(
                f"{terminal.full_name} is a driver; only sinks can be "
                "reconnected"
            )
        old = terminal.net
        if old is not None:
            old.sinks.remove(terminal)
            terminal.net = None
        return self.connect(net_name, terminal)

    def remove_net_if_empty(self, name: str) -> bool:
        net = self._nets.get(name)
        if net is not None and not net.drivers and not net.sinks:
            del self._nets[name]
            return True
        return False

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"no cell named {name!r}") from None

    def net(self, name: str) -> Net:
        try:
            return self._nets[name]
        except KeyError:
            raise KeyError(f"no net named {name!r}") from None

    def has_cell(self, name: str) -> bool:
        return name in self._cells

    @property
    def cells(self) -> Tuple[Cell, ...]:
        return tuple(self._cells.values())

    @property
    def nets(self) -> Tuple[Net, ...]:
        return tuple(self._nets.values())

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    @property
    def num_nets(self) -> int:
        return len(self._nets)

    def cells_with_role(self, role: CellRole) -> Tuple[Cell, ...]:
        return tuple([c for c in self._cells.values() if c.spec.role is role])

    @property
    def combinational_cells(self) -> Tuple[Cell, ...]:
        return self.cells_with_role(CellRole.COMBINATIONAL)

    @property
    def synchronisers(self) -> Tuple[Cell, ...]:
        return self.cells_with_role(CellRole.SYNCHRONISER)

    @property
    def clock_sources(self) -> Tuple[Cell, ...]:
        return self.cells_with_role(CellRole.CLOCK_SOURCE)

    @property
    def primary_inputs(self) -> Tuple[Cell, ...]:
        return self.cells_with_role(CellRole.PRIMARY_INPUT)

    @property
    def primary_outputs(self) -> Tuple[Cell, ...]:
        return self.cells_with_role(CellRole.PRIMARY_OUTPUT)

    # ------------------------------------------------------------------
    # graph queries
    # ------------------------------------------------------------------
    def driver_of(self, terminal: Terminal) -> Optional[Terminal]:
        """The terminal driving ``terminal``'s net (None if undriven).

        For tristate buses with several drivers the caller must use
        ``terminal.net.drivers`` directly.
        """
        net = terminal.net
        if net is None or not net.drivers:
            return None
        if len(net.drivers) > 1:
            raise ValueError(
                f"net {net.name!r} has multiple drivers; "
                "resolve tristate buses explicitly"
            )
        return net.drivers[0]

    def sinks_of(self, terminal: Terminal) -> Tuple[Terminal, ...]:
        """The sink terminals on ``terminal``'s net."""
        net = terminal.net
        if net is None:
            return ()
        return tuple(net.sinks)

    def comb_topological_cells(self) -> Tuple[Cell, ...]:
        """Combinational cells in topological (fanin-before-fanout) order.

        The cells are numbered in network order.  One pass over each
        cell's output nets lists its distinct combinational fanout cells,
        in first-occurrence order, and counts every cell's indegree;
        Kahn's FIFO queue, seeded in network order, then emits the order.

        Raises :class:`CombinationalCycleError`, naming the cells that lie
        on a directed cycle, when the combinational portion of the
        network contains one.
        """
        comb = self.combinational_cells
        number = {cell: index for index, cell in enumerate(comb)}
        indegree = [0] * len(comb)
        fanout: List[List[int]] = []
        # listed_by[j] is the last cell that listed j as a fanout, so a
        # repeated sink costs O(1) however wide its net is.
        listed_by = [-1] * len(comb)
        for index, cell in enumerate(comb):
            downstream: List[int] = []
            for pin in cell.spec.outputs:
                net = cell.terminal(pin).net
                if net is None:
                    continue
                for sink in net.sinks:
                    other = number.get(sink.cell)
                    if other is not None and listed_by[other] != index:
                        listed_by[other] = index
                        downstream.append(other)
                        indegree[other] += 1
            fanout.append(downstream)
        ready = deque(
            index for index, degree in enumerate(indegree) if not degree
        )
        order: List[Cell] = []
        while ready:
            index = ready.popleft()
            order.append(comb[index])
            for other in fanout[index]:
                indegree[other] -= 1
                if not indegree[other]:
                    ready.append(other)
        if len(order) != len(comb):
            # Every cell left with indegree sits on a cycle or below one.
            stuck = [index for index, degree in enumerate(indegree) if degree]
            raise CombinationalCycleError(
                sorted(comb[index].name for index in _on_cycles(fanout, stuck))
            )
        return tuple(order)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Cell/net counts broken down by role (for Table-1 style rows)."""
        roles = Counter(cell.spec.role for cell in self._cells.values())
        return {
            "cells": self.num_cells,
            "nets": self.num_nets,
            "combinational": roles[CellRole.COMBINATIONAL],
            "synchronisers": roles[CellRole.SYNCHRONISER],
            "clock_sources": roles[CellRole.CLOCK_SOURCE],
            "primary_inputs": roles[CellRole.PRIMARY_INPUT],
            "primary_outputs": roles[CellRole.PRIMARY_OUTPUT],
        }

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, cells={self.num_cells}, "
            f"nets={self.num_nets})"
        )


def _on_cycles(fanout: List[List[int]], nodes: Iterable[int]) -> List[int]:
    """The nodes of ``nodes`` that lie on a directed cycle of ``fanout``:
    members of a strongly connected component of two or more nodes, or
    nodes with an edge to themselves.

    ``nodes`` must be closed under ``fanout``.  Tarjan's algorithm with an
    explicit stack, so a long chain cannot exhaust the recursion limit.
    """
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    on_stack = set()
    found: List[int] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(fanout[root]))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    index[successor] = low[successor] = len(index)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(fanout[successor])))
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in fanout[node]:
                        found.extend(component)
    return found


def terminals_of(cells: Iterable[Cell]) -> Iterator[Terminal]:
    """All terminals of ``cells`` (helper for analyses)."""
    for cell in cells:
        yield from cell.terminals()
