"""The flat network container and its graph queries.

A :class:`Network` keeps one numbered form of the netlist as its only
state: per cell its name, spec and attributes; one flat list of net ids
per pin, each cell's pins in its spec's pin order (inputs, outputs,
control); the net names; and name-to-id dicts for cells and nets.  The
drivers and sinks of each net are derived from the pin list, at most once
after a batch of mutations (:meth:`Network.fanout_index`).  The analysis
passes read the ids; :class:`~repro.netlist.cell.Cell`,
:class:`~repro.netlist.net.Net` and
:class:`~repro.netlist.terminals.Terminal` objects are views, built on
first request and cached on the network.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.netlist.cell import Cell, PinLayout
from repro.netlist.kinds import CellRole, CellSpecLike
from repro.netlist.net import Net
from repro.netlist.terminals import Terminal, TerminalKind


class CombinationalCycleError(ValueError):
    """Raised when the combinational portion of a network has a directed
    cycle, violating the paper's Section 3 assumption."""

    def __init__(self, cells: List[str]) -> None:
        self.cells = cells
        super().__init__(
            "combinational logic contains a directed cycle through: "
            + ", ".join(sorted(cells))
        )


class FanoutIndex(NamedTuple):
    """The pins on each net, drivers and sinks apart, in pin order:
    net *n*'s drivers are ``drivers[driver_starts[n]:driver_starts[n +
    1]]``, and its sinks likewise."""

    driver_starts: List[int]
    drivers: List[int]
    sink_starts: List[int]
    sinks: List[int]


class Network:
    """A flat network of cells and nets, in numbered form.

    The network is a plain container plus graph queries; all timing
    semantics live in :mod:`repro.core`.  Cells and nets are identified by
    unique names, and numbered in the order they are added.  Ids are never
    reused: a removed cell keeps its row (its pins unconnected) and a
    removed net its name, but neither is listed any more.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        #: Per cell id: name, spec and attributes.
        self.cell_names: List[str] = []
        self.cell_specs: List[CellSpecLike] = []
        self.cell_attrs: List[Dict[str, Any]] = []
        #: Per cell id: its spec's pin layout (and role).
        self.cell_layouts: List[PinLayout] = []
        #: Cell *c*'s pins are ids ``cell_pins[c]`` to ``cell_pins[c + 1]
        #: - 1``, in its spec's pin order.
        self.cell_pins: List[int] = [0]
        #: Per pin id: the owning cell, the pin's kind and its net id
        #: (-1: unconnected).
        self.pin_cells: List[int] = []
        self.pin_kinds: List[TerminalKind] = []
        self.pin_nets: List[int] = []
        #: Per net id: its name.
        self.net_names: List[str] = []
        #: Name -> id of every cell and net in the network.
        self.cell_ids: Dict[str, int] = {}
        self.net_ids: Dict[str, int] = {}
        # id(spec) -> its pin layout (which holds the spec alive).
        self._layouts: Dict[int, PinLayout] = {}
        # Derived from pin_nets; None after a connectivity change.
        self._fans: Optional[FanoutIndex] = None
        # Role -> ids of the cells with it; None after a cell change.
        self._roles: Optional[Dict[CellRole, List[int]]] = None
        # The views handed out so far, by id.
        self._cells: Dict[int, Cell] = {}
        self._nets: Dict[int, Net] = {}

    # ------------------------------------------------------------------
    # the numbered form
    # ------------------------------------------------------------------
    def layout(self, spec: CellSpecLike, cell_name: str = "?") -> PinLayout:
        """The pin layout of ``spec`` (``cell_name`` names the cell in
        an error about the spec's pins)."""
        layout = self._layouts.get(id(spec))
        if layout is None:
            layout = self._layouts[id(spec)] = PinLayout(spec, cell_name)
        return layout

    def append_cell(
        self, name: str, spec: CellSpecLike, attrs: Dict[str, Any]
    ) -> int:
        """Number a new cell, its pins unconnected; returns its id.
        ``attrs`` is kept, not copied."""
        if name in self.cell_ids:
            raise ValueError(f"duplicate cell name {name!r}")
        layout = self.layout(spec, name)
        cell = len(self.cell_names)
        self.cell_ids[name] = cell
        self.cell_names.append(name)
        self.cell_specs.append(spec)
        self.cell_attrs.append(attrs)
        self.cell_layouts.append(layout)
        self._roles = None
        count = len(layout.pins)
        self.pin_cells.extend([cell] * count)
        self.pin_kinds.extend(layout.kinds)
        self.pin_nets.extend([-1] * count)
        self.cell_pins.append(len(self.pin_nets))
        return cell

    def net_id(self, name: str) -> int:
        """The id of the net called ``name``, numbered on first use."""
        net = self.net_ids.get(name)
        if net is None:
            net = self.net_ids[name] = len(self.net_names)
            self.net_names.append(name)
        return net

    def pin_id(self, cell: int, pin: str) -> int:
        """The id of pin ``pin`` of cell ``cell``."""
        layout = self.cell_layouts[cell]
        position = layout.index.get(pin)
        if position is None:
            raise KeyError(
                f"cell {self.cell_names[cell]!r} ({layout.spec.name}) has "
                f"no pin {pin!r}"
            )
        return self.cell_pins[cell] + position

    def connect_pin(self, pin: int, net_name: str) -> int:
        """Attach pin ``pin`` to the net called ``net_name`` (numbered on
        first use); returns the net's id."""
        net = self.net_id(net_name)
        current = self.pin_nets[pin]
        if current != net:
            if current >= 0:
                raise ValueError(
                    f"terminal {self.pin_full_name(pin)} is already on net "
                    f"{self.net_names[current]!r}"
                )
            self.pin_nets[pin] = net
            self._fans = None
        return net

    def respec(self, cell: int, spec: CellSpecLike) -> PinLayout:
        """Give cell ``cell`` a spec with the same pins; returns its
        layout."""
        layout = self.layout(spec)
        self.cell_specs[cell] = spec
        self.cell_layouts[cell] = layout
        self._roles = None
        return layout

    def fanout_index(self) -> FanoutIndex:
        """Every net's driver and sink pins, derived from :attr:`pin_nets`
        once per batch of connectivity changes."""
        fans = self._fans
        if fans is None:
            fans = self._fans = self._index_fanout()
        return fans

    def _index_fanout(self) -> FanoutIndex:
        output = TerminalKind.OUTPUT
        kinds = self.pin_kinds
        pin_nets = self.pin_nets
        driver_counts = [0] * (len(self.net_names) + 1)
        sink_counts = [0] * (len(self.net_names) + 1)
        for pin, net in enumerate(pin_nets):
            if net >= 0:
                if kinds[pin] is output:
                    driver_counts[net + 1] += 1
                else:
                    sink_counts[net + 1] += 1
        driver_starts = list(accumulate(driver_counts))
        sink_starts = list(accumulate(sink_counts))
        drivers = [0] * driver_starts[-1]
        sinks = [0] * sink_starts[-1]
        next_driver = driver_starts[:-1]
        next_sink = sink_starts[:-1]
        for pin, net in enumerate(pin_nets):
            if net >= 0:
                if kinds[pin] is output:
                    drivers[next_driver[net]] = pin
                    next_driver[net] += 1
                else:
                    sinks[next_sink[net]] = pin
                    next_sink[net] += 1
        return FanoutIndex(driver_starts, drivers, sink_starts, sinks)

    def pin_name(self, pin: int) -> str:
        cell = self.pin_cells[pin]
        return self.cell_layouts[cell].pins[pin - self.cell_pins[cell]]

    def pin_full_name(self, pin: int) -> str:
        """The ``cell/pin`` name of pin ``pin``."""
        return f"{self.cell_names[self.pin_cells[pin]]}/{self.pin_name(pin)}"

    def cell_ids_with_role(self, role: CellRole) -> List[int]:
        """Ids of the cells with ``role``, in network order (a copy)."""
        roles = self._roles
        if roles is None:
            roles = self._roles = {role: [] for role in CellRole}
            layouts = self.cell_layouts
            for cell in self.cell_ids.values():
                roles[layouts[cell].role].append(cell)
        return list(roles[role])

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    # setdefault: two threads asking at once get the same view.
    def cell_view(self, cell: int) -> Cell:
        view = self._cells.get(cell)
        if view is None:
            view = self._cells.setdefault(cell, Cell._view(self, cell))
        return view

    def net_view(self, net: int) -> Net:
        view = self._nets.get(net)
        if view is None:
            view = self._nets.setdefault(net, Net._view(self, net))
        return view

    def terminal_view(self, pin: int, keep: bool = True) -> Terminal:
        """The terminal of pin ``pin``.  With ``keep=False`` and no view
        of its cell yet, the terminal's cell is a view the network does
        not cache: it lives only as long as the caller holds it, and no
        other view of the cell exists meanwhile."""
        cell = self.pin_cells[pin]
        view = self._cells.get(cell)
        if view is None:
            view = Cell._view(self, cell)
            if keep:
                self._cells[cell] = view
        return view.terminal_at(pin - self.cell_pins[cell])

    def pin_of(self, terminal: Terminal) -> int:
        """The pin id of ``terminal``, a terminal of this network."""
        cell = terminal.cell
        if cell._network is not self:
            raise ValueError(
                f"terminal {terminal.full_name} is not in network "
                f"{self.name!r}"
            )
        return self.cell_pins[cell._id] + terminal.position

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_cell(self, cell: Cell) -> Cell:
        """Adopt the detached ``cell``: it becomes the network's view of
        a new cell."""
        if cell._network is not None:
            raise ValueError(f"cell {cell.name!r} is already in a network")
        cell_id = self.append_cell(cell.name, cell.spec, cell.attrs)
        cell._network = self
        cell._id = cell_id
        cell._layout = self.cell_layouts[cell_id]
        self._cells[cell_id] = cell
        return cell

    def add_net(self, name: str) -> Net:
        if name in self.net_ids:
            raise ValueError(f"duplicate net name {name!r}")
        return self.net_view(self.net_id(name))

    def net_or_create(self, name: str) -> Net:
        return self.net_view(self.net_id(name))

    def connect(self, net_name: str, terminal: Terminal) -> Net:
        """Attach ``terminal`` to the net called ``net_name`` (created on
        first use)."""
        return self.net_view(self.connect_pin(self.pin_of(terminal), net_name))

    def remove_cell(self, name: str) -> None:
        """Remove a cell, detaching its terminals from their nets.  Its
        view, if any, becomes a detached cell."""
        cell = self.cell_ids.get(name)
        if cell is None:
            raise KeyError(f"no cell named {name!r}")
        for pin in range(self.cell_pins[cell], self.cell_pins[cell + 1]):
            self.pin_nets[pin] = -1
        del self.cell_ids[name]
        self._fans = None
        self._roles = None
        view = self._cells.pop(cell, None)
        if view is not None:
            view._network = None
            view._id = -1

    def reconnect_sink(self, terminal: Terminal, net_name: str) -> Net:
        """Move a sink terminal onto another net (netlist surgery, e.g.
        buffer insertion).  The terminal must currently be a sink."""
        if terminal.is_driver:
            raise ValueError(
                f"{terminal.full_name} is a driver; only sinks can be "
                "reconnected"
            )
        pin = self.pin_of(terminal)
        if self.pin_nets[pin] >= 0:
            self.pin_nets[pin] = -1
            self._fans = None
        return self.net_view(self.connect_pin(pin, net_name))

    def remove_net_if_empty(self, name: str) -> bool:
        net = self.net_ids.get(name)
        if net is None:
            return False
        fans = self.fanout_index()
        if (
            fans.driver_starts[net] != fans.driver_starts[net + 1]
            or fans.sink_starts[net] != fans.sink_starts[net + 1]
        ):
            return False
        del self.net_ids[name]
        view = self._nets.pop(net, None)
        if view is not None:
            view._network = None
            view._id = -1
        return True

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def cell(self, name: str) -> Cell:
        cell = self.cell_ids.get(name)
        if cell is None:
            raise KeyError(f"no cell named {name!r}")
        return self.cell_view(cell)

    def net(self, name: str) -> Net:
        net = self.net_ids.get(name)
        if net is None:
            raise KeyError(f"no net named {name!r}")
        return self.net_view(net)

    def has_cell(self, name: str) -> bool:
        return name in self.cell_ids

    @property
    def cells(self) -> Tuple[Cell, ...]:
        return tuple([self.cell_view(cell) for cell in self.cell_ids.values()])

    @property
    def nets(self) -> Tuple[Net, ...]:
        return tuple([self.net_view(net) for net in self.net_ids.values()])

    @property
    def num_cells(self) -> int:
        return len(self.cell_ids)

    @property
    def num_nets(self) -> int:
        return len(self.net_ids)

    def cells_with_role(self, role: CellRole) -> Tuple[Cell, ...]:
        return tuple([self.cell_view(c) for c in self.cell_ids_with_role(role)])

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
        if net is None:
            return None
        drivers = net.drivers
        if not drivers:
            return None
        if len(drivers) > 1:
            raise ValueError(
                f"net {net.name!r} has multiple drivers; "
                "resolve tristate buses explicitly"
            )
        return drivers[0]

    def sinks_of(self, terminal: Terminal) -> Tuple[Terminal, ...]:
        """The sink terminals on ``terminal``'s net."""
        net = terminal.net
        if net is None:
            return ()
        return tuple(net.sinks)

    def comb_topological_cells(self) -> Tuple[Cell, ...]:
        """Combinational cells in topological (fanin-before-fanout) order
        (see :meth:`comb_topological_ids`)."""
        return tuple(
            [self.cell_view(cell) for cell in self.comb_topological_ids()]
        )

    def comb_topological_ids(self) -> List[int]:
        """Ids of the combinational cells in topological
        (fanin-before-fanout) order.

        One pass over each cell's output nets lists its distinct
        combinational fanout cells, in first-occurrence order, and counts
        every cell's indegree; Kahn's FIFO queue, seeded in network
        order, then emits the order.

        Raises :class:`CombinationalCycleError`, naming the cells that lie
        on a directed cycle, when the combinational portion of the
        network contains one.
        """
        comb = self.cell_ids_with_role(CellRole.COMBINATIONAL)
        count = len(self.cell_names)
        is_comb = [False] * count
        for cell in comb:
            is_comb[cell] = True
        fans = self.fanout_index()
        sink_starts, sinks = fans.sink_starts, fans.sinks
        pin_cells, pin_nets = self.pin_cells, self.pin_nets
        cell_pins, layouts = self.cell_pins, self.cell_layouts
        indegree = [0] * count
        fanout: List[Sequence[int]] = [()] * count
        # listed_by[j] is the last cell that listed j as a fanout, so a
        # repeated sink costs O(1) however wide its net is.
        listed_by = [-1] * count
        for cell in comb:
            downstream: List[int] = []
            first = cell_pins[cell]
            for position in layouts[cell].outputs:
                net = pin_nets[first + position]
                if net < 0:
                    continue
                for sink in sinks[sink_starts[net]:sink_starts[net + 1]]:
                    other = pin_cells[sink]
                    if is_comb[other] and listed_by[other] != cell:
                        listed_by[other] = cell
                        downstream.append(other)
                        indegree[other] += 1
            fanout[cell] = downstream
        ready = deque(cell for cell in comb if not indegree[cell])
        order: List[int] = []
        while ready:
            cell = ready.popleft()
            order.append(cell)
            for other in fanout[cell]:
                indegree[other] -= 1
                if not indegree[other]:
                    ready.append(other)
        if len(order) != len(comb):
            # Every cell left with indegree sits on a cycle or below one.
            stuck = [cell for cell in comb if indegree[cell]]
            raise CombinationalCycleError(
                sorted(
                    self.cell_names[cell] for cell in _on_cycles(fanout, stuck)
                )
            )
        return order

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Cell/net counts broken down by role (for Table-1 style rows)."""
        roles = {
            role: len(self.cell_ids_with_role(role)) for role in CellRole
        }
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


def _on_cycles(
    fanout: Sequence[Sequence[int]], nodes: Iterable[int]
) -> List[int]:
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

