"""Cluster extraction (paper, Section 7).

"A cluster is a maximal connected network of combinational logic elements.
All inputs to a cluster are synchronising element outputs and all outputs
from a cluster are synchronising element inputs."

Connectivity is through nets (two gates sharing a net -- as driver or
sink -- are in the same cluster).  Nets that connect a synchroniser output
directly to a synchroniser input with no combinational logic in between
form degenerate single-net clusters carrying a zero-delay path.

Clusters also precompute, per source terminal, the set of capture
terminals reachable through the cluster: the "cluster input-output
combinations between which switching paths exist" that drive the
requirement arcs of the break-open pass selection.  One forward sweep
over the cluster's cells, in topological order, computes every source's
reach set at once.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.netlist.cell import Cell, arc_pairs
from repro.netlist.kinds import CellRole
from repro.netlist.network import Network
from repro.netlist.terminals import Terminal, TerminalKind

#: Schema identifier of one cached per-cluster timing artifact.
ARTIFACT_SCHEMA = "repro.clusterart/2"


def cell_arc_pairs(cell: Cell) -> Tuple[Tuple[str, str], ...]:
    """The (input pin, output pin) connectivity of a combinational cell
    (:func:`~repro.netlist.cell.arc_pairs` of its spec)."""
    return arc_pairs(cell.spec)


class Cluster:
    """One maximal combinational network with its boundary terminals.

    A cluster holds ids of its network's numbered form: its cells (in
    topological order), its nets, and the pins of its sources and
    captures.  :attr:`cells`, :attr:`sources`, :attr:`captures` and
    :attr:`net_names` are views of them.  The constructor takes the
    views; :func:`extract_clusters` fills the ids directly.
    """

    def __init__(
        self,
        name: str,
        cells: Sequence[Cell],
        net_names: Iterable[str],
        sources: Sequence[Terminal],
        captures: Sequence[Terminal],
    ) -> None:
        network = next(
            (
                member._network
                for member in itertools.chain(
                    cells,
                    (terminal.cell for terminal in sources),
                    (terminal.cell for terminal in captures),
                )
            ),
            None,
        )
        if network is None:
            raise ValueError(f"cluster {name!r} touches no cell of a network")
        self._fill(
            name,
            network,
            tuple(cell._id for cell in cells),
            tuple(network.net_ids[net] for net in net_names),
            tuple(network.pin_of(terminal) for terminal in sources),
            tuple(network.pin_of(terminal) for terminal in captures),
        )

    @classmethod
    def _numbered(
        cls,
        name: str,
        network: Network,
        cell_ids: Tuple[int, ...],
        net_ids: Tuple[int, ...],
        source_pins: Tuple[int, ...],
        capture_pins: Tuple[int, ...],
    ) -> "Cluster":
        cluster = cls.__new__(cls)
        cluster._fill(
            name, network, cell_ids, net_ids, source_pins, capture_pins
        )
        return cluster

    def _fill(
        self,
        name: str,
        network: Network,
        cell_ids: Tuple[int, ...],
        net_ids: Tuple[int, ...],
        source_pins: Tuple[int, ...],
        capture_pins: Tuple[int, ...],
    ) -> None:
        self.name = name
        self.network = network
        #: Combinational cell ids in topological order.
        self.cell_ids = cell_ids
        #: Net ids, in name order for an extracted cluster.
        self.net_ids = net_ids
        #: Pins of the synchroniser outputs / primary inputs driving
        #: cluster nets.
        self.source_pins = source_pins
        #: Pins of the synchroniser data inputs / primary outputs fed by
        #: cluster nets.
        self.capture_pins = capture_pins
        self._reach: Dict[str, FrozenSet[str]] = {}

    @property
    def cells(self) -> Tuple[Cell, ...]:
        """Combinational cells in topological order."""
        view = self.network.cell_view
        return tuple([view(cell) for cell in self.cell_ids])

    @property
    def net_names(self) -> FrozenSet[str]:
        names = self.network.net_names
        return frozenset([names[net] for net in self.net_ids])

    @property
    def sources(self) -> Tuple[Terminal, ...]:
        """Synchroniser outputs / primary inputs driving cluster nets."""
        view = self.network.terminal_view
        return tuple([view(pin) for pin in self.source_pins])

    @property
    def captures(self) -> Tuple[Terminal, ...]:
        """Synchroniser data inputs / primary outputs fed by cluster
        nets."""
        view = self.network.terminal_view
        return tuple([view(pin) for pin in self.capture_pins])

    @property
    def is_degenerate(self) -> bool:
        """True for direct synchroniser-to-synchroniser nets."""
        return not self.cell_ids

    def reachable_captures(self, network: Network) -> Dict[str, FrozenSet[str]]:
        """Map each source terminal's full name to the full names of the
        capture terminals a switching path can reach.

        One pass over :attr:`cell_ids` (already topologically ordered)
        carries a Python-int bitset per net, bit ``i`` standing for
        ``source_pins[i]``: each cell arc ORs its input net's bits into
        its output net's.  A capture's bits then name the sources
        reaching it.
        """
        if self._reach:
            return self._reach
        pin_nets = network.pin_nets
        cell_pins, layouts = network.cell_pins, network.cell_layouts
        bits: Dict[int, int] = {}
        for index, source in enumerate(self.source_pins):
            net = pin_nets[source]
            bits[net] = bits.get(net, 0) | (1 << index)
        for cell in self.cell_ids:
            first = cell_pins[cell]
            for in_position, out_position in layouts[cell].arcs:
                in_net = pin_nets[first + in_position]
                reached = bits.get(in_net, 0) if in_net >= 0 else 0
                out_net = pin_nets[first + out_position]
                if reached and out_net >= 0:
                    bits[out_net] = bits.get(out_net, 0) | reached
        captures_of: List[List[str]] = [[] for _ in self.source_pins]
        for capture in self.capture_pins:
            reached = bits.get(pin_nets[capture], 0)
            name = network.pin_full_name(capture)
            while reached:
                lowest = reached & -reached
                captures_of[lowest.bit_length() - 1].append(name)
                reached ^= lowest
        self._reach = {
            network.pin_full_name(source): frozenset(names)
            for source, names in zip(self.source_pins, captures_of)
        }
        return self._reach

    def seed_reachability(
        self, reach: Mapping[str, Iterable[str]]
    ) -> None:
        """Install a precomputed source-to-capture reachability map.

        Used by the cluster-granular result cache: a cached
        ``repro.clusterart/2`` artifact carries the exact map the sweep
        in :meth:`reachable_captures` would compute, so a warm analysis
        can skip it for clean clusters.  The map must come from an
        artifact whose :func:`~repro.service.digest.cluster_digest`
        matches this cluster -- the cache layer guarantees that.
        """
        self._reach = {
            source: frozenset(captures)
            for source, captures in reach.items()
        }

    def _nets_reachable_from(
        self, network: Network, start_net: str
    ) -> FrozenSet[str]:
        """Nets reachable from ``start_net`` by breadth-first search: the
        slow, obviously-right reference for :meth:`reachable_captures`."""
        reached = {start_net}
        frontier = [start_net]
        while frontier:
            net = network.net(frontier.pop())
            for sink in net.sinks:
                cell = sink.cell
                if not cell.is_combinational:
                    continue
                for in_pin, out_pin in cell_arc_pairs(cell):
                    if in_pin != sink.pin:
                        continue
                    out_net = cell.terminal(out_pin).net
                    if out_net is not None and out_net.name not in reached:
                        reached.add(out_net.name)
                        frontier.append(out_net.name)
        return frozenset(reached)

    def __repr__(self) -> str:
        return (
            f"Cluster({self.name!r}, cells={len(self.cell_ids)}, "
            f"sources={len(self.source_pins)}, "
            f"captures={len(self.capture_pins)})"
        )


def extract_clusters(
    network: Network, order: Optional[Sequence[Union[Cell, int]]] = None
) -> Tuple[Cluster, ...]:
    """Partition the combinational logic of ``network`` into clusters.

    ``order`` is the network's combinational cells in topological order,
    as cells (``network.comb_topological_cells()``) or as ids
    (``ValidationReport.comb_ids`` from
    :func:`~repro.netlist.validate.validate_network`), when the caller
    already has it; it is computed here otherwise.

    A union-find over node numbers -- net ids, then cell ids offset by
    the net count -- joins each combinational cell with the net of
    every connected pin.
    """
    if order is None:
        cell_order = network.comb_topological_ids()
    else:
        cell_order = [
            cell._id if isinstance(cell, Cell) else cell for cell in order
        ]
    cell_pins = network.cell_pins
    pin_nets, net_names = network.pin_nets, network.net_names
    first_cell = len(net_names)
    parent = list(range(first_cell + len(network.cell_names)))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        # Path compression: point every node on the walk at the root.
        while node != root:
            up = parent[node]
            parent[node] = root
            node = up
        return root

    # Union each combinational cell, in network order, with every net it
    # touches, in pin order.  A cell is joined only in its own turn, so
    # it is still a root then, and it stays the root of all it joins:
    # every component's root is a cell, and clusters are numbered in
    # the order of their root cells' names.  Another rule (e.g. by rank)
    # would rename clusters.
    for cell in network.cell_ids_with_role(CellRole.COMBINATIONAL):
        number = first_cell + cell
        for pin in range(cell_pins[cell], cell_pins[cell + 1]):
            net = pin_nets[pin]
            if net >= 0:
                root = find(net)
                if root != number:
                    parent[root] = number

    # Group combinational cells and their nets by component root.
    cells_by_root: Dict[int, List[int]] = {}
    for cell in cell_order:
        cells_by_root.setdefault(find(first_cell + cell), []).append(cell)

    nets_by_root: Dict[int, List[int]] = {}
    degenerate: List[Tuple[str, List[int], List[int]]] = []
    for net in network.net_ids.values():
        root = find(net)
        if root != net:
            nets_by_root.setdefault(root, []).append(net)
        else:
            # Net touching no combinational cell: a cluster of its own if
            # it links a launch terminal to a capture terminal.
            sources, captures = _boundary_pins(network, (net,))
            if sources and captures:
                degenerate.append((net_names[net], sources, captures))

    names = network.cell_names
    roots = sorted(cells_by_root, key=lambda root: names[root - first_cell])
    clusters: List[Cluster] = []
    for index, root in enumerate(roots):
        cluster_nets = sorted(
            nets_by_root.get(root, ()), key=net_names.__getitem__
        )
        sources, captures = _boundary_pins(network, cluster_nets)
        clusters.append(
            Cluster._numbered(
                f"cluster_{index}",
                network,
                tuple(cells_by_root[root]),
                tuple(cluster_nets),
                tuple(sources),
                tuple(captures),
            )
        )
    # Net names are unique, so the rows sort by name alone.
    for net_name, sources, captures in sorted(degenerate):
        clusters.append(
            Cluster._numbered(
                f"cluster_net_{net_name}",
                network,
                (),
                (network.net_ids[net_name],),
                tuple(sources),
                tuple(captures),
            )
        )
    return tuple(clusters)


def cluster_timing_artifact(
    network: Network, cluster: Cluster
) -> Dict[str, object]:
    """One cluster's cacheable artifact (``repro.clusterart/2``).

    ``reach`` is the exact source-to-capture reachability map the
    break-open pass selection needs (:meth:`Cluster.reachable_captures`),
    reusable via :meth:`Cluster.seed_reachability`.  A warm run is
    byte-identical to a cold one because ``reach`` *is* the cold sweep's
    output.
    """
    reach = cluster.reachable_captures(network)
    return {
        "schema": ARTIFACT_SCHEMA,
        "cluster": cluster.name,
        "cells": len(cluster.cells),
        "reach": {
            source: sorted(captures)
            for source, captures in reach.items()
        },
    }


def _boundary_pins(
    network: Network, nets: Iterable[int]
) -> Tuple[List[int], List[int]]:
    """The launch pins driving ``nets`` (synchroniser outputs and primary
    inputs) and the capture pins they feed (synchroniser data inputs and
    primary outputs), in net and pin order."""
    synchroniser = CellRole.SYNCHRONISER
    primary_input = CellRole.PRIMARY_INPUT
    primary_output = CellRole.PRIMARY_OUTPUT
    data_input = TerminalKind.INPUT
    fans = network.fanout_index()
    driver_starts, drivers = fans.driver_starts, fans.drivers
    sink_starts, sinks = fans.sink_starts, fans.sinks
    layouts, pin_cells = network.cell_layouts, network.pin_cells
    pin_kinds = network.pin_kinds
    sources: List[int] = []
    captures: List[int] = []
    for net in nets:
        for driver in drivers[driver_starts[net]:driver_starts[net + 1]]:
            role = layouts[pin_cells[driver]].role
            if role is synchroniser or role is primary_input:
                sources.append(driver)
        for sink in sinks[sink_starts[net]:sink_starts[net + 1]]:
            role = layouts[pin_cells[sink]].role
            if role is primary_output or (
                role is synchroniser and pin_kinds[sink] is data_input
            ):
                captures.append(sink)
    return sources, captures
