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

from operator import attrgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.netlist.cell import Cell
from repro.netlist.kinds import CellRole
from repro.netlist.net import Net
from repro.netlist.network import Network
from repro.netlist.terminals import Terminal, TerminalKind

#: Schema identifier of one cached per-cluster timing artifact.
ARTIFACT_SCHEMA = "repro.clusterart/2"


def cell_arc_pairs(cell: Cell) -> Tuple[Tuple[str, str], ...]:
    """The (input pin, output pin) connectivity of a combinational cell.

    Uses the spec's timing arcs when available; otherwise assumes every
    input reaches every output.
    """
    arcs = getattr(cell.spec, "arcs", None)
    if arcs:
        return tuple(arcs.keys())
    return tuple(
        (i, o) for i in cell.spec.inputs for o in cell.spec.outputs
    )


class Cluster:
    """One maximal combinational network with its boundary terminals."""

    def __init__(
        self,
        name: str,
        cells: Sequence[Cell],
        net_names: Iterable[str],
        sources: Sequence[Terminal],
        captures: Sequence[Terminal],
    ) -> None:
        self.name = name
        #: Combinational cells in topological order.
        self.cells: Tuple[Cell, ...] = tuple(cells)
        self.net_names: FrozenSet[str] = frozenset(net_names)
        #: Synchroniser outputs / primary inputs driving cluster nets.
        self.sources: Tuple[Terminal, ...] = tuple(sources)
        #: Synchroniser data inputs / primary outputs fed by cluster nets.
        self.captures: Tuple[Terminal, ...] = tuple(captures)
        self._reach: Dict[str, FrozenSet[str]] = {}

    @property
    def is_degenerate(self) -> bool:
        """True for direct synchroniser-to-synchroniser nets."""
        return not self.cells

    def reachable_captures(self, network: Network) -> Dict[str, FrozenSet[str]]:
        """Map each source terminal's full name to the full names of the
        capture terminals a switching path can reach.

        One pass over :attr:`cells` (already topologically ordered)
        carries a Python-int bitset per net, bit ``i`` standing for
        ``sources[i]``: each cell arc ORs its input net's bits into its
        output net's.  A capture's bits then name the sources reaching
        it.
        """
        if self._reach:
            return self._reach
        bits: Dict[str, int] = {}
        for index, source in enumerate(self.sources):
            assert source.net is not None
            name = source.net.name
            bits[name] = bits.get(name, 0) | (1 << index)
        for cell in self.cells:
            for in_pin, out_pin in cell_arc_pairs(cell):
                in_net = cell.terminal(in_pin).net
                reached = bits.get(in_net.name, 0) if in_net is not None else 0
                out_net = cell.terminal(out_pin).net
                if reached and out_net is not None:
                    bits[out_net.name] = bits.get(out_net.name, 0) | reached
        captures_of: List[List[str]] = [[] for _ in self.sources]
        for capture in self.captures:
            assert capture.net is not None
            reached = bits.get(capture.net.name, 0)
            name = capture.full_name
            while reached:
                lowest = reached & -reached
                captures_of[lowest.bit_length() - 1].append(name)
                reached ^= lowest
        self._reach = {
            source.full_name: frozenset(names)
            for source, names in zip(self.sources, captures_of)
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
            f"Cluster({self.name!r}, cells={len(self.cells)}, "
            f"sources={len(self.sources)}, captures={len(self.captures)})"
        )


def extract_clusters(
    network: Network, order: Optional[Sequence[Cell]] = None
) -> Tuple[Cluster, ...]:
    """Partition the combinational logic of ``network`` into clusters.

    ``order`` is ``network.comb_topological_cells()`` when the caller
    already has it (``ValidationReport.comb_order`` from
    :func:`~repro.netlist.validate.validate_network`); it is computed
    here otherwise.

    A union-find over numbers -- the nets in network order, then the
    combinational cells -- joins each cell with the net of every
    connected terminal.
    """
    nets = network.nets
    comb = network.combinational_cells
    net_number = {net: index for index, net in enumerate(nets)}
    cell_number = {
        cell: index for index, cell in enumerate(comb, start=len(nets))
    }
    parent = list(range(len(nets) + len(comb)))

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
    for cell, number in cell_number.items():
        for terminal in cell.terminals():
            if terminal.net is not None:
                root = find(net_number[terminal.net])
                if root != number:
                    parent[root] = number

    # Group combinational cells and their nets by component root.
    if order is None:
        order = network.comb_topological_cells()
    cells_by_root: Dict[int, List[Cell]] = {}
    for cell in order:
        cells_by_root.setdefault(find(cell_number[cell]), []).append(cell)

    nets_by_root: Dict[int, List[Net]] = {}
    degenerate: List[Tuple[str, List[Terminal], List[Terminal]]] = []
    for index, net in enumerate(nets):
        root = find(index)
        if root != index:
            nets_by_root.setdefault(root, []).append(net)
        else:
            # Net touching no combinational cell: a cluster of its own if
            # it links a launch terminal to a capture terminal.
            sources, captures = _boundary_terminals((net,))
            if sources and captures:
                degenerate.append((net.name, sources, captures))

    first = len(nets)
    roots = sorted(cells_by_root, key=lambda root: comb[root - first].name)
    clusters: List[Cluster] = []
    for index, root in enumerate(roots):
        cluster_nets = sorted(
            nets_by_root.get(root, ()), key=attrgetter("name")
        )
        sources, captures = _boundary_terminals(cluster_nets)
        clusters.append(
            Cluster(
                f"cluster_{index}",
                cells_by_root[root],
                [net.name for net in cluster_nets],
                sources,
                captures,
            )
        )
    # Net names are unique, so the rows sort by name alone.
    for net_name, sources, captures in sorted(degenerate):
        clusters.append(
            Cluster(f"cluster_net_{net_name}", (), [net_name], sources, captures)
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


def _boundary_terminals(
    nets: Iterable[Net],
) -> Tuple[List[Terminal], List[Terminal]]:
    """The launch terminals driving ``nets`` (synchroniser outputs and
    primary inputs) and the capture terminals they feed (synchroniser
    data inputs and primary outputs), in net and pin order."""
    synchroniser = CellRole.SYNCHRONISER
    primary_input = CellRole.PRIMARY_INPUT
    primary_output = CellRole.PRIMARY_OUTPUT
    data_input = TerminalKind.INPUT
    sources: List[Terminal] = []
    captures: List[Terminal] = []
    for net in nets:
        for driver in net.drivers:
            role = driver.cell.spec.role
            if role is synchroniser or role is primary_input:
                sources.append(driver)
        for sink in net.sinks:
            role = sink.cell.spec.role
            if role is primary_output or (
                role is synchroniser and sink.kind is data_input
            ):
                captures.append(sink)
    return sources, captures
