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
from repro.netlist.network import Network
from repro.netlist.terminals import Terminal

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


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def find(self, key: str) -> str:
        parent = self._parent
        root = parent.setdefault(key, key)
        while parent[root] != root:
            root = parent[root]
        # Path compression: point every key on the walk at the root.
        while key != root:
            up = parent[key]
            parent[key] = root
            key = up
        return root

    def union(self, a: str, b: str) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            # Always ``a``'s root: cluster names follow the sorted root
            # keys, so another rule (e.g. by rank) would rename clusters.
            self._parent[root_b] = root_a


def _is_launch_terminal(terminal: Terminal) -> bool:
    cell = terminal.cell
    return (
        cell.is_synchroniser and terminal.is_driver
    ) or cell.role is CellRole.PRIMARY_INPUT


def _is_capture_terminal(terminal: Terminal) -> bool:
    cell = terminal.cell
    if cell.is_synchroniser:
        return terminal is cell.data_input
    return cell.role is CellRole.PRIMARY_OUTPUT


def extract_clusters(
    network: Network, order: Optional[Sequence[Cell]] = None
) -> Tuple[Cluster, ...]:
    """Partition the combinational logic of ``network`` into clusters.

    ``order`` is ``network.comb_topological_cells()`` when the caller
    already has it (``ValidationReport.comb_order`` from
    :func:`~repro.netlist.validate.validate_network`); it is computed
    here otherwise.
    """
    uf = _UnionFind()
    # Union each combinational cell with every net it touches.
    for cell in network.combinational_cells:
        cell_key = f"c:{cell.name}"
        for terminal in cell.terminals():
            if terminal.net is not None:
                uf.union(cell_key, f"n:{terminal.net.name}")

    # Group combinational cells and their nets by component root.
    if order is None:
        order = network.comb_topological_cells()
    cells_by_root: Dict[str, List[Cell]] = {}
    for cell in order:
        cells_by_root.setdefault(uf.find(f"c:{cell.name}"), []).append(cell)

    nets_by_root: Dict[str, List[str]] = {}
    degenerate_nets: List[str] = []
    for net in network.nets:
        key = f"n:{net.name}"
        root = uf.find(key)
        if root != key or root in cells_by_root:
            nets_by_root.setdefault(root, []).append(net.name)
        else:
            # Net touching no combinational cell: a cluster of its own if
            # it links a launch terminal to a capture terminal.
            has_launch = any(_is_launch_terminal(t) for t in net.drivers)
            has_capture = any(_is_capture_terminal(t) for t in net.sinks)
            if has_launch and has_capture:
                degenerate_nets.append(net.name)

    clusters: List[Cluster] = []
    for index, (root, cells) in enumerate(sorted(cells_by_root.items())):
        net_names = sorted(nets_by_root.get(root, ()))
        sources, captures = _boundary_terminals(network, net_names)
        clusters.append(
            Cluster(f"cluster_{index}", cells, net_names, sources, captures)
        )
    for net_name in sorted(degenerate_nets):
        sources, captures = _boundary_terminals(network, [net_name])
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
    network: Network, net_names: Sequence[str]
) -> Tuple[List[Terminal], List[Terminal]]:
    sources: List[Terminal] = []
    captures: List[Terminal] = []
    for net_name in net_names:
        net = network.net(net_name)
        for driver in net.drivers:
            if _is_launch_terminal(driver):
                sources.append(driver)
        for sink in net.sinks:
            if _is_capture_terminal(sink):
                captures.append(sink)
    return sources, captures
