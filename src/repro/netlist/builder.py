"""Fluent construction API for networks.

Example
-------
>>> from repro.cells import standard_library
>>> from repro.netlist import NetworkBuilder
>>> lib = standard_library()
>>> b = NetworkBuilder(lib, name="demo")
>>> b.clock("phi1")                                    # doctest: +ELLIPSIS
Cell(...)
>>> b.input("in_a", "n_a", clock="phi1")               # doctest: +ELLIPSIS
Cell(...)
>>> b.gate("g1", "INV", A="n_a", Z="n_b")              # doctest: +ELLIPSIS
Cell(...)
>>> b.latch("l1", "DLATCH", D="n_b", G="phi1", Q="n_c")  # doctest: +ELLIPSIS
Cell(...)
>>> b.output("out", "n_c", clock="phi1")               # doctest: +ELLIPSIS
Cell(...)
>>> net = b.build()
>>> net.num_cells
5
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Type

from repro.netlist.cell import Cell
from repro.netlist.kinds import CellSpecLike
from repro.netlist.network import Network
from repro.netlist.ports import (
    CLOCK_SOURCE_SPEC,
    PRIMARY_INPUT_SPEC,
    PRIMARY_OUTPUT_SPEC,
)


class SpecSource(Protocol):
    """Anything that can resolve a spec name (e.g. a CellLibrary)."""

    def spec(self, name: str) -> CellSpecLike: ...


def add_instances(
    network: Network,
    library: SpecSource,
    instances: List[Dict[str, Any]],
    error: Type[ValueError],
) -> None:
    """Add the library cells a netlist reader parsed, one
    ``{"name", "spec", "pins"}`` entry each (``pins``: pin -> net).  An
    unknown spec or pin raises ``error`` naming the cell and the spec or
    pin."""
    for entry in instances:
        name, spec_name = entry["name"], entry["spec"]
        try:
            spec = library.spec(spec_name)
        except KeyError:
            raise error(f"cell {name!r}: unknown spec {spec_name!r}") from None
        cell = network.add_cell(Cell(name, spec))
        for pin, net_name in entry["pins"].items():
            try:
                terminal = cell.terminal(pin)
            except KeyError as exc:
                raise error(exc.args[0]) from None
            network.connect(net_name, terminal)


class NetworkBuilder:
    """Incrementally build a :class:`~repro.netlist.network.Network`.

    Pin-to-net bindings are given as keyword arguments, pin name -> net
    name.  Nets are created on first use.
    """

    def __init__(
        self, library: Optional[SpecSource] = None, name: str = "top"
    ) -> None:
        self._library = library
        self._network = Network(name)

    @property
    def network(self) -> Network:
        """The network under construction (also returned by :meth:`build`)."""
        return self._network

    # ------------------------------------------------------------------
    # cells
    # ------------------------------------------------------------------
    def instantiate(
        self,
        name: str,
        spec: CellSpecLike,
        attrs: Optional[Dict[str, Any]] = None,
        **pins: str,
    ) -> Cell:
        """Add a cell with an explicit spec object and connect its pins."""
        network = self._network
        cell = network.add_cell(Cell(name, spec, attrs))
        for pin, net_name in pins.items():
            network.connect_pin(network.pin_id(cell._id, pin), net_name)
        return cell

    def gate(
        self,
        name: str,
        spec_name: str,
        attrs: Optional[Dict[str, Any]] = None,
        **pins: str,
    ) -> Cell:
        """Add a library cell by spec name (requires a library)."""
        if self._library is None:
            raise ValueError("builder was created without a cell library")
        return self.instantiate(name, self._library.spec(spec_name), attrs, **pins)

    #: Synchroniser instantiation reads identically to a gate; the alias
    #: exists so that netlist-construction code states intent.
    latch = gate

    def clock(self, clock_name: str, net_name: Optional[str] = None) -> Cell:
        """Add a clock generator driving net ``net_name`` (default: the
        clock's own name)."""
        return self.instantiate(
            f"clkgen_{clock_name}",
            CLOCK_SOURCE_SPEC,
            attrs={"clock": clock_name},
            Z=net_name or clock_name,
        )

    def input(
        self,
        name: str,
        net_name: str,
        clock: str,
        edge: str = "trailing",
        pulse_index: int = 0,
        offset: float = 0.0,
    ) -> Cell:
        """Add a primary input pad asserting onto ``net_name``."""
        return self.instantiate(
            name,
            PRIMARY_INPUT_SPEC,
            attrs={
                "clock": clock,
                "edge": edge,
                "pulse_index": pulse_index,
                "offset": offset,
            },
            Z=net_name,
        )

    def output(
        self,
        name: str,
        net_name: str,
        clock: str,
        edge: str = "trailing",
        pulse_index: int = 0,
        offset: float = 0.0,
    ) -> Cell:
        """Add a primary output pad capturing from ``net_name``."""
        return self.instantiate(
            name,
            PRIMARY_OUTPUT_SPEC,
            attrs={
                "clock": clock,
                "edge": edge,
                "pulse_index": pulse_index,
                "offset": offset,
            },
            A=net_name,
        )

    # ------------------------------------------------------------------
    # finishing
    # ------------------------------------------------------------------
    def build(self) -> Network:
        """Return the constructed network."""
        return self._network
