"""Nets: the wires connecting cell terminals."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.netlist.terminals import Terminal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.netlist.network import Network


class Net:
    """A wire with exactly one driver and any number of sinks.

    Multiple drivers on one net are only legal when every driver is a
    clocked tristate element; :mod:`repro.netlist.validate` enforces that.
    For generality the net therefore keeps a driver *list*; :attr:`driver`
    returns the single driver and raises on tristate buses.

    A net is a view of one net of its network's numbered form: drivers
    and sinks are listed fresh, in pin order, on every access.  A net
    built here, or removed from its network, has neither.
    """

    __slots__ = ("name", "_network", "_id")

    def __init__(self, name: str) -> None:
        self.name = name
        self._network: Optional["Network"] = None
        self._id = -1

    @classmethod
    def _view(cls, network: "Network", net_id: int) -> "Net":
        """The view of net ``net_id`` of ``network`` (which caches it)."""
        net = cls.__new__(cls)
        net.name = network.net_names[net_id]
        net._network = network
        net._id = net_id
        return net

    def _terminals(self, sinks: bool) -> List[Terminal]:
        network = self._network
        if network is None:
            return []
        fans = network.fanout_index()
        if sinks:
            starts, pins = fans.sink_starts, fans.sinks
        else:
            starts, pins = fans.driver_starts, fans.drivers
        terminal = network.terminal_view
        net = self._id
        return [terminal(pin) for pin in pins[starts[net]:starts[net + 1]]]

    @property
    def drivers(self) -> List[Terminal]:
        return self._terminals(sinks=False)

    @property
    def sinks(self) -> List[Terminal]:
        return self._terminals(sinks=True)

    @property
    def driver(self) -> Terminal:
        drivers = self.drivers
        if len(drivers) != 1:
            raise ValueError(
                f"net {self.name!r} has {len(drivers)} drivers; "
                "use .drivers for tristate buses"
            )
        return drivers[0]

    @property
    def terminals(self) -> Tuple[Terminal, ...]:
        return tuple(self.drivers) + tuple(self.sinks)

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    def __repr__(self) -> str:
        return (
            f"Net({self.name!r}, drivers={len(self.drivers)}, "
            f"sinks={len(self.sinks)})"
        )

