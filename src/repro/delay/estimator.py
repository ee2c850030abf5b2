"""Load-dependent delay estimation over a network.

:func:`estimate_delays` computes every combinational arc's maximum and
minimum rise/fall propagation delay and every synchroniser's timing
parameters, producing the :class:`DelayMap` the system-level analysis
consumes.  The map also supports the interactive adjustments the paper's
Section 8 mentions ("Adjustments may also be made to component delays").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import AbstractSet, Dict, Mapping, Optional, Tuple

from repro import obs
from repro.cells.combinational import GateSpec
from repro.cells.sequential import SyncSpec
from repro.netlist.cell import Cell
from repro.netlist.hierarchy import ModuleSpec
from repro.netlist.kinds import CellRole, Unateness
from repro.netlist.network import Network
from repro.rftime import RiseFall


@dataclass(frozen=True)
class DelayParameters:
    """Knobs of the empirical estimation.

    ``wire_cap_per_fanout`` models routing load in the pre-layout setting
    the paper targets (analysis inside the synthesis loop, before place and
    route).  ``min_derate`` converts maximum delays into the minimum delays
    used by the supplementary-constraint extension.  ``module_port_load``
    is the load assumed for nets driving a module's output ports when the
    module is characterised in isolation.  Every load must be finite and
    non-negative.
    """

    wire_cap_per_fanout: float = 0.4
    default_pin_cap: float = 1.0
    min_derate: float = 0.45
    module_port_load: float = 3.0
    dangling_output_load: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.min_derate <= 1:
            raise ValueError("min_derate must be in (0, 1]")
        for name in (
            "wire_cap_per_fanout",
            "default_pin_cap",
            "module_port_load",
            "dangling_output_load",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )


@dataclass(frozen=True)
class SyncTiming:
    """Per-instance synchroniser timing (the paper's Section 5 symbols).

    ``c_to_q_min`` is the derated minimum clock-to-output delay, used by
    the classic same-edge hold check (:func:`repro.core.mindelay.check_hold`).
    """

    setup: float  # D_setup
    d_to_q: float  # D_dz
    c_to_q: float  # D_cz
    hold: float
    c_to_q_min: float = 0.0


#: Key of one timing arc in a :class:`DelayMap`: (cell name, input pin,
#: output pin).
ArcKey = Tuple[str, str, str]


class DelayMap:
    """Estimated component delays for one network.

    Queried by the analysis through :meth:`arc_delay`,
    :meth:`arc_delay_min`, :meth:`arc_unateness`, :meth:`arcs_of` and
    :meth:`sync_timing`; the slack engine reads :attr:`max_delays` and
    :attr:`senses` by the keys of :meth:`arc_keys`.  Immutable from
    the analysis's point of view; :meth:`with_scaled_cell` and
    :meth:`with_arc_override` return modified copies for what-if
    exploration and for the re-synthesis loop.
    """

    def __init__(
        self,
        arc_max: Dict[ArcKey, RiseFall],
        arc_min: Dict[ArcKey, RiseFall],
        arc_sense: Dict[ArcKey, Unateness],
        cell_arcs: Dict[str, Tuple[Tuple[str, str], ...]],
        arc_keys: Dict[str, Tuple[ArcKey, ...]],
        sync: Dict[str, SyncTiming],
    ) -> None:
        self._arc_max = arc_max
        self._arc_min = arc_min
        self._arc_sense = arc_sense
        self._cell_arcs = cell_arcs
        self._arc_keys = arc_keys
        self._sync = sync

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def arcs_of(self, cell: Cell) -> Tuple[Tuple[str, str], ...]:
        """The (input pin, output pin) arcs of ``cell``."""
        return self._cell_arcs.get(cell.name, ())

    def arc_keys(self, cell: Cell) -> Tuple[ArcKey, ...]:
        """The :data:`ArcKey` of each of ``cell``'s arcs, in
        :meth:`arcs_of` order."""
        return self._arc_keys.get(cell.name, ())

    @property
    def max_delays(self) -> Mapping[ArcKey, RiseFall]:
        """Read-only view of every arc's maximum propagation delay."""
        return MappingProxyType(self._arc_max)

    @property
    def senses(self) -> Mapping[ArcKey, Unateness]:
        """Read-only view of every arc's unateness."""
        return MappingProxyType(self._arc_sense)

    def arc_delay(self, cell: Cell, in_pin: str, out_pin: str) -> RiseFall:
        """Maximum propagation delay of an arc."""
        return self._arc_max[(cell.name, in_pin, out_pin)]

    def arc_delay_min(self, cell: Cell, in_pin: str, out_pin: str) -> RiseFall:
        """Minimum propagation delay of an arc."""
        return self._arc_min[(cell.name, in_pin, out_pin)]

    def arc_unateness(self, cell: Cell, in_pin: str, out_pin: str) -> Unateness:
        return self._arc_sense[(cell.name, in_pin, out_pin)]

    def sync_timing(self, cell: Cell) -> SyncTiming:
        """Timing parameters of a synchroniser instance."""
        try:
            return self._sync[cell.name]
        except KeyError:
            raise KeyError(
                f"{cell.name!r} has no synchroniser timing (role: "
                f"{cell.role.value})"
            ) from None

    def worst_arc_delay(self, cell: Cell) -> float:
        """Worst max delay over all arcs of ``cell`` (reporting aid)."""
        return max(
            (
                self._arc_max[(cell.name, i, o)].worst
                for i, o in self.arcs_of(cell)
            ),
            default=0.0,
        )

    # ------------------------------------------------------------------
    # what-if modification
    # ------------------------------------------------------------------
    def with_scaled_cell(self, cell_name: str, factor: float) -> "DelayMap":
        """A copy with every arc of ``cell_name`` scaled by ``factor``.

        This is the re-synthesis model's hook: "speeding up" a module
        multiplies its delays by a factor < 1.
        """
        check_scale_factor(factor)
        arc_max = dict(self._arc_max)
        arc_min = dict(self._arc_min)
        for key in self._arc_keys.get(cell_name, ()):
            arc_max[key] = arc_max[key].scaled(factor)
            arc_min[key] = arc_min[key].scaled(factor)
        return DelayMap(
            arc_max, arc_min, self._arc_sense, self._cell_arcs,
            self._arc_keys, self._sync,
        )

    def globally_scaled(self, factor: float) -> "DelayMap":
        """Every arc delay *and* every synchroniser parameter scaled.

        ``factor`` near zero approximates the paper's *ideal system*
        ("all synchronising elements switch with zero delay; ... other
        paths switch with arbitrarily small, but finite, delays") -- the
        reference the event simulator compares against.
        """
        check_scale_factor(factor)
        return DelayMap(
            {k: v.scaled(factor) for k, v in self._arc_max.items()},
            {k: v.scaled(factor) for k, v in self._arc_min.items()},
            self._arc_sense,
            self._cell_arcs,
            self._arc_keys,
            {
                name: SyncTiming(
                    setup=t.setup * factor,
                    d_to_q=t.d_to_q * factor,
                    c_to_q=t.c_to_q * factor,
                    hold=t.hold * factor,
                    c_to_q_min=t.c_to_q_min * factor,
                )
                for name, t in self._sync.items()
            },
        )

    def with_arc_override(
        self,
        cell_name: str,
        in_pin: str,
        out_pin: str,
        max_delay: RiseFall,
        min_delay: Optional[RiseFall] = None,
    ) -> "DelayMap":
        """A copy with one arc's delays replaced."""
        key = (cell_name, in_pin, out_pin)
        if key not in self._arc_max:
            raise KeyError(f"no arc {in_pin}->{out_pin} on cell {cell_name!r}")
        arc_max = dict(self._arc_max)
        arc_min = dict(self._arc_min)
        arc_max[key] = max_delay
        arc_min[key] = min_delay if min_delay is not None else max_delay
        return DelayMap(
            arc_max, arc_min, self._arc_sense, self._cell_arcs,
            self._arc_keys, self._sync,
        )


def check_scale_factor(factor: float) -> None:
    """Reject a delay scale factor that is negative, NaN or infinite."""
    if not (math.isfinite(factor) and factor >= 0):
        raise ValueError(
            f"scale factor must be finite and non-negative, got {factor!r}"
        )


def terminal_load(
    network: Network, terminal, params: DelayParameters
) -> float:
    """Connected load seen by an output terminal."""
    net = terminal.net
    if net is None or not net.sinks:
        return params.dangling_output_load
    total = params.wire_cap_per_fanout * len(net.sinks)
    for sink in net.sinks:
        spec = sink.cell.spec
        cap_fn = getattr(spec, "input_cap", None)
        total += cap_fn(sink.pin) if cap_fn else params.default_pin_cap
    return total


def estimate_delays(
    network: Network, params: Optional[DelayParameters] = None
) -> DelayMap:
    """Estimate all component delays of ``network``."""
    with obs.span(
        "delay.estimate", category="delay", network=network.name
    ):
        return _estimate_delays(network, params)


def _estimate_delays(
    network: Network,
    params: Optional[DelayParameters],
    port_nets: AbstractSet[str] = frozenset(),
) -> DelayMap:
    """The body of :func:`estimate_delays`.

    Gate outputs driving a net in ``port_nets`` (a module's output-port
    nets, when the module is characterised in isolation) also see
    ``params.module_port_load``.
    """
    params = params or DelayParameters()
    arc_max: Dict[ArcKey, RiseFall] = {}
    arc_min: Dict[ArcKey, RiseFall] = {}
    arc_sense: Dict[ArcKey, Unateness] = {}
    cell_arcs: Dict[str, Tuple[Tuple[str, str], ...]] = {}
    arc_keys: Dict[str, Tuple[ArcKey, ...]] = {}
    sync: Dict[str, SyncTiming] = {}
    module_cache: Dict[int, Dict] = {}
    cells_estimated = 0

    for cell in network.cells:
        cells_estimated += 1
        spec = cell.spec
        if isinstance(spec, SyncSpec):
            sync[cell.name] = SyncTiming(
                setup=spec.setup,
                d_to_q=spec.d_to_q,
                c_to_q=spec.c_to_q,
                hold=spec.hold,
                c_to_q_min=spec.c_to_q * params.min_derate,
            )
        elif isinstance(spec, ModuleSpec):
            pin_delays = module_cache.get(id(spec))
            if pin_delays is None:
                pin_delays = _characterise_module(spec, params)
                module_cache[id(spec)] = pin_delays
            keys = []
            for (in_pin, out_pin), (dmax, dmin) in pin_delays.items():
                key = (cell.name, in_pin, out_pin)
                arc_max[key] = dmax
                arc_min[key] = dmin
                arc_sense[key] = Unateness.NON_UNATE
                keys.append(key)
            cell_arcs[cell.name] = tuple(pin_delays)
            arc_keys[cell.name] = tuple(keys)
        elif isinstance(spec, GateSpec):
            # One load per output pin, and one (max, min) delay pair per
            # arc model on it: simple gates share one arc across inputs.
            loads: Dict[str, float] = {}
            pairs: Dict[Tuple[str, int], Tuple[RiseFall, RiseFall]] = {}
            keys = []
            for (in_pin, out_pin), arc in spec.arcs.items():
                pair = pairs.get((out_pin, id(arc)))
                if pair is None:
                    load = loads.get(out_pin)
                    if load is None:
                        terminal = cell.terminal(out_pin)
                        load = terminal_load(network, terminal, params)
                        if (
                            terminal.net is not None
                            and terminal.net.name in port_nets
                        ):
                            load += params.module_port_load
                        loads[out_pin] = load
                    delay = arc.delay_at(load)
                    pair = (delay, delay.scaled(params.min_derate))
                    pairs[(out_pin, id(arc))] = pair
                key = (cell.name, in_pin, out_pin)
                arc_max[key], arc_min[key] = pair
                arc_sense[key] = arc.unateness
                keys.append(key)
            cell_arcs[cell.name] = tuple(spec.arcs)
            arc_keys[cell.name] = tuple(keys)
        elif cell.role is CellRole.COMBINATIONAL:  # pragma: no cover
            raise TypeError(
                f"cell {cell.name!r} has unsupported combinational spec "
                f"{type(spec).__name__}"
            )
        # Clock sources and primary pads carry no delay arcs.

    rec = obs.active()
    if rec is not None:
        rec.counter("delay.cells_estimated", cells_estimated)
        rec.counter("delay.arcs_estimated", len(arc_max))
    return DelayMap(arc_max, arc_min, arc_sense, cell_arcs, arc_keys, sync)


def _characterise_module(spec: ModuleSpec, params: DelayParameters) -> Dict:
    """Pin-to-pin delays of a module, characterised in isolation.

    The module's inner network is estimated with the same parameters; nets
    feeding output ports additionally see ``module_port_load``.  The
    result is cached on the spec (library characterisation is done once,
    not per analysis), keyed by the estimation parameters.
    """
    from repro.delay.module_delay import module_pin_delays

    cache = getattr(spec, "_characterisation_cache", None)
    if cache is None:
        cache = {}
        spec._characterisation_cache = cache
    cached = cache.get(params)
    if cached is not None:
        return cached

    definition = spec.definition
    with obs.span("delay.characterise", category="delay", module=spec.name):
        inner_map = _estimate_delays(
            definition.inner,
            params,
            frozenset(definition.output_ports.values()),
        )
        result = module_pin_delays(spec, inner_map)
    cache[params] = result
    return result


__all__ = [
    "ArcKey",
    "DelayMap",
    "DelayParameters",
    "SyncTiming",
    "check_scale_factor",
    "estimate_delays",
    "terminal_load",
]
