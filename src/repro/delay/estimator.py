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
from typing import (
    AbstractSet,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.cells.combinational import GateSpec
from repro.cells.sequential import SyncSpec
from repro.netlist.cell import Cell
from repro.netlist.hierarchy import ModuleSpec
from repro.netlist.kinds import CellRole, Unateness
from repro.netlist.network import Network
from repro.netlist.terminals import Terminal
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


class _ArcNumbering:
    """The arcs of a delay map, numbered: per arc its cell's name, its
    (input pin, output pin) pair and its unateness, and per cell its arc
    numbers.  Every map derived from another shares its numbering."""

    __slots__ = ("cells", "pins", "senses", "by_cell", "_index")

    def __init__(
        self,
        cells: List[str],
        pins: List[Tuple[str, str]],
        senses: List[Unateness],
        by_cell: Dict[str, Sequence[int]],
    ) -> None:
        self.cells = cells
        self.pins = pins
        self.senses = senses
        self.by_cell = by_cell
        self._index: Optional[Dict[ArcKey, int]] = None

    def number(self, cell_name: str, in_pin: str, out_pin: str) -> int:
        """The number of an arc (``KeyError`` if the map has no such
        arc); the key-to-number dict is built on first use."""
        index = self._index
        if index is None:
            index = self._index = {
                (cell, *pair): arc
                for arc, (cell, pair) in enumerate(zip(self.cells, self.pins))
            }
        return index[(cell_name, in_pin, out_pin)]

    def same_arcs(self, other: "_ArcNumbering") -> bool:
        return self is other or (
            self.cells == other.cells
            and self.pins == other.pins
            and self.by_cell == other.by_cell
        )


class DelayMap:
    """Estimated component delays for one network.

    Each arc's maximum and minimum rise/fall delays are kept in four flat
    float lists indexed by arc number (:attr:`max_rise`,
    :attr:`max_fall`, :attr:`min_rise`, :attr:`min_fall`), the arcs of a
    cell in :meth:`arc_numbers`, their pin pairs in :attr:`arc_pins` and
    their unateness in :attr:`arc_senses`; the analysis reads these.  A
    :class:`~repro.rftime.RiseFall` is built, once, only when
    :meth:`arc_delay` or :meth:`arc_delay_min` asks for one.  Name-keyed
    queries: :meth:`arc_delay`, :meth:`arc_delay_min`,
    :meth:`arc_unateness`, :meth:`arcs_of`, :meth:`arc_keys`,
    :attr:`max_delays`, :attr:`senses` and :meth:`sync_timing`.

    Immutable from the analysis's point of view;
    :meth:`with_scaled_cell` and :meth:`with_arc_override` return
    modified copies for what-if exploration and for the re-synthesis
    loop.

    The constructor takes the name-keyed form (the arc dicts in arc
    order; ``arc_keys`` lists each cell's arcs, and ``cell_arcs`` is
    accepted for symmetry with it);
    :func:`estimate_delays` builds the flat form directly.
    """

    def __init__(
        self,
        arc_max: Mapping[ArcKey, RiseFall],
        arc_min: Mapping[ArcKey, RiseFall],
        arc_sense: Mapping[ArcKey, Unateness],
        cell_arcs: Mapping[str, Tuple[Tuple[str, str], ...]],
        arc_keys: Mapping[str, Tuple[ArcKey, ...]],
        sync: Dict[str, SyncTiming],
    ) -> None:
        keys = list(arc_max)
        number = {key: arc for arc, key in enumerate(keys)}
        numbering = _ArcNumbering(
            [key[0] for key in keys],
            [(key[1], key[2]) for key in keys],
            [arc_sense[key] for key in keys],
            {
                cell: tuple(number[key] for key in cell_keys)
                for cell, cell_keys in arc_keys.items()
            },
        )
        self._fill(
            numbering,
            [arc_max[key].rise for key in keys],
            [arc_max[key].fall for key in keys],
            [arc_min[key].rise for key in keys],
            [arc_min[key].fall for key in keys],
            sync,
        )

    @classmethod
    def _flat(
        cls,
        numbering: _ArcNumbering,
        max_rise: List[float],
        max_fall: List[float],
        min_rise: List[float],
        min_fall: List[float],
        sync: Dict[str, SyncTiming],
    ) -> "DelayMap":
        delays = cls.__new__(cls)
        delays._fill(numbering, max_rise, max_fall, min_rise, min_fall, sync)
        return delays

    def _fill(
        self,
        numbering: _ArcNumbering,
        max_rise: List[float],
        max_fall: List[float],
        min_rise: List[float],
        min_fall: List[float],
        sync: Dict[str, SyncTiming],
    ) -> None:
        self.numbering = numbering
        self.max_rise = max_rise
        self.max_fall = max_fall
        self.min_rise = min_rise
        self.min_fall = min_fall
        self._sync = sync
        # Arc number -> the RiseFall handed out for it.
        self._max_views: Dict[int, RiseFall] = {}
        self._min_views: Dict[int, RiseFall] = {}
        self._by_key: Dict[str, Mapping] = {}

    # ------------------------------------------------------------------
    # flat queries
    # ------------------------------------------------------------------
    def arc_numbers(self, cell_name: str) -> Sequence[int]:
        """The numbers of the arcs of the cell called ``cell_name``."""
        return self.numbering.by_cell.get(cell_name, ())

    @property
    def arc_pins(self) -> Sequence[Tuple[str, str]]:
        """Per arc number: its (input pin, output pin)."""
        return self.numbering.pins

    @property
    def arc_senses(self) -> Sequence[Unateness]:
        """Per arc number: its unateness."""
        return self.numbering.senses

    def arc_key(self, arc: int) -> ArcKey:
        numbering = self.numbering
        return (numbering.cells[arc], *numbering.pins[arc])

    # ------------------------------------------------------------------
    # name-keyed queries
    # ------------------------------------------------------------------
    def arcs_of(self, cell: Cell) -> Tuple[Tuple[str, str], ...]:
        """The (input pin, output pin) arcs of ``cell``."""
        pins = self.numbering.pins
        return tuple([pins[arc] for arc in self.arc_numbers(cell.name)])

    def arc_keys(self, cell: Cell) -> Tuple[ArcKey, ...]:
        """The :data:`ArcKey` of each of ``cell``'s arcs, in
        :meth:`arcs_of` order."""
        return tuple(
            [self.arc_key(arc) for arc in self.arc_numbers(cell.name)]
        )

    def _max_view(self, arc: int) -> RiseFall:
        view = self._max_views.get(arc)
        if view is None:
            view = self._max_views[arc] = RiseFall(
                self.max_rise[arc], self.max_fall[arc]
            )
        return view

    def _min_view(self, arc: int) -> RiseFall:
        view = self._min_views.get(arc)
        if view is None:
            view = self._min_views[arc] = RiseFall(
                self.min_rise[arc], self.min_fall[arc]
            )
        return view

    def _copied_lists(self) -> List[List[float]]:
        return [
            list(self.max_rise), list(self.max_fall),
            list(self.min_rise), list(self.min_fall),
        ]

    def _keyed(self, name: str, value) -> Mapping:
        """A read-only name-keyed dict over every arc, built on first
        request and kept (the map is immutable)."""
        keyed = self._by_key.get(name)
        if keyed is None:
            keyed = self._by_key[name] = MappingProxyType(
                {
                    self.arc_key(arc): value(arc)
                    for arc in range(len(self.max_rise))
                }
            )
        return keyed

    @property
    def max_delays(self) -> Mapping[ArcKey, RiseFall]:
        """Read-only view of every arc's maximum propagation delay."""
        return self._keyed("max", self._max_view)

    @property
    def senses(self) -> Mapping[ArcKey, Unateness]:
        """Read-only view of every arc's unateness."""
        return self._keyed("sense", self.numbering.senses.__getitem__)

    # The name-keyed form the constructor takes, for references that
    # rebuild a map from another.
    _arc_max = max_delays
    _arc_sense = senses

    @property
    def _arc_min(self) -> Mapping[ArcKey, RiseFall]:
        return self._keyed("min", self._min_view)

    @property
    def _arc_keys(self) -> Dict[str, Tuple[ArcKey, ...]]:
        return {
            cell: tuple([self.arc_key(arc) for arc in arcs])
            for cell, arcs in self.numbering.by_cell.items()
        }

    @property
    def _cell_arcs(self) -> Dict[str, Tuple[Tuple[str, str], ...]]:
        pins = self.numbering.pins
        return {
            cell: tuple([pins[arc] for arc in arcs])
            for cell, arcs in self.numbering.by_cell.items()
        }

    def arc_delay(self, cell: Cell, in_pin: str, out_pin: str) -> RiseFall:
        """Maximum propagation delay of an arc."""
        return self._max_view(self.numbering.number(cell.name, in_pin, out_pin))

    def arc_delay_min(self, cell: Cell, in_pin: str, out_pin: str) -> RiseFall:
        """Minimum propagation delay of an arc."""
        return self._min_view(self.numbering.number(cell.name, in_pin, out_pin))

    def arc_unateness(self, cell: Cell, in_pin: str, out_pin: str) -> Unateness:
        return self.numbering.senses[
            self.numbering.number(cell.name, in_pin, out_pin)
        ]

    def sync_timing(self, cell: Cell) -> SyncTiming:
        """Timing parameters of a synchroniser instance."""
        return self.sync_timing_of(cell.name, cell.role)

    def sync_timing_of(self, name: str, role: CellRole) -> SyncTiming:
        """:meth:`sync_timing` of the cell called ``name``, with
        ``role``."""
        try:
            return self._sync[name]
        except KeyError:
            raise KeyError(
                f"{name!r} has no synchroniser timing (role: {role.value})"
            ) from None

    def worst_arc_delay(self, cell: Cell) -> float:
        """Worst max delay over all arcs of ``cell`` (reporting aid)."""
        return max(
            (
                max(self.max_rise[arc], self.max_fall[arc])
                for arc in self.arc_numbers(cell.name)
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
        factor = float(factor)
        lists = self._copied_lists()
        for arc in self.arc_numbers(cell_name):
            for values in lists:
                values[arc] *= factor
        return DelayMap._flat(self.numbering, *lists, self._sync)

    def globally_scaled(self, factor: float) -> "DelayMap":
        """Every arc delay *and* every synchroniser parameter scaled.

        ``factor`` near zero approximates the paper's *ideal system*
        ("all synchronising elements switch with zero delay; ... other
        paths switch with arbitrarily small, but finite, delays") -- the
        reference the event simulator compares against.
        """
        check_scale_factor(factor)
        scale = float(factor)
        scaled: Dict[int, SyncTiming] = {}
        for t in self._sync.values():
            if id(t) not in scaled:
                scaled[id(t)] = SyncTiming(
                    setup=t.setup * factor,
                    d_to_q=t.d_to_q * factor,
                    c_to_q=t.c_to_q * factor,
                    hold=t.hold * factor,
                    c_to_q_min=t.c_to_q_min * factor,
                )
        return DelayMap._flat(
            self.numbering,
            [value * scale for value in self.max_rise],
            [value * scale for value in self.max_fall],
            [value * scale for value in self.min_rise],
            [value * scale for value in self.min_fall],
            {name: scaled[id(t)] for name, t in self._sync.items()},
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
        try:
            arc = self.numbering.number(cell_name, in_pin, out_pin)
        except KeyError:
            raise KeyError(
                f"no arc {in_pin}->{out_pin} on cell {cell_name!r}"
            ) from None
        if min_delay is None:
            min_delay = max_delay
        lists = self._copied_lists()
        for values, value in zip(
            lists,
            (max_delay.rise, max_delay.fall, min_delay.rise, min_delay.fall),
        ):
            values[arc] = value
        return DelayMap._flat(self.numbering, *lists, self._sync)


def check_scale_factor(factor: float) -> None:
    """Reject a delay scale factor that is negative, NaN or infinite."""
    if not (math.isfinite(factor) and factor >= 0):
        raise ValueError(
            f"scale factor must be finite and non-negative, got {factor!r}"
        )


def terminal_load(
    network: Network, terminal: Terminal, params: DelayParameters
) -> float:
    """Connected load seen by an output terminal."""
    net = network.pin_nets[network.pin_of(terminal)]
    if net < 0:
        return params.dangling_output_load
    fans = network.fanout_index()
    start, stop = fans.sink_starts[net], fans.sink_starts[net + 1]
    if start == stop:
        return params.dangling_output_load
    layouts, pin_cells = network.cell_layouts, network.pin_cells
    cell_pins = network.cell_pins
    total = params.wire_cap_per_fanout * (stop - start)
    for sink in fans.sinks[start:stop]:
        cell = pin_cells[sink]
        layout = layouts[cell]
        cap_fn = getattr(layout.spec, "input_cap", None)
        total += (
            cap_fn(layout.pins[sink - cell_pins[cell]])
            if cap_fn
            else params.default_pin_cap
        )
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
    ``params.module_port_load``.  Each gate output pin is handed to
    :func:`terminal_load` as a terminal the network does not keep.
    """
    params = params or DelayParameters()
    derate = float(params.min_derate)
    arc_cells: List[str] = []
    arc_pins: List[Tuple[str, str]] = []
    arc_senses: List[Unateness] = []
    max_rise: List[float] = []
    max_fall: List[float] = []
    min_rise: List[float] = []
    min_fall: List[float] = []
    by_cell: Dict[str, Sequence[int]] = {}
    sync: Dict[str, SyncTiming] = {}
    # Cells of one synchroniser spec share one (immutable) SyncTiming.
    sync_of_spec: Dict[int, SyncTiming] = {}
    module_cache: Dict[int, Dict] = {}
    names, specs = network.cell_names, network.cell_specs
    pin_nets, net_names = network.pin_nets, network.net_names
    cells_estimated = 0

    for cell in network.cell_ids.values():
        cells_estimated += 1
        spec = specs[cell]
        name = names[cell]
        if isinstance(spec, SyncSpec):
            timing = sync_of_spec.get(id(spec))
            if timing is None:
                timing = sync_of_spec[id(spec)] = SyncTiming(
                    setup=spec.setup,
                    d_to_q=spec.d_to_q,
                    c_to_q=spec.c_to_q,
                    hold=spec.hold,
                    c_to_q_min=spec.c_to_q * params.min_derate,
                )
            sync[name] = timing
        elif isinstance(spec, ModuleSpec):
            pin_delays = module_cache.get(id(spec))
            if pin_delays is None:
                pin_delays = _characterise_module(spec, params)
                module_cache[id(spec)] = pin_delays
            start = len(arc_pins)
            for pair, (dmax, dmin) in pin_delays.items():
                arc_cells.append(name)
                arc_pins.append(pair)
                arc_senses.append(Unateness.NON_UNATE)
                max_rise.append(dmax.rise)
                max_fall.append(dmax.fall)
                min_rise.append(dmin.rise)
                min_fall.append(dmin.fall)
            by_cell[name] = range(start, len(arc_pins))
        elif isinstance(spec, GateSpec):
            # One load per output pin, and one (max, min) delay pair per
            # arc model on it: simple gates share one arc across inputs.
            loads: Dict[str, float] = {}
            pairs: Dict[Tuple[str, int], Tuple[float, ...]] = {}
            start = len(arc_pins)
            for pair, arc in spec.arcs.items():
                out_pin = pair[1]
                values = pairs.get((out_pin, id(arc)))
                if values is None:
                    load = loads.get(out_pin)
                    if load is None:
                        pin = network.pin_id(cell, out_pin)
                        load = terminal_load(
                            network,
                            network.terminal_view(pin, keep=False),
                            params,
                        )
                        net = pin_nets[pin]
                        if net >= 0 and net_names[net] in port_nets:
                            load += params.module_port_load
                        loads[out_pin] = load
                    delay = arc.delay_at(load)
                    values = pairs[(out_pin, id(arc))] = (
                        delay.rise,
                        delay.fall,
                        delay.rise * derate,
                        delay.fall * derate,
                    )
                arc_cells.append(name)
                arc_pins.append(pair)
                arc_senses.append(arc.unateness)
                max_rise.append(values[0])
                max_fall.append(values[1])
                min_rise.append(values[2])
                min_fall.append(values[3])
            by_cell[name] = range(start, len(arc_pins))
        elif spec.role is CellRole.COMBINATIONAL:  # pragma: no cover
            raise TypeError(
                f"cell {name!r} has unsupported combinational spec "
                f"{type(spec).__name__}"
            )
        # Clock sources and primary pads carry no delay arcs.

    rec = obs.active()
    if rec is not None:
        rec.counter("delay.cells_estimated", cells_estimated)
        rec.counter("delay.arcs_estimated", len(arc_pins))
    return DelayMap._flat(
        _ArcNumbering(arc_cells, arc_pins, arc_senses, by_cell),
        max_rise, max_fall, min_rise, min_fall, sync,
    )


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
