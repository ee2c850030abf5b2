"""The generic synchronising-element model (paper Sections 4-5).

Every synchroniser cell is expanded into one :class:`GenericInstance` per
pulse of its controlling clock within the overall period ("a synchronising
element that is clocked at a frequency that is a multiple, n, of the
overall clock frequency is represented by n such elements connected in
parallel").  Each instance carries the simplified model's terminal offsets
(Figure 2(b)):

========  ==============================================================
offset    meaning
========  ==============================================================
``O_cc``  closure-control time; fixed at 0 (lower bound).
``O_dc``  input closure caused by closure control; fixed at ``-D_setup``.
``O_ac``  assertion-control arrival; the control-path delay (>= 0).
``O_zc``  output assertion caused by assertion control: ``O_ac + D_cz``.
``O_dz``  input closure required to achieve output assertion at ``O_zd``.
``O_zd``  output assertion caused by input timing.
========  ==============================================================

``O_zc``/``O_ac``/``O_zd`` are offsets from the *ideal output assertion
time* (the pulse's leading edge for transparent elements, the trailing
edge for edge-triggered ones); ``O_cc``/``O_dc``/``O_dz`` are offsets from
the *ideal input closure time* (always the trailing edge).

For transparent latches the Figure 3 relation couples the free pair:
``O_zd = W + O_dz + D_dz`` with ``O_dz <= -D_dz`` and ``O_zd >= 0``, i.e.
one scalar degree of freedom ``w = O_zd in [0, W]`` -- *where inside the
transparency window the element effectively clocks its data*.  Slack
transfer (Algorithm 1) moves ``w``.  Edge-triggered latches have
``O_dz = O_zd = 0`` fixed: no freedom, input and output decoupled.

Primary inputs and outputs are modelled as :class:`GenericInstance` with
:data:`InstanceKind.FIXED_SOURCE` / :data:`InstanceKind.FIXED_SINK`: a
single asserted (or captured) transition at a chosen clock edge plus a
user offset, with no adjustable window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from repro.clocks.edges import Pulse
from repro.clocks.schedule import ClockSchedule
from repro.delay.estimator import SyncTiming
from repro.netlist.cell import Cell
from repro.netlist.kinds import CellRole, CellSpecLike, SyncStyle, Unateness


class InstanceKind(enum.Enum):
    """Behavioural category of a generic instance."""

    EDGE_TRIGGERED = "edge_triggered"
    TRANSPARENT = "transparent"
    #: Primary input: asserts only, no capture side, no freedom.
    FIXED_SOURCE = "fixed_source"
    #: Primary output: captures only, no assertion side, no freedom.
    FIXED_SINK = "fixed_sink"


# The offset and window properties run in Algorithm 1's inner loop, and
# an enum member read through its class costs a descriptor call (about
# 0.2 us on CPython 3.11), so :class:`GenericInstance` compares kinds
# against these module-level names.
_EDGE_TRIGGERED = InstanceKind.EDGE_TRIGGERED
_TRANSPARENT = InstanceKind.TRANSPARENT
_FIXED_SOURCE = InstanceKind.FIXED_SOURCE
_FIXED_SINK = InstanceKind.FIXED_SINK


class GenericInstance:
    """One pulse's worth of a synchronising element (or an I/O pad).

    Mutable state is the transparency-window position ``w`` (``O_zd``);
    everything else is fixed at construction.
    """

    __slots__ = (
        "name",
        "cell_name",
        "terminal_in",
        "terminal_out",
        "kind",
        "assertion_edge",
        "closure_edge",
        "clock_period",
        "width",
        "setup",
        "d_to_q",
        "c_to_q",
        "c_to_q_min",
        "hold",
        "control_arrival",
        "control_arrival_min",
        "fixed_offset",
        "w",
    )

    def __init__(
        self,
        name: str,
        cell_name: str,
        kind: InstanceKind,
        assertion_edge: Optional[Fraction],
        closure_edge: Optional[Fraction],
        clock_period: Fraction,
        width: float = 0.0,
        setup: float = 0.0,
        d_to_q: float = 0.0,
        c_to_q: float = 0.0,
        c_to_q_min: float = 0.0,
        hold: float = 0.0,
        control_arrival: float = 0.0,
        control_arrival_min: float = 0.0,
        fixed_offset: float = 0.0,
        terminal_in: Optional[str] = None,
        terminal_out: Optional[str] = None,
    ) -> None:
        if kind is _TRANSPARENT and width <= 0:
            raise ValueError(f"{name}: transparent instance needs a pulse width")
        if control_arrival < 0 or control_arrival_min < 0:
            raise ValueError(f"{name}: control arrival must be >= 0 (O_ac >= 0)")
        self.name = name
        self.cell_name = cell_name
        self.kind = kind
        self.assertion_edge = assertion_edge
        self.closure_edge = closure_edge
        self.clock_period = clock_period
        self.width = width
        self.setup = setup
        self.d_to_q = d_to_q
        self.c_to_q = c_to_q
        self.c_to_q_min = c_to_q_min
        self.hold = hold
        self.control_arrival = control_arrival
        self.control_arrival_min = control_arrival_min
        self.fixed_offset = fixed_offset
        #: full-name of the data-input / data-output terminals in the network
        self.terminal_in = terminal_in
        self.terminal_out = terminal_out
        #: The free offset O_zd; meaningful only for TRANSPARENT instances.
        self.w: float = width if kind is _TRANSPARENT else 0.0

    # ------------------------------------------------------------------
    # offsets (paper, Section 5)
    # ------------------------------------------------------------------
    @property
    def o_zc(self) -> float:
        """Output assertion offset caused by assertion control."""
        return self.control_arrival + self.c_to_q

    @property
    def o_zd(self) -> float:
        """Output assertion offset caused by input timing."""
        return self.w

    @property
    def o_dz(self) -> float:
        """Input closure offset required for output assertion at ``o_zd``.

        Figure 3: ``O_zd = W + O_dz + D_dz``.
        """
        return self.w - self.width - self.d_to_q

    @property
    def o_dc(self) -> float:
        """Input closure offset caused by closure control (``-D_setup``)."""
        return -self.setup

    # ------------------------------------------------------------------
    # effective terminal times (offsets from the ideal edges)
    # ------------------------------------------------------------------
    @property
    def assertion_offset(self) -> float:
        """Offset of actual output assertion from the ideal assertion time.

        "Assertion time at the actual output is given by the maximum of
        the two output assertion times."
        """
        if self.kind is _FIXED_SOURCE:
            return self.fixed_offset
        if self.kind is _FIXED_SINK:
            raise ValueError(f"{self.name} has no output side")
        if self.kind is _EDGE_TRIGGERED:
            # O_zd = 0, and O_zc >= 0, so the maximum is O_zc.
            return self.o_zc
        return max(self.o_zc, self.o_zd)

    @property
    def closure_offset(self) -> float:
        """Offset of actual input closure from the ideal closure time.

        "Closure time at the actual input is given by the minimum of the
        two input closure times."
        """
        if self.kind is _FIXED_SINK:
            return self.fixed_offset
        if self.kind is _FIXED_SOURCE:
            raise ValueError(f"{self.name} has no input side")
        if self.kind is _EDGE_TRIGGERED:
            # O_dz = 0 and O_dc = -setup <= 0, so the minimum is O_dc.
            return self.o_dc
        return min(self.o_dc, self.o_dz)

    # ------------------------------------------------------------------
    # slack-transfer freedom
    # ------------------------------------------------------------------
    @property
    def max_decrease(self) -> float:
        """Largest allowed decrease of the (O_dz, O_zd) pair (``m``)."""
        if self.kind is _TRANSPARENT:
            return self.w
        return 0.0

    @property
    def max_increase(self) -> float:
        """Largest allowed increase of the (O_dz, O_zd) pair."""
        if self.kind is _TRANSPARENT:
            return self.width - self.w
        return 0.0

    def shift_window(self, delta: float) -> None:
        """Move the free pair by ``delta`` (negative = earlier).

        Clamps tiny numerical overshoots; raises on real violations.
        """
        if self.kind is not _TRANSPARENT:
            if abs(delta) > 1e-12:
                raise ValueError(f"{self.name}: window is not adjustable")
            return
        new_w = self.w + delta
        if new_w < -1e-9 or new_w > self.width + 1e-9:
            raise ValueError(
                f"{self.name}: window position {new_w} outside [0, {self.width}]"
            )
        self.w = min(max(new_w, 0.0), self.width)

    def reset_window(self) -> None:
        """Restore the initial window (closure at end of pulse)."""
        if self.kind is _TRANSPARENT:
            self.w = self.width

    # ------------------------------------------------------------------
    @property
    def has_output(self) -> bool:
        return self.kind is not _FIXED_SINK

    @property
    def has_input(self) -> bool:
        return self.kind is not _FIXED_SOURCE

    @property
    def adjustable(self) -> bool:
        return self.kind is _TRANSPARENT

    def __repr__(self) -> str:
        return (
            f"GenericInstance({self.name!r}, {self.kind.value}, "
            f"A={self.assertion_edge}, C={self.closure_edge})"
        )


@dataclass(frozen=True)
class EffectiveWindow:
    """The transparency window of one instance after control-sense
    resolution: ideal assertion at ``leading``, ideal closure at
    ``trailing`` (both within the overall period), pulse width ``width``."""

    leading: Fraction
    trailing: Fraction
    width: Fraction


def effective_windows(
    schedule: ClockSchedule, clock: str, sense: Unateness
) -> Tuple[EffectiveWindow, ...]:
    """Transparency windows of an element on ``clock`` with control sense.

    A control function that *inverts* the clock (negative sense) makes the
    element transparent while the clock is low: the effective windows are
    the complements of the clock pulses -- each runs from one pulse's
    trailing edge to the *next* pulse's leading edge.
    """
    pulses = schedule.pulses(clock)
    period = schedule.overall_period
    windows: List[EffectiveWindow] = []
    if sense is Unateness.POSITIVE:
        for pulse in pulses:
            windows.append(
                EffectiveWindow(
                    pulse.leading.time, pulse.trailing.time, pulse.width
                )
            )
    elif sense is Unateness.NEGATIVE:
        n = len(pulses)
        for index, pulse in enumerate(pulses):
            next_lead = pulses[(index + 1) % n].leading.time
            gap = (next_lead - pulse.trailing.time) % period
            if gap == 0:
                gap = period  # degenerate: complement spans a full period
            windows.append(
                EffectiveWindow(pulse.trailing.time, next_lead, gap)
            )
    else:
        raise ValueError("control sense must be positive or negative")
    return tuple(windows)


def expand_synchroniser(
    cell: Cell,
    schedule: ClockSchedule,
    clock: str,
    sense: Unateness,
    timing: SyncTiming,
    control_arrival: float,
    control_arrival_min: float,
) -> Tuple[GenericInstance, ...]:
    """All generic instances of one synchroniser cell
    (:func:`synchroniser_instances` of its name and spec)."""
    return synchroniser_instances(
        cell.name, cell.spec, schedule, clock, sense, timing,
        control_arrival, control_arrival_min,
    )


def synchroniser_instances(
    name: str,
    spec: CellSpecLike,
    schedule: ClockSchedule,
    clock: str,
    sense: Unateness,
    timing: SyncTiming,
    control_arrival: float,
    control_arrival_min: float,
) -> Tuple[GenericInstance, ...]:
    """All generic instances of the synchroniser cell ``name``.

    One instance per pulse of the controlling clock within the overall
    period; the instance's ideal assertion/closure times follow the element
    style (transparent: leading/trailing edge of the *effective* window;
    edge-triggered: both at the trailing edge).
    """
    style = spec.sync_style
    if style is None:
        raise ValueError(f"{name!r} is not a synchroniser")
    (data_in,) = spec.inputs
    (data_out,) = spec.outputs
    terminal_in = f"{name}/{data_in}"
    terminal_out = f"{name}/{data_out}"
    windows = effective_windows(schedule, clock, sense)
    clock_period = schedule.waveform(clock).period
    instances: List[GenericInstance] = []
    for index, window in enumerate(windows):
        if style is SyncStyle.EDGE_TRIGGERED:
            kind = InstanceKind.EDGE_TRIGGERED
            assertion = window.trailing
            closure = window.trailing
        else:  # TRANSPARENT and TRISTATE share the transparent model
            kind = InstanceKind.TRANSPARENT
            assertion = window.leading
            closure = window.trailing
        instances.append(
            GenericInstance(
                name=f"{name}@{index}",
                cell_name=name,
                kind=kind,
                assertion_edge=assertion,
                closure_edge=closure,
                clock_period=clock_period,
                width=float(window.width),
                setup=timing.setup,
                d_to_q=timing.d_to_q,
                c_to_q=timing.c_to_q,
                c_to_q_min=timing.c_to_q_min,
                hold=timing.hold,
                control_arrival=control_arrival,
                control_arrival_min=control_arrival_min,
                terminal_in=terminal_in,
                terminal_out=terminal_out,
            )
        )
    return tuple(instances)


def pad_instance(cell: Cell, schedule: ClockSchedule) -> GenericInstance:
    """The fixed instance modelling a primary input or output pad."""
    return pad_instance_of(cell.name, cell.role, cell.attrs, schedule)


def pad_instance_of(
    name: str, role: CellRole, attrs: Dict[str, Any], schedule: ClockSchedule
) -> GenericInstance:
    """The fixed instance modelling the pad cell ``name`` with ``role``
    and attributes ``attrs``."""
    clock = attrs.get("clock")
    if clock is None:
        raise ValueError(f"pad {name!r} has no 'clock' attribute")
    pulses = schedule.pulses(clock)
    pulse_index = int(attrs.get("pulse_index", 0))
    if not 0 <= pulse_index < len(pulses):
        raise ValueError(
            f"pad {name!r}: pulse_index {pulse_index} out of range "
            f"(clock {clock!r} has {len(pulses)} pulses)"
        )
    pulse: Pulse = pulses[pulse_index]
    edge_kind = attrs.get("edge", "trailing")
    edge_time = (
        pulse.leading.time if edge_kind == "leading" else pulse.trailing.time
    )
    offset = float(attrs.get("offset", 0.0))
    clock_period = schedule.waveform(clock).period
    if role is CellRole.PRIMARY_INPUT:
        return GenericInstance(
            name=f"{name}@pad",
            cell_name=name,
            kind=InstanceKind.FIXED_SOURCE,
            assertion_edge=edge_time,
            closure_edge=None,
            clock_period=clock_period,
            fixed_offset=offset,
            terminal_out=f"{name}/Z",
        )
    if role is CellRole.PRIMARY_OUTPUT:
        return GenericInstance(
            name=f"{name}@pad",
            cell_name=name,
            kind=InstanceKind.FIXED_SINK,
            assertion_edge=None,
            closure_edge=edge_time,
            clock_period=clock_period,
            fixed_offset=offset,
            terminal_in=f"{name}/A",
        )
    raise ValueError(f"{name!r} is not a pad cell")
