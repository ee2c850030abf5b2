"""Lookup-table delay models.

The paper stresses that component delay estimation is pluggable:
"different delay-estimation methods may be combined".  Besides the
linear empirical model (:mod:`repro.cells.delay`), this module offers a
piecewise-linear lookup table over output load -- the shape of the
NLDM-style characterisation real libraries use.  A
:class:`TableArc` is a drop-in replacement for
:class:`~repro.cells.delay.GateArc` inside a
:class:`~repro.cells.combinational.GateSpec`: the estimator only calls
``delay_at(load)``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.netlist.kinds import TimingArc
from repro.rftime import RiseFall


@dataclass(frozen=True)
class TableDelay:
    """Piecewise-linear delay vs output load.

    ``loads`` must be strictly increasing.  Queries between breakpoints
    interpolate linearly; queries outside the characterised range
    extrapolate from the nearest segment (standard library practice).
    """

    loads: Tuple[float, ...]
    delays: Tuple[float, ...]

    def __init__(
        self, loads: Sequence[float], delays: Sequence[float]
    ) -> None:
        loads_t = tuple(float(v) for v in loads)
        delays_t = tuple(float(v) for v in delays)
        if len(loads_t) != len(delays_t):
            raise ValueError("loads and delays must have equal length")
        if len(loads_t) < 2:
            raise ValueError("a table needs at least two breakpoints")
        if any(b <= a for a, b in zip(loads_t, loads_t[1:])):
            raise ValueError("loads must be strictly increasing")
        object.__setattr__(self, "loads", loads_t)
        object.__setattr__(self, "delays", delays_t)

    def at_load(self, load: float) -> float:
        if load < 0:
            raise ValueError("load must be non-negative")
        loads, delays = self.loads, self.delays
        index = bisect.bisect_left(loads, load)
        if index == 0:
            low, high = 0, 1
        elif index == len(loads):
            low, high = len(loads) - 2, len(loads) - 1
        else:
            low, high = index - 1, index
        if delays[high] == delays[low]:
            # A flat segment: skip the fraction, which overflows to inf
            # (and inf * 0.0 is nan) when the loads differ by a subnormal.
            return delays[low]
        span = loads[high] - loads[low]
        fraction = (load - loads[low]) / span
        return delays[low] + fraction * (delays[high] - delays[low])


@dataclass(frozen=True)
class TableArc(TimingArc):
    """A combinational arc with table-based rise/fall delays."""

    rise: TableDelay = field(
        default_factory=lambda: TableDelay((0.0, 1.0), (0.0, 0.0))
    )
    fall: TableDelay = field(
        default_factory=lambda: TableDelay((0.0, 1.0), (0.0, 0.0))
    )

    def delay_at(self, load: float) -> RiseFall:
        return RiseFall(self.rise.at_load(load), self.fall.at_load(load))


def table_from_linear(
    intrinsic: float,
    resistance: float,
    loads: Sequence[float] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0),
    saturation: float = 0.0,
) -> TableDelay:
    """Characterise a table from a linear model (testing/migration aid).

    ``saturation`` adds a convex bend: each point's delay is increased by
    ``saturation * load**2 / max_load``, approximating the slew-limited
    behaviour linear models miss at high load.
    """
    max_load = max(loads)
    return TableDelay(
        loads,
        [
            intrinsic
            + resistance * load
            + (saturation * load * load / max_load if max_load else 0.0)
            for load in loads
        ],
    )
