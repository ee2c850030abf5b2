"""Single clock waveforms.

A :class:`ClockWaveform` is a periodic signal with exactly one pulse per
period, described by the times of its *leading* and *trailing* edges within
the period.  All ideal times are exact :class:`~fractions.Fraction` values;
``as_time`` converts user input (int, float, str, Fraction) to that
representation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

TimeLike = Union[int, float, str, Fraction]

#: Denominator bound used when converting floats to exact times.  Clock
#: descriptions are human-authored round numbers; a billionth resolution is
#: far finer than any of them while keeping Fractions small.
_FLOAT_DENOMINATOR_LIMIT = 10**9

#: Largest decimal exponent a time string may carry.  ``Fraction(str)``
#: builds ``10**exponent`` in full, so ``"1e10000000"`` (or ``1e-...``,
#: as a denominator) would take seconds; no float (whose exponents stop
#: near 308 and -324) or clock time comes near this bound.
_MAX_DECIMAL_EXPONENT = 400

_EXPONENT = re.compile(r"[eE][-+]?0*([\d_]*)")


def as_time(value: TimeLike) -> Fraction:
    """Convert ``value`` to an exact time.

    ints, strings (e.g. ``"12.5"``) and Fractions convert exactly; floats are
    snapped to the nearest fraction with denominator at most ``10**9`` so
    that e.g. ``0.1`` means one tenth rather than its binary approximation.
    A float that is not finite (``inf``, ``nan``), a string with a
    zero denominator (``"1/0"``) and a string whose decimal exponent
    lies outside +-400 (``"1e10000000"``) raise :class:`ValueError`.

    >>> as_time(0.1) == Fraction(1, 10)
    True
    >>> as_time("25") == 25
    True
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"time must be finite, got {value!r}")
        return Fraction(value).limit_denominator(_FLOAT_DENOMINATOR_LIMIT)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent is not None:
            digits = exponent.group(1).replace("_", "").lstrip("0")
            if len(digits) > 3 or int(digits or 0) > _MAX_DECIMAL_EXPONENT:
                raise ValueError(
                    "time exponent is outside "
                    f"+-{_MAX_DECIMAL_EXPONENT}, got {value!r:.60}"
                )
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(
                f"time has a zero denominator, got {value!r}"
            ) from None
    raise TypeError(f"cannot interpret {value!r} as a time")


@dataclass(frozen=True)
class ClockWaveform:
    """One clock signal: a periodic waveform with one pulse per period.

    Parameters
    ----------
    name:
        Identifier of the clock generator output terminal.
    period:
        Clock period (must be positive).
    leading:
        Time of the leading (pulse-asserting) edge within ``[0, period)``.
    trailing:
        Time of the trailing (pulse-removing) edge.  Must satisfy
        ``leading < trailing < leading + period`` so the pulse has positive
        width and positive off time; the trailing edge may wrap past the end
        of the period (it is stored un-normalised; use :meth:`trailing_mod`
        for the in-period value).
    """

    name: str
    period: Fraction
    leading: Fraction
    trailing: Fraction

    def __init__(
        self,
        name: str,
        period: TimeLike,
        leading: TimeLike,
        trailing: TimeLike,
    ) -> None:
        period_t = as_time(period)
        leading_t = as_time(leading)
        trailing_t = as_time(trailing)
        if period_t <= 0:
            raise ValueError(f"clock {name!r}: period must be positive")
        if not 0 <= leading_t < period_t:
            raise ValueError(
                f"clock {name!r}: leading edge {leading_t} outside [0, period)"
            )
        if trailing_t <= leading_t:
            trailing_t += period_t
        if not leading_t < trailing_t < leading_t + period_t:
            raise ValueError(
                f"clock {name!r}: trailing edge must fall strictly within one "
                f"period after the leading edge"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "period", period_t)
        object.__setattr__(self, "leading", leading_t)
        object.__setattr__(self, "trailing", trailing_t)

    @property
    def width(self) -> Fraction:
        """Width of the control pulse (the paper's ``W``)."""
        return self.trailing - self.leading

    def trailing_mod(self) -> Fraction:
        """Trailing edge time normalised into ``[0, period)``."""
        return self.trailing % self.period

    def is_high(self, t: TimeLike) -> bool:
        """True when the waveform is asserted at time ``t``."""
        phase = (as_time(t) - self.leading) % self.period
        return phase < self.width

    def shifted(self, delta: TimeLike) -> "ClockWaveform":
        """A copy of this waveform with both edges moved by ``delta``."""
        delta_t = as_time(delta)
        return ClockWaveform(
            self.name,
            self.period,
            (self.leading + delta_t) % self.period,
            # ClockWaveform.__init__ re-normalises the trailing edge.
            (self.trailing + delta_t) % self.period,
        )

    def with_width(self, width: TimeLike) -> "ClockWaveform":
        """A copy with the same leading edge but a new pulse width.

        The width must lie in ``(0, period)``: the constructor would
        wrap a negative one round the period (``-1`` would become
        ``period - 1``) instead of rejecting it.
        """
        width_t = as_time(width)
        if not 0 < width_t < self.period:
            raise ValueError(
                f"clock {self.name!r}: pulse width {width_t} outside "
                f"(0, {self.period})"
            )
        return ClockWaveform(
            self.name, self.period, self.leading, self.leading + width_t
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"ClockWaveform({self.name!r}, period={self.period}, "
            f"leading={self.leading}, trailing={self.trailing})"
        )
