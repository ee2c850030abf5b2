"""JSON (de)serialisation of clock schedules.

Times are written as exact strings (``"45"``, ``"12.5"``, ``"1/3"``) so
round-trips preserve the Fraction representation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.clocks.schedule import ClockSchedule
from repro.clocks.waveform import ClockWaveform, as_time


def _time_to_str(value) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def schedule_to_dict(schedule: ClockSchedule) -> Dict[str, Any]:
    """Serialise a schedule to plain data."""
    return {
        "format": "repro-clocks-v1",
        "clocks": [
            {
                "name": w.name,
                "period": _time_to_str(w.period),
                "leading": _time_to_str(w.leading),
                "trailing": _time_to_str(w.trailing),
            }
            for w in schedule.waveforms()
        ],
    }


def schedule_from_dict(data: Dict[str, Any]) -> ClockSchedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output.

    A malformed clock entry (not an object, a missing key, or an edge
    time that is not a time) raises :class:`ValueError` naming the
    clock and the key.
    """
    if not isinstance(data, dict) or data.get("format") != "repro-clocks-v1":
        raise ValueError("not a repro clock schedule (missing format tag)")
    try:
        return ClockSchedule(
            ClockWaveform(
                entry["name"],
                entry["period"],
                entry["leading"],
                entry["trailing"],
            )
            for entry in data["clocks"]
        )
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(_malformed(data, exc)) from exc


def _malformed(data: Dict[str, Any], exc: Exception) -> str:
    """Name the first clock entry and key of the wrong shape; else
    ``exc``'s own message (e.g. a clock with a non-positive period)."""
    clocks = data.get("clocks")
    if not isinstance(clocks, list):
        return "clock schedule 'clocks' must be a list of objects"
    for index, entry in enumerate(clocks):
        if not isinstance(entry, dict):
            return f"clock entry {index} ({entry!r:.60}) is not an object"
        name = entry.get("name")
        clock = repr(name) if isinstance(name, str) else f"entry {index}"
        for key in ("name", "period", "leading", "trailing"):
            if key not in entry:
                return f"clock {clock}: missing key {key!r}"
        for key in ("period", "leading", "trailing"):
            value = entry[key]
            try:
                as_time(value)
            except (TypeError, ValueError, ArithmeticError):
                return f"clock {clock}: {key!r} is not a time ({value!r:.60})"
    return str(exc)


def save_schedule(schedule: ClockSchedule, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule(path: Union[str, Path]) -> ClockSchedule:
    return schedule_from_dict(json.loads(Path(path).read_text()))
