"""What-if sessions: clock-shape and delay edits with undo.

A :class:`WhatIfSession` holds the design fixed and lets the user mutate
the clock schedule and the component delays, re-analysing on demand.
Every mutation pushes the previous state so :meth:`undo` can back out of
an experiment -- the workflow the paper's interactive mode supported on a
terminal.

The forensics layer (``docs/reporting.md``) plugs in here: use
:meth:`WhatIfSession.explain` to get the ``D_p``/``O_x``/``O_y``/borrow
chain breakdown of one endpoint under the current state,
:meth:`snapshot` to freeze the current analysis as a run manifest, and
:meth:`compare` to see the per-endpoint slack deltas an experiment
caused -- the same primitive as ``repro-sta diff``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.clocks.schedule import ClockSchedule
from repro.clocks.waveform import TimeLike
from repro.core.analyzer import Hummingbird, TimingResult
from repro.delay.estimator import DelayMap, estimate_delays
from repro.netlist.network import Network


@dataclass(frozen=True)
class SessionStep:
    """One entry of the session history."""

    description: str
    schedule: ClockSchedule
    delays: DelayMap


class WhatIfSession:
    """Interactive exploration of clocking and delay changes."""

    def __init__(
        self,
        network: Network,
        schedule: ClockSchedule,
        delays: Optional[DelayMap] = None,
    ) -> None:
        self.network = network
        self._schedule = schedule
        self._delays = delays if delays is not None else estimate_delays(network)
        self._history: List[SessionStep] = []
        self._analyzer: Optional[Hummingbird] = None
        self._baseline_manifest: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def schedule(self) -> ClockSchedule:
        return self._schedule

    @property
    def delays(self) -> DelayMap:
        return self._delays

    @property
    def history(self) -> Tuple[SessionStep, ...]:
        return tuple(self._history)

    def _push(self, description: str) -> None:
        self._history.append(
            SessionStep(description, self._schedule, self._delays)
        )
        self._analyzer = None

    def undo(self) -> str:
        """Back out the most recent change; returns its description."""
        if not self._history:
            raise ValueError("nothing to undo")
        step = self._history.pop()
        self._schedule = step.schedule
        self._delays = step.delays
        self._analyzer = None
        return step.description

    # ------------------------------------------------------------------
    # clock edits
    # ------------------------------------------------------------------
    def set_pulse_width(self, clock: str, width: TimeLike) -> None:
        """Change the width of one clock's pulse."""
        self._push(f"set_pulse_width({clock!r}, {width})")
        self._schedule = self._schedule.with_pulse_width(clock, width)

    def shift_clock(self, clock: str, delta: TimeLike) -> None:
        """Move one clock's pulse within the period."""
        self._push(f"shift_clock({clock!r}, {delta})")
        self._schedule = self._schedule.with_shifted_clock(clock, delta)

    def scale_clocks(self, factor: TimeLike) -> None:
        """Scale every period/edge (change the clock frequency)."""
        self._push(f"scale_clocks({factor})")
        self._schedule = self._schedule.scaled(factor)

    # ------------------------------------------------------------------
    # delay edits
    # ------------------------------------------------------------------
    def scale_cell_delay(self, cell_name: str, factor: float) -> None:
        """Scale all arcs of one cell (what-if for a re-sized module)."""
        self.network.cell(cell_name)  # raise early on unknown cells
        self._push(f"scale_cell_delay({cell_name!r}, {factor})")
        self._delays = self._delays.with_scaled_cell(cell_name, factor)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyze(self) -> TimingResult:
        """(Re)analyse the design under the current state."""
        if self._analyzer is None:
            self._analyzer = Hummingbird(
                self.network, self._schedule, delays=self._delays
            )
        return self._analyzer.analyze()

    def report(self, limit: int = 10) -> str:
        """Analysis report plus the mutation history."""
        lines = [self.analyze().report(limit)]
        if self._history:
            lines.append("history:")
            lines.extend(f"  {step.description}" for step in self._history)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # forensics (docs/reporting.md)
    # ------------------------------------------------------------------
    def explain(self, endpoint: str):
        """Endpoint forensics under the current session state.

        Returns a :class:`repro.report.EndpointForensics`; render it
        with ``self.analyze().path_forensics().render_text(...)`` or use
        the returned object's fields directly.
        """
        return self.analyze().forensics(endpoint)

    def snapshot(self, label: Optional[str] = None) -> Dict[str, object]:
        """Freeze the current analysis as a run manifest and make it the
        baseline for :meth:`compare`."""
        manifest = self.analyze().manifest(
            label=label or f"session-step-{len(self._history)}"
        )
        self._baseline_manifest = manifest
        return manifest

    def compare(
        self, baseline: Optional[Dict[str, object]] = None, limit: int = 20
    ) -> str:
        """Diff the current analysis against a manifest.

        ``baseline`` defaults to the most recent :meth:`snapshot`.  The
        rendering matches ``repro-sta diff``: per-endpoint slack deltas,
        new/fixed violations and iteration regressions.
        """
        from repro.report.diff import diff_manifests

        base = baseline if baseline is not None else self._baseline_manifest
        if base is None:
            raise ValueError(
                "no baseline manifest: call snapshot() before compare()"
            )
        current = self.analyze().manifest(
            label=f"session-step-{len(self._history)}"
        )
        return diff_manifests(base, current).render_text(limit=limit)
