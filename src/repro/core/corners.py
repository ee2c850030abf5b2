"""Multi-corner analysis.

The paper's delay estimation produces one set of "worst (largest)
component propagation delays"; real standard-cell flows characterise
several process/voltage/temperature corners and require timing to close
at all of them.  This module runs Algorithm 1 (and optionally the
hold check) per corner and merges the verdicts: the design behaves as
intended only when every corner does.

Corners are expressed as global delay scale factors relative to the
nominal estimation -- the classic derating approach -- plus optional
per-corner estimation parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.clocks.schedule import ClockSchedule
from repro.core.algorithm1 import Algorithm1Result, run_algorithm1
from repro.core.mindelay import HoldViolation, check_hold
from repro.core.model import AnalysisModel
from repro.core.slack import SlackEngine
from repro.delay.estimator import DelayMap, DelayParameters, estimate_delays
from repro.netlist.network import Network


@dataclass(frozen=True)
class Corner:
    """One analysis corner.

    ``max_scale`` derates every maximum delay (slow corner > 1);
    ``min_scale`` derates every minimum delay (fast corner < 1, used by
    the hold check).
    """

    name: str
    max_scale: float = 1.0
    min_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.max_scale <= 0 or self.min_scale <= 0:
            raise ValueError(f"corner {self.name!r}: scales must be positive")


#: The classic three-corner set.
DEFAULT_CORNERS: Tuple[Corner, ...] = (
    Corner("slow", max_scale=1.25, min_scale=1.0),
    Corner("typical", max_scale=1.0, min_scale=1.0),
    Corner("fast", max_scale=0.8, min_scale=0.7),
)


@dataclass
class CornerResult:
    """Outcome at one corner."""

    corner: Corner
    setup: Algorithm1Result
    hold_violations: List[HoldViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.setup.intended and not self.hold_violations


@dataclass
class MultiCornerResult:
    """Merged outcome across all corners."""

    results: Dict[str, CornerResult] = field(default_factory=dict)

    @property
    def intended(self) -> bool:
        return all(result.clean for result in self.results.values())

    @property
    def worst_setup_corner(self) -> Optional[str]:
        finite = {
            name: result.setup.worst_slack
            for name, result in self.results.items()
        }
        if not finite:
            return None
        return min(finite, key=finite.get)

    def summary(self) -> str:
        lines = []
        for name, result in self.results.items():
            verdict = "OK" if result.clean else "FAIL"
            lines.append(
                f"{name:<10} setup slack {result.setup.worst_slack:8.3f}  "
                f"hold violations {len(result.hold_violations):3}  "
                f"[{verdict}]"
            )
        lines.append(
            "all corners clean"
            if self.intended
            else "timing does NOT close at all corners"
        )
        return "\n".join(lines)


def _corner_delays(nominal: DelayMap, corner: Corner) -> DelayMap:
    """Nominal delays derated for a corner (max and min separately)."""
    # globally_scaled scales both max and min identically; apply the
    # asymmetric derate through two scalings and an arc merge.
    scaled_max = nominal.globally_scaled(corner.max_scale)
    if corner.min_scale == corner.max_scale:
        return scaled_max
    scaled_min = nominal.globally_scaled(corner.min_scale)
    # Take max delays from one, min delays from the other.
    return DelayMap(
        scaled_max._arc_max,
        scaled_min._arc_min,
        scaled_max._arc_sense,
        scaled_max._cell_arcs,
        scaled_max._arc_keys,
        scaled_max._sync,
    )


def analyze_corners(
    network: Network,
    schedule: ClockSchedule,
    delays: Optional[DelayMap] = None,
    corners: Tuple[Corner, ...] = DEFAULT_CORNERS,
    check_hold_too: bool = True,
    delay_params: Optional[DelayParameters] = None,
) -> MultiCornerResult:
    """Run the analysis at every corner and merge the verdicts."""
    nominal = (
        delays if delays is not None else estimate_delays(network, delay_params)
    )
    outcome = MultiCornerResult()
    for corner in corners:
        corner_map = _corner_delays(nominal, corner)
        model = AnalysisModel(network, schedule, corner_map)
        engine = SlackEngine(model)
        setup = run_algorithm1(model, engine)
        holds = check_hold(model, engine) if check_hold_too else []
        outcome.results[corner.name] = CornerResult(
            corner=corner, setup=setup, hold_violations=holds
        )
    return outcome
