"""Clock-domain crossing report.

Multi-phase, multi-frequency designs have data paths between elements on
different clocks; the ideal path constraint ``D_p`` of each crossing
pair determines how much time those paths get.  This report enumerates
the (launch clock, capture clock) pairs present in a design with their
tightest ideal constraints -- a quick map of where the clocking scheme
squeezes the logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from repro.core.model import AnalysisModel


@dataclass(frozen=True)
class DomainCrossing:
    """Aggregate of all paths from one clock to another."""

    launch_clock: str
    capture_clock: str
    path_pairs: int
    #: Tightest / widest ideal path constraint among the pairs.
    min_constraint: float
    max_constraint: float


def _clock_of(model: AnalysisModel, cell_name: str) -> str:
    trace = model.validation.control_traces.get(cell_name)
    if trace is not None:
        return trace.clock
    cell = model.network.cell(cell_name)
    return str(cell.attrs.get("clock", "<none>"))


def domain_crossings(model: AnalysisModel) -> List[DomainCrossing]:
    """All clock-domain pairs connected by switching paths."""
    period = model.schedule.overall_period
    buckets: Dict[Tuple[str, str], List[Fraction]] = {}
    for cluster in model.clusters:
        reach = cluster.reachable_captures(model.network)
        capture_cell = {t.full_name: t.cell.name for t in cluster.captures}
        for source in cluster.sources:
            targets = reach.get(source.full_name, frozenset())
            if not targets:
                continue
            launch_clock = _clock_of(model, source.cell.name)
            for target in targets:
                capture_clock = _clock_of(model, capture_cell[target])
                key = (launch_clock, capture_clock)
                for launch in model.instances[source.cell.name]:
                    if launch.assertion_edge is None:
                        continue
                    for capture in model.instances[capture_cell[target]]:
                        if capture.closure_edge is None:
                            continue
                        delta = (
                            capture.closure_edge - launch.assertion_edge
                        ) % period
                        buckets.setdefault(key, []).append(
                            delta if delta != 0 else period
                        )
    crossings = []
    for (launch, capture), constraints in sorted(buckets.items()):
        crossings.append(
            DomainCrossing(
                launch_clock=launch,
                capture_clock=capture,
                path_pairs=len(constraints),
                min_constraint=float(min(constraints)),
                max_constraint=float(max(constraints)),
            )
        )
    return crossings


def render_domain_crossings(crossings: List[DomainCrossing]) -> str:
    """Text table of the crossing report."""
    if not crossings:
        return "no clocked data paths"
    header = (
        f"{'launch':<10} {'capture':<10} {'pairs':>6} "
        f"{'min D_p':>9} {'max D_p':>9}"
    )
    lines = [header, "-" * len(header)]
    for crossing in crossings:
        lines.append(
            f"{crossing.launch_clock:<10} {crossing.capture_clock:<10} "
            f"{crossing.path_pairs:>6} {crossing.min_constraint:>9.3f} "
            f"{crossing.max_constraint:>9.3f}"
        )
    return "\n".join(lines)
