"""Aggregate timing statistics for reports.

The original tool printed slow paths; modern flows also want the
aggregate view: worst negative slack, total negative slack, endpoint
counts and slack distributions, grouped by capture clock.  These are
derived entirely from Algorithm 1's final node slacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.core.model import AnalysisModel
from repro.core.slack import PortSlacks
from repro.netlist.kinds import CellRole
from repro.obs.hist import bucket_counts, equal_width_edges


@dataclass(frozen=True)
class GroupStats:
    """Slack statistics for one group of capture endpoints."""

    name: str
    endpoints: int
    violating: int
    worst_slack: float
    #: Total negative slack: sum of negative endpoint slacks (<= 0).
    total_negative_slack: float

    @property
    def ok(self) -> bool:
        return self.violating == 0


@dataclass
class TimingStatistics:
    """Endpoint slack statistics for a whole design."""

    overall: GroupStats
    by_clock: Dict[str, GroupStats] = field(default_factory=dict)
    #: (lower bound, count) histogram rows, in ascending slack order.
    histogram: List[Tuple[float, int]] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            f"endpoints: {self.overall.endpoints}  "
            f"violating: {self.overall.violating}  "
            f"WNS: {_fmt(self.overall.worst_slack)}  "
            f"TNS: {_fmt(self.overall.total_negative_slack)}"
        ]
        if self.by_clock:
            lines.append("by capture clock:")
            for name in sorted(self.by_clock):
                group = self.by_clock[name]
                lines.append(
                    f"  {name:<12} endpoints={group.endpoints:<5} "
                    f"violating={group.violating:<5} "
                    f"WNS={_fmt(group.worst_slack)} "
                    f"TNS={_fmt(group.total_negative_slack)}"
                )
        if self.histogram:
            lines.append("slack histogram:")
            width = max(count for __, count in self.histogram) or 1
            for lower, count in self.histogram:
                bar = "#" * max(1, round(24 * count / width)) if count else ""
                lines.append(f"  >= {lower:>9.2f}: {count:>5} {bar}")
        return "\n".join(lines)


def _fmt(value: float) -> str:
    # A design with no constrained endpoints has WNS = +inf; report
    # "n/a" rather than a bare "inf" in human-facing summaries.
    if math.isinf(value):
        return "n/a"
    return f"{value:.3f}"


def _group(name: str, slacks: Sequence[float]) -> GroupStats:
    finite = [s for s in slacks if not math.isinf(s)]
    violating = [s for s in finite if s <= 0]
    return GroupStats(
        name=name,
        endpoints=len(slacks),
        violating=len(violating),
        worst_slack=min(finite, default=math.inf),
        total_negative_slack=sum(violating),
    )


def timing_statistics(
    model: AnalysisModel,
    slacks: PortSlacks,
    histogram_bins: int = 8,
) -> TimingStatistics:
    """Summarise capture-endpoint slacks (run Algorithm 1 first)."""
    clock_of_cell: Dict[str, str] = {
        name: trace.clock
        for name, trace in model.validation.control_traces.items()
    }
    network = model.network
    for cell in network.cell_ids_with_role(CellRole.PRIMARY_OUTPUT):
        clock = network.cell_attrs[cell].get("clock")
        if clock is not None:
            clock_of_cell[network.cell_names[cell]] = clock

    per_clock: Dict[str, List[float]] = {}
    all_values: List[float] = []
    for cluster in model.clusters:
        for port in model.capture_ports[cluster.name]:
            value = slacks.capture.get(port.instance.name)
            if value is None:
                continue
            all_values.append(value)
            clock = clock_of_cell.get(port.instance.cell_name, "<none>")
            per_clock.setdefault(clock, []).append(value)

    stats = TimingStatistics(overall=_group("all", all_values))
    for clock, values in per_clock.items():
        stats.by_clock[clock] = _group(clock, values)
    stats.histogram = _histogram(all_values, histogram_bins)
    rec = obs.active()
    if rec is not None:
        # Mirror the endpoint slacks into the recorder histogram so the
        # Prometheus/metrics export carries the same distribution the
        # text report prints (shared bucketing: repro.obs.hist).
        for value in all_values:
            if not math.isinf(value):
                rec.histogram("slack.endpoint", value)
    return stats


def _histogram(
    values: Sequence[float], bins: int
) -> List[Tuple[float, int]]:
    """Equal-width slack histogram via the shared bucketing helper."""
    finite = sorted(v for v in values if not math.isinf(v))
    if not finite or bins < 1:
        return []
    low, high = finite[0], finite[-1]
    if high == low:
        return [(low, len(finite))]
    edges = equal_width_edges(low, high, bins)
    counts = bucket_counts(finite, edges)
    return list(zip(edges[:-1], counts))
