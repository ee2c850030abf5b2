"""Shared histogram bucketing: recorder histograms and slack reports.

Two consumers share the arithmetic here:

* :class:`repro.obs.Recorder` fixed-bucket histograms
  (:class:`HistogramStats`, Prometheus ``_bucket``/``_sum``/``_count``
  exposition), and
* :func:`repro.core.statistics.timing_statistics` slack histograms
  (equal-width data-driven buckets via :func:`equal_width_edges` /
  :func:`bucket_counts`).

Keeping one bucketing implementation means a slack histogram printed by
``repro-sta stats`` and one exported through the metrics dump cannot
drift apart.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "HistogramStats",
    "equal_width_edges",
    "bucket_counts",
]

#: Default upper bounds for recorder histograms (slack-flavoured:
#: symmetric around zero, widening outwards).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    -100.0,
    -50.0,
    -20.0,
    -10.0,
    -5.0,
    -2.0,
    -1.0,
    -0.5,
    0.0,
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
)


#: Upper bounds for latency histograms (seconds; sub-millisecond to a
#: minute, roughly log-spaced).  Used by the service layer for request,
#: queue-wait and job-duration timings.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def equal_width_edges(
    low: float, high: float, bins: int
) -> List[float]:
    """``bins + 1`` equal-width bucket edges from ``low`` to ``high``.

    The last edge is exactly ``high`` (no floating-point creep), so the
    maximum value always lands in the last bucket.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    step = (high - low) / bins
    edges = [low + index * step for index in range(bins)]
    edges.append(high)
    return edges


def bucket_counts(
    values: Sequence[float], edges: Sequence[float]
) -> List[int]:
    """Count ``values`` into the buckets delimited by ``edges``.

    Bucket ``i`` holds ``edges[i] <= v < edges[i + 1]``; the final
    bucket is right-inclusive so the maximum is not dropped.
    """
    bins = len(edges) - 1
    counts = [0] * bins
    last = bins - 1
    for value in values:
        for index in range(bins):
            lower = edges[index]
            upper = edges[index + 1]
            if lower <= value < upper or (index == last and value == upper):
                counts[index] += 1
                break
    return counts


class HistogramStats:
    """Fixed-bucket aggregation of observed values.

    ``bounds`` are sorted *upper* bounds (Prometheus ``le`` semantics:
    bucket ``i`` counts values ``<= bounds[i]``); an implicit ``+Inf``
    overflow bucket catches everything beyond the last bound.
    """

    __slots__ = (
        "bounds",
        "counts",
        "count",
        "total",
        "minimum",
        "maximum",
    )

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(sorted(float(b) for b in bounds))
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = ordered
        #: Per-bucket (non-cumulative) counts; index len(bounds) = +Inf.
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "HistogramStats") -> None:
        """Fold ``other``'s observations into this histogram.

        Matching bounds merge bucket-by-bucket (exact); mismatched
        bounds re-bucket the other histogram's counts at each of its
        upper bounds (a conservative approximation used when a child
        process chose different buckets).
        """
        if other.bounds == self.bounds:
            for index, count in enumerate(other.counts):
                self.counts[index] += count
        else:  # re-bucket at the other histogram's upper bounds
            for bound, count in zip(other.bounds, other.counts):
                if count:
                    index = bisect_left(self.bounds, bound)
                    self.counts[index] += count
            self.counts[-1] += other.counts[-1]  # +Inf overflow
        self.count += other.count
        self.total += other.total
        if other.count:
            self.minimum = min(self.minimum, other.minimum)
            self.maximum = max(self.maximum, other.maximum)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "HistogramStats":
        """Rebuild from a :meth:`to_dict` document (snapshot restore)."""
        stats = cls(data["bounds"])  # type: ignore[arg-type]
        counts = list(data.get("counts") or ())
        if len(counts) != len(stats.counts):
            raise ValueError("histogram counts do not match bounds")
        stats.counts = [int(c) for c in counts]
        stats.count = int(data.get("count", sum(stats.counts)))
        stats.total = float(data.get("sum", 0.0))
        if stats.count:
            stats.minimum = float(data.get("min", 0.0))
            stats.maximum = float(data.get("max", 0.0))
        return stats

    def cumulative(self) -> List[Tuple[str, int]]:
        """Prometheus-style cumulative ``(le, count)`` rows ending with
        ``+Inf``."""
        rows: List[Tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            rows.append((f"{bound:g}", running))
        rows.append(("+Inf", self.count))
        return rows

    def to_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
        }
