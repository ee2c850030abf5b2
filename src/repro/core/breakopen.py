"""Breaking open the clock period (paper, Section 7).

Block-method cluster analysis needs all assertion and closure times on one
linear axis, but the ideal times are clock edges on a *cyclic* overall
period.  "Breaking open" the cycle at a point ``b`` maps an edge time
``t`` to the axis position ``(t - b) mod T``.  A (source, capture) pair
with ideal path constraint ``D`` is *handled* by a break ``b`` iff the
capture's closure edge appears exactly ``D`` after the source's assertion
edge on the axis; algebraically::

    (b - c) mod T  <=  T - D        where D = ((c - a) mod T  or  T)

Every pair that switching paths connect contributes a *requirement arc*
(the paper's "extra arcs" in the clock-edge graph, Figure 4).  The minimum
number of analysis passes is the minimum set of break points such that
every requirement arc is handled by at least one of them -- found, as in
the paper, "by exhaustive search of the graph, starting with removal of
each single original arc, then all possible pairs, and so on".

Each cluster output's slack is then calculated during the pass "within
which its ideal closure time appears closest to the end", i.e. the chosen
break minimising ``(b - c) mod T`` -- which, as shown in DESIGN.md, is
guaranteed to handle every pair converging on that output.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from repro import obs


@dataclass(frozen=True)
class RequirementArc:
    """One "extra arc": assertion edge time -> closure edge time.

    ``assertion`` and ``closure`` are times within ``[0, T)``.  The ideal
    path constraint is ``(closure - assertion) mod T`` mapped to ``(0, T]``.
    """

    assertion: Fraction
    closure: Fraction

    def ideal_constraint(self, period: Fraction) -> Fraction:
        """``D_p`` of this pair: in ``(0, T]`` (``T`` for coincident edges,
        e.g. flip-flop to flip-flop on the same clock edge)."""
        delta = (self.closure - self.assertion) % period
        return delta if delta != 0 else period

    def handled_by(self, break_time: Fraction, period: Fraction) -> bool:
        """Whether breaking the period at ``break_time`` handles this pair."""
        d = self.ideal_constraint(period)
        return (break_time - self.closure) % period <= period - d


class PassSelectionError(ValueError):
    """No set of break points handles every requirement arc."""


@dataclass(frozen=True)
class BreakOpenPlan:
    """The analysis passes chosen for one cluster.

    ``breaks[i]`` is the axis origin of pass ``i``; captures are assigned
    to passes with :meth:`designated_pass`.
    """

    period: Fraction
    breaks: Tuple[Fraction, ...]

    @property
    def num_passes(self) -> int:
        return len(self.breaks)

    def position_assertion(self, time: Fraction, pass_index: int) -> Fraction:
        """Axis position of an assertion edge in pass ``pass_index``
        (range ``[0, T)``)."""
        return (time - self.breaks[pass_index]) % self.period

    def position_closure(self, time: Fraction, pass_index: int) -> Fraction:
        """Axis position of a closure edge (range ``(0, T]``: a closure
        coincident with the break point belongs to the *end* of the axis)."""
        position = (time - self.breaks[pass_index]) % self.period
        return position if position != 0 else self.period

    def designated_pass(self, closure_time: Fraction) -> int:
        """The pass in which a capture with this ideal closure time has its
        slack computed: its closure position is "closest to the end"."""
        return min(
            range(len(self.breaks)),
            key=lambda i: (self.breaks[i] - closure_time) % self.period,
        )

    def handles(self, arc: RequirementArc, pass_index: int) -> bool:
        return arc.handled_by(self.breaks[pass_index], self.period)


def minimum_breaks(
    period: Fraction,
    candidate_breaks: Sequence[Fraction],
    arcs: Iterable[RequirementArc],
    exhaustive_limit: int = 4,
) -> Tuple[Fraction, ...]:
    """Choose a minimum set of break points covering all requirement arcs.

    ``candidate_breaks`` are the distinct clock edge times (breaking the
    cycle anywhere between two consecutive edges is equivalent to breaking
    at the later edge).  Exhaustive search over subsets of growing size up
    to ``exhaustive_limit`` ("very seldom is it necessary to remove more
    than two arcs"); beyond that, a greedy set cover finishes the job.

    The search runs on integers: every time is scaled by one common
    denominator (which keeps :meth:`RequirementArc.handled_by` exact),
    and each candidate's handled arcs are an int bitmask, so a
    combination is an OR of masks.  It starts at the size
    :func:`_disjoint_lower_bound` proves necessary, so no size that
    cannot cover is walked (the first cover found is unchanged), and a
    bound above ``exhaustive_limit`` goes straight to the greedy cover.
    """
    rec = obs.active()
    candidates = sorted(set(candidate_breaks))
    if not candidates:
        raise ValueError("need at least one candidate break point")
    unique_arcs = sorted(set(arcs), key=lambda a: (a.assertion, a.closure))
    if rec is not None:
        rec.counter("breakopen.searches")
        rec.counter("breakopen.requirement_arcs", len(unique_arcs))
    if not unique_arcs:
        if rec is not None:
            rec.counter("breakopen.passes_selected", 1)
        return (candidates[0],)

    masks = _handled_masks(period, candidates, unique_arcs)
    everything = (1 << len(unique_arcs)) - 1
    uncoverable = everything & ~functools.reduce(operator.or_, masks)
    if uncoverable:
        bad = unique_arcs[(uncoverable & -uncoverable).bit_length() - 1]
        raise PassSelectionError(
            f"requirement arc {bad.assertion}->{bad.closure} is handled by "
            "no break point"
        )

    combos_tried = 0
    smallest = _disjoint_lower_bound(masks, len(unique_arcs))
    for size in range(smallest, min(exhaustive_limit, len(candidates)) + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            combos_tried += 1
            covered = 0
            for position in combo:
                covered |= masks[position]
            if covered == everything:
                if rec is not None:
                    rec.counter("breakopen.combos_tried", combos_tried)
                    rec.counter("breakopen.passes_selected", size)
                return tuple(candidates[position] for position in combo)

    chosen = _greedy_cover(masks, everything)
    if rec is not None:
        rec.counter("breakopen.combos_tried", combos_tried)
        rec.counter("breakopen.greedy_fallbacks")
        rec.counter("breakopen.passes_selected", len(chosen))
    return tuple(candidates[position] for position in chosen)


def _handled_masks(
    period: Fraction,
    candidates: Sequence[Fraction],
    arcs: Sequence[RequirementArc],
) -> List[int]:
    """Per candidate position, the bitmask of the ``arcs`` it handles.

    :meth:`RequirementArc.handled_by` on integers: every time is scaled
    by one common denominator, which preserves ``mod`` and ``<=``.
    """
    ends = [(arc.assertion, arc.closure) for arc in arcs]
    scale = math.lcm(
        *(t.denominator for t in itertools.chain([period], candidates, *ends))
    )
    whole = int(period * scale)
    limits = []  # per arc: its closure and T - D, scaled
    for assertion, closure in ends:
        at = int(closure * scale)
        constraint = (at - int(assertion * scale)) % whole or whole
        limits.append((at, whole - constraint))
    masks = []
    for candidate in candidates:
        start = int(candidate * scale)
        mask = 0
        for bit, (at, limit) in enumerate(limits):
            if (start - at) % whole <= limit:
                mask |= 1 << bit
        masks.append(mask)
    return masks


def _disjoint_lower_bound(masks: Sequence[int], arc_count: int) -> int:
    """At least how many breaks every cover of the arcs needs.

    Arcs whose sets of handling candidates are pairwise disjoint each
    need a break of their own.  They are picked greedily, fewest
    handlers first; the number picked is the bound (at least 1 when
    every arc has a handler).
    """
    handlers = [0] * arc_count  # per arc: bitmask of candidate positions
    for position, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            handlers[low.bit_length() - 1] |= 1 << position
            mask ^= low
    taken = 0
    bound = 0
    for handled_by in sorted(handlers, key=lambda h: bin(h).count("1")):
        if not handled_by & taken:
            taken |= handled_by
            bound += 1
    return bound


def _greedy_cover(masks: Sequence[int], everything: int) -> List[int]:
    """Greedy set cover: positions into ``masks``, in ascending order.

    ``bin(x).count("1")`` is the popcount (``int.bit_count`` needs
    Python 3.10; the package supports 3.9).
    """
    chosen: List[int] = []
    remaining = everything
    while remaining:
        best = max(
            range(len(masks)),
            key=lambda k: bin(masks[k] & remaining).count("1"),
        )
        gain = masks[best] & remaining
        if not gain:  # pragma: no cover - guarded by uncoverable check
            raise PassSelectionError("greedy cover stalled")
        chosen.append(best)
        remaining &= ~gain
    return sorted(chosen)


def plan_for_cluster(
    period: Fraction,
    candidate_breaks: Sequence[Fraction],
    arcs: Iterable[RequirementArc],
    exhaustive_limit: int = 4,
) -> BreakOpenPlan:
    """Convenience wrapper: minimum breaks wrapped in a plan."""
    breaks = minimum_breaks(period, candidate_breaks, arcs, exhaustive_limit)
    return BreakOpenPlan(period=period, breaks=breaks)


@dataclass(frozen=True)
class ClockEdgeGraph:
    """The directed clock-edge graph of Figure 4, for reporting.

    Nodes are the distinct edge times in chronological order; the original
    arcs form the period cycle; requirement arcs are the "extra arcs".
    Removing original arc ``times[i] -> times[i+1]`` corresponds to
    breaking the period at ``times[i+1]``.
    """

    period: Fraction
    times: Tuple[Fraction, ...]
    arcs: Tuple[RequirementArc, ...]

    def original_arcs(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        n = len(self.times)
        return tuple(
            (self.times[i], self.times[(i + 1) % n]) for i in range(n)
        )

    def break_for_removed_arc(
        self, arc: Tuple[Fraction, Fraction]
    ) -> Fraction:
        """The break time equivalent to removing an original arc."""
        if arc not in self.original_arcs():
            raise ValueError(f"{arc} is not an original arc")
        return arc[1]
