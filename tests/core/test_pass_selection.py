"""Pass selection on integer bitmasks against its Fraction reference.

:func:`repro.core.breakopen.minimum_breaks` scales every time to one
common denominator and keeps each candidate's handled arcs as an int
bitmask.  :func:`reference_minimum_breaks` below is the direct
Fraction/frozenset form it replaced; the two must choose the same
breaks, and raise :class:`PassSelectionError` on the same cases, on
random inputs, because the search order is unchanged.  (Which arc the
error names may differ: the reference names the first one in frozenset
iteration order, the new form the first one in sorted order.)
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from repro.clocks.waveform import ClockWaveform
from repro.core.analyzer import Hummingbird
from repro.core.breakopen import (
    PassSelectionError,
    RequirementArc,
    minimum_breaks,
)
from repro.generators import latch_pipeline


def reference_minimum_breaks(period, candidate_breaks, arcs, exhaustive_limit=4):
    """Exhaustive search over growing subsets, then greedy set cover,
    with :meth:`RequirementArc.handled_by` evaluated in Fractions."""
    candidates = sorted(set(candidate_breaks))
    if not candidates:
        raise ValueError("need at least one candidate break point")
    unique_arcs = sorted(set(arcs), key=lambda a: (a.assertion, a.closure))
    if not unique_arcs:
        return (candidates[0],)
    valid = {
        b: frozenset(
            i
            for i, arc in enumerate(unique_arcs)
            if arc.handled_by(b, period)
        )
        for b in candidates
    }
    everything = frozenset(range(len(unique_arcs)))
    uncoverable = everything - frozenset().union(*valid.values())
    if uncoverable:
        bad = unique_arcs[next(iter(uncoverable))]
        raise PassSelectionError(
            f"requirement arc {bad.assertion}->{bad.closure} is handled by "
            "no break point"
        )
    for size in range(1, min(exhaustive_limit, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            covered = frozenset().union(*(valid[b] for b in combo))
            if covered == everything:
                return tuple(combo)
    chosen = []
    remaining = set(everything)
    while remaining:
        best = max(candidates, key=lambda b: len(valid[b] & remaining))
        chosen.append(best)
        remaining -= valid[best]
    return tuple(sorted(chosen))


def _random_case(rng):
    """A period, candidate edges, arcs (some between times that are not
    candidates, so some cases have no cover) and an exhaustive limit."""
    period = Fraction(rng.randint(1, 60), rng.choice((1, 2, 3, 5, 7)))
    grid = rng.choice((4, 6, 10, 12, 35))

    def time_on_grid():
        return period * Fraction(rng.randrange(grid), grid)

    candidates = [time_on_grid() for __ in range(rng.randint(1, 10))]
    arcs = []
    for __ in range(rng.randint(0, 10)):
        assertion = (
            rng.choice(candidates) if rng.random() < 0.8 else time_on_grid()
        )
        closure = (
            rng.choice(candidates) if rng.random() < 0.8 else time_on_grid()
        )
        arcs.append(RequirementArc(assertion, closure))
    return period, candidates, arcs, rng.randint(0, 4)


def _outcome(select, case):
    try:
        return select(*case)
    except PassSelectionError:
        return PassSelectionError


def test_matches_the_fraction_reference_on_random_cases():
    rng = random.Random(2024)
    errors = greedy = 0
    for __ in range(1500):
        case = _random_case(rng)
        expected = _outcome(reference_minimum_breaks, case)
        assert _outcome(minimum_breaks, case) == expected, case
        if expected is PassSelectionError:
            errors += 1
        elif case[3] < len(expected):
            greedy += 1
    # The cases reach both the error and the greedy fallback.
    assert errors > 20 and greedy > 20, (errors, greedy)


def test_many_clock_edges_do_not_stall_pre_processing():
    """A legal clocks file with 362 candidate breaks: ``phi2`` at period
    712 against ``phi1`` at 12 (overall period 2136)."""
    network, schedule = latch_pipeline(
        stages=3, stage_lengths=[8, 3, 2], period=12.0
    )
    phi2 = schedule.waveform("phi2")
    schedule = schedule.replace(
        ClockWaveform("phi2", 712, phi2.leading, phi2.trailing)
    )
    started = time.perf_counter()
    analyzer = Hummingbird(network, schedule)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"pre-processing took {elapsed:.1f} s"
    assert analyzer.analyze() is not None


@pytest.mark.parametrize("ratio", [1000, 10000])
def test_large_period_ratios_do_not_stall_pre_processing(ratio):
    """``phi1``'s period scaled by ``ratio``, its edges kept: 2,002 and
    20,002 candidate breaks.  Each arc's handlers are one cyclic run of
    the sorted candidates, so masks and bound cost no candidate-by-arc
    product."""
    network, schedule = latch_pipeline(
        stages=3, stage_lengths=[8, 3, 2], period=12.0
    )
    phi1 = schedule.waveform("phi1")
    schedule = schedule.replace(
        ClockWaveform(
            "phi1", phi1.period * ratio, phi1.leading, phi1.trailing
        )
    )
    started = time.perf_counter()
    analyzer = Hummingbird(network, schedule)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"pre-processing took {elapsed:.1f} s"
    assert len(schedule.edge_times()) == 2 * ratio + 2
    assert analyzer.analyze() is not None


def test_five_breaks_among_hundreds_of_edges_skip_the_walk():
    """Five coincident-edge arcs (``assertion == closure``, so each is
    handled only by a break at its own edge) among 356 candidate edges:
    no four breaks can cover them, so the search goes straight to the
    greedy cover instead of walking every combination of four.  The
    reference at the default limit would walk them all (about 660M)
    before that same greedy cover, so its limit-0 answer is its
    answer."""
    period = Fraction(2136)
    candidates = [Fraction(t) for t in range(0, 2136, 6)]
    edges = [Fraction(t) for t in (0, 426, 852, 1278, 1704)]
    arcs = [RequirementArc(edge, edge) for edge in edges]
    started = time.perf_counter()
    chosen = minimum_breaks(period, candidates, arcs)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"pass selection took {elapsed:.2f} s"
    assert chosen == tuple(edges)
    assert chosen == reference_minimum_breaks(
        period, candidates, arcs, exhaustive_limit=0
    )
