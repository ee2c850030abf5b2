"""Replaying an unchanged Algorithm 1 run after a delay swap.

An :class:`IncrementalAnalyzer` whose engine finds every boundary value
the last run read bit for bit unchanged
(:meth:`SlackEngine.repeats_last_run`) returns that run's result and
puts back its windows instead of running Algorithm 1.  Every answer
here is checked against an analyzer that never replays
(:class:`NeverReplayAnalyzer`): slacks, iterations, verdict, slow paths
and manifest digest bit for bit, and the window of every instance.

The cases: a value that changes only from ``0.0`` to ``-0.0``, NaN arcs,
keys evicted from the memo, two swaps between runs, Algorithm 2 moving
the windows between runs, and the events that may never replay (a
rebuild, ``set_delays``, a map with other arc numbers, ``_forget``, a
run made on the engine from outside, an audit trail).  A count guard
checks how often the e2e edit loop replays.
"""

from __future__ import annotations

import random
import struct
from typing import List, Tuple

import pytest

from repro import obs
from repro.cells import standard_library
from repro.clocks import ClockSchedule
from repro.core import slack
from repro.core.algorithm1 import run_algorithm1
from repro.core.algorithm2 import run_algorithm2
from repro.core.analyzer import Hummingbird
from repro.core.incremental import IncrementalAnalyzer
from repro.delay import DelayMap, estimate_delays
from repro.generators.gating import clock_gated_design
from repro.netlist import NetworkBuilder
from repro.report import auditing
from repro.rftime import RiseFall

from tests.core.test_slack_oracle import (
    NeverReplayAnalyzer,
    _edit,
    _gates,
    _hex,
    _small_latch_design,
    _special_delays,
    edit_loop_design,
    full_answer,
)


def _pair(network, schedule, delays=None):
    """An analyzer that replays and one that never does, both analysed
    twice: an engine's first call records nothing, so the run that makes
    it is never replayed, and only the second run can be."""
    ours = IncrementalAnalyzer(network, schedule, delays)
    runs = NeverReplayAnalyzer(network, schedule, delays)
    for __ in range(2):
        assert full_answer(ours, ours.timing_result()) == full_answer(
            runs, runs.timing_result()
        )
    assert ours.replays == 0
    return ours, runs


def _agree_through_edits(
    ours, runs, edits: List[Tuple[str, float]]
) -> int:
    """Apply ``edits`` to both analyzers, compare every answer, and
    return how many of them ``ours`` replayed."""
    before = ours.replays
    for index, edit in enumerate(edits):
        ours.scale_cell(*edit)
        runs.scale_cell(*edit)
        assert full_answer(ours, ours.timing_result()) == full_answer(
            runs, runs.timing_result()
        ), index
    assert runs.replays == 0
    return ours.replays - before


def _edits(network, count: int, seed: int = 0) -> List[Tuple[str, float]]:
    cells = _gates(network)
    rng = random.Random(seed)
    return [_edit(rng, cells) for __ in range(count)]


def _cluster_of(analyzer, cell: str) -> str:
    arcs = set(analyzer.delays.arc_numbers(cell))
    (cluster,) = [
        name
        for name, table in analyzer.engine.tables.items()
        if any(arc[3] in arcs for arc in table.arcs)
    ]
    return cluster


def test_count_guard_edit_loop():
    """The e2e edit loop's seed-0 edits, after one cold analysis, replay
    more than half the time: 27 of the first 50 (the first edit never
    does, as the cold run is not recorded)."""
    network, schedule = edit_loop_design()
    analyzer = IncrementalAnalyzer(network, schedule)
    analyzer.analyze()
    for cell, factor in _edits(network, 50):
        analyzer.scale_cell(cell, factor)
        analyzer.analyze()
    assert analyzer.swaps == 50
    assert analyzer.replays == 27


def test_replay_counter_and_recheck_counter():
    network, schedule = edit_loop_design()
    ours, runs = _pair(network, schedule)
    with obs.recording() as rec:
        replayed = _agree_through_edits(ours, runs, _edits(network, 10))
    assert replayed > 0
    assert rec.counters["incremental.replays"] == replayed
    assert rec.counters["slack.rechecks"] > 0


def test_analysis_with_no_swap_replays():
    """The engine's first run is not recorded and the second runs; the
    third repeats the second."""
    network, schedule = _small_latch_design()
    analyzer = IncrementalAnalyzer(network, schedule)
    analyzer.analyze()
    second = analyzer.analyze()
    assert analyzer.replays == 0
    with obs.recording() as rec:
        assert analyzer.analyze() is second
    assert analyzer.replays == 1
    assert "alg1.runs" not in rec.counters
    assert "slack.rechecks" not in rec.counters


# ----------------------------------------------------------------------
# bit-exact values
# ----------------------------------------------------------------------
def _pad_into_buffer():
    """A pad with a ``-0.0`` offset drives a buffer into a flip-flop;
    an inverter on the same net drives nothing that is captured."""
    b = NetworkBuilder(standard_library(), name="pad_into_buffer")
    b.clock("clk")
    b.input("din", "n_in", clock="clk", offset=-0.0)
    b.gate("g", "BUF", A="n_in", Z="z")
    b.gate("h", "INV", A="n_in", Z="spare")
    b.latch("ff_z", "DFF", D="z", CK="clk", Q="q")
    b.output("dout", "q", clock="clk")
    return b.build(), ClockSchedule.single("clk", 4.0)


def test_negative_zero_is_a_change():
    """A boundary value that changes only from ``0.0`` to ``-0.0`` ends
    the replay, where a value equal bit for bit does not.

    Clock positions are never ``-0.0``, so the pad's launch position is
    set to ``-0.0`` by hand: the launch time is then ``-0.0``, and the
    ready time at ``ff_z`` is ``-0.0`` plus the buffer's delay."""
    network, schedule = _pad_into_buffer()
    delays = estimate_delays(network).with_arc_override(
        "g", "A", "Z", RiseFall(0.0, 0.0)
    )
    model = Hummingbird(network, schedule, delays=delays).model
    engine = slack.SlackEngine(model)
    (pad,) = model.instances["din"]
    (name,) = [
        name for name, table in engine.tables.items()
        if any(port.instance is pad for port, __ in table.launches)
    ]
    for step in engine._passes[name]:
        step.launch_positions = (-0.0,)
    for __ in range(2):  # the engine's first run records nothing
        run_algorithm1(model, engine)
    (step,) = engine._passes[name]
    recorded = list(step.ran_forward.values())
    assert [_hex(value) for value in recorded[0]] == [_hex(0.0)] * 2
    # The spare inverter's cluster is re-checked, and holds.
    model.delays = delays.with_arc_override(
        "h", "A", "Z", RiseFall(3.0, 3.0)
    )
    with obs.recording() as rec:
        assert engine.repeats_last_run()
    assert rec.counters["slack.rechecks"] == len(recorded) + len(
        step.ran_backward
    )
    model.delays = model.delays.with_arc_override(
        "g", "A", "Z", RiseFall(-0.0, -0.0)
    )
    assert not engine.repeats_last_run()
    (key,) = step.ran_forward
    again = engine._ready(engine.tables[name], step, [-0.0])[0]
    assert key == struct.pack("d", -0.0)
    assert [_hex(value) for value in again] == [_hex(-0.0)] * 2
    assert again == recorded[0]  # equal as floats


def _holds_nan(analyzer, cell: str) -> bool:
    """Whether a value the last run read in ``cell``'s cluster is NaN."""
    return any(
        value != value
        for step in analyzer.engine._passes[_cluster_of(analyzer, cell)]
        for ran in (step.ran_forward, step.ran_backward)
        for values in ran.values()
        for value in values
        if value is not None
    )


@pytest.mark.parametrize(
    "value, nan_replays",
    [("nan_rise", 10), ("nan_both", 14), ("inf_rise", 0)],
)
def test_special_arcs(value, nan_replays):
    """NaN and infinite arc delays: every answer equals a run's, and a
    NaN value holds when its bits do (``nan_replays`` of the 40 edits
    replay after re-checking a NaN value)."""
    network, schedule = _small_latch_design()
    ours, runs = _pair(
        network, schedule, _special_delays(network, value)
    )
    replayed_nan = 0
    for edit in _edits(network, 40):
        nan = _holds_nan(ours, edit[0])
        replayed_nan += nan * _agree_through_edits(ours, runs, [edit])
    assert 0 < ours.replays < 40
    assert replayed_nan == nan_replays


def test_keys_evicted_from_the_memo(monkeypatch):
    """With a memo of two entries per (cluster, pass, direction), a run
    evaluates keys its memo no longer holds; the replay re-checks them
    from its own record."""
    monkeypatch.setattr(slack, "_MEMO_ENTRIES", 2)
    network, schedule = edit_loop_design()
    ours, runs = _pair(network, schedule)
    replayed = _agree_through_edits(ours, runs, _edits(network, 30))
    assert replayed > 0
    steps = [s for passes in ours.engine._passes.values() for s in passes]
    assert max(len(s.ran_forward) for s in steps) > 2
    assert max(len(s.forward) for s in steps) == 2


# ----------------------------------------------------------------------
# two swaps between runs
# ----------------------------------------------------------------------
def _replays_alone(network, schedule, cell: str, factor: float) -> bool:
    probe = IncrementalAnalyzer(network, schedule)
    probe.analyze()
    probe.analyze()
    probe.scale_cell(cell, factor)
    probe.analyze()
    return probe.replays == 1


@pytest.fixture(scope="module")
def outcomes():
    """Cells of the small latch design whose 1.5x edit replays the first
    run alone (two, in two clusters) and one whose edit does not, in a
    third cluster."""
    network, schedule = _small_latch_design()
    analyzer = IncrementalAnalyzer(network, schedule)
    holds, breaks, clusters = [], [], set()
    for cell in _gates(network):
        cluster = _cluster_of(analyzer, cell)
        if cluster in clusters:
            continue
        found = holds if _replays_alone(network, schedule, cell, 1.5) else (
            breaks
        )
        if len(found) < (2 if found is holds else 1):
            found.append(cell)
            clusters.add(cluster)
        if len(holds) == 2 and breaks:
            return holds, breaks[0]
    raise AssertionError("no such cells")


@pytest.mark.parametrize(
    "order, replays",
    [
        (("hold", "hold2"), 1),
        (("break", "hold"), 0),
        (("hold", "break"), 0),
    ],
)
def test_two_swaps_between_runs(outcomes, order, replays):
    """Two swaps are checked against the last run, not the last swap:
    once one of them changes a value the last run read, another that
    changes none does not bring the replay back."""
    (hold, hold2), broken = outcomes
    cells = {"hold": hold, "hold2": hold2, "break": broken}
    network, schedule = _small_latch_design()
    ours, runs = _pair(network, schedule)
    for name in order:
        ours.scale_cell(cells[name], 1.5)
        runs.scale_cell(cells[name], 1.5)
    assert full_answer(ours, ours.timing_result()) == full_answer(
        runs, runs.timing_result()
    )
    assert ours.replays == replays


def test_a_reverted_swap_runs():
    """A swap that changes a value the last run read, then one that
    puts the delay back exactly: every answer equals a run's."""
    network, schedule = _small_latch_design()
    ours, runs = _pair(network, schedule)
    edits = [
        (cell, factor)
        for cell in _gates(network)[:10]
        for factor in (2.0, 0.5)
    ]
    _agree_through_edits(ours, runs, edits)


# ----------------------------------------------------------------------
# windows moved between runs
# ----------------------------------------------------------------------
def _constraints(model, engine, result) -> tuple:
    constraints = run_algorithm2(
        model, engine, algorithm1_result=result
    ).constraints
    return (
        tuple(
            [
                (
                    name,
                    [
                        (e.cluster, e.pass_index, _hex(e.value.rise),
                         _hex(e.value.fall))
                        for e in entries
                    ],
                )
                for name, entries in side.items()
            ]
            for side in (constraints.ready, constraints.required)
        ),
        [_hex(instance.w) for instance in model.all_instances()],
    )


def test_algorithm2_between_runs():
    """Algorithm 2 snatches time on a violating design and moves the
    windows after every analysis, as the redesign loop does; a replay
    puts back the windows the last run left.  Every other Algorithm 2
    runs its own Algorithm 1 on the engine, and the analysis after it
    does not replay."""
    network, schedule = edit_loop_design()
    delays = estimate_delays(network).globally_scaled(1.5)
    ours, runs = _pair(network, schedule, delays)
    for index, edit in enumerate(_edits(network, 30)):
        ours.scale_cell(*edit)
        runs.scale_cell(*edit)
        before = ours.replays
        results = [analyzer.timing_result() for analyzer in (ours, runs)]
        answer = full_answer(ours, results[0])
        assert answer == full_answer(runs, results[1]), index
        if index % 2 == 0 and index:
            assert ours.replays == before, index
        given = index % 2 == 0
        snatched = [
            _constraints(
                analyzer.model,
                analyzer.engine,
                result.algorithm1 if given else None,
            )
            for analyzer, result in zip((ours, runs), results)
        ]
        assert snatched[0] == snatched[1], index
        assert snatched[0][1] != answer[1], index
    assert ours.replays > 0


# ----------------------------------------------------------------------
# what never replays
# ----------------------------------------------------------------------
def test_rebuild_does_not_replay():
    network, schedule = clock_gated_design()
    analyzer = IncrementalAnalyzer(network, schedule)
    analyzer.analyze()
    analyzer.scale_cell("clk_gate", 2.0)  # on the control path
    assert analyzer.rebuilds == 1
    with obs.recording() as rec:
        analyzer.analyze()
    assert analyzer.replays == 0
    assert rec.counters["alg1.runs"] == 1


def test_set_delays_does_not_replay():
    network, schedule = _small_latch_design()
    analyzer = IncrementalAnalyzer(network, schedule)
    analyzer.analyze()
    analyzer.set_delays(analyzer.delays)
    analyzer.analyze()
    assert (analyzer.rebuilds, analyzer.replays) == (1, 0)


def test_forget_does_not_replay():
    network, schedule = _small_latch_design()
    analyzer = IncrementalAnalyzer(network, schedule)
    analyzer.analyze()
    analyzer.engine._forget(next(iter(analyzer.engine.tables)))
    analyzer.analyze()
    assert analyzer.replays == 0
    analyzer.analyze()
    assert analyzer.replays == 1


def test_map_with_other_arc_numbers_does_not_repeat():
    """A map that drops a gate's arcs numbers the arcs anew: the tables
    are rebuilt, and the last run no longer repeats, even for a map
    whose numbers and values are those it was filled from."""
    network, schedule = _small_latch_design()
    analyzer = Hummingbird(network, schedule)
    model, engine = analyzer.model, analyzer.engine
    delays = model.delays
    analyzer.analyze()
    gate = _gates(network)[0]
    model.delays = DelayMap(
        delays._arc_max,
        delays._arc_min,
        delays._arc_sense,
        {**delays._cell_arcs, gate: ()},
        {**delays._arc_keys, gate: ()},
        delays._sync,
    )
    assert not engine.repeats_last_run()
    model.delays = delays
    assert not engine.repeats_last_run()
    analyzer.analyze()
    assert engine.repeats_last_run()


def test_run_from_outside_is_not_replayed():
    """A run made on the analyzer's engine from outside, under delays
    that differ from its last run's: the next analysis runs."""
    network, schedule = _small_latch_design()
    ours, runs = _pair(network, schedule)
    for edit in _edits(network, 10):
        ours.scale_cell(*edit)
        runs.scale_cell(*edit)
        run_algorithm1(ours.model, ours.engine)
        before = ours.replays
        assert full_answer(ours, ours.timing_result()) == full_answer(
            runs, runs.timing_result()
        )
        assert ours.replays == before


def test_audit_trail_is_not_replayed():
    """An audit trail records the transfers of a run that runs."""
    network, schedule = edit_loop_design()
    delays = estimate_delays(network).globally_scaled(1.5)
    analyzer = IncrementalAnalyzer(network, schedule, delays)
    analyzer.analyze()
    with auditing() as trail:
        analyzer.analyze()
    assert analyzer.replays == 0
    assert trail.total_events > 0
