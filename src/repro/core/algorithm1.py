"""Algorithm 1: identification of slow paths (paper, Section 6).

The algorithm iterates slack transfer to a fixed point:

* Iteration 1 -- complete **forward** transfer across all elements until
  no slack moves (or all node slacks are already positive),
* Iteration 2 -- complete **backward** transfer likewise,
* Iteration 3 -- one **partial forward** transfer per complete backward
  cycle performed,
* Iteration 4 -- one **partial backward** transfer per complete forward
  cycle performed,
* final step -- node slacks everywhere.

Iterations 1 and 2 remove surplus time from paths with positive slack;
iterations 3 and 4 return some, so paths that are fast enough end with
strictly positive slack while every node on a too-slow path ends
non-positive.

Forward transfer reads only the node slacks at the elements' inputs
(capture slacks) and backward transfer only those at their outputs
(launch slacks), so each loop asks the slack engine for that direction
alone.  The first call of a run and the final step evaluate both.  The
"all node slacks positive" check of iterations 1 and 2 reads both
directions; :meth:`PortSlacks.all_positive_lazily` decides it from the
direction at hand where that direction holds a non-positive slack, and
evaluates the other only where it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import obs
from repro.core.model import AnalysisModel
from repro.core.slack import PortSlacks, SlackEngine
from repro.core.transfer import (
    complete_backward,
    complete_forward,
    partial_backward,
    partial_forward,
    sweep,
)


@dataclass
class IterationCounts:
    """How many transfer cycles each phase of Algorithm 1 performed."""

    forward: int = 0
    backward: int = 0
    partial_forward: int = 0
    partial_backward: int = 0

    @property
    def total(self) -> int:
        return (
            self.forward
            + self.backward
            + self.partial_forward
            + self.partial_backward
        )


@dataclass
class Algorithm1Result:
    """Outcome of the slow-path identification."""

    #: True when a set of offsets was found under which every path
    #: constraint is satisfied: "the system behaves as intended".
    intended: bool
    #: Final node slacks at the generic-instance boundary terminals.
    slacks: PortSlacks
    iterations: IterationCounts = field(default_factory=IterationCounts)
    #: Whether a fixed-point loop hit the safety cap before converging.
    converged: bool = True

    @property
    def worst_slack(self) -> float:
        return self.slacks.worst()

    def slow_instance_names(self, tolerance: float = 0.0) -> List[str]:
        """Instances whose input or output terminal lies on a slow path."""
        names = {
            name
            for name, slack in self.slacks.capture.items()
            if slack <= tolerance
        }
        names.update(
            name
            for name, slack in self.slacks.launch.items()
            if slack <= tolerance
        )
        return sorted(names)


def run_algorithm1(
    model: AnalysisModel,
    engine: Optional[SlackEngine] = None,
    divisor: float = 2.0,
    max_cycles: Optional[int] = None,
) -> Algorithm1Result:
    """Run Algorithm 1 on ``model`` (mutates the instances' offsets).

    Every run starts from the initial window positions.  ``divisor`` is
    the ``n > 1`` of partial slack transfer.  ``max_cycles`` caps each
    fixed-point loop; the paper's bound is one more than the number of
    synchronising elements in a directed path, so the default is
    comfortably above that.
    """
    model.reset_windows()
    engine = engine or SlackEngine(model)
    instances = model.all_instances()
    cap = max_cycles if max_cycles is not None else max(16, len(instances) + 2)
    counts = IterationCounts()
    converged = True
    rec = obs.active()

    # --- Iteration 1: complete forward transfer to a fixed point --------
    with obs.span("alg1.iteration1.forward", category="alg1"):
        slacks = engine.port_slacks()  # a run's first call: both directions
        positive = slacks.all_positive()
        while True:
            if positive:
                return _finish(True, slacks, counts, converged, rec)
            moved = sweep(
                instances,
                slacks.capture,
                complete_forward,
                phase="iteration1.forward",
                cycle=counts.forward + 1,
            )
            if moved == 0.0:
                break
            counts.forward += 1
            if counts.forward >= cap:
                converged = False
                break
            slacks = engine.port_slacks(launch=False)
            positive = slacks.all_positive_lazily(
                engine.port_slacks, capture=True
            )

    # --- Iteration 2: complete backward transfer to a fixed point -------
    with obs.span("alg1.iteration2.backward", category="alg1"):
        while True:
            slacks = engine.port_slacks(capture=False)
            if slacks.all_positive_lazily(engine.port_slacks, capture=False):
                return _finish(True, slacks, counts, converged, rec)
            moved = sweep(
                instances,
                slacks.launch,
                complete_backward,
                phase="iteration2.backward",
                cycle=counts.backward + 1,
            )
            if moved == 0.0:
                break
            counts.backward += 1
            if counts.backward >= cap:
                converged = False
                break

    # --- Iteration 3: one partial forward per complete backward cycle ---
    with obs.span("alg1.iteration3.partial_forward", category="alg1"):
        for __ in range(counts.backward):
            slacks = engine.port_slacks(launch=False)
            moved = sweep(
                instances,
                slacks.capture,
                partial_forward,
                phase="iteration3.partial_forward",
                cycle=counts.partial_forward + 1,
                divisor=divisor,
            )
            counts.partial_forward += 1
            if moved == 0.0:
                break

    # --- Iteration 4: one partial backward per complete forward cycle ---
    with obs.span("alg1.iteration4.partial_backward", category="alg1"):
        for __ in range(counts.forward):
            slacks = engine.port_slacks(capture=False)
            moved = sweep(
                instances,
                slacks.launch,
                partial_backward,
                phase="iteration4.partial_backward",
                cycle=counts.partial_backward + 1,
                divisor=divisor,
            )
            counts.partial_backward += 1
            if moved == 0.0:
                break

    # --- Final step: all node slacks ------------------------------------
    with obs.span("alg1.final_slacks", category="alg1"):
        slacks = engine.port_slacks()
    intended = slacks.all_positive()
    return _finish(intended, slacks, counts, converged, rec)


def _finish(
    intended: bool,
    slacks: PortSlacks,
    counts: IterationCounts,
    converged: bool,
    rec,
) -> Algorithm1Result:
    """Assemble the result and publish the iteration counters.

    The Section 8 bound -- at most one complete-transfer cycle per
    synchronising element on a path, plus one -- becomes an observable
    metric here: ``alg1.forward_cycles`` / ``alg1.backward_cycles``.
    """
    if rec is not None:
        rec.counter("alg1.runs")
        rec.counter("alg1.forward_cycles", counts.forward)
        rec.counter("alg1.backward_cycles", counts.backward)
        rec.counter("alg1.partial_forward_cycles", counts.partial_forward)
        rec.counter("alg1.partial_backward_cycles", counts.partial_backward)
        rec.counter("alg1.iterations_total", counts.total)
        if not converged:
            rec.counter("alg1.nonconverged_runs")
        worst = slacks.worst()
        if worst == worst and worst not in (float("inf"), float("-inf")):
            rec.gauge("alg1.worst_slack", worst)
        rec.event(
            "alg1.done",
            intended=intended,
            iterations=counts.total,
            converged=converged,
        )
    return Algorithm1Result(intended, slacks, counts, converged)
