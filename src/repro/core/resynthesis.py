"""Algorithm 3: the analysis-redesign loop (paper, Section 8).

    Synthesise initial area-optimised combinational logic modules.
    Until all paths are fast enough:
        Perform timing analysis to identify all paths that are too slow;
        Provide input data ready times and output required times for all
        combinational logic modules traversed by paths that are too slow;
        Select one such module and speed up slow paths.

The re-synthesis program itself (Singh et al. [1]) is outside the paper's
scope; this module substitutes a delay/area trade-off model: "speeding
up" a module multiplies its arc delays by ``speedup_factor`` (< 1) and
charges area proportional to the delay reduction.  Module selection
follows the Singh-style "most potential for speed up" heuristic: the
module whose speed-up most reduces the worst violation per unit area
cost -- approximated by picking, among modules on slow paths, the one
with the largest (delay x occurrences-on-slow-paths) product that can
still be sped up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.clocks.schedule import ClockSchedule
from repro.core.algorithm1 import run_algorithm1
from repro.core.algorithm2 import run_algorithm2
from repro.core.model import AnalysisModel
from repro.core.report import extract_slow_paths
from repro.core.slack import SlackEngine
from repro.delay.estimator import DelayMap
from repro.netlist.network import Network


@dataclass
class RedesignRound:
    """Record of one loop iteration."""

    round_index: int
    worst_slack: float
    slow_path_count: int
    chosen_module: Optional[str]
    scale_applied: Optional[float]
    #: Delay budget handed to the chosen module (Algorithm 2 output).
    allowed_delay: Optional[float] = None


@dataclass
class RedesignResult:
    """Outcome of the analysis-redesign loop."""

    success: bool
    rounds: List[RedesignRound] = field(default_factory=list)
    final_delays: Optional[DelayMap] = None
    #: Relative area increase charged by the trade-off model.
    area_cost: float = 0.0

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


@dataclass(frozen=True)
class SpeedupModel:
    """The delay/area trade-off of the substitute re-synthesis tool."""

    #: Multiplier applied to a module's delays per speed-up.
    speedup_factor: float = 0.75
    #: Smallest cumulative scale a module can reach (diminishing returns).
    min_scale: float = 0.25
    #: Area charged per unit of relative delay reduction.
    area_per_speedup: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.speedup_factor < 1:
            raise ValueError("speedup_factor must be in (0, 1)")
        if not 0 < self.min_scale <= 1:
            raise ValueError("min_scale must be in (0, 1]")


def select_module(
    model: AnalysisModel,
    engine: SlackEngine,
    capture_slacks: Dict[str, float],
    scales: Dict[str, float],
    speedup: SpeedupModel,
) -> Optional[str]:
    """Pick the combinational module with the most speed-up potential.

    Scores each cell on a slow path by ``violation-weight x current worst
    arc delay``: a slow, frequently-implicated module gives the largest
    violation reduction per application of the speed-up factor.
    """
    paths = extract_slow_paths(
        model, engine, capture_slacks, tolerance=0.0, limit=None
    )
    scores: Dict[str, float] = {}
    for path in paths:
        weight = max(path.violation, 1e-6)
        for step in path.steps:
            if scales.get(step.cell_name, 1.0) <= speedup.min_scale:
                continue
            cell = model.network.cell(step.cell_name)
            delay = model.delays.worst_arc_delay(cell)
            scores[step.cell_name] = scores.get(step.cell_name, 0.0) + (
                weight * delay
            )
    if not scores:
        return None
    return max(sorted(scores), key=lambda name: scores[name])


def run_redesign_loop(
    network: Network,
    schedule: ClockSchedule,
    delays: DelayMap,
    speedup: Optional[SpeedupModel] = None,
    max_rounds: int = 50,
    generate_constraints: bool = True,
    incremental: bool = True,
) -> RedesignResult:
    """Run Algorithm 3 until all paths are fast enough or no module can
    be sped up further.

    The network is not modified; the returned ``final_delays`` reflect the
    accumulated speed-ups.  With ``incremental=True`` (default) the loop
    keeps one analysis model alive across rounds and reuses its
    pre-processing (:mod:`repro.core.incremental`); ``incremental=False``
    rebuilds from scratch each round, which the ablation bench uses as
    the reference.
    """
    from repro.core.incremental import IncrementalAnalyzer

    speedup = speedup or SpeedupModel()
    scales: Dict[str, float] = {}
    current = delays
    result = RedesignResult(success=False)
    inc: Optional[IncrementalAnalyzer] = (
        IncrementalAnalyzer(network, schedule, delays) if incremental else None
    )

    for round_index in range(max_rounds):
        # The span covers one whole redesign round; a `break` below exits
        # the span (recording it) before leaving the loop.
        with obs.span(
            "resynthesis.round", category="resynthesis", round=round_index
        ):
            obs.counter("resynthesis.rounds")
            if inc is not None:
                model = inc.model
                engine = inc.engine
                outcome = inc.analyze()
                current = inc.delays
            else:
                model = AnalysisModel(network, schedule, current)
                engine = SlackEngine(model)
                outcome = run_algorithm1(model, engine)
            slow_paths = (
                []
                if outcome.intended
                else extract_slow_paths(
                    model, engine, outcome.slacks.capture, limit=None
                )
            )
            obs.event(
                "resynthesis.round_done",
                round=round_index,
                slow_paths=len(slow_paths),
                intended=outcome.intended,
            )
            if outcome.intended:
                result.rounds.append(
                    RedesignRound(
                        round_index=round_index,
                        worst_slack=outcome.worst_slack,
                        slow_path_count=0,
                        chosen_module=None,
                        scale_applied=None,
                    )
                )
                result.success = True
                break

            chosen = select_module(
                model, engine, outcome.slacks.capture, scales, speedup
            )
            allowed: Optional[float] = None
            if chosen is not None and generate_constraints:
                constraints = run_algorithm2(
                    model, engine, algorithm1_result=outcome
                ).constraints
                allowed = constraints.cell_constraints(
                    network.cell(chosen)
                ).allowed_delay
            result.rounds.append(
                RedesignRound(
                    round_index=round_index,
                    worst_slack=outcome.worst_slack,
                    slow_path_count=len(slow_paths),
                    chosen_module=chosen,
                    scale_applied=speedup.speedup_factor if chosen else None,
                    allowed_delay=allowed,
                )
            )
            if chosen is None:
                break  # nothing left to speed up: the loop fails
            obs.event(
                "resynthesis.module_chosen",
                round=round_index,
                module=chosen,
                allowed_delay=allowed,
            )
            previous_scale = scales.get(chosen, 1.0)
            new_scale = max(
                previous_scale * speedup.speedup_factor, speedup.min_scale
            )
            factor = new_scale / previous_scale
            scales[chosen] = new_scale
            if inc is not None:
                inc.scale_cell(chosen, factor)
                current = inc.delays
            else:
                current = current.with_scaled_cell(chosen, factor)
            result.area_cost += speedup.area_per_speedup * (1.0 - factor)

    result.final_delays = current
    return result
