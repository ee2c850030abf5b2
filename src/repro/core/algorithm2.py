"""Algorithm 2: timing constraint generation (paper, Section 6).

Starting from Algorithm 1's offsets:

* Iteration 1 snatches time **backward** across all synchronising
  elements until no more moves, then records signal *ready times* at all
  cell inputs -- actual times for nodes on too-slow paths, upper bounds
  elsewhere;
* Iteration 2 snatches time **forward** likewise, then records *required
  times* at all cell outputs.

For every combinational node the pair (ready, required) is such that, for
any two nodes on a path, ``required(y) - ready(x)`` bounds the allowed
path delay: exactly the constraints a re-synthesis tool (Singh et al. [1])
needs -- they "indicate the speed-up required to make a slow path just
fast enough, or else bound the degree to which a path may be slowed
down".

Because a node may settle more than once per overall period, ready and
required times are recorded *per analysis pass*: the minimum set of
settling times from Section 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.algorithm1 import Algorithm1Result, run_algorithm1
from repro.core.model import AnalysisModel
from repro.core.slack import ClusterDetail, SlackEngine
from repro.core.transfer import snatch_backward, snatch_forward, sweep
from repro.netlist.cell import Cell
from repro.rftime import RiseFall


@dataclass(frozen=True)
class SettlingTime:
    """One settling event of a node: which cluster pass it belongs to and
    the rise/fall time value on that pass's axis."""

    cluster: str
    pass_index: int
    value: RiseFall


@dataclass
class TimingConstraints:
    """Ready/required times for every combinational node (by net name)."""

    ready: Dict[str, List[SettlingTime]] = field(default_factory=dict)
    required: Dict[str, List[SettlingTime]] = field(default_factory=dict)

    def ready_time(self, net_name: str) -> Optional[float]:
        """Worst (latest) scalar ready time of a net, over its settlings."""
        entries = self.ready.get(net_name)
        if not entries:
            return None
        return max(entry.value.worst for entry in entries)

    def required_time(self, net_name: str) -> Optional[float]:
        """Tightest (earliest) scalar required time of a net."""
        entries = self.required.get(net_name)
        if not entries:
            return None
        return min(entry.value.best for entry in entries)

    def node_slack(self, net_name: str) -> float:
        """Required minus ready, per pass, minimised.

        Matching is by (cluster, pass): a settling time is only compared
        with the requirement of the same pass.
        """
        ready = {
            (e.cluster, e.pass_index): e.value
            for e in self.ready.get(net_name, ())
        }
        slack = math.inf
        for entry in self.required.get(net_name, ()):
            at = ready.get((entry.cluster, entry.pass_index))
            if at is None or not at.is_finite():
                continue
            slack = min(slack, entry.value.minus(at).best)
        return slack

    def settling_count(self, net_name: str) -> int:
        """Number of settling times evaluated for the node."""
        return sum(
            1
            for e in self.ready.get(net_name, ())
            if e.value.is_finite()
        )

    def cell_constraints(self, cell: Cell) -> "CellConstraints":
        """Input ready / output required times for one combinational cell
        (the per-module data handed to re-synthesis)."""
        input_ready = {}
        for terminal in cell.input_terminals:
            if terminal.net is not None:
                value = self.ready_time(terminal.net.name)
                if value is not None:
                    input_ready[terminal.pin] = value
        output_required = {}
        for terminal in cell.output_terminals:
            if terminal.net is not None:
                value = self.required_time(terminal.net.name)
                if value is not None:
                    output_required[terminal.pin] = value
        return CellConstraints(cell.name, input_ready, output_required)


@dataclass(frozen=True)
class CellConstraints:
    """Delay budget of one combinational cell/module."""

    cell_name: str
    input_ready: Dict[str, float]
    output_required: Dict[str, float]

    @property
    def allowed_delay(self) -> float:
        """Largest input-to-output delay the budget permits."""
        if not self.input_ready or not self.output_required:
            return math.inf
        return min(self.output_required.values()) - max(
            self.input_ready.values()
        )


@dataclass
class Algorithm2Result:
    """Outcome of constraint generation."""

    constraints: TimingConstraints
    algorithm1: Algorithm1Result
    backward_snatch_cycles: int = 0
    forward_snatch_cycles: int = 0
    converged: bool = True


def run_algorithm2(
    model: AnalysisModel,
    engine: Optional[SlackEngine] = None,
    algorithm1_result: Optional[Algorithm1Result] = None,
    max_cycles: Optional[int] = None,
) -> Algorithm2Result:
    """Run Algorithm 2 (runs Algorithm 1 first unless a result is given,
    in which case the model's offsets must still be in that result's
    final state)."""
    from repro import obs

    engine = engine or SlackEngine(model)
    if algorithm1_result is None:
        algorithm1_result = run_algorithm1(model, engine)
    instances = model.all_instances()
    cap = max_cycles if max_cycles is not None else max(16, len(instances) + 2)
    converged = True

    # --- Iteration 1: backward snatching, then ready times -------------
    backward_cycles = 0
    with obs.span("alg2.iteration1.snatch_backward", category="alg2"):
        while True:
            slacks = engine.port_slacks(launch=False)
            moved = sweep(
                instances,
                slacks.capture,
                snatch_backward,
                phase="alg2.snatch_backward",
                cycle=backward_cycles + 1,
            )
            if moved == 0.0:
                break
            backward_cycles += 1
            if backward_cycles >= cap:
                converged = False
                break
    constraints = TimingConstraints()
    with obs.span("alg2.record_ready", category="alg2"):
        _record(engine, model, constraints, record_ready=True)

    # --- Iteration 2: forward snatching, then required times -----------
    forward_cycles = 0
    with obs.span("alg2.iteration2.snatch_forward", category="alg2"):
        while True:
            slacks = engine.port_slacks(capture=False)
            moved = sweep(
                instances,
                slacks.launch,
                snatch_forward,
                phase="alg2.snatch_forward",
                cycle=forward_cycles + 1,
            )
            if moved == 0.0:
                break
            forward_cycles += 1
            if forward_cycles >= cap:
                converged = False
                break
    with obs.span("alg2.record_required", category="alg2"):
        _record(engine, model, constraints, record_ready=False)

    rec = obs.active()
    if rec is not None:
        rec.counter("alg2.runs")
        rec.counter("alg2.backward_snatch_cycles", backward_cycles)
        rec.counter("alg2.forward_snatch_cycles", forward_cycles)

    return Algorithm2Result(
        constraints=constraints,
        algorithm1=algorithm1_result,
        backward_snatch_cycles=backward_cycles,
        forward_snatch_cycles=forward_cycles,
        converged=converged,
    )


def _record(
    engine: SlackEngine,
    model: AnalysisModel,
    constraints: TimingConstraints,
    record_ready: bool,
) -> None:
    for cluster in model.clusters:
        detail: ClusterDetail = engine.cluster_detail(cluster)
        for pass_detail in detail.passes:
            source = pass_detail.ready if record_ready else pass_detail.required
            sink = constraints.ready if record_ready else constraints.required
            for net_name, value in source.items():
                sink.setdefault(net_name, []).append(
                    SettlingTime(
                        cluster=cluster.name,
                        pass_index=pass_detail.pass_index,
                        value=value,
                    )
                )
