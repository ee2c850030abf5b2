"""Incremental re-analysis inside the synthesis loop.

Algorithm 3 re-runs timing analysis after every module change.  Every
run of Algorithm 1 starts from the initial window positions: latch
networks can admit several self-consistent fixed points, and iterating
from the offsets a previous run left behind may land on a different
one, making the answer depend on query history.

What is reused is the pre-processing: clusters, requirement arcs and
break-open plans depend only on the network structure and the clocks,
not on the delays.  The one exception is a delay change on a cell
inside a *control* cone: that shifts ``O_ac`` offsets, which are baked
into the instances, so such changes trigger a full model rebuild
(tracked in :attr:`IncrementalAnalyzer.rebuilds`).

What makes a re-run cheap is the slack engine, kept across delay swaps.
It remembers each cluster's boundary values per exact boundary times
(:meth:`repro.core.slack.SlackEngine.port_slacks`), and a swap touches
only the clusters whose arc delays changed: the scaled cell's.  Each
transfer step evaluates only the slack direction it reads.

Most one-gate edits leave every boundary value the last run read bit
for bit as it was, and then a new run, which starts from the same
windows and reads the same values, would repeat the last one call for
call.  The engine re-sweeps only those recorded values of the changed
cluster (:meth:`~repro.core.slack.SlackEngine.repeats_last_run`), and
when they all hold :meth:`IncrementalAnalyzer.analyze` returns the last
run's result and puts back the windows it left (a *replay*, counted in
:attr:`IncrementalAnalyzer.replays`).  Otherwise Algorithm 1 runs,
mostly recalling cluster evaluations rather than sweeping them.  Either
way the answer is bit-identical to a from-scratch run.
"""

from __future__ import annotations

import time
from typing import List, NamedTuple, Optional, Set

from repro import obs
from repro.clocks.schedule import ClockSchedule
from repro.core.algorithm1 import Algorithm1Result, run_algorithm1
from repro.core.analyzer import build_timing_result
from repro.core.model import AnalysisModel
from repro.core.slack import SlackEngine
from repro.delay.estimator import DelayMap, estimate_delays
from repro.netlist.network import Network
from repro.report.provenance import active_trail


class _Run(NamedTuple):
    """The last Algorithm 1 run of an analyzer: the engine's number of
    it, its result, and the window of every instance it left."""

    number: int
    result: Algorithm1Result
    windows: List[float]


class IncrementalAnalyzer:
    """Keeps the analysis model alive across delay changes."""

    def __init__(
        self,
        network: Network,
        schedule: ClockSchedule,
        delays: Optional[DelayMap] = None,
    ) -> None:
        self.network = network
        self.schedule = schedule
        self._delays = delays if delays is not None else estimate_delays(network)
        #: Full model rebuilds performed (control-cone changes).
        self.rebuilds = 0
        #: Cheap delay swaps performed (data-path changes).
        self.swaps = 0
        #: Analyses answered by replaying the last run.
        self.replays = 0
        self._build()

    def _build(self) -> None:
        started = time.perf_counter()
        started_cpu = time.process_time()
        self.model = AnalysisModel(self.network, self.schedule, self._delays)
        self.engine = SlackEngine(self.model)
        #: Wall/CPU seconds of the most recent model build (the
        #: pre-processing cost the warm path amortises away).
        self.preprocess_seconds = time.perf_counter() - started
        self.preprocess_cpu_seconds = time.process_time() - started_cpu
        self._control_cells: Set[str] = set()
        for trace in self.model.validation.control_traces.values():
            self._control_cells.update(trace.comb_cells)
        self._instances = self.model.all_instances()
        self._last: Optional[_Run] = None

    # ------------------------------------------------------------------
    # delay changes
    # ------------------------------------------------------------------
    @property
    def delays(self) -> DelayMap:
        return self._delays

    def scale_cell(self, cell_name: str, factor: float) -> None:
        """Scale one cell's delays (the re-synthesis loop's operation).

        An unknown cell (``KeyError``) or a negative, NaN or infinite
        ``factor`` (``ValueError``) is rejected before anything changes.
        """
        self.network.cell(cell_name)
        self._delays = self._delays.with_scaled_cell(cell_name, factor)
        if cell_name in self._control_cells:
            # Control-path delays shape O_ac; rebuild the instances.
            self.rebuilds += 1
            obs.counter("incremental.rebuilds")
            with obs.span("incremental.rebuild", category="incremental"):
                self._build()
        else:
            # Positions, plans and instances are all unaffected: swap the
            # delay map under the existing model.
            self.swaps += 1
            obs.counter("incremental.swaps")
            self.model.delays = self._delays

    def set_delays(self, delays: DelayMap) -> None:
        """Replace the whole delay map (conservatively rebuilds)."""
        self._delays = delays
        self.rebuilds += 1
        obs.counter("incremental.rebuilds")
        with obs.span("incremental.rebuild", category="incremental"):
            self._build()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyze(self) -> Algorithm1Result:
        """Run Algorithm 1 on the live model, from the initial window
        positions.

        Where that run would repeat this analyzer's last one, which is
        still the engine's last, call for call
        (:meth:`SlackEngine.repeats_last_run`), return the last one's
        result instead and put back the windows it left.  Not while an
        audit trail records the transfers (``repro.report.auditing()``).
        """
        with obs.span("incremental.analyze", category="incremental"):
            last, engine = self._last, self.engine
            if (
                last is not None
                and last.number == engine.runs
                and active_trail() is None
                and engine.repeats_last_run()
            ):
                for instance, window in zip(self._instances, last.windows):
                    instance.w = window
                self.replays += 1
                obs.counter("incremental.replays")
                return last.result
            self._last = None
            result = run_algorithm1(self.model, engine)
            self._last = _Run(
                engine.runs, result, [i.w for i in self._instances]
            )
            return result

    def timing_result(
        self,
        slow_path_limit: Optional[int] = 50,
        tolerance: float = 0.0,
    ):
        """Run :meth:`analyze` and wrap the outcome as a full
        :class:`repro.core.analyzer.TimingResult`.

        The wrapper carries slow paths, model stats and this analyzer as
        the back-reference, so ``forensics()`` / ``manifest()`` /
        ``payload()`` work exactly as on a one-shot
        :class:`~repro.core.analyzer.Hummingbird` result.  This is the
        primitive the service daemon uses to answer mutate-and-requery
        traffic without rebuilding the model.
        """
        return build_timing_result(
            self, self.analyze, slow_path_limit, tolerance
        )
