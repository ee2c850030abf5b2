"""Incremental re-analysis inside the synthesis loop.

Algorithm 3 re-runs timing analysis after every module change.  Because
Algorithm 1 may start from *any* set of offsets satisfying the
synchronising element constraints ("Initialise: Select any set of
offsets..."), a *repeat* query can warm-start from the previous fixed
point and converge immediately.  After a **delay change** the cached
fixed point is discarded: latch networks can admit several
self-consistent fixed points, and iterating from offsets that belonged
to the old delay map may land on a non-canonical one, making the answer
depend on query history.  Determinism wins -- the next run re-seeds the
windows, while the expensive pre-processing is still reused.

Pre-processing is also reused: clusters, requirement arcs and break-open
plans depend only on the network structure and the clocks, not on the
delays.  The one exception is a delay change on a cell inside a
*control* cone: that shifts ``O_ac`` offsets, which are baked into the
instances, so such changes trigger a full model rebuild (tracked in
:attr:`IncrementalAnalyzer.rebuilds`).

What makes a re-run cheap is the slack engine, kept across delay swaps.
It remembers each cluster's boundary values per exact boundary times
(:meth:`repro.core.slack.SlackEngine.port_slacks`), and a swap drops
only the memos of the clusters whose arc delays changed: the scaled
cell's.  Re-seeded windows walk Algorithm 1 through much the same
offsets as the previous run did, so most cluster evaluations of a
re-run are recalled rather than swept, and the answer is bit-identical
to a from-scratch run.  Each transfer step also evaluates only the
slack direction it reads, so a step that does sweep runs one of a
cluster's two sweeps, not both.
"""

from __future__ import annotations

import time
from typing import Optional, Set

from repro import obs
from repro.clocks.schedule import ClockSchedule
from repro.core.algorithm1 import Algorithm1Result, run_algorithm1
from repro.core.analyzer import build_timing_result
from repro.core.model import AnalysisModel
from repro.core.slack import SlackEngine
from repro.delay.estimator import DelayMap, estimate_delays
from repro.netlist.network import Network


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
        self._warm = False

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
            # The previous fixed point belongs to the *old* delay map.
            # Algorithm 1 accepts any valid initial offsets, but latch
            # networks can have several self-consistent fixed points and
            # iterating from stale offsets may land on a non-canonical
            # one -- the answer would then depend on query history.
            # Re-seed the next run so re-analysis is byte-identical to a
            # from-scratch run; the expensive preprocessing (positions,
            # plans, instances) is still reused.
            self._warm = False

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
    def analyze(self, warm: bool = True) -> Algorithm1Result:
        """Run Algorithm 1; ``warm=True`` starts from the previous fixed
        point's offsets instead of the initial window positions."""
        reset = not (warm and self._warm)
        # Warm-start accounting: a *hit* reuses the previous fixed point,
        # a *cold start* resets the windows (first run or warm=False).
        obs.counter(
            "incremental.cold_starts" if reset else "incremental.warm_hits"
        )
        with obs.span(
            "incremental.analyze", category="incremental", warm=not reset
        ):
            result = run_algorithm1(self.model, self.engine, reset=reset)
        self._warm = True
        return result

    def timing_result(
        self,
        warm: bool = True,
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
            self, lambda: self.analyze(warm=warm), slow_path_limit, tolerance
        )
