"""The :class:`Hummingbird` facade: the public entry point of the library.

Mirrors the structure of the original program: a *pre-processing* phase
(cluster generation and the Section 7 pass-selection algorithm, timed
separately as in Table 1) followed by *analysis* (Algorithm 1) and,
optionally, *constraint generation* (Algorithm 2).

Example
-------
>>> from repro import Hummingbird                      # doctest: +SKIP
>>> hb = Hummingbird(network, schedule)                # doctest: +SKIP
>>> result = hb.analyze()                              # doctest: +SKIP
>>> print(result.summary())                            # doctest: +SKIP
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.clocks.schedule import ClockSchedule
from repro.core.algorithm1 import Algorithm1Result, run_algorithm1
from repro.core.algorithm2 import Algorithm2Result, run_algorithm2
from repro.core.model import AnalysisModel
from repro.core.report import SlowPath, extract_slow_paths, format_slow_paths
from repro.core.slack import SlackEngine
from repro.delay.estimator import DelayMap, DelayParameters, estimate_delays
from repro.netlist.network import Network


@dataclass
class TimingResult:
    """Outcome of one timing analysis."""

    algorithm1: Algorithm1Result
    slow_paths: List[SlowPath]
    preprocess_seconds: float
    analysis_seconds: float
    stats: Dict[str, int] = field(default_factory=dict)
    #: Combined CPU seconds (pre-processing + analysis) for manifests.
    cpu_seconds: float = 0.0
    #: Back-reference to the analyser that produced this result; set by
    #: :meth:`Hummingbird.analyze` and used by the forensics/manifest
    #: accessors below (excluded from comparisons and repr).
    analyzer: Optional["Hummingbird"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def intended(self) -> bool:
        """True when the system behaves as intended (no slow paths)."""
        return self.algorithm1.intended

    @property
    def worst_slack(self) -> float:
        return self.algorithm1.worst_slack

    def summary(self) -> str:
        verdict = (
            "system behaves as intended"
            if self.intended
            else f"{len(self.slow_paths)} slow path(s)"
        )
        worst = self.worst_slack
        # A design with no constrained paths has +inf worst slack; print
        # "n/a" rather than a bare "inf".
        worst_text = "n/a" if math.isinf(worst) else f"{worst:.3f}"
        return (
            f"{self.stats.get('cells', '?')} cells, "
            f"{self.stats.get('nets', '?')} nets | "
            f"pre-processing {self.preprocess_seconds:.3f}s, "
            f"analysis {self.analysis_seconds:.3f}s | "
            f"worst slack {worst_text} | {verdict}"
        )

    def report(self, limit: int = 20) -> str:
        return self.summary() + "\n" + format_slow_paths(self.slow_paths, limit)

    def payload(self) -> Dict[str, object]:
        """Serialisable record of this result (``repro.result/1``).

        This is the document :class:`repro.service.cache.ResultCache`
        stores and the batch/daemon layers return: everything a client
        needs to *consume* an analysis (verdict, worst slack,
        per-endpoint slacks, iteration counts, cost) without the live
        model objects.  Infinities are encoded as ``"inf"``/``"-inf"``
        strings so the payload is strict JSON.
        """

        def _num(value: float) -> object:
            if isinstance(value, float) and math.isinf(value):
                return "inf" if value > 0 else "-inf"
            return value

        iterations = self.algorithm1.iterations
        return {
            "schema": "repro.result/1",
            "intended": self.intended,
            "converged": self.algorithm1.converged,
            "worst_slack": _num(self.worst_slack),
            "summary": self.summary(),
            "slow_paths": len(self.slow_paths),
            "endpoint_slacks": {
                name: _num(value)
                for name, value in sorted(
                    self.algorithm1.slacks.capture.items()
                )
            },
            "stats": {
                key: value
                for key, value in sorted(self.stats.items())
                if isinstance(value, (int, float))
            },
            "iterations": {
                "forward": iterations.forward,
                "backward": iterations.backward,
                "partial_forward": iterations.partial_forward,
                "partial_backward": iterations.partial_backward,
                "total": iterations.total,
            },
            "cost": {
                "preprocess_s": self.preprocess_seconds,
                "analysis_s": self.analysis_seconds,
                "cpu_s": self.cpu_seconds,
            },
        }

    # ------------------------------------------------------------------
    # forensics layer (see docs/reporting.md)
    # ------------------------------------------------------------------
    def _require_analyzer(self) -> "Hummingbird":
        if self.analyzer is None:
            raise ValueError(
                "this TimingResult is detached from its analyzer; "
                "forensics()/manifest() need the result returned by "
                "Hummingbird.analyze()"
            )
        return self.analyzer

    def forensics(self, endpoint: str):
        """Explain one endpoint's slack (``repro.report.PathForensics``).

        Returns an :class:`repro.report.EndpointForensics` with the full
        ``D_p`` / ``O_x`` / ``O_y`` / borrow-chain breakdown.
        """
        return self.path_forensics().explain(endpoint)

    def path_forensics(self):
        """The :class:`repro.report.PathForensics` engine for this run."""
        from repro.report.forensics import PathForensics

        analyzer = self._require_analyzer()
        return PathForensics(
            analyzer.model, analyzer.engine, self.algorithm1.slacks
        )

    def manifest(
        self,
        netlist_path=None,
        clocks_path=None,
        recorder=None,
        label: Optional[str] = None,
    ) -> Dict[str, object]:
        """The run manifest (``repro.manifest/1``) of this analysis."""
        from repro.report.manifest import build_manifest

        return build_manifest(
            self._require_analyzer(),
            self,
            netlist_path=netlist_path,
            clocks_path=clocks_path,
            recorder=recorder,
            label=label,
        )


def build_timing_result(
    analyzer,
    run: Callable[[], Algorithm1Result],
    slow_path_limit: Optional[int],
    tolerance: float,
) -> TimingResult:
    """Time ``run()`` -- one Algorithm 1 run over ``analyzer``'s model --
    and wrap its outcome as a :class:`TimingResult`: slow paths, model
    stats with the iteration counts, and the combined CPU cost.

    The one assembly path behind :meth:`Hummingbird.analyze` and
    :meth:`repro.core.incremental.IncrementalAnalyzer.timing_result`.
    ``analyzer`` is either of them: it provides ``model``, ``engine``
    and the ``preprocess_seconds`` / ``preprocess_cpu_seconds`` of its
    model build, and becomes the result's back-reference.
    """
    started = time.perf_counter()
    started_cpu = time.process_time()
    outcome = run()
    analysis_seconds = time.perf_counter() - started
    analysis_cpu_seconds = time.process_time() - started_cpu
    with obs.span("analyzer.slow_paths", category="analyzer"):
        slow_paths = (
            []
            if outcome.intended
            else extract_slow_paths(
                analyzer.model,
                analyzer.engine,
                outcome.slacks.capture,
                tolerance=tolerance,
                limit=slow_path_limit,
            )
        )
    stats = analyzer.model.stats()
    stats["algorithm1_iterations"] = outcome.iterations.total
    stats["algorithm1_forward_cycles"] = outcome.iterations.forward
    stats["algorithm1_backward_cycles"] = outcome.iterations.backward
    return TimingResult(
        algorithm1=outcome,
        slow_paths=slow_paths,
        preprocess_seconds=analyzer.preprocess_seconds,
        analysis_seconds=analysis_seconds,
        stats=stats,
        cpu_seconds=analyzer.preprocess_cpu_seconds + analysis_cpu_seconds,
        analyzer=analyzer,
    )


class Hummingbird:
    """System-level timing analyser for latch-based multi-phase designs.

    Parameters
    ----------
    network:
        The design (cells, nets, synchronisers, pads, clock sources).
    schedule:
        The clock waveforms (harmonically related).
    delays:
        Pre-computed component delays; estimated from the cell library
        when omitted.
    delay_params:
        Estimation knobs (only used when ``delays`` is omitted).
    exhaustive_limit:
        Largest break-set size tried exhaustively in pass selection.
    clusters:
        Precomputed cluster partition of ``network`` (e.g. warmed from
        the cluster cache so the reachability sweep is skipped);
        extracted from the network when omitted.
    """

    def __init__(
        self,
        network: Network,
        schedule: ClockSchedule,
        delays: Optional[DelayMap] = None,
        delay_params: Optional[DelayParameters] = None,
        exhaustive_limit: int = 4,
        clusters=None,
    ) -> None:
        self.network = network
        self.schedule = schedule
        # Monotonic wall-clock phase timing (perf_counter, not
        # process_time) so I/O-bound and multi-threaded runs report
        # consistently; `preprocess_seconds` keeps its historical meaning.
        started = time.perf_counter()
        started_cpu = time.process_time()
        with obs.span("analyzer.preprocess", category="analyzer"):
            with obs.span("analyzer.estimate_delays", category="analyzer"):
                self.delays = (
                    delays
                    if delays is not None
                    else estimate_delays(network, delay_params)
                )
            with obs.span("analyzer.build_model", category="analyzer"):
                self.model = AnalysisModel(
                    network,
                    schedule,
                    self.delays,
                    exhaustive_limit,
                    clusters=clusters,
                )
            with obs.span("analyzer.build_engine", category="analyzer"):
                self.engine = SlackEngine(self.model)
        self.preprocess_seconds = time.perf_counter() - started
        self.preprocess_cpu_seconds = time.process_time() - started_cpu
        rec = obs.active()
        if rec is not None:
            stats = self.model.stats()
            rec.gauge("model.clusters", stats.get("clusters", 0))
            rec.gauge("model.total_passes", stats.get("total_passes", 0))
            rec.gauge(
                "model.max_passes_per_cluster",
                stats.get("max_passes_per_cluster", 0),
            )
            rec.gauge(
                "model.generic_instances", stats.get("generic_instances", 0)
            )
        self._last_result: Optional[TimingResult] = None

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyze(
        self, slow_path_limit: Optional[int] = 50, tolerance: float = 0.0
    ) -> TimingResult:
        """Run Algorithm 1 and extract the slow paths."""

        def run() -> Algorithm1Result:
            with obs.span("analyzer.analysis", category="analyzer"):
                return run_algorithm1(self.model, self.engine)

        result = build_timing_result(self, run, slow_path_limit, tolerance)
        self._last_result = result
        return result

    def generate_constraints(self) -> Algorithm2Result:
        """Run Algorithm 2 (ready/required times for re-synthesis)."""
        with obs.span("analyzer.constraints", category="analyzer"):
            return run_algorithm2(self.model, self.engine)

    def statistics(self, histogram_bins: int = 8):
        """Aggregate endpoint statistics (WNS/TNS, per-clock, histogram)
        for the last analysis (runs one if needed)."""
        from repro.core.statistics import timing_statistics

        result = self._last_result or self.analyze()
        return timing_statistics(
            self.model, result.algorithm1.slacks, histogram_bins
        )

    def flag_slow_paths(self) -> int:
        """Mark cells on slow paths with ``attrs['slow_path'] = True``
        (the OCT-flag substitute).  Returns the number of flagged cells."""
        result = self._last_result or self.analyze()
        flagged = set()
        for path in result.slow_paths:
            for step in path.steps:
                flagged.add(step.cell_name)
        for name in flagged:
            self.network.cell(name).attrs["slow_path"] = True
        return len(flagged)

    # ------------------------------------------------------------------
    # what-if (interactive mode, Section 8)
    # ------------------------------------------------------------------
    def with_schedule(self, schedule: ClockSchedule) -> "Hummingbird":
        """A new analyser for the same design under different clocks
        (component delays are reused -- they do not depend on clocks)."""
        return Hummingbird(self.network, schedule, delays=self.delays)

    def with_delays(self, delays: DelayMap) -> "Hummingbird":
        """A new analyser with adjusted component delays."""
        return Hummingbird(self.network, self.schedule, delays=delays)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def table_row(self) -> Dict[str, object]:
        """A Table 1 style row for this design."""
        result = self._last_result or self.analyze()
        return {
            "design": self.network.name,
            "cells": result.stats.get("cells"),
            "nets": result.stats.get("nets"),
            "preprocess_s": round(result.preprocess_seconds, 4),
            "analysis_s": round(result.analysis_seconds, 4),
            "worst_slack": round(result.worst_slack, 4)
            if result.worst_slack != float("inf")
            else None,
            "intended": result.intended,
        }
