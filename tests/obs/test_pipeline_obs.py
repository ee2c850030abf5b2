"""Instrumentation coverage of the analysis pipeline itself.

Checks that running the real analyses under a recorder publishes the
advertised metric names, and that the Section 8 iteration-bound claim
("the number of complete transfer cycles is bounded by the number of
synchronising elements in a path plus one") is observable as a metric.
"""

import pytest

from repro import Hummingbird, obs
from repro.core.algorithm1 import run_algorithm1
from repro.core.incremental import IncrementalAnalyzer
from repro.core.model import AnalysisModel
from repro.core.slack import SlackEngine
from repro.delay import estimate_delays
from repro.generators import generate_sm1h, latch_pipeline

from tests.conftest import build_ff_stage


class TestAnalyzerSpans:
    def test_analyze_records_phase_spans(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        with obs.recording() as rec:
            Hummingbird(network, schedule).analyze()
        names = {record.name for record in rec.spans}
        assert "analyzer.preprocess" in names
        assert "analyzer.estimate_delays" in names
        assert "analyzer.build_model" in names
        assert "analyzer.analysis" in names
        assert "delay.estimate" in names

    def test_module_characterisation_span(self):
        network, schedule = generate_sm1h()
        with obs.recording() as rec:
            Hummingbird(network, schedule)
        (span,) = [r for r in rec.spans if r.name == "delay.characterise"]
        assert dict(span.args) == {"module": "SM1_LOGIC"}
        (estimate,) = [r for r in rec.spans if r.name == "delay.estimate"]
        assert span.depth == estimate.depth + 1
        # The inner cells count once, in the characterisation.
        inner = network.cell("logic").spec.definition.inner
        assert rec.counters["delay.cells_estimated"] == (
            network.num_cells + inner.num_cells
        )

    def test_phase_gauges_published(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        with obs.recording() as rec:
            Hummingbird(network, schedule)
        assert rec.gauges["model.clusters"] >= 1
        assert rec.gauges["model.total_passes"] >= 1

    def test_result_stats_carry_iteration_counts(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        result = Hummingbird(network, schedule).analyze()
        assert "algorithm1_iterations" in result.stats
        assert result.stats["algorithm1_iterations"] == (
            result.algorithm1.iterations.total
        )

    def test_phase_seconds_are_wall_clock(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        result = Hummingbird(network, schedule).analyze()
        assert result.preprocess_seconds >= 0.0
        assert result.analysis_seconds >= 0.0

    def test_counters_match_result_iterations(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        with obs.recording() as rec:
            result = Hummingbird(network, schedule).analyze()
        counts = result.algorithm1.iterations
        assert rec.counters.get("alg1.runs") == 1
        assert rec.counters.get("alg1.forward_cycles", 0) == counts.forward
        assert rec.counters.get("alg1.backward_cycles", 0) == counts.backward


class TestSection8IterationBound:
    def test_latch_pipeline_respects_bound(self):
        """Complete-transfer cycle counts stay within the paper's
        sync-elements-per-path + 1 bound on a borrowing latch pipeline."""
        network, schedule = latch_pipeline(
            stages=6, stage_lengths=[12, 1, 1, 1, 1, 1], period=12.0
        )
        delays = estimate_delays(network)
        model = AnalysisModel(network, schedule, delays)
        with obs.recording() as rec:
            result = run_algorithm1(model, SlackEngine(model))
        assert result.intended
        bound = len(network.synchronisers) + 1
        assert 1 <= result.iterations.forward <= bound
        assert result.iterations.backward <= bound
        # The bound is observable from the metrics dump alone.
        data = obs.metrics_dict(rec)
        assert 1 <= data["counters"]["alg1.forward_cycles"] <= bound
        assert data["counters"]["alg1.iterations_total"] == (
            result.iterations.total
        )

    def test_slack_transfer_counters_nonzero_when_borrowing(self):
        network, schedule = latch_pipeline(
            stages=6, stage_lengths=[12, 1, 1, 1, 1, 1], period=12.0
        )
        delays = estimate_delays(network)
        model = AnalysisModel(network, schedule, delays)
        with obs.recording() as rec:
            run_algorithm1(model, SlackEngine(model))
        assert rec.counters["transfer.complete_forward.sweeps"] >= 1
        assert rec.counters["transfer.complete_forward.moved"] > 0
        assert rec.counters["slack.evaluations"] >= 1
        assert rec.counters["slack.cluster_passes"] >= 1
        assert rec.counters["slack.nodes_visited"] >= 1


class TestIncrementalCounters:
    def test_swap_and_rebuild_counters(self, lib):
        network, schedule = build_ff_stage(lib, chain=3, period=10)
        with obs.recording() as rec:
            inc = IncrementalAnalyzer(network, schedule)
            inc.analyze()
            inc.scale_cell("inv1", 0.9)  # data-path cell: swap
        assert rec.counters.get("incremental.swaps", 0) == 1
        assert inc.swaps == 1


class TestBreakopenCounters:
    def test_pass_selection_stats(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        with obs.recording() as rec:
            Hummingbird(network, schedule)
        assert rec.counters["breakopen.searches"] >= 1
        assert rec.counters["breakopen.passes_selected"] >= 1


class TestDisabledPipeline:
    def test_analysis_unaffected_when_disabled(self, lib):
        network, schedule = build_ff_stage(lib, chain=2, period=10)
        assert obs.active() is None
        result = Hummingbird(network, schedule).analyze()
        assert result.intended
        assert obs.active() is None


class TestInfWorstSlackFormatting:
    def test_summary_prints_na_for_unconstrained_design(self, lib):
        import math

        from repro.core.algorithm1 import Algorithm1Result
        from repro.core.analyzer import TimingResult
        from repro.core.slack import PortSlacks

        result = TimingResult(
            algorithm1=Algorithm1Result(True, PortSlacks()),
            slow_paths=[],
            preprocess_seconds=0.0,
            analysis_seconds=0.0,
        )
        assert math.isinf(result.worst_slack)
        text = result.summary()
        assert "n/a" in text
        assert "inf" not in text

    def test_statistics_format_prints_na(self):
        from repro.core.statistics import _fmt

        assert _fmt(float("inf")) == "n/a"
        assert _fmt(-1.25) == "-1.250"
