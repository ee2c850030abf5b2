"""Per-layer timing for the traced run, measured from outside the program.

:func:`install` wraps each layer's public entry point -- at every import
site, so ``from repro.core.clusters import extract_clusters`` inside
``repro.core.model`` is wrapped too -- with a shim that records a span
(and, for a few, a work count) into the active :mod:`repro.obs` recorder,
next to the program's own ``analyzer.*`` spans and ``alg1.*`` /
``slack.*`` counters.  With no recorder active a shim is one global read
and a call.  A target that no longer exists is skipped and its metrics
read ``None``.

:func:`layer_metrics` turns a recording into per-round layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.obs.recorder import Recorder, SpanRecord

#: Root span of one timed round of an in-process workload.
ROUND_SPAN = "bench.round"
#: Root span of one daemon request (installed by the daemon launcher).
REQUEST_SPAN = "bench.request"


def _passes(args, result) -> int:
    return sum(plan.num_passes for plan in args[0].plans.values())


#: (span name, module, attribute, counter name, count(args, result)).
#: A span name of ``None`` makes a count-only shim (+1 per call).
SHIMS: Tuple[tuple, ...] = (
    ("netlist.load", "repro.netlist.persistence", "load_network",
     None, None),
    ("netlist.validate", "repro.netlist.validate", "validate_network",
     None, None),
    ("delay.estimate", "repro.delay.estimator", "estimate_delays",
     None, None),
    ("core.control_paths", "repro.core.control_paths", "control_arrivals",
     None, None),
    ("core.clusters.extract", "repro.core.clusters", "extract_clusters",
     None, None),
    ("core.clusters.reach", "repro.core.clusters",
     "Cluster.reachable_captures", None, None),
    # One breadth-first search per cluster source terminal.
    (None, "repro.core.clusters", "Cluster._nets_reachable_from",
     "core.clusters.reach_sources", None),
    ("core.breakopen.plan", "repro.core.breakopen", "plan_for_cluster",
     "core.breakopen.arcs", lambda args, result: len(args[2])),
    ("core.model", "repro.core.model", "AnalysisModel.__init__",
     "core.model.passes", _passes),
    ("core.slack.build", "repro.core.slack", "SlackEngine.__init__",
     None, None),
    ("core.algorithm1", "repro.core.algorithm1", "run_algorithm1",
     None, None),
    ("core.report.slow_paths", "repro.core.report", "extract_slow_paths",
     "core.report.slow_paths", lambda args, result: len(result)),
    ("report.manifest", "repro.report.manifest", "build_manifest",
     None, None),
    ("core.incremental.analyze", "repro.core.incremental",
     "IncrementalAnalyzer.timing_result", None, None),
    ("service.cluster_cache.warm", "repro.service.cluster_cache",
     "ClusterCache.warm", None, None),
    ("service.cache.probe", "repro.service.cache", "ResultCache.get",
     None, None),
    ("service.cache.store", "repro.service.cache", "ResultCache.put",
     None, None),
)

#: The daemon launcher's extra shim: every request becomes a root span.
DAEMON_SHIM = (
    REQUEST_SPAN, "repro.service.daemon", "TimingDaemon.handle_line",
    None, None,
)

#: The cluster cache reads and writes through a ResultCache of its own;
#: those calls are cluster-cache work, not result-cache probes or stores.
_EXCLUDE = {
    "service.cache.probe": "service.cluster_cache.warm",
    "service.cache.store": "service.cluster_cache.warm",
}

#: Per-layer metrics computed from a recording, per timed round:
#: (name, unit, kind, source, shim the metric needs).
LAYER_METRICS: Tuple[tuple, ...] = (
    ("netlist.load_s", "s", "span", "netlist.load", "netlist.load"),
    ("netlist.validate_s", "s", "span", "netlist.validate",
     "netlist.validate"),
    ("delay.estimate_s", "s", "span", "delay.estimate", "delay.estimate"),
    ("core.control_paths_s", "s", "span", "core.control_paths",
     "core.control_paths"),
    ("core.clusters.extract_s", "s", "span", "core.clusters.extract",
     "core.clusters.extract"),
    ("core.clusters.reach_s", "s", "span", "core.clusters.reach",
     "core.clusters.reach"),
    ("core.clusters.reach_sources", "count", "counter",
     "core.clusters.reach_sources", "core.clusters.reach_sources"),
    ("core.breakopen.plan_s", "s", "span", "core.breakopen.plan",
     "core.breakopen.plan"),
    ("core.breakopen.arcs", "count", "counter", "core.breakopen.arcs",
     "core.breakopen.plan"),
    ("core.model.passes", "count", "counter", "core.model.passes",
     "core.model"),
    ("core.model.self_s", "s", "self", "core.model", "core.model"),
    ("core.slack.build_s", "s", "span", "core.slack.build",
     "core.slack.build"),
    ("core.algorithm1_s", "s", "span", "core.algorithm1",
     "core.algorithm1"),
    ("alg1.iterations_total", "count", "counter", "alg1.iterations_total",
     None),
    ("slack.nodes_visited", "count", "counter", "slack.nodes_visited",
     None),
    ("core.report.slow_paths_s", "s", "span", "core.report.slow_paths",
     "core.report.slow_paths"),
    ("core.report.slow_paths", "count", "counter", "core.report.slow_paths",
     "core.report.slow_paths"),
    ("report.manifest_s", "s", "span", "report.manifest", "report.manifest"),
    ("core.incremental.analyze_s", "s", "span", "core.incremental.analyze",
     "core.incremental.analyze"),
    ("service.cluster_cache.warm_s", "s", "span",
     "service.cluster_cache.warm", "service.cluster_cache.warm"),
    ("service.cluster_cache.artifacts_built", "count", "counter",
     "service.cluster_cache.recomputed", "service.cluster_cache.warm"),
    ("service.cluster_cache.hit_ratio", "ratio", "ratio",
     ("service.cluster_cache.seeded", "service.cluster_cache.recomputed"),
     "service.cluster_cache.warm"),
    ("service.cache.probe_s", "s", "span", "service.cache.probe",
     "service.cache.probe"),
    ("service.cache.store_s", "s", "span", "service.cache.store",
     "service.cache.store"),
    ("obs.layer_coverage_frac", "ratio", "coverage", None, None),
)


# ----------------------------------------------------------------------
# shims
# ----------------------------------------------------------------------
def _wrap(fn, span: Optional[str], counter: Optional[str], count):
    if span is None:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rec = obs.active()
            if rec is not None:
                rec.counter(counter)
            return fn(*args, **kwargs)

        return counted
    if span == REQUEST_SPAN:

        @functools.wraps(fn)
        def request(*args, **kwargs):
            rec = obs.active()
            if rec is None:
                return fn(*args, **kwargs)
            with round_span(rec, REQUEST_SPAN):
                return fn(*args, **kwargs)

        return request

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        rec = obs.active()
        if rec is None:
            return fn(*args, **kwargs)
        with rec.span(span, category="bench"):
            result = fn(*args, **kwargs)
        if counter is not None:
            rec.counter(counter, count(args, result))
        return result

    return timed


def install(shims: Iterable[tuple] = SHIMS) -> Set[str]:
    """Wrap every target in ``shims``; returns the span/counter names
    whose target was found (a missing one is skipped, never fatal)."""
    installed: Set[str] = set()
    for span, module_name, attribute, counter, count in shims:
        try:
            owner = importlib.import_module(module_name)
            *classes, name = attribute.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            continue
        wrapper = _wrap(original, span, counter, count)
        if classes:
            setattr(owner, name, wrapper)
        else:
            # Every module that imported the function by name holds its
            # own reference: replace them all.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if isinstance(namespace, dict):
                    for key, value in list(namespace.items()):
                        if value is original:
                            namespace[key] = wrapper
        installed.add(span or counter)
    return installed


@contextmanager
def round_span(rec: Recorder, name: str = ROUND_SPAN):
    """A root span whose args carry the counter increments made inside it,
    so the counters of selected rounds can be summed after the fact."""
    before = dict(rec.counters)
    span = obs.Span(rec, name, "bench", {})
    with span:
        try:
            yield
        finally:
            for key, value in rec.counters.items():
                delta = value - before.get(key, 0.0)
                if delta:
                    span.args[key] = delta


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("record", "children")

    def __init__(self, record: SpanRecord, children: List["_Node"]):
        self.record = record
        self.children = children


def forest(spans: Sequence[SpanRecord]) -> List[_Node]:
    """Root nodes of the span trees, oldest first.

    Records complete children-first; they are grouped per (process,
    thread) so spans merged in from worker processes never nest under
    a parent-process span.
    """
    by_thread: Dict[tuple, List[SpanRecord]] = {}
    for record in spans:
        key = (record.pid, record.thread_id)
        by_thread.setdefault(key, []).append(record)
    roots: List[_Node] = []
    for records in by_thread.values():
        pending: List[_Node] = []
        for record in sorted(records, key=lambda r: r.index):
            node = _Node(
                record,
                [p for p in pending if p.record.depth == record.depth + 1],
            )
            pending = [p for p in pending if p.record.depth <= record.depth]
            (roots if record.depth == 0 else pending).append(node)
        roots.extend(pending)
    return sorted(roots, key=lambda n: n.record.start)


class Aggregate:
    """Span totals, self times and counters over a set of round roots."""

    def __init__(
        self, rounds: Sequence[_Node], others: Sequence[_Node] = ()
    ) -> None:
        #: name path -> [calls, total seconds, self seconds]
        self.paths: Dict[Tuple[str, ...], List[float]] = {}
        self.totals: Dict[str, float] = {}
        self.selfs: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.round_seconds = sum(n.record.duration for n in rounds)
        self.covered_seconds = 0.0
        for root in rounds:
            for key, value in root.record.args or ():
                self.counters[key] = self.counters.get(key, 0.0) + value
            self._walk(root, (), covered=False)
        for root in others:
            self._walk(root, (), covered=True)

    def _walk(
        self, node: _Node, path: Tuple[str, ...], covered: bool
    ) -> None:
        record = node.record
        name = record.name
        layer = record.category == "bench"
        # Program spans may share a layer span's name: mark the layer's.
        path = path + (f"{name}*" if layer else name,)
        children = sum(child.record.duration for child in node.children)
        self_time = record.duration - children
        row = self.paths.setdefault(path, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += record.duration
        row[2] += self_time
        if layer:
            outermost = path[-1] not in path[:-1]
            if outermost and f"{_EXCLUDE.get(name)}*" not in path:
                self.totals[name] = (
                    self.totals.get(name, 0.0) + record.duration
                )
            self.selfs[name] = self.selfs.get(name, 0.0) + self_time
            if len(path) > 1 and not covered:
                self.covered_seconds += record.duration
                covered = True
        for child in node.children:
            self._walk(child, path, covered)

    def render(self, rounds: int) -> str:
        """The aggregated phase tree: per-round milliseconds by call path."""
        lines = [
            f"{'phase (per round)':<50} {'calls':>7} {'total ms':>10} "
            f"{'self ms':>10} {'share':>6}"
        ]
        wall = self.round_seconds
        for path, (calls, total, self_time) in sorted(self.paths.items()):
            label = "  " * (len(path) - 1) + path[-1]
            share = 100.0 * total / wall if wall else 0.0
            lines.append(
                f"{label:<50} {calls / rounds:>7.1f} "
                f"{total / rounds * 1e3:>10.3f} "
                f"{self_time / rounds * 1e3:>10.3f} {share:>5.1f}%"
            )
        lines.append(
            f"round wall {wall / rounds * 1e3:.3f} ms over {rounds} round(s)"
        )
        lines.append("* = span recorded by the benchmark's layer shims")
        return "\n".join(lines)


def layer_metrics(
    agg: Aggregate, rounds: int, installed: Set[str]
) -> Dict[str, Tuple[Optional[float], Optional[int]]]:
    """``name -> (value, base)`` per timed round; ``base`` is the
    denominator of a ratio and ``None`` elsewhere."""
    metrics: Dict[str, Tuple[Optional[float], Optional[int]]] = {}
    for name, _unit, kind, source, needs in LAYER_METRICS:
        if needs is not None and needs not in installed:
            metrics[name] = (None, None)
        elif kind == "span":
            metrics[name] = (agg.totals.get(source, 0.0) / rounds, None)
        elif kind == "self":
            metrics[name] = (agg.selfs.get(source, 0.0) / rounds, None)
        elif kind == "counter":
            metrics[name] = (agg.counters.get(source, 0.0) / rounds, None)
        elif kind == "ratio":
            hits, misses = (agg.counters.get(key, 0.0) for key in source)
            metrics[name] = ratio(hits, hits + misses)
        else:  # coverage: share of round wall time inside a layer span
            wall = agg.round_seconds
            metrics[name] = (agg.covered_seconds / wall if wall else 0.0, None)
    return metrics


def ratio(part: float, base: float) -> Tuple[float, int]:
    """A ratio with its base; 0.0 when nothing was attempted."""
    return (part / base if base else 0.0, int(round(base)))
