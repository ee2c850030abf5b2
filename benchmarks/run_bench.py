#!/usr/bin/env python
"""Headless benchmark harness: ``python benchmarks/run_bench.py``.

Unlike the pytest-benchmark suites next to it (which reproduce paper
tables interactively), this harness is built for CI perf tracking: it
runs a fixed registry of workloads with no test framework in the way,
measures wall time, peak RSS and the key :mod:`repro.obs` counters, and
writes a machine-readable ``BENCH_PR<current>.json`` at the repo root
(override with ``--output``)::

    python benchmarks/run_bench.py             # full workloads
    python benchmarks/run_bench.py --quick     # CI-sized workloads
    python benchmarks/run_bench.py --only analyze_pipeline --repeat 3
    python benchmarks/run_bench.py --output /tmp/bench.json

Output schema (``repro.bench/1``)::

    {
      "schema": "repro.bench/1",
      "quick": true,
      "benches": {
        "<name>": {
          "wall_s": 0.0123,          # best of --repeat runs
          "peak_rss_kb": 43210,      # ru_maxrss after the run
          "counters": {...},         # non-zero obs counters
          "extra": {...}             # workload-specific facts
        }, ...
      }
    }

The counters make regressions diagnosable: a wall-time jump with flat
``alg1.iterations_total`` is a code slowdown; a jump *with* more
iterations is a convergence regression (paper, Section 8).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: The PR this harness currently reports for; bump alongside new
#: workloads so every PR leaves its own ``BENCH_PR<n>.json`` artifact.
CURRENT_PR = 10
DEFAULT_OUTPUT = REPO_ROOT / f"BENCH_PR{CURRENT_PR}.json"

from repro import obs  # noqa: E402
from repro.core.analyzer import Hummingbird  # noqa: E402
from repro.generators import random_design  # noqa: E402
from repro.generators.pipelines import latch_pipeline  # noqa: E402
from repro.report import (  # noqa: E402
    auditing,
    build_manifest,
    diff_manifests,
)

#: Counters copied into every bench row (when non-zero).
KEY_COUNTERS = (
    "alg1.runs",
    "alg1.iterations_total",
    "alg1.forward_cycles",
    "alg1.backward_cycles",
    "slack.evaluations",
    "slack.nodes_visited",
    "transfer.complete_forward.moved",
    "transfer.complete_backward.moved",
)

Workload = Callable[[bool], Dict[str, object]]
_REGISTRY: List[Tuple[str, Workload]] = []


def bench(name: str):
    def register(func: Workload) -> Workload:
        _REGISTRY.append((name, func))
        return func

    return register


def _pipeline(quick: bool):
    stages = 6 if quick else 12
    lengths = [12] + [1] * (stages - 1)
    return latch_pipeline(
        stages=stages, stage_lengths=lengths, period=12.0
    )


def _random(quick: bool):
    banks, gates = (4, 100) if quick else (8, 400)
    return random_design(
        seed=2026, n_banks=banks, gates_per_bank=gates, bits=8,
        style="latch",
    )


@bench("analyze_pipeline")
def bench_analyze_pipeline(quick: bool) -> Dict[str, object]:
    """Algorithm 1 on the cycle-borrowing latch pipeline."""
    network, schedule = _pipeline(quick)
    result = Hummingbird(network, schedule).analyze()
    return {
        "intended": result.intended,
        "iterations": result.algorithm1.iterations.total,
    }


@bench("analyze_random")
def bench_analyze_random(quick: bool) -> Dict[str, object]:
    """Algorithm 1 on a randomly generated multi-bank latch design."""
    network, schedule = _random(quick)
    result = Hummingbird(network, schedule).analyze()
    return {
        "intended": result.intended,
        "iterations": result.algorithm1.iterations.total,
    }


@bench("audit_overhead")
def bench_audit_overhead(quick: bool) -> Dict[str, object]:
    """Same pipeline analysis with the slack-transfer audit trail on.

    Comparing ``wall_s`` against ``analyze_pipeline`` bounds the
    provenance-recording overhead.
    """
    network, schedule = _pipeline(quick)
    with auditing() as trail:
        result = Hummingbird(network, schedule).analyze()
    return {
        "intended": result.intended,
        "audit_events": trail.total_events,
        "total_moved": round(trail.total_moved, 6),
    }


@bench("forensics_report")
def bench_forensics_report(quick: bool) -> Dict[str, object]:
    """Explain every capture endpoint and render JSON + HTML reports."""
    network, schedule = _pipeline(quick)
    result = Hummingbird(network, schedule).analyze()
    forensics = result.path_forensics()
    explained = [
        forensics.explain(name)
        for name in sorted(result.algorithm1.slacks.capture)
    ]
    json_doc = forensics.to_json(explained)
    html_doc = forensics.render_html(explained)
    return {
        "endpoints": len(explained),
        "json_bytes": len(json_doc),
        "html_bytes": len(html_doc),
        "borrow_links": sum(len(f.borrow_chain) for f in explained),
    }


def _write_job_set(
    directory: Path, quick: bool, n_jobs: int
) -> "List[object]":
    """Materialise ``n_jobs`` distinct designs + a batch job list."""
    from repro.clocks.serialize import save_schedule
    from repro.netlist.persistence import save_network
    from repro.service import BatchJob

    jobs = []
    for index in range(n_jobs):
        banks, gates = (2, 40) if quick else (4, 120)
        network, schedule = random_design(
            seed=3000 + index,
            n_banks=banks,
            gates_per_bank=gates,
            bits=4,
            style="latch",
        )
        netlist = directory / f"job{index}.json"
        clocks = directory / f"job{index}.clocks.json"
        save_network(network, netlist)
        save_schedule(schedule, clocks)
        jobs.append(
            BatchJob(f"job{index}", str(netlist), str(clocks))
        )
    return jobs


@bench("batch_cold_vs_warm")
def bench_batch_cold_vs_warm(quick: bool) -> Dict[str, object]:
    """The PR-3 headline: a batch re-run of an unchanged job set must be
    served entirely from the content-addressed cache -- zero Algorithm 1
    iterations -- and be >=5x faster than the cold run."""
    import tempfile

    from repro.service import BatchEngine, ResultCache

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        directory = Path(tmp)
        jobs = _write_job_set(directory, quick, n_jobs=3 if quick else 6)
        engine = BatchEngine(
            cache=ResultCache(directory / "cache"), max_workers=2
        )
        started = time.perf_counter()
        cold = engine.run(jobs)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        warm = engine.run(jobs)
        warm_s = time.perf_counter() - started
    return {
        "jobs": cold.jobs,
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 2) if warm_s else None,
        "cold_iterations": cold.total_iterations,
        "warm_iterations": warm.total_iterations,
        "warm_hit_rate": warm.hit_rate,
    }


@bench("batch_throughput")
def bench_batch_throughput(quick: bool) -> Dict[str, object]:
    """Distinct-design batch throughput through the worker pool."""
    import tempfile

    from repro.service import BatchEngine, ResultCache

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        directory = Path(tmp)
        jobs = _write_job_set(directory, quick, n_jobs=4 if quick else 8)
        engine = BatchEngine(
            cache=ResultCache(directory / "cache"), max_workers=4
        )
        started = time.perf_counter()
        report = engine.run(jobs)
        wall = time.perf_counter() - started
    return {
        "jobs": report.jobs,
        "computed": report.computed,
        "failed": report.failed,
        "jobs_per_s": round(report.jobs / wall, 3) if wall else None,
        "iterations": report.total_iterations,
    }


def _fabric_corpus(directory: Path, quick: bool):
    """A generator corpus with overlapping sub-circuits across designs.

    Two-phase latch pipelines of increasing depth share every prefix
    stage's cluster (the cluster digest is a function of the
    sub-circuit's content, not the owning design), plus a couple of
    random designs that share nothing -- realistic probe volume.
    Returns ``(jobs, grown_job)`` where ``grown_job`` is one *deeper*
    pipeline absent from the corpus: a guaranteed result-cache miss
    whose clusters were all (but the tail) stored by *other* designs.
    """
    from repro.clocks.serialize import save_schedule
    from repro.generators.pipelines import latch_pipeline
    from repro.netlist.persistence import save_network
    from repro.service import BatchJob

    depths = range(3, 7 if quick else 9)
    random_seeds = range(4000, 4002 if quick else 4003)

    def _job(name, network, schedule):
        netlist = directory / f"{name}.json"
        clocks = directory / f"{name}.clocks.json"
        save_network(network, netlist)
        save_schedule(schedule, clocks)
        return BatchJob(name, str(netlist), str(clocks))

    jobs = []
    for stages in depths:
        network, schedule = latch_pipeline(
            stages=stages, period=40.0, name=f"pipe{stages}"
        )
        jobs.append(_job(f"pipe{stages}", network, schedule))
    for seed in random_seeds:
        banks, gates = (2, 30) if quick else (3, 60)
        network, schedule = random_design(
            seed=seed, n_banks=banks, gates_per_bank=gates, bits=4,
            style="latch",
        )
        jobs.append(_job(f"rand{seed}", network, schedule))
    grown_stages = max(depths) + 1
    network, schedule = latch_pipeline(
        stages=grown_stages, period=40.0, name=f"pipe{grown_stages}"
    )
    grown = _job(f"pipe{grown_stages}", network, schedule)
    return jobs, grown


@bench("fabric_warm_scaling")
def bench_fabric_warm_scaling(quick: bool) -> Dict[str, object]:
    """The PR-8 headline: two cache-fabric peers turn separate "hosts"
    into one warm cache.  Host A computes the corpus cold and pushes
    every result + cluster artifact into the sharded fabric; host B
    (fresh local caches, same peers) must serve >= 90% of its probes
    remotely.  A *grown* design host A never saw then computes on host
    B with a warm cluster tier: its prefix clusters were stored by
    *different* designs -- the measured cross-design cluster hit rate
    must be > 0."""
    import tempfile

    from repro.service import (
        BatchEngine,
        CacheServer,
        RemoteCache,
        ResultCache,
        TieredCache,
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        directory = Path(tmp)
        servers = [
            CacheServer(directory / f"peer{index}") for index in range(2)
        ]
        try:
            peers = [
                f"http://{host}:{port}"
                for host, port in (srv.start() for srv in servers)
            ]
            jobs, grown = _fabric_corpus(directory, quick)

            def _host(label: str):
                remote = RemoteCache(peers, timeout_s=2.0)
                engine = BatchEngine(
                    cache=TieredCache(
                        ResultCache(directory / label / "cache"), remote
                    ),
                    cluster_cache=str(directory / label / "clusters"),
                    peers=peers,
                    max_workers=2,
                )
                return engine, remote

            # Host A: cold compute -- fills both fabric shards.
            engine_a, remote_a = _host("host_a")
            started = time.perf_counter()
            cold = engine_a.run(jobs)
            cold_s = time.perf_counter() - started

            # Host B, fresh local caches: the same corpus must be
            # served from the fabric, not recomputed.
            engine_b, remote_b = _host("host_b")
            started = time.perf_counter()
            warm = engine_b.run(jobs)
            warm_s = time.perf_counter() - started
            warm_remote_hit_rate = remote_b.stats.hit_rate

            # Host B then meets a design nobody ever analyzed: a
            # result-cache miss whose prefix clusters are already in
            # the fabric -- stored by *other* (shallower) designs.
            grown_report = engine_b.run([grown])
            outcome = grown_report.outcomes[0]
            cluster_info = outcome.cluster_cache or {}
        finally:
            for srv in servers:
                srv.stop()
    return {
        "jobs": cold.jobs,
        "peers": len(peers),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 2) if warm_s else None,
        "warm_cached": warm.cached,
        "warm_remote_hit_rate": round(warm_remote_hit_rate, 4),
        "remote_stores": remote_a.stats.remote_stores,
        "shard_objects": [srv.cache.stats.entries for srv in servers],
        "grown_status": outcome.status,
        "cross_design_cluster_hits": int(cluster_info.get("hits", 0)),
        "cross_design_cluster_hit_rate": float(
            cluster_info.get("hit_rate", 0.0)
        ),
    }


@bench("service_telemetry_overhead")
def bench_service_telemetry_overhead(quick: bool) -> Dict[str, object]:
    """The PR-4 headline: the always-on daemon telemetry (service
    recorder, request/queue-wait/handle histograms, health snapshot
    bookkeeping) must cost <5% on warm analyze latency versus a
    ``telemetry=False`` daemon.

    Methodology: per-request wall times over many warm round trips,
    compared at the *minimum* -- the deterministic latency floor --
    because a ~0.5 ms Unix-socket round trip is otherwise dominated by
    scheduler noise.  The opt-in access log is measured as a third arm
    and reported separately (it is off by default, so it does not gate
    the 5%% bound).
    """
    import tempfile

    from repro.service import DaemonClient, TimingDaemon

    rounds = 150 if quick else 400

    def _warm_floor(tmp: Path, label: str, **kwargs: object) -> float:
        """Minimum warm-analyze latency against one daemon."""
        from repro.clocks.serialize import save_schedule
        from repro.netlist.persistence import save_network

        network, schedule = _pipeline(quick)
        netlist = tmp / f"design_{label}.json"
        clocks = tmp / f"clocks_{label}.json"
        save_network(network, netlist)
        save_schedule(schedule, clocks)
        socket_path = tmp / f"bench_{label}.sock"
        samples = []
        # Measure the *always-on* telemetry cost: requests must not be
        # traced (the harness's own recorder would make every request
        # carry a trace context, adding snapshot/merge work to both
        # arms and masking the difference under test).
        previous = obs.set_recorder(None)
        try:
            with TimingDaemon(str(socket_path), **kwargs):
                with DaemonClient(str(socket_path)) as client:
                    for __ in range(10):  # warm the incremental engine
                        client.analyze(str(netlist), str(clocks))
                    for __ in range(rounds):
                        started = time.perf_counter()
                        response = client.analyze(
                            str(netlist), str(clocks)
                        )
                        samples.append(time.perf_counter() - started)
                        assert response["ok"]
        finally:
            obs.set_recorder(previous)
        return min(samples)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        directory = Path(tmp)
        off_s = _warm_floor(directory, "off", telemetry=False)
        on_s = _warm_floor(directory, "on", telemetry=True)
        log_s = _warm_floor(
            directory,
            "onlog",
            telemetry=True,
            access_log=str(directory / "bench.access.jsonl"),
        )
    overhead_pct = ((on_s - off_s) / off_s * 100.0) if off_s else 0.0
    log_pct = ((log_s - off_s) / off_s * 100.0) if off_s else 0.0
    return {
        "rounds": rounds,
        "warm_analyze_off_s": round(off_s, 6),
        "warm_analyze_on_s": round(on_s, 6),
        "warm_analyze_accesslog_s": round(log_s, 6),
        "overhead_pct": round(overhead_pct, 2),
        "accesslog_overhead_pct": round(log_pct, 2),
    }


@bench("profiler_overhead")
def bench_profiler_overhead(quick: bool) -> Dict[str, object]:
    """The PR-6 headline: the span-attributed sampling profiler must be
    effectively free when off and cost <= 5% at the default 100 Hz.

    Three arms over the same traced pipeline analysis, compared at the
    minimum wall time (the deterministic floor, same methodology as
    ``service_telemetry_overhead``):

    * ``baseline`` -- recorder active, no profiler (the span-stack
      bookkeeping the profiler reads is always on, so this arm prices
      it in);
    * ``on`` -- a :class:`repro.obs.SamplingProfiler` running at
      100 Hz for the whole arm;
    * attribution -- from the ``on`` arm's profile document: the share
      of samples landing inside an open span must stay >= 90% for the
      phase table to mean anything.
    """
    rounds = 12 if quick else 30
    network, schedule = _random(quick)

    def _floor(hz: Optional[float]) -> Tuple[float, Optional[dict]]:
        """Minimum per-round analyze wall under one recorder, with the
        profiler (when ``hz``) running across the *whole* arm -- the
        way ``repro-sta analyze --profile`` runs it."""
        samples = []
        with obs.recording() as recorder:
            profiler = (
                obs.SamplingProfiler(hz=hz, recorder=recorder)
                if hz
                else None
            )
            if profiler is not None:
                profiler.start()
            try:
                for __ in range(rounds):
                    started = time.perf_counter()
                    Hummingbird(network, schedule).analyze()
                    samples.append(time.perf_counter() - started)
            finally:
                doc = profiler.stop() if profiler is not None else None
        return min(samples), doc

    off_s, __ = _floor(None)
    on_s, doc = _floor(100.0)
    total = int(doc["samples"]) if doc else 0
    attributed_pct = (
        int(doc["attributed"]) / total * 100.0 if total else 0.0
    )
    overhead_pct = ((on_s - off_s) / off_s * 100.0) if off_s else 0.0
    return {
        "rounds": rounds,
        "hz": 100.0,
        "analyze_off_s": round(off_s, 6),
        "analyze_on_s": round(on_s, 6),
        "overhead_pct": round(overhead_pct, 2),
        "profile_samples": total,
        "attributed_pct": round(attributed_pct, 2),
    }


@bench("watchdog_overhead")
def bench_watchdog_overhead(quick: bool) -> Dict[str, object]:
    """The PR-7 headline: the self-diagnosis plumbing on the request
    path -- stall-watchdog track/annotate/untrack plus one flight-ring
    append per request -- must stay within the noise floor of a warm
    analyze round trip.

    Two arms, same min-floor methodology as
    ``service_telemetry_overhead`` (both arms keep telemetry *on*, so
    only the PR-7 additions differ):

    * ``off`` -- watchdog and flight recorder disabled
      (``stall_timeout_s=None``, ``flight_capacity=0``);
    * ``on``  -- daemon defaults (30 s watchdog, 256-event ring, alert
      engine evaluating in the history thread, off the request path).
    """
    import tempfile

    from repro.service import DaemonClient, TimingDaemon

    rounds = 150 if quick else 400

    def _warm_floor(tmp: Path, label: str, **kwargs: object) -> float:
        from repro.clocks.serialize import save_schedule
        from repro.netlist.persistence import save_network

        network, schedule = _pipeline(quick)
        netlist = tmp / f"design_{label}.json"
        clocks = tmp / f"clocks_{label}.json"
        save_network(network, netlist)
        save_schedule(schedule, clocks)
        socket_path = tmp / f"bench_{label}.sock"
        samples = []
        previous = obs.set_recorder(None)  # untraced requests only
        try:
            with TimingDaemon(str(socket_path), **kwargs):
                with DaemonClient(str(socket_path)) as client:
                    for __ in range(10):  # warm the incremental engine
                        client.analyze(str(netlist), str(clocks))
                    for __ in range(rounds):
                        started = time.perf_counter()
                        response = client.analyze(
                            str(netlist), str(clocks)
                        )
                        samples.append(time.perf_counter() - started)
                        assert response["ok"]
        finally:
            obs.set_recorder(previous)
        return min(samples)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        directory = Path(tmp)
        off_s = _warm_floor(
            directory, "off", stall_timeout_s=None, flight_capacity=0
        )
        on_s = _warm_floor(directory, "on")
    overhead_pct = ((on_s - off_s) / off_s * 100.0) if off_s else 0.0
    return {
        "rounds": rounds,
        "warm_analyze_off_s": round(off_s, 6),
        "warm_analyze_on_s": round(on_s, 6),
        "overhead_pct": round(overhead_pct, 2),
    }


@bench("collector_overhead")
def bench_collector_overhead(quick: bool) -> Dict[str, object]:
    """The PR-9 headline: the fleet observability plane -- the
    tail-sampling trace store on the request tail plus an embedded
    collector scraping the daemon's own sidecar every second -- must
    cost <= 5% on warm analyze latency.

    Two arms, same min-floor methodology as
    ``service_telemetry_overhead`` (both arms keep telemetry and the
    HTTP sidecar on, so only the PR-9 additions differ):

    * ``off`` -- sidecar only, no trace store, no collector;
    * ``on``  -- ``--trace-dir`` at the default 5%% sample rate and a
      ``serve --collect``-style :class:`FleetCollector` whose peers
      file points back at this daemon.

    The arms are *interleaved* (off, on, off, on) and each arm keeps
    the minimum across its passes: host-load drift between passes
    otherwise swamps the tens-of-microseconds delta under test.
    """
    import os
    import tempfile

    from repro.service import DaemonClient, FleetCollector, TimingDaemon

    rounds = 150 if quick else 400

    def _warm_floor(tmp: Path, label: str, **kwargs: object) -> float:
        from repro.clocks.serialize import save_schedule
        from repro.netlist.persistence import save_network

        network, schedule = _pipeline(quick)
        netlist = tmp / f"design_{label}.json"
        clocks = tmp / f"clocks_{label}.json"
        save_network(network, netlist)
        save_schedule(schedule, clocks)
        socket_path = tmp / f"bench_{label}.sock"
        samples = []
        previous = obs.set_recorder(None)  # untraced requests only
        try:
            with TimingDaemon(
                str(socket_path), http_port=0, **kwargs
            ) as daemon:
                collector = kwargs.get("collector")
                if collector is not None:
                    # Point the collector back at this daemon now that
                    # the sidecar port is known; the next sweep reloads.
                    host, port = daemon.http_address
                    peers_file = Path(collector.peers_file)
                    peers_file.write_text(f"http://{host}:{port}\n")
                    stamp = peers_file.stat().st_mtime + 10
                    os.utime(peers_file, (stamp, stamp))
                with DaemonClient(str(socket_path)) as client:
                    for __ in range(10):  # warm the incremental engine
                        client.analyze(str(netlist), str(clocks))
                    for __ in range(rounds):
                        started = time.perf_counter()
                        response = client.analyze(
                            str(netlist), str(clocks)
                        )
                        samples.append(time.perf_counter() - started)
                        assert response["ok"]
        finally:
            obs.set_recorder(previous)
        return min(samples)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        directory = Path(tmp)
        off_s = on_s = float("inf")
        swept = 0
        for arm in range(2):
            off_s = min(off_s, _warm_floor(directory, f"off{arm}"))
            peers_file = directory / f"peers{arm}.txt"
            peers_file.write_text("")
            collector = FleetCollector(
                peers_file, interval_s=1.0, timeout_s=1.0,
                http_port=None,
            )
            on_s = min(
                on_s,
                _warm_floor(
                    directory,
                    f"on{arm}",
                    trace_dir=directory / f"traces{arm}",
                    collector=collector,
                ),
            )
            swept += collector.health()["sweeps"]
    overhead_pct = ((on_s - off_s) / off_s * 100.0) if off_s else 0.0
    return {
        "rounds": rounds,
        "warm_analyze_off_s": round(off_s, 6),
        "warm_analyze_on_s": round(on_s, 6),
        "overhead_pct": round(overhead_pct, 2),
        "collector_sweeps": int(swept),
    }


@bench("cluster_invalidation")
def bench_cluster_invalidation(quick: bool) -> Dict[str, object]:
    """The PR-5 headline: after a one-gate edit, a cluster-cached
    re-analysis recomputes only the dirty cluster's artifact -- the
    clean-cluster hit rate stays >= 90% -- and beats the full-triple
    path (which rebuilds every cluster artifact from scratch), while
    the answer stays byte-identical to the from-scratch run.
    """
    import tempfile

    from repro.core.clusters import extract_clusters
    from repro.delay.estimator import estimate_delays
    from repro.report.manifest import manifest_digest
    from repro.service import ClusterCache

    stages = 12
    lengths = [10 if quick else 40] + [2 if quick else 4] * (stages - 1)
    network, schedule = latch_pipeline(
        stages=stages, stage_lengths=lengths, period=60.0
    )
    config_sha = "0" * 64  # one fixed analysis configuration
    delays = estimate_delays(network)
    edits = 3 if quick else 6

    def _pass(store: ClusterCache, current):
        """One service-style analyze: warm the artifact store, then
        run Algorithm 1 on the warmed clusters."""
        started = time.perf_counter()
        clusters = extract_clusters(network)
        warmup = store.warm(
            network, schedule, current, config_sha, clusters=clusters
        )
        result = Hummingbird(
            network, schedule, delays=current, clusters=clusters
        ).analyze()
        return time.perf_counter() - started, warmup, result

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        directory = Path(tmp)
        store = ClusterCache(directory / "clusters")
        __, cold_warmup, __ = _pass(store, delays)  # cold fill
        cached_s = 0.0
        full_s = 0.0
        hit_rates = []
        digests_equal = True
        for index in range(edits):
            delays = delays.with_scaled_cell(
                f"s{index % stages}_i0", 1.25
            )
            # Cluster-granular path: only the dirty cluster recomputes.
            wall, warmup, cached = _pass(store, delays)
            cached_s += wall
            hit_rates.append(warmup.hit_rate)
            # Full-triple invalidation: an empty store forces every
            # cluster artifact to be rebuilt (the pre-PR-5 behaviour).
            scratch = ClusterCache(
                directory / f"scratch{index}"
            )
            wall, __, fresh = _pass(scratch, delays)
            full_s += wall
            digests_equal = digests_equal and (
                manifest_digest(cached.manifest())
                == manifest_digest(fresh.manifest())
            )
    return {
        "clusters": len(cold_warmup.clusters),
        "edits": edits,
        "clean_hit_rate_min": round(min(hit_rates), 4),
        "cached_s": round(cached_s, 6),
        "full_triple_s": round(full_s, 6),
        "speedup": round(full_s / cached_s, 2) if cached_s else None,
        "digests_equal": digests_equal,
    }


@bench("manifest_diff")
def bench_manifest_diff(quick: bool) -> Dict[str, object]:
    """Build two run manifests and diff them (the CI primitive)."""
    network, schedule = _pipeline(quick)
    analyzer = Hummingbird(network, schedule)
    result = analyzer.analyze()
    manifest_a = build_manifest(analyzer, result, label="a")
    manifest_b = build_manifest(analyzer, result, label="b")
    diff = diff_manifests(manifest_a, manifest_b)
    return {
        "endpoints": len(diff.endpoints),
        "has_regression": diff.has_regression,
    }


def run_one(
    name: str, workload: Workload, quick: bool, repeat: int
) -> Dict[str, object]:
    best_wall: Optional[float] = None
    counters: Dict[str, float] = {}
    extra: Dict[str, object] = {}
    for __ in range(max(1, repeat)):
        with obs.recording() as recorder:
            start = time.perf_counter()
            extra = workload(quick)
            wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
            counters = {
                key: recorder.counters[key]
                for key in KEY_COUNTERS
                if recorder.counters.get(key)
            }
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": round(best_wall or 0.0, 6),
        "peak_rss_kb": int(peak_rss_kb),
        "counters": counters,
        "extra": extra,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workloads"
    )
    parser.add_argument(
        "--repeat", type=int, default=2,
        help="runs per bench; best wall time is kept (default 2)",
    )
    parser.add_argument(
        "--only", action="append",
        help="run only this bench (repeatable)",
    )
    parser.add_argument(
        "--output", "--out", dest="output",
        default=str(DEFAULT_OUTPUT),
        help="output JSON path "
        f"(default: BENCH_PR{CURRENT_PR}.json at repo root)",
    )
    args = parser.parse_args(argv)

    selected = [
        (name, workload)
        for name, workload in _REGISTRY
        if not args.only or name in args.only
    ]
    if not selected:
        known = ", ".join(name for name, __ in _REGISTRY)
        parser.error(f"no such bench (known: {known})")

    benches: Dict[str, object] = {}
    for name, workload in selected:
        row = run_one(name, workload, args.quick, args.repeat)
        benches[name] = row
        print(
            f"{name:<20} wall {row['wall_s']:>9.4f}s  "
            f"rss {row['peak_rss_kb']:>8} kB  "
            f"{row['extra']}"
        )

    document = {
        "schema": "repro.bench/1",
        "pr": CURRENT_PR,
        "quick": bool(args.quick),
        "repeat": args.repeat,
        "python": platform.python_version(),
        "benches": benches,
    }
    out = Path(args.output)
    out.write_text(
        json.dumps(
            document, indent=2, sort_keys=True, separators=(",", ": ")
        )
        + "\n"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
