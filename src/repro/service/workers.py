"""Worker-side execution of one batch job.

:func:`run_job` is the function the :class:`repro.service.batch.
BatchEngine` submits to its ``ProcessPoolExecutor``.  It must be a
top-level function taking/returning plain picklable data: the *job
spec* in, the *job result document* out.  The same function also runs
in-process for the serial fallback path, so it never assumes it owns
the process.

Job spec (plain dict)::

    {
      "name": "des_chip",
      "netlist": "designs/des.json",        # .json/.blif/.v
      "clocks": "designs/clocks.json",
      "default_clock": null,                # BLIF pads without pragmas
      "slow_path_limit": 50,
      "tolerance": 0.0,
      # cluster-granular sub-key cache (optional; see
      # repro.service.cluster_cache).  With "peers" the worker fronts
      # the store with the cache fabric (repro.service.fabric), so
      # cluster artifacts computed on other hosts are hits here too:
      "cluster_cache": {"root": ".repro-cache/clusters",
                        "max_entries": 4096,
                        "peers": ["http://127.0.0.1:9400"],
                        "peer_timeout_s": 2.0},
      # per-job sampling profiler (optional; ships a repro.profile/1
      # document back under "profile" for the parent to merge):
      "profile": {"hz": 100},
      # fault-injection hooks (tests/CI only):
      "inject_crash_file": null,   # if this file exists: unlink + _exit
      "inject_sleep_s": null,      # sleep before analysing (timeouts)
      "inject_raise": null         # raise ValueError(msg) in the worker
    }

Result document (``ok=True``)::

    {
      "ok": true,
      "payload": {... repro.result/1 ...},
      "manifest": {... repro.manifest/1 ...},
      "digests": {"network": ..., "schedule": ..., "config": ...,
                  "key": ...},
      "worker_pid": 4242,
      "counters": {"alg1.iterations_total": 12, ...},
      # when the spec carried a repro.trace/1 context ("trace" key):
      "trace": {... repro.obs.snapshot/1 ...},
      # when the spec carried "submitted_wall" (parent submit time):
      "queue_wait_s": 0.0123
    }

A spec carrying a ``"trace"`` context (see :mod:`repro.obs.live`) makes
the worker record into a trace-joined recorder and ship its snapshot
back, so the parent can merge worker spans -- load, analyze, store --
into one cross-process Chrome trace.

Failures inside the worker are *reported*, not raised: an ``ok=False``
document with ``error``/``error_type``, structured ``repro.error/1``
frames (``error_doc``) and a full ``repro.crash/1`` postmortem
(``crash``: frames plus all-thread stacks) comes back so the scheduler
can decide between retry and giving up -- and so a failed outcome in
``repro.batchstats/1`` explains itself.  (Crashes -- the worker process
dying -- surface as ``BrokenProcessPool`` on the parent side instead.)
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

__all__ = ["run_job", "job_spec"]

#: Counters copied from the worker recorder into the result document.
REPORTED_COUNTERS = (
    "alg1.runs",
    "alg1.iterations_total",
    "alg1.forward_cycles",
    "alg1.backward_cycles",
    "slack.evaluations",
    "slack.nodes_visited",
    "service.cluster_cache.hits",
    "service.cluster_cache.misses",
    "service.cluster_cache.seeded",
    "service.cluster_cache.recomputed",
    "service.cluster_cache.stores",
    "service.fabric.remote_hits",
    "service.fabric.remote_misses",
    "service.fabric.remote_stores",
    "service.fabric.errors",
    "service.fabric.retries",
    "service.fabric.peer_down",
    "service.fabric.degraded_skips",
    "service.fabric.integrity_failures",
)


def job_spec(
    name: str,
    netlist: str,
    clocks: str,
    default_clock: Optional[str] = None,
    slow_path_limit: Optional[int] = 50,
    tolerance: float = 0.0,
    **extra: object,
) -> Dict[str, object]:
    """Build a well-formed job spec (see module docstring)."""
    spec: Dict[str, object] = {
        "name": name,
        "netlist": str(netlist),
        "clocks": str(clocks),
        "default_clock": default_clock,
        "slow_path_limit": slow_path_limit,
        "tolerance": tolerance,
    }
    spec.update(extra)
    return spec


def _maybe_inject_faults(spec: Dict[str, object]) -> None:
    crash_file = spec.get("inject_crash_file")
    if crash_file and os.path.exists(str(crash_file)):
        # One-shot: remove the flag so the retried job succeeds.  A
        # hard exit (no exception, no atexit) models a worker killed by
        # the OS -- the parent sees BrokenProcessPool.
        try:
            os.unlink(str(crash_file))
        except OSError:
            pass
        os._exit(13)
    sleep_s = spec.get("inject_sleep_s")
    if sleep_s:
        time.sleep(float(sleep_s))
    boom = spec.get("inject_raise")
    if boom:
        # An in-worker exception (as opposed to the hard exit above):
        # exercises the structured-error + crash-report failure path.
        raise ValueError(str(boom))


def run_job(spec: Dict[str, object]) -> Dict[str, object]:
    """Analyse one job spec; returns the result document."""
    from repro import obs
    from repro.clocks.serialize import load_schedule
    from repro.core.analyzer import Hummingbird
    from repro.netlist import read_netlist
    from repro.obs import live
    from repro.service.digest import (
        analysis_config,
        cache_key,
        config_digest,
        network_digest,
        schedule_digest,
    )

    ctx = spec.get("trace")
    traced = isinstance(ctx, dict) and bool(ctx.get("trace_id"))
    submitted_wall = spec.get("submitted_wall")
    queue_wait_s = None
    if isinstance(submitted_wall, (int, float)):
        queue_wait_s = max(0.0, time.time() - float(submitted_wall))
    profile_spec = spec.get("profile")
    profiler = None
    profile_doc = None
    try:
        _maybe_inject_faults(spec)
        with obs.recording(
            live.child_recorder(ctx) if traced else None
        ) as recorder:
            # Per-job sampling profiler (``{"profile": {"hz": 100}}``):
            # the document ships back next to the trace snapshot so the
            # parent can merge a cross-process speedscope profile.
            if isinstance(profile_spec, dict):
                from repro.obs.profile import SamplingProfiler

                profiler = SamplingProfiler(
                    hz=float(profile_spec.get("hz", 100.0) or 100.0),
                    recorder=recorder,
                )
                profiler.start()
            with obs.span(
                "service.worker.job",
                category="service",
                job=str(spec.get("name", "")),
            ):
                network = read_netlist(
                    str(spec["netlist"]), spec.get("default_clock")
                )
                schedule = load_schedule(str(spec["clocks"]))
                slow_path_limit = spec.get("slow_path_limit", 50)
                tolerance = float(spec.get("tolerance", 0.0) or 0.0)
                config = analysis_config(
                    slow_path_limit=slow_path_limit, tolerance=tolerance
                )
                # Cluster-granular warm-up: when the spec carries a
                # ``cluster_cache`` descriptor, probe the on-disk sub-key
                # store.  Clean clusters load their artifacts (reach maps
                # seeded, sweep skipped); dirty clusters recompute and store.
                # Delays are estimated here with the same defaults the
                # analyzer would use, so the handoff is byte-identical.
                delays = None
                clusters = None
                cluster_info = None
                cc_spec = spec.get("cluster_cache")
                if isinstance(cc_spec, dict) and cc_spec.get("root"):
                    from repro.delay.estimator import estimate_delays
                    from repro.service.cluster_cache import ClusterCache

                    with obs.span(
                        "service.worker.cluster_warm", category="service"
                    ):
                        delays = estimate_delays(network)
                        backend = None
                        peers = cc_spec.get("peers")
                        if peers:
                            # Front the local store with the cache
                            # fabric: cluster artifacts computed on
                            # other hosts become hits here.  Fabric
                            # construction failure (bad peer URL) is a
                            # degradation, not a job failure.
                            from repro.service.cache import ResultCache
                            from repro.service.fabric import (
                                RemoteCache,
                                TieredCache,
                            )

                            try:
                                backend = TieredCache(
                                    ResultCache(
                                        str(cc_spec["root"]),
                                        max_entries=cc_spec.get(
                                            "max_entries", 4096
                                        ),
                                        counter_prefix=(
                                            "service.cluster_cache"
                                        ),
                                    ),
                                    RemoteCache(
                                        [str(p) for p in peers],
                                        timeout_s=float(
                                            cc_spec.get(
                                                "peer_timeout_s", 2.0
                                            )
                                        ),
                                    ),
                                )
                            except ValueError:
                                backend = None
                        cluster_store = ClusterCache(
                            str(cc_spec["root"]),
                            max_entries=cc_spec.get("max_entries", 4096),
                            backend=backend,
                        )
                        warmup = cluster_store.warm(
                            network,
                            schedule,
                            delays,
                            config_digest(config),
                        )
                        clusters = warmup.clusters
                        cluster_info = warmup.to_dict()
                analyzer = Hummingbird(
                    network, schedule, delays=delays, clusters=clusters
                )
                result = analyzer.analyze(
                    slow_path_limit=slow_path_limit, tolerance=tolerance
                )
                manifest = result.manifest(
                    netlist_path=str(spec["netlist"]),
                    clocks_path=str(spec["clocks"]),
                    label=str(spec.get("name", network.name)),
                )
                digests = {
                    "network": network_digest(network),
                    "schedule": schedule_digest(schedule),
                    "config": config_digest(config),
                }
                digests["key"] = cache_key(
                    digests["network"], digests["schedule"], digests["config"]
                )
                # Structural fingerprint the parent's SourceMap learns,
                # so the next plan of these exact source bytes parses
                # nothing.  The weight matches _Plan.weigh exactly: the
                # model's clusters ARE extract_clusters(network).
                from repro.core.domains import clock_domains

                fingerprint = {
                    "partition": list(clock_domains(network)),
                    "weight": sum(
                        len(c.cells)
                        for c in analyzer.model.clusters
                    ),
                }
            if profiler is not None:
                profile_doc = profiler.stop()
        document: Dict[str, object] = {
            "ok": True,
            "payload": result.payload(),
            "manifest": manifest,
            "digests": digests,
            "fingerprint": fingerprint,
            "worker_pid": os.getpid(),
            "counters": {
                name: recorder.counters[name]
                for name in REPORTED_COUNTERS
                if recorder.counters.get(name)
            },
        }
        if cluster_info is not None:
            document["cluster_cache"] = cluster_info
        if traced:
            document["trace"] = live.snapshot(recorder)
        if profile_doc is not None:
            document["profile"] = profile_doc
        if queue_wait_s is not None:
            document["queue_wait_s"] = round(queue_wait_s, 6)
        return document
    except Exception as exc:  # noqa: BLE001 -- reported, not raised
        if profiler is not None and profiler.running:
            profiler.stop()
        from repro.obs.flight import CrashHandler, error_document

        # Ship a full worker postmortem -- structured frames plus
        # all-thread stacks -- so the parent can merge it into the
        # batch outcome (``repro.crash/1``, kind=worker_exception).
        crash = CrashHandler().build(
            exc, kind="worker_exception", op=str(spec.get("name", ""))
        )
        return {
            "ok": False,
            "error": str(exc),
            "error_type": type(exc).__name__,
            "error_doc": error_document(exc),
            "crash": crash,
            "worker_pid": os.getpid(),
        }
