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
      # repro.service.cluster_cache).  Every worker opens its own
      # handle on this one directory:
      "cluster_cache": {"root": ".repro-cache/clusters",
                        "max_entries": 4096},
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
    "slack.sweeps_reused",
    "service.cluster_cache.hits",
    "service.cluster_cache.misses",
    "service.cluster_cache.seeded",
    "service.cluster_cache.recomputed",
    "service.cluster_cache.stores",
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
    from repro.core.analyzer import Hummingbird, check_tolerance
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
    try:
        _maybe_inject_faults(spec)
        with obs.recording(
            live.child_recorder(ctx) if traced else None
        ) as recorder:
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
                tolerance = check_tolerance(spec.get("tolerance"))
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
                        cluster_store = ClusterCache(
                            str(cc_spec["root"]),
                            max_entries=cc_spec.get("max_entries", 4096),
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
                # nothing.  The weight is _Plan.weigh's: the
                # combinational cell count.
                from repro.core.domains import clock_domains

                fingerprint = {
                    "partition": list(clock_domains(network)),
                    "weight": len(network.combinational_cells),
                }
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
        if queue_wait_s is not None:
            document["queue_wait_s"] = round(queue_wait_s, 6)
        return document
    except Exception as exc:  # noqa: BLE001 -- reported, not raised
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
