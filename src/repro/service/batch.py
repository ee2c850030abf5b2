"""Batch scheduler: many designs through the analyzer, in parallel.

The engine runs a *job set* -- (netlist, clocks, config) triples --
through four phases:

1. **Plan** -- each job is digested.  On a *warm* run the parent
   parses nothing: a :class:`SourceMap` persisted next to the result
   cache maps the SHA-256 of the job's **raw source bytes** + config
   (:func:`repro.service.digest.source_digest`) to the content address
   and structural fingerprint observed the last time this exact source
   ran, so planning is pure file I/O + hashing.  Unknown sources fall
   back to the parse path: the design is parsed once in the parent,
   its content digests computed (:mod:`repro.service.digest`) and a
   cheap structural fingerprint extracted -- the clock-domain set
   (:func:`repro.core.domains.clock_domains`) and the combinational
   cell count, i.e. the total size of its clusters; workers report the
   fingerprint back so the map learns it for next time.  Jobs are
   grouped by clock-domain *partition* and ordered
   largest-design-first inside each partition (LPT), so heavy jobs
   start early and jobs that share clocking structure land on the same
   worker wave.
2. **Cache probe** -- each job's content address is looked up in the
   :class:`repro.service.cache.ResultCache`; hits are answered without
   touching a worker (zero Algorithm 1 iterations).
3. **Fan-out** -- misses are submitted to a ``ProcessPoolExecutor``
   (:func:`repro.service.workers.run_job`) with a per-job timeout and a
   bounded retry budget.  A dead worker (``BrokenProcessPool``) poisons
   the whole pool, possibly before every job is queued, so the engine
   collects what finished, rebuilds the pool and resubmits the
   survivors and the unsent.  Jobs that exhaust their retries
   degrade gracefully to in-process serial execution -- the batch always
   completes.
4. **Store** -- computed results (payload + manifest) are written back
   to the cache and, optionally, to a manifest directory.

Everything is observable: ``service.batch.*`` counters, a
``service.batch.queue_depth`` gauge and a ``service.batch.job_seconds``
histogram (see ``docs/observability.md``).
"""

from __future__ import annotations

import concurrent.futures
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.analyzer import check_slow_path_limit, check_tolerance
from repro.obs import live
from repro.obs.accesslog import AccessLog
from repro.obs.hist import LATENCY_BUCKETS
from repro.service.cache import ResultCache
from repro.service.cluster_cache import ClusterCache
from repro.service.digest import (
    analysis_config,
    cache_key,
    canonical_json,
    config_digest,
    network_digest,
    schedule_digest,
    source_digest,
)
from repro.service.workers import job_spec, run_job

try:  # BrokenProcessPool moved in 3.7; guard for exotic builds.
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover
    BrokenProcessPool = RuntimeError  # type: ignore[misc,assignment]

__all__ = [
    "BATCH_SCHEMA",
    "SOURCES_SCHEMA",
    "BatchEngine",
    "BatchJob",
    "BatchReport",
    "JobOutcome",
    "SourceMap",
    "load_jobs",
]

#: Schema identifier of a batch job-set file.
BATCH_SCHEMA = "repro.batch/1"

#: Schema identifier of the persisted source-digest planning map.
SOURCES_SCHEMA = "repro.cache-sources/1"


class SourceMap:
    """``source_digest -> planning facts``: the warm-plan fast path.

    :meth:`BatchEngine.plan` used to parse every design in the parent
    just to digest it -- on a warm run, where every job is answered
    from the cache, that parse was the whole batch cost.  This map
    (persisted as ``sources.json`` next to the result cache) remembers,
    per *raw-source* digest, the content address and structural
    fingerprint (clock-domain partition, LPT weight) observed the last
    time those exact bytes were planned.  A map hit plans a job with
    zero parsing; a miss -- new source bytes, edited file, evicted map
    entry -- falls back to the parse path, so the map can degrade but
    never lie: the source digest covers the netlist bytes, the clock
    bytes and the analysis config, exactly the inputs the parse-derived
    key is a function of.

    Entries are bounded (insertion-ordered, oldest dropped) and the
    file is advisory: a corrupt or missing map is treated as empty.
    """

    def __init__(
        self, path: Union[str, Path], max_entries: int = 4096
    ) -> None:
        self.path = Path(path)
        self.max_entries = max_entries
        self._entries: Optional[Dict[str, Dict[str, object]]] = None
        self._dirty = False

    def _load(self) -> Dict[str, Dict[str, object]]:
        if self._entries is None:
            entries: Dict[str, Dict[str, object]] = {}
            try:
                data = json.loads(self.path.read_text())
            except (OSError, json.JSONDecodeError):
                data = None
            if (
                isinstance(data, dict)
                and data.get("schema") == SOURCES_SCHEMA
                and isinstance(data.get("sources"), dict)
            ):
                for source, row in data["sources"].items():
                    if (
                        isinstance(row, dict)
                        and isinstance(row.get("key"), str)
                        and isinstance(row.get("partition"), list)
                    ):
                        entries[str(source)] = {
                            "key": row["key"],
                            "partition": [
                                str(d) for d in row["partition"]
                            ],
                            "weight": int(row.get("weight") or 0),
                        }
            self._entries = entries
        return self._entries

    def get(self, source: str) -> Optional[Dict[str, object]]:
        return self._load().get(source)

    def record(
        self,
        source: str,
        key: str,
        partition: Sequence[str],
        weight: int,
    ) -> None:
        entries = self._load()
        existing = entries.pop(source, None)
        if (
            not weight
            and existing is not None
            and existing.get("key") == key
        ):
            # Don't let a weightless probe-hit record (hits are never
            # weighed) clobber a real weight learned from a worker.
            weight = int(existing.get("weight") or 0)
        entries[source] = {
            "key": key,
            "partition": [str(d) for d in partition],
            "weight": int(weight),
        }
        while len(entries) > self.max_entries:
            entries.pop(next(iter(entries)))
        self._dirty = True

    def flush(self) -> None:
        """Persist (atomic rename); advisory, so failures are silent."""
        if not self._dirty or self._entries is None:
            return
        doc = {"schema": SOURCES_SCHEMA, "sources": self._entries}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".json.tmp")
            tmp.write_text(canonical_json(doc))
            tmp.replace(self.path)
            self._dirty = False
        except OSError:
            pass

    def __len__(self) -> int:
        return len(self._load())


@dataclass(frozen=True)
class BatchJob:
    """One unit of batch work: a design under a clock schedule."""

    name: str
    netlist: str
    clocks: str
    default_clock: Optional[str] = None
    slow_path_limit: Optional[int] = 50
    tolerance: float = 0.0
    #: Fault-injection hooks, forwarded verbatim to the worker spec
    #: (tests/CI only; see :mod:`repro.service.workers`).
    inject: Tuple[Tuple[str, object], ...] = ()

    def spec(self) -> Dict[str, object]:
        return job_spec(
            self.name,
            self.netlist,
            self.clocks,
            default_clock=self.default_clock,
            slow_path_limit=self.slow_path_limit,
            tolerance=self.tolerance,
            **dict(self.inject),
        )


@dataclass
class JobOutcome:
    """What happened to one job."""

    job: BatchJob
    #: ``"cached"`` | ``"computed"`` | ``"failed"``
    status: str
    key: Optional[str] = None
    partition: Optional[Tuple[str, ...]] = None
    payload: Optional[Dict[str, object]] = None
    manifest: Optional[Dict[str, object]] = None
    attempts: int = 0
    seconds: float = 0.0
    worker_pid: Optional[int] = None
    #: True when the job ran in-process after worker retries ran out.
    serial_fallback: bool = False
    error: Optional[str] = None
    #: Worker postmortem for failed jobs (``repro.crash/1``: structured
    #: frames + all-thread worker stacks); ``None`` on success or when
    #: the failure happened before a worker ran (plan errors).
    crash: Optional[Dict[str, object]] = None
    counters: Dict[str, float] = field(default_factory=dict)
    #: Submit -> worker-pickup wall seconds (``None`` for cache hits
    #: and untraced runs; wall-clock, so cross-process skew applies).
    queue_wait_s: Optional[float] = None
    #: Cluster-cache summary from the worker (``None`` when the
    #: cluster cache is disabled or the job was a full-triple hit):
    #: ``{"clusters": n, "hits": h, "recomputed": r, "hit_rate": f}``.
    cluster_cache: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.status in ("cached", "computed")

    @property
    def intended(self) -> Optional[bool]:
        if self.payload is None:
            return None
        return bool(self.payload.get("intended"))


@dataclass
class BatchReport:
    """Aggregate of one :meth:`BatchEngine.run`."""

    outcomes: List[JobOutcome]
    wall_seconds: float
    cache_stats: Dict[str, int]

    @property
    def jobs(self) -> int:
        return len(self.outcomes)

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def computed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "computed")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def violations(self) -> int:
        return sum(1 for o in self.outcomes if o.intended is False)

    @property
    def hit_rate(self) -> float:
        return self.cached / self.jobs if self.jobs else 0.0

    @property
    def total_iterations(self) -> int:
        """Algorithm 1 iterations actually *run* by this batch (cache
        hits contribute zero -- the whole point of the cache)."""
        return int(
            sum(
                o.counters.get("alg1.iterations_total", 0)
                for o in self.outcomes
                if o.status == "computed"
            )
        )

    @property
    def cluster_hits(self) -> int:
        """Cluster-level sub-key hits across computed jobs."""
        return int(
            sum(
                (o.cluster_cache or {}).get("hits", 0)
                for o in self.outcomes
            )
        )

    @property
    def cluster_recomputed(self) -> int:
        """Dirty clusters whose artifacts had to be recomputed."""
        return int(
            sum(
                (o.cluster_cache or {}).get("recomputed", 0)
                for o in self.outcomes
            )
        )

    @property
    def cluster_hit_rate(self) -> float:
        total = self.cluster_hits + self.cluster_recomputed
        return self.cluster_hits / total if total else 0.0

    def exit_code(self) -> int:
        """CLI convention: 0 clean, 1 timing violations, 2 failures."""
        if self.failed:
            return 2
        if self.violations:
            return 1
        return 0

    def to_dict(self) -> Dict[str, object]:
        """The ``repro.batchstats/1`` document (CI artifact)."""
        return {
            "schema": "repro.batchstats/1",
            "jobs": self.jobs,
            "cached": self.cached,
            "computed": self.computed,
            "failed": self.failed,
            "violations": self.violations,
            "hit_rate": round(self.hit_rate, 4),
            "wall_s": round(self.wall_seconds, 6),
            "alg1_iterations_total": self.total_iterations,
            "cache": self.cache_stats,
            "cluster_cache": {
                "hits": self.cluster_hits,
                "recomputed": self.cluster_recomputed,
                "hit_rate": round(self.cluster_hit_rate, 4),
            },
            "outcomes": [
                {
                    "name": o.job.name,
                    "status": o.status,
                    "key": o.key,
                    "partition": list(o.partition or ()),
                    "attempts": o.attempts,
                    "seconds": round(o.seconds, 6),
                    "serial_fallback": o.serial_fallback,
                    "intended": o.intended,
                    "worst_slack": (o.payload or {}).get("worst_slack"),
                    "manifest_digest": _maybe_manifest_digest(o.manifest),
                    "cluster_cache": o.cluster_cache,
                    "error": o.error,
                    "crash": o.crash,
                }
                for o in self.outcomes
            ],
        }

    def render_text(self) -> str:
        lines = []
        for o in self.outcomes:
            verdict = (
                "intended"
                if o.intended
                else ("VIOLATED" if o.intended is False else "-")
            )
            note = " [serial-fallback]" if o.serial_fallback else ""
            err = f" ({o.error})" if o.error else ""
            crash_error = (o.crash or {}).get("error")
            if isinstance(crash_error, dict):
                frames = crash_error.get("frames") or []
                if frames:
                    last = frames[-1]
                    err += (
                        f" @ {last.get('file')}:{last.get('line')} "
                        f"in {last.get('function')}"
                    )
            lines.append(
                f"{o.job.name:<24} {o.status:<9} {o.seconds:>8.3f}s "
                f"attempts={o.attempts} {verdict}{note}{err}"
            )
        lines.append(
            f"batch: {self.jobs} job(s), {self.cached} cached, "
            f"{self.computed} computed, {self.failed} failed | "
            f"hit rate {self.hit_rate:.0%} | "
            f"alg1 iterations {self.total_iterations} | "
            f"wall {self.wall_seconds:.3f}s"
        )
        if self.cluster_hits or self.cluster_recomputed:
            lines.append(
                f"clusters: {self.cluster_hits} cached, "
                f"{self.cluster_recomputed} recomputed | "
                f"cluster hit rate {self.cluster_hit_rate:.0%}"
            )
        return "\n".join(lines)


def _maybe_manifest_digest(manifest):
    if not manifest:
        return None
    from repro.report.manifest import manifest_digest

    return manifest_digest(manifest)


def load_jobs(path: Union[str, Path]) -> List[BatchJob]:
    """Parse a ``repro.batch/1`` job-set file.

    Relative netlist/clock paths are resolved against the job file's
    directory, so a job set is a self-contained artifact.
    """
    path = Path(path)
    data = json.loads(path.read_text())
    if data.get("schema") != BATCH_SCHEMA:
        raise ValueError(
            f"{path}: not a {BATCH_SCHEMA} job set "
            f"(schema={data.get('schema')!r})"
        )
    base = path.parent
    jobs = []
    seen = set()
    for index, entry in enumerate(data.get("jobs", ())):
        name = str(entry.get("name") or f"job_{index}")
        if name in seen:
            raise ValueError(f"{path}: duplicate job name {name!r}")
        seen.add(name)
        for field_name in ("netlist", "clocks"):
            if field_name not in entry:
                raise ValueError(
                    f"{path}: job {name!r} missing {field_name!r}"
                )
        try:
            tolerance = check_tolerance(entry.get("tolerance"))
            limit = check_slow_path_limit(entry.get("slow_path_limit", 50))
        except ValueError as exc:
            raise ValueError(f"{path}: job {name!r}: {exc}") from None
        jobs.append(
            BatchJob(
                name=name,
                netlist=str(base / entry["netlist"]),
                clocks=str(base / entry["clocks"]),
                default_clock=entry.get("default_clock"),
                slow_path_limit=limit,
                tolerance=tolerance,
            )
        )
    if not jobs:
        raise ValueError(f"{path}: empty job set")
    return jobs


@dataclass
class _Plan:
    """Parent-side planning facts for one job."""

    job: BatchJob
    key: str
    partition: Tuple[str, ...]
    #: Combinational cell count -- the LPT weight.
    weight: int
    #: Planning-time failure (unreadable file, unknown format); the job
    #: is reported as failed without ever reaching a worker.
    error: Optional[str] = None
    #: Parsed network, held only until the job is weighed or answered
    #: from the cache (dropped immediately after -- see
    #: :meth:`BatchEngine.run`).
    network: Optional[object] = field(default=None, repr=False)
    #: Raw-source digest of this job (``None`` when the engine runs
    #: without a cache and therefore without a :class:`SourceMap`).
    source: Optional[str] = None
    #: Weight remembered by the source map (fast-path plans only);
    #: :meth:`weigh` falls back to it when there is no held network.
    cached_weight: Optional[int] = None

    def weigh(self) -> None:
        """Compute the LPT weight from the held network, then drop it.

        The weight is the combinational cell count, which is also the
        total size of the design's clusters (every combinational cell
        lies in exactly one).  Counting needs no graph walk, so a design
        that fails validation (a combinational loop, say) is weighed
        like any other and fails in its worker, not here.  A fast-path
        plan (no parsed network) falls back to the weight the source
        map remembered.
        """
        if self.network is not None:
            self.weight = len(self.network.combinational_cells)
            self.network = None
        elif not self.weight and self.cached_weight:
            self.weight = self.cached_weight


class BatchEngine:
    """Schedule a job set over cache + worker pool.

    Parameters
    ----------
    cache:
        Result cache; ``None`` disables caching (every job computes).
    max_workers:
        Process-pool width (default: ``os.cpu_count()`` capped at 8).
    job_timeout:
        Per-job seconds before the job is considered hung and retried;
        ``None`` waits forever.
    retries:
        How many times a crashed/timed-out/failed job is re-dispatched
        to a worker before degrading to in-process serial execution.
    serial:
        Force in-process execution (no worker pool at all).
    access_log:
        Optional :class:`repro.obs.accesslog.AccessLog` (or a path to
        open one); :meth:`run` appends one ``kind="batch"`` JSON line
        per job outcome.
    cluster_cache:
        Optional :class:`repro.service.cluster_cache.ClusterCache` (or
        a directory path to open one).  When set, every *miss* job's
        worker probes the per-cluster sub-key store: clean clusters
        load their artifacts, only dirty clusters recompute.  Workers
        open their own handle on the same directory (atomic writes +
        advisory index make concurrent access safe), so only the root
        path travels in the job spec.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        max_workers: Optional[int] = None,
        job_timeout: Optional[float] = None,
        retries: int = 1,
        serial: bool = False,
        access_log: Union[AccessLog, str, Path, None] = None,
        cluster_cache: Union[ClusterCache, str, Path, None] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.cache = cache
        self.max_workers = max_workers
        self.job_timeout = job_timeout
        self.retries = retries
        self.serial = serial
        if access_log is None or isinstance(access_log, AccessLog):
            self.access_log: Optional[AccessLog] = access_log
        else:
            self.access_log = AccessLog(access_log)
        if cluster_cache is None or isinstance(
            cluster_cache, ClusterCache
        ):
            self.cluster_cache: Optional[ClusterCache] = cluster_cache
        else:
            self.cluster_cache = ClusterCache(cluster_cache)
        # The warm-plan fast path persists next to the result cache;
        # no cache, no map (and plan() always takes the parse path).
        root = getattr(cache, "root", None)
        self._sources: Optional[SourceMap] = (
            SourceMap(Path(root) / "sources.json")
            if root is not None
            else None
        )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(
        self, jobs: Sequence[BatchJob], weigh: bool = True
    ) -> List[_Plan]:
        """Digest + fingerprint every job, then order the queue.

        Jobs are grouped by clock-domain partition and sorted
        largest-first within a partition (longest-processing-time
        heuristic), so stragglers start early.  With ``weigh=False``
        the cluster weight is left for :meth:`_Plan.weigh` -- the
        warm-run fast path, where cache hits never need it.

        When the engine has a cache (and therefore a
        :class:`SourceMap`), jobs whose raw-source digest the map
        already knows are planned **without parsing anything** -- the
        planner output (key, partition, queue order) is identical to
        what the parse path would produce, because the map only ever
        stores what the parse path (or a worker) actually observed for
        those exact bytes.
        """
        from repro.core.domains import clock_domains

        plans: List[_Plan] = []
        with obs.span("service.batch.plan", category="service"):
            for job in jobs:
                fast = self._plan_from_source(job, weigh)
                if fast is not None:
                    plans.append(fast)
                    continue
                try:
                    network, schedule = _load_design(job)
                except (OSError, ValueError, KeyError) as exc:
                    obs.counter("service.batch.failures")
                    obs.event(
                        "service.batch.plan_error",
                        job=job.name,
                        error=str(exc),
                    )
                    plans.append(_Plan(job, "", (), 0, error=str(exc)))
                    continue
                obs.counter("service.batch.plan_parsed")
                config = analysis_config(
                    slow_path_limit=job.slow_path_limit,
                    tolerance=job.tolerance,
                )
                key = cache_key(
                    network_digest(network),
                    schedule_digest(schedule),
                    config_digest(config),
                )
                partition = clock_domains(network)
                plan = _Plan(job, key, partition, 0, network=network)
                plan.source = self._source_of(job)
                if weigh:
                    plan.weigh()
                plans.append(plan)
        plans.sort(key=lambda p: (p.partition, -p.weight, p.job.name))
        return plans

    @staticmethod
    def _source_of(job: BatchJob) -> Optional[str]:
        """Raw-bytes digest of one job's inputs (``None`` on I/O error)."""
        try:
            netlist_bytes = Path(job.netlist).read_bytes()
            clocks_bytes = Path(job.clocks).read_bytes()
        except OSError:
            return None
        return source_digest(
            netlist_bytes,
            clocks_bytes,
            job.default_clock,
            analysis_config(
                slow_path_limit=job.slow_path_limit,
                tolerance=job.tolerance,
            ),
        )

    def _plan_from_source(
        self, job: BatchJob, weigh: bool
    ) -> Optional[_Plan]:
        """Plan one job from the source map, or ``None`` to parse."""
        if self._sources is None:
            return None
        source = self._source_of(job)
        if source is None:
            return None  # let the parse path report the I/O error
        entry = self._sources.get(source)
        if entry is None:
            return None
        obs.counter("service.batch.plan_fast")
        weight = int(entry.get("weight") or 0)
        plan = _Plan(
            job,
            str(entry["key"]),
            tuple(entry["partition"]),  # type: ignore[arg-type]
            weight if weigh else 0,
        )
        plan.source = source
        plan.cached_weight = weight
        return plan

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[BatchJob]) -> BatchReport:
        """Run the whole job set; always returns a complete report."""
        started = time.perf_counter()
        with obs.span("service.batch.run", category="service"):
            plans = self.plan(jobs, weigh=False)
            outcomes: Dict[str, JobOutcome] = {}
            misses: List[_Plan] = []
            for plan in plans:
                obs.counter("service.batch.jobs")
                if plan.error is not None:
                    outcomes[plan.job.name] = JobOutcome(
                        job=plan.job,
                        status="failed",
                        key=None,
                        partition=plan.partition,
                        error=plan.error,
                    )
                    continue
                hit = (
                    self.cache.get(plan.key)
                    if self.cache is not None
                    else None
                )
                if hit is not None:
                    plan.network = None  # hits never need the weight
                    self._record_source(plan, plan.weight)
                    outcomes[plan.job.name] = JobOutcome(
                        job=plan.job,
                        status="cached",
                        key=plan.key,
                        partition=plan.partition,
                        payload=hit.get("payload"),  # type: ignore[arg-type]
                        manifest=hit.get("manifest"),  # type: ignore[arg-type]
                    )
                else:
                    misses.append(plan)
            if misses:
                # Weigh only the jobs that actually run, then re-apply
                # the LPT order within each partition.
                for plan in misses:
                    plan.weigh()
                misses.sort(
                    key=lambda p: (p.partition, -p.weight, p.job.name)
                )
                self._execute(misses, outcomes)
        report = BatchReport(
            outcomes=[outcomes[plan.job.name] for plan in plans],
            wall_seconds=time.perf_counter() - started,
            cache_stats=(
                self.cache.stats.to_dict()
                if self.cache is not None
                else {}
            ),
        )
        rec = obs.active()
        if rec is not None:
            rec.gauge("service.batch.hit_rate", report.hit_rate)
        # Persist write-behind recency from the probe phase's hits.
        if self.cache is not None:
            self.cache.flush()
        if self.cluster_cache is not None:
            self.cluster_cache.flush()
        if self._sources is not None:
            self._sources.flush()
        self._log_outcomes(report)
        return report

    def _spec(self, plan: _Plan) -> Dict[str, object]:
        """Build the worker spec, stamping trace context + submit time.

        When a recorder is active, each job gets its own
        ``repro.trace/1`` context (one parent-span id per dispatch) and
        a ``service.batch.submit`` event anchors the Chrome flow arrow
        from the batch run to the worker's ``service.worker.job`` span.
        ``submitted_wall`` lets the worker report queue wait.
        """
        spec = plan.job.spec()
        spec["submitted_wall"] = time.time()
        if self.cluster_cache is not None:
            spec["cluster_cache"] = {
                "root": str(self.cluster_cache.root),
                "max_entries": self.cluster_cache.max_entries,
            }
        ctx = live.trace_context()
        if ctx is not None:
            spec["trace"] = ctx
            obs.event(
                "service.batch.submit",
                job=plan.job.name,
                **live.span_args(ctx),
            )
        return spec

    def _log_outcomes(self, report: BatchReport) -> None:
        if self.access_log is None:
            return
        for o in report.outcomes:
            self.access_log.record(
                "batch",
                "job",
                o.job.name,
                "ok" if o.ok else "error",
                o.seconds,
                cache_hit=o.status == "cached",
                job_status=o.status,
                attempts=o.attempts,
                worker_pid=o.worker_pid,
                queue_wait_s=o.queue_wait_s,
                serial_fallback=o.serial_fallback,
                error=o.error,
            )

    def _execute(
        self,
        misses: List[_Plan],
        outcomes: Dict[str, JobOutcome],
    ) -> None:
        attempts = {plan.job.name: 0 for plan in misses}
        pending = list(misses)
        while pending:
            obs.gauge("service.batch.queue_depth", len(pending))
            if self.serial:
                for plan in pending:
                    self._run_serial(
                        plan, attempts, outcomes, fallback=False
                    )
                break
            retry: List[_Plan] = []
            fallback: List[_Plan] = []
            pool = ProcessPoolExecutor(max_workers=self.max_workers)
            broken = False
            try:
                futures = {}
                for index, plan in enumerate(pending):
                    attempts[plan.job.name] += 1
                    submitted = time.perf_counter()
                    try:
                        future = pool.submit(run_job, self._spec(plan))
                    except BrokenProcessPool:
                        # A worker died before the rest were queued:
                        # re-dispatch them on a fresh pool.
                        broken = True
                        for unsent in pending[index:]:
                            self._reschedule(
                                unsent, attempts, retry, fallback,
                                "worker pool broken before dispatch",
                            )
                        break
                    futures[future] = (plan, submitted)
                for future, (plan, submitted) in futures.items():
                    name = plan.job.name
                    try:
                        document = future.result(
                            timeout=self.job_timeout
                        )
                    except concurrent.futures.TimeoutError:
                        obs.counter("service.batch.timeouts")
                        broken = True  # hung worker: rebuild the pool
                        self._reschedule(
                            plan, attempts, retry, fallback, "timeout"
                        )
                        continue
                    except BrokenProcessPool:
                        obs.counter("service.batch.worker_crashes")
                        broken = True
                        self._reschedule(
                            plan, attempts, retry, fallback,
                            "worker crashed",
                        )
                        continue
                    except Exception as exc:  # pragma: no cover
                        self._reschedule(
                            plan, attempts, retry, fallback, str(exc)
                        )
                        continue
                    seconds = time.perf_counter() - submitted
                    if document.get("ok"):
                        self._record_success(
                            plan,
                            document,
                            attempts[name],
                            seconds,
                            outcomes,
                        )
                    else:
                        self._reschedule(
                            plan,
                            attempts,
                            retry,
                            fallback,
                            document.get("error", "worker error"),
                        )
            finally:
                if broken:
                    # Don't wait on a broken/hung pool; reclaim slots.
                    procs = list(
                        (getattr(pool, "_processes", None) or {}).values()
                    )
                    pool.shutdown(wait=False, cancel_futures=True)
                    for proc in procs:
                        try:
                            proc.terminate()
                        except (OSError, ValueError):  # pragma: no cover
                            pass
                else:
                    pool.shutdown(wait=True)
            for plan in fallback:
                self._run_serial(plan, attempts, outcomes)
            if retry:
                obs.counter("service.batch.retries", len(retry))
            pending = retry
        obs.gauge("service.batch.queue_depth", 0)

    def _reschedule(
        self,
        plan: _Plan,
        attempts: Dict[str, int],
        retry: List[_Plan],
        fallback: List[_Plan],
        reason: str,
    ) -> None:
        obs.event(
            "service.batch.job_retry",
            job=plan.job.name,
            attempt=attempts[plan.job.name],
            reason=reason,
        )
        if attempts[plan.job.name] <= self.retries:
            retry.append(plan)
        else:
            fallback.append(plan)

    def _run_serial(
        self,
        plan: _Plan,
        attempts: Dict[str, int],
        outcomes: Dict[str, JobOutcome],
        fallback: bool = True,
    ) -> None:
        """Run the job in this process.

        ``fallback=True`` is the graceful-degradation path (worker
        retries exhausted); ``fallback=False`` is the engine's forced
        ``serial=True`` mode, which is not a degradation and is not
        counted as one.
        """
        if fallback:
            obs.counter("service.batch.serial_fallbacks")
        attempts[plan.job.name] += 1
        started = time.perf_counter()
        document = run_job(self._spec(plan))
        seconds = time.perf_counter() - started
        if document.get("ok"):
            self._record_success(
                plan,
                document,
                attempts[plan.job.name],
                seconds,
                outcomes,
                serial=fallback,
            )
        else:
            obs.counter("service.batch.failures")
            crash = document.get("crash")
            outcomes[plan.job.name] = JobOutcome(
                job=plan.job,
                status="failed",
                key=plan.key,
                partition=plan.partition,
                attempts=attempts[plan.job.name],
                seconds=seconds,
                serial_fallback=fallback,
                error=document.get("error"),  # type: ignore[arg-type]
                crash=crash if isinstance(crash, dict) else None,
            )

    def _record_success(
        self,
        plan: _Plan,
        document: Dict[str, object],
        attempts: int,
        seconds: float,
        outcomes: Dict[str, JobOutcome],
        serial: bool = False,
    ) -> None:
        obs.histogram("service.batch.job_seconds", seconds)
        live.merge_snapshot(obs.active(), document.get("trace"))
        queue_wait = document.get("queue_wait_s")
        if isinstance(queue_wait, (int, float)):
            queue_wait = float(queue_wait)
            obs.histogram(
                "service.batch.queue_wait_seconds",
                queue_wait,
                LATENCY_BUCKETS,
            )
        else:
            queue_wait = None
        payload = document.get("payload")
        manifest = document.get("manifest")
        counters = document.get("counters") or {}
        # Worker-side cluster-cache tallies arrive both as summary
        # (for the outcome row) and as counters inside the worker's
        # obs snapshot, which live.merge_snapshot above already folded
        # into this recorder -- no extra mirroring here or the
        # `batch --metrics` dump would double-count.
        cluster_info = document.get("cluster_cache")
        outcomes[plan.job.name] = JobOutcome(
            job=plan.job,
            status="computed",
            key=plan.key,
            partition=plan.partition,
            payload=payload,  # type: ignore[arg-type]
            manifest=manifest,  # type: ignore[arg-type]
            attempts=attempts,
            seconds=seconds,
            worker_pid=document.get("worker_pid"),  # type: ignore[arg-type]
            serial_fallback=serial,
            counters=dict(counters),  # type: ignore[arg-type]
            queue_wait_s=queue_wait,
            cluster_cache=(
                dict(cluster_info)
                if isinstance(cluster_info, dict)
                else None
            ),
        )
        if self.cache is not None and isinstance(payload, dict):
            # Sanity: the worker's own digests must agree with the
            # parent's plan (same code, same inputs); if they don't,
            # something raced the input files -- skip the store.
            worker_key = (document.get("digests") or {}).get("key")
            if worker_key in (None, plan.key):
                self.cache.put(
                    plan.key,
                    payload,
                    manifest if isinstance(manifest, dict) else None,
                )
                fingerprint = document.get("fingerprint")
                weight = plan.weight
                if isinstance(fingerprint, dict):
                    reported = fingerprint.get("weight")
                    if isinstance(reported, int) and reported > 0:
                        weight = reported
                self._record_source(plan, weight)
            else:
                obs.counter("service.cache.key_races")

    def _record_source(self, plan: _Plan, weight: int) -> None:
        """Teach the source map this plan's facts (raced files skip)."""
        if self._sources is None or plan.source is None:
            return
        self._sources.record(
            plan.source, plan.key, plan.partition, int(weight or 0)
        )


def _load_design(job: BatchJob):
    """Parse one job's design + schedule in the parent (plan phase)."""
    from repro.clocks.serialize import load_schedule
    from repro.netlist import read_netlist

    return (
        read_netlist(job.netlist, job.default_clock),
        load_schedule(job.clocks),
    )
