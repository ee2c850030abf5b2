"""``repro.service`` -- the serving layer around the analyzer.

The paper's program was a one-shot batch tool (read the design, run
Algorithm 1, print the report).  This package turns it into a serving
engine for repeated and concurrent timing queries:

* :mod:`repro.service.digest` -- the content-addressed cache key: the
  SHA-256 of the netlist and clocks bytes that were parsed, plus the
  default clock and the analysis configuration,
* :mod:`repro.service.cache` -- :class:`ResultCache`, an on-disk LRU
  store of ``repro.result/1`` payloads + ``repro.manifest/1`` records
  with atomic writes and integrity-checked loads (corrupt entries are
  evicted, never crash); processes -- and hosts mounting the same
  directory -- share warm results through one cache directory,
* :mod:`repro.service.batch` / :mod:`repro.service.workers` --
  :class:`BatchEngine`, a scheduler that hashes each job's files, answers
  hits from the cache and fans the misses out, largest netlist first,
  over a ``ProcessPoolExecutor`` with per-job timeout, bounded retry
  and graceful degradation to in-process serial execution,
* :mod:`repro.service.daemon` -- :class:`TimingDaemon` /
  :class:`DaemonClient`, a long-lived engine behind a JSON-lines Unix
  socket that keeps parsed networks warm and answers
  analyze / what-if / report queries through the incremental engine,
* :mod:`repro.service.doctor` -- one-shot triage (``repro-sta
  doctor``): stalled requests, latest crash report and the
  flight-recorder tail, with a CI-friendly exit code.

See ``docs/service.md`` for the cache key scheme, batch semantics,
the daemon protocol and the monitoring walkthrough.
"""

from repro.service.batch import (
    BatchEngine,
    BatchJob,
    BatchReport,
    JobOutcome,
    load_jobs,
)
from repro.service.cache import CacheStats, ResultCache
from repro.service.cluster_cache import ClusterCache, ClusterWarmup
from repro.service.daemon import DaemonClient, TimingDaemon
from repro.service.digest import (
    analysis_config,
    cache_key,
    cluster_digest,
    config_digest,
    key_inputs,
)
from repro.service.doctor import (
    doctor_exit_code,
    fetch_doctor,
    render_doctor,
)

__all__ = [
    "BatchEngine",
    "BatchJob",
    "BatchReport",
    "CacheStats",
    "ClusterCache",
    "ClusterWarmup",
    "cluster_digest",
    "DaemonClient",
    "JobOutcome",
    "ResultCache",
    "TimingDaemon",
    "doctor_exit_code",
    "fetch_doctor",
    "render_doctor",
    "analysis_config",
    "cache_key",
    "config_digest",
    "key_inputs",
    "load_jobs",
]
