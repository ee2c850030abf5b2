"""Cluster-granular result cache (sub-keys of the triple cache).

The triple-keyed :class:`~repro.service.cache.ResultCache` answers "have
we analysed exactly this (network, clocks, config)?" -- a one-gate edit
invalidates the whole design.  This module adds the paper's Section-7
cluster decomposition as the unit of caching for batch workers: every
*cluster* (a maximal connected combinational network bounded by
synchroniser terminals) gets its own content address
(:func:`~repro.service.digest.cluster_digest`) over its cells, arc
delays, internal nets, boundary clock bindings and the analysis config.
A delay mutation therefore changes exactly one cluster's digest, and a
warm re-run of an edited design

* **hits** on every clean cluster -- its ``repro.clusterart/2`` artifact
  (the source-to-capture reachability map) loads from the cache and
  seeds the analysis model, skipping the cluster's reachability sweep;
* **recomputes** only the dirty cluster's artifact.

There is no invalidation step: an edit gives the dirty cluster a new
sub-key, and the stale sub-entry simply ages out of the LRU.

Storage reuses :class:`ResultCache` (same ``repro.cache/1`` on-disk
entries, atomic writes, advisory index, LRU, integrity quarantine)
under a separate root with the ``service.cluster_cache`` counter
namespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.core.clusters import (
    ARTIFACT_SCHEMA,
    Cluster,
    cluster_timing_artifact,
    extract_clusters,
)
from repro.service.cache import ResultCache
from repro.service.digest import cluster_digest

__all__ = ["ClusterCache", "ClusterWarmup"]

#: Counter namespace of the cluster-level cache.
COUNTER_PREFIX = "service.cluster_cache"


@dataclass
class ClusterWarmup:
    """Outcome of one :meth:`ClusterCache.warm` pass."""

    #: The warmed partition (every cluster's reachability is filled).
    clusters: Tuple[Cluster, ...]
    #: Cluster names whose artifacts loaded from the cache.
    hits: List[str] = field(default_factory=list)
    #: Cluster names whose artifacts had to be recomputed.
    recomputed: List[str] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        total = len(self.clusters)
        return len(self.hits) / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "clusters": len(self.clusters),
            "hits": len(self.hits),
            "recomputed": len(self.recomputed),
            "hit_rate": self.hit_rate,
        }


class ClusterCache:
    """Per-cluster artifact store, one content-addressed sub-key each.

    Parameters
    ----------
    root:
        Cache directory.  By convention the service layers place it
        next to the triple cache (``<cache-dir>/clusters``).
    max_entries:
        LRU bound of the underlying :class:`ResultCache`; clusters are
        much smaller than whole-design results, so the default bound is
        wider.
    backend:
        Pre-built store implementing the :class:`ResultCache` surface
        (e.g. a :class:`repro.service.fabric.TieredCache` fronting the
        cache fabric).  When given, ``root``/``max_entries`` describe
        it rather than build a new local store -- this is how cluster
        artifacts computed on other hosts become hits here.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = 4096,
        backend: Optional[ResultCache] = None,
    ) -> None:
        self.root = Path(root)
        if backend is not None:
            self._cache = backend
        else:
            self._cache = ResultCache(
                self.root,
                max_entries=max_entries,
                counter_prefix=COUNTER_PREFIX,
            )

    # ------------------------------------------------------------------
    # probing / warming
    # ------------------------------------------------------------------
    def probe(self, key: str) -> Optional[Dict[str, object]]:
        """The artifact stored under one sub-key, or ``None``."""
        entry = self._cache.get(key)
        if entry is None:
            return None
        payload = entry.get("payload")
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != ARTIFACT_SCHEMA
        ):
            # Content addressing makes this near-impossible (the schema
            # version is folded into the digest); treat it as corrupt.
            self._cache.evict(key)
            return None
        return payload

    def store(self, key: str, artifact: Dict[str, object]) -> None:
        self._cache.put(key, artifact)

    def warm(
        self,
        network,
        schedule,
        delays,
        config_sha: str,
        clusters: Optional[Tuple[Cluster, ...]] = None,
    ) -> ClusterWarmup:
        """Probe every cluster of a design; seed hits, fill misses.

        For each cluster: a cache hit seeds the cluster's reachability
        map from the stored artifact (counted as
        ``service.cluster_cache.seeded``); a miss recomputes the
        artifact (``service.cluster_cache.recomputed``) -- which *is*
        the cold reachability sweep -- and stores it.  Either way the
        cluster object ends up warm, so the analysis model built from
        these clusters never re-runs the sweep.  ``clusters`` reuses an
        already-extracted partition; otherwise it is extracted here.
        """
        if clusters is None:
            clusters = extract_clusters(network)
        warmup = ClusterWarmup(clusters=tuple(clusters))
        for cluster in warmup.clusters:
            key = cluster_digest(cluster, schedule, delays, config_sha)
            artifact = self.probe(key)
            if artifact is not None:
                cluster.seed_reachability(artifact.get("reach", {}))
                warmup.hits.append(cluster.name)
                obs.counter(f"{COUNTER_PREFIX}.seeded")
            else:
                self.store(key, cluster_timing_artifact(network, cluster))
                warmup.recomputed.append(cluster.name)
                obs.counter(f"{COUNTER_PREFIX}.recomputed")
        self.flush()
        obs.gauge(
            f"{COUNTER_PREFIX}.hit_rate", warmup.hit_rate
        )
        return warmup

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def max_entries(self) -> Optional[int]:
        return self._cache.max_entries

    def flush(self) -> None:
        self._cache.flush()

    def __len__(self) -> int:
        return len(self._cache)

    def __bool__(self) -> bool:
        return True
