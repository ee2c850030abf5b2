"""Content-addressed on-disk result cache.

Entries are keyed by :func:`repro.service.digest.cache_key` -- a SHA-256
over the hashes of the netlist and clocks bytes that were parsed, the
default clock and the analysis config -- and live under
``<root>/objects/<key[:2]>/<key>.json``.  Each entry is one JSON
document::

    {
      "schema": "repro.cache/1",
      "key": "<sha256>",
      "stored_at": "2026-08-06T12:00:00",
      "payload_sha256": "<sha256 of canonical(payload+manifest)>",
      "payload": {... repro.result/1 ...},
      "manifest": {... repro.manifest/1 ...}     # optional
    }

Robustness rules (the cache must *never* take the analysis down):

* loads verify ``payload_sha256`` over the canonical serialisation of
  the payload+manifest; a mismatch, JSON error, truncated file or bad
  schema **evicts** the entry and counts ``service.cache.corrupt`` --
  it never raises;
* writes are atomic (a ``.tmp`` file + ``os.replace``) so a crashed
  writer leaves either the old entry or the new one, not a torn file;
* the LRU index (``<root>/index.json``) is advisory: if it is missing
  or corrupt it is rebuilt by scanning the object store.  The scan,
  ``len()`` and :meth:`ResultCache.clear` see only well-formed
  ``<key>.json`` entry files, never another writer's temp file.

Processes share warm results by opening one cache directory: batch
pool workers share ``<cache-dir>/clusters`` this way, and hosts that
mount the same ``--cache-dir`` share it too.  Each handle keeps its own
view of the index, so under concurrent writers the LRU bound is
approximate; reads and writes stay safe.

Eviction is LRU by last *use* (hits refresh recency), bounded by
``max_entries``.  All mutations bump :mod:`repro.obs` counters
(``service.cache.hits`` / ``.misses`` / ``.stores`` / ``.evictions`` /
``.corrupt``) so batch runs and the daemon can report hit rates.

Hot-path contract (regression-tested): a ``get`` **hit** performs no
``objects/`` directory iteration and no index-file write.  The entry
count is maintained incrementally from index mutations, and recency
bumps are *write-behind*: hits mark the in-memory index dirty and the
index file is flushed on the next ``put`` / ``evict`` / ``clear`` /
``flush`` / ``close``.  Because the index is advisory (``_load_index``
rebuilds it from the object store on corruption or loss), deferring
recency persistence costs at most some LRU precision after a crash,
never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro import obs
from repro.service.digest import canonical_json

__all__ = ["CACHE_SCHEMA", "CacheStats", "ResultCache"]

#: Schema identifier of one on-disk cache entry.
CACHE_SCHEMA = "repro.cache/1"

#: Schema identifier of the advisory LRU index.
INDEX_SCHEMA = "repro.cache-index/1"


@dataclass
class CacheStats:
    """In-process counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0
    #: Entries on disk after the most recent mutation.
    entries: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "entries": self.entries,
        }

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def _well_formed(key: str) -> bool:
    """Could ``key`` name an entry file?  Temp files never do."""
    return bool(key) and not any(ch in key for ch in "/\\.")


def _payload_sha(payload: object, manifest: object) -> str:
    doc = canonical_json({"payload": payload, "manifest": manifest})
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk LRU cache of analysis results.

    Parameters
    ----------
    root:
        Cache directory (created on first use).
    max_entries:
        LRU bound; ``None`` disables eviction.
    counter_prefix:
        Namespace for :mod:`repro.obs` counters.  The triple-keyed
        result cache uses the default ``service.cache``; the
        cluster-granular sub-key cache reuses this class under
        ``service.cluster_cache``.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = 256,
        counter_prefix: str = "service.cache",
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.root = Path(root)
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._objects = self.root / "objects"
        self._index_path = self.root / "index.json"
        self._index: Optional[Dict[str, float]] = None
        self._prefix = counter_prefix
        #: True when the in-memory index has recency updates that have
        #: not been written to ``index.json`` yet (write-behind).
        self._dirty = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The entry stored under ``key`` or ``None``.

        Returns the full entry document (``payload`` / ``manifest``
        accessible as items).  Integrity failures evict and miss.
        """
        path = self._entry_path(key)
        try:
            raw = path.read_text()
        except OSError:
            self._miss(key)
            return None
        try:
            entry = json.loads(raw)
        except (json.JSONDecodeError, ValueError):
            self._quarantine(key, path, "json-error")
            return None
        if not self._verify(key, entry):
            self._quarantine(key, path, "digest-mismatch")
            return None
        self.stats.hits += 1
        obs.counter(f"{self._prefix}.hits")
        # Write-behind recency: bump the in-memory clock only.  The
        # index file is advisory, so persisting the bump can wait for
        # the next put/evict/flush without risking correctness.
        index = self._load_index()
        index[key] = self._next_seq(index)
        self._dirty = True
        return entry

    def put(
        self,
        key: str,
        payload: Dict[str, object],
        manifest: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Store ``payload`` (+ optional manifest) under ``key``."""
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "stored_at": time.strftime(
                "%Y-%m-%dT%H:%M:%S", time.gmtime()
            ),
            "payload_sha256": _payload_sha(payload, manifest),
            "payload": payload,
            "manifest": manifest,
        }
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(
            path,
            json.dumps(entry, sort_keys=True, separators=(",", ":")),
        )
        self.stats.stores += 1
        obs.counter(f"{self._prefix}.stores")
        index = self._load_index()
        index[key] = self._next_seq(index)
        self._evict_lru(index)
        self._save_index(index)
        return path

    def evict(self, key: str) -> bool:
        """Drop one entry; returns True when something was removed."""
        removed = self._remove_entry(key)
        index = self._load_index()
        dropped = index.pop(key, None) is not None
        if removed:
            self.stats.evictions += 1
            obs.counter(f"{self._prefix}.evictions")
        if removed or dropped or self._dirty:
            self._save_index(index)
        return removed

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        count = 0
        for path in self._iter_entries():
            try:
                path.unlink()
                count += 1
            except OSError:
                pass
        self._index = {}
        self._save_index(self._index)
        return count

    def flush(self) -> None:
        """Persist any write-behind recency updates to ``index.json``."""
        if self._dirty and self._index is not None:
            self._save_index(self._index)

    def close(self) -> None:
        """Flush pending index updates (alias kept for symmetry)."""
        self.flush()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return sum(1 for __ in self._iter_entries())

    def __bool__(self) -> bool:
        """A cache object is always truthy, even when empty.

        Without this, ``__len__`` makes an *empty* cache falsy and
        ``if cache:`` guards silently skip the probe that would have
        counted the first miss.  Callers should still prefer explicit
        ``is not None`` checks.
        """
        return True

    def __contains__(self, key: str) -> bool:
        return self._entry_path(key).exists()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        if not _well_formed(key):
            raise ValueError(f"malformed cache key {key!r}")
        return self._objects / key[:2] / f"{key}.json"

    def _iter_entries(self):
        """Entry files only: another writer's temp file is skipped."""
        if not self._objects.is_dir():
            return
        for shard in sorted(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                if _well_formed(path.stem):
                    yield path

    def _verify(self, key: str, entry: object) -> bool:
        if not isinstance(entry, dict):
            return False
        if entry.get("schema") != CACHE_SCHEMA or entry.get("key") != key:
            return False
        expected = entry.get("payload_sha256")
        actual = _payload_sha(entry.get("payload"), entry.get("manifest"))
        return expected == actual

    def _miss(self, key: str) -> None:
        self.stats.misses += 1
        obs.counter(f"{self._prefix}.misses")

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Evict a corrupt entry and account for it as a miss."""
        self.stats.corrupt += 1
        obs.counter(f"{self._prefix}.corrupt")
        obs.event(f"{self._prefix}.corrupt_entry", key=key, reason=reason)
        try:
            path.unlink()
        except OSError:
            pass
        index = self._load_index()
        if index.pop(key, None) is not None:
            self._save_index(index)
        self._miss(key)

    def _remove_entry(self, key: str) -> bool:
        try:
            self._entry_path(key).unlink()
            return True
        except OSError:
            return False

    def _evict_lru(self, index: Dict[str, float]) -> None:
        if self.max_entries is None:
            return
        # Trust the index outright: stat-ing every entry per put turned
        # eviction into an O(N) filesystem scan.  If the index names a
        # file that is already gone, ``_remove_entry``'s OSError path
        # reconciles it -- the stale index row is dropped without
        # counting an eviction.
        overflow = len(index) - self.max_entries
        if overflow <= 0:
            return
        for key in sorted(index, key=lambda k: index.get(k, 0.0)):
            if overflow <= 0:
                break
            if self._remove_entry(key):
                self.stats.evictions += 1
                obs.counter(f"{self._prefix}.evictions")
            index.pop(key, None)
            overflow -= 1

    # -- index ---------------------------------------------------------
    @staticmethod
    def _next_seq(index: Dict[str, float]) -> float:
        """Monotone logical recency clock (immune to timestamp ties)."""
        return max(index.values(), default=0.0) + 1.0

    def _load_index(self) -> Dict[str, float]:
        if self._index is not None:
            return self._index
        try:
            data = json.loads(self._index_path.read_text())
            if data.get("schema") != INDEX_SCHEMA:
                raise ValueError("bad index schema")
            entries = data["entries"]
            if not isinstance(entries, dict):
                raise ValueError("bad index entries")
            # A malformed row (an older writer's temp file, say) is
            # dropped here, so eviction never trips over it.
            self._index = {
                str(key): float(value)
                for key, value in entries.items()
                if _well_formed(str(key))
            }
        except (OSError, ValueError, KeyError, TypeError):
            # Advisory only: rebuild from the object store.
            self._index = {}
            for path in self._iter_entries():
                try:
                    self._index[path.stem] = path.stat().st_mtime
                except OSError:  # evicted by another process mid-scan
                    pass
        self.stats.entries = len(self._index)
        return self._index

    def _save_index(self, index: Dict[str, float]) -> None:
        self._index = index
        # Maintained incrementally: the index is the entry count.  The
        # previous full ``objects/`` walk here made every get/put O(N).
        self.stats.entries = len(index)
        self._dirty = False
        self.root.mkdir(parents=True, exist_ok=True)
        self._atomic_write(
            self._index_path,
            json.dumps(
                {"schema": INDEX_SCHEMA, "entries": index},
                sort_keys=True,
                separators=(",", ":"),
            ),
        )

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
