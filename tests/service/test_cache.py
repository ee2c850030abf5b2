"""ResultCache: round-trips, integrity checks, LRU eviction."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.service.cache import CACHE_SCHEMA, ResultCache


def _key(tag: str) -> str:
    """A syntactically valid 64-hex cache key."""
    return (tag * 64)[:64]


PAYLOAD = {
    "schema": "repro.result/1",
    "intended": True,
    "worst_slack": 1.25,
    "endpoint_slacks": {"s1_l": 1.25, "s2_l": "inf"},
}
MANIFEST = {"schema": "repro.manifest/1", "design": "unit"}


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_key("a"), PAYLOAD, MANIFEST)
        entry = cache.get(_key("a"))
        assert entry is not None
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["payload"] == PAYLOAD
        assert entry["manifest"] == MANIFEST
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(_key("b")) is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_survives_reopen(self, tmp_path):
        ResultCache(tmp_path / "cache").put(_key("a"), PAYLOAD)
        fresh = ResultCache(tmp_path / "cache")
        entry = fresh.get(_key("a"))
        assert entry is not None and entry["payload"] == PAYLOAD

    def test_contains_and_len(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert _key("a") not in cache
        cache.put(_key("a"), PAYLOAD)
        cache.put(_key("b"), PAYLOAD)
        assert _key("a") in cache
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for bad in ("", "../../etc/passwd", "a/b", "x.json"):
            with pytest.raises(ValueError):
                cache.put(bad, PAYLOAD)


class TestIntegrity:
    """Corrupt entries are evicted and counted -- never raised."""

    def _entry_path(self, cache, key):
        return cache._entry_path(key)  # noqa: SLF001 -- deliberate

    def test_truncated_file_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_key("a"), PAYLOAD)
        path = self._entry_path(cache, _key("a"))
        path.write_text(path.read_text()[: 40])
        assert cache.get(_key("a")) is None
        assert cache.stats.corrupt == 1
        assert not path.exists(), "corrupt entry must be removed"

    def test_garbage_json_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_key("a"), PAYLOAD)
        self._entry_path(cache, _key("a")).write_text("not json {")
        assert cache.get(_key("a")) is None
        assert cache.stats.corrupt == 1

    def test_tampered_payload_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_key("a"), PAYLOAD)
        path = self._entry_path(cache, _key("a"))
        entry = json.loads(path.read_text())
        entry["payload"]["worst_slack"] = -999.0  # bit-flip simulation
        path.write_text(json.dumps(entry))
        assert cache.get(_key("a")) is None
        assert cache.stats.corrupt == 1

    def test_wrong_schema_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = self._entry_path(cache, _key("a"))
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": "bogus/9", "key": _key("a")}))
        assert cache.get(_key("a")) is None
        assert cache.stats.corrupt == 1

    def test_corrupt_index_is_rebuilt(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_key("a"), PAYLOAD)
        (tmp_path / "cache" / "index.json").write_text("}{ garbage")
        fresh = ResultCache(tmp_path / "cache")
        entry = fresh.get(_key("a"))
        assert entry is not None and entry["payload"] == PAYLOAD


class TestEviction:
    def test_lru_bound(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_entries=2)
        cache.put(_key("a"), PAYLOAD)
        cache.put(_key("b"), PAYLOAD)
        cache.put(_key("c"), PAYLOAD)
        assert len(cache) == 2
        assert cache.get(_key("a")) is None, "oldest entry evicted"
        assert cache.get(_key("c")) is not None

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_entries=2)
        cache.put(_key("a"), PAYLOAD)
        cache.put(_key("b"), PAYLOAD)
        assert cache.get(_key("a")) is not None  # refresh "a"
        cache.put(_key("c"), PAYLOAD)  # evicts "b", not "a"
        assert cache.get(_key("a")) is not None
        assert cache.get(_key("b")) is None

    def test_explicit_evict(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_key("a"), PAYLOAD)
        assert cache.evict(_key("a")) is True
        assert cache.evict(_key("a")) is False
        assert cache.get(_key("a")) is None

    def test_unbounded_when_none(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_entries=None)
        for tag in "abcdef":
            cache.put(_key(tag), PAYLOAD)
        assert len(cache) == 6

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "cache", max_entries=0)

    def test_stale_index_row_reconciled_without_eviction_count(
        self, tmp_path
    ):
        """An index row whose file vanished is dropped, not 'evicted'."""
        cache = ResultCache(tmp_path / "cache", max_entries=2)
        cache.put(_key("a"), PAYLOAD)
        cache.put(_key("b"), PAYLOAD)
        # Simulate an external deletion the index does not know about.
        cache._entry_path(_key("a")).unlink()  # noqa: SLF001
        before = cache.stats.evictions
        cache.put(_key("c"), PAYLOAD)  # overflow targets stale "a"
        assert cache.stats.evictions == before, (
            "removing a stale index row must not count as an eviction"
        )
        assert cache.get(_key("b")) is not None
        assert cache.get(_key("c")) is not None


class TestHotPath:
    """The warm-path contract: zero walks, zero index writes on a hit."""

    def test_hit_performs_no_object_store_iteration(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_key("a"), PAYLOAD, MANIFEST)
        cache.get(_key("a"))  # warm the in-memory index

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "get() hit walked the objects/ directory"
            )

        cache._iter_entries = boom  # noqa: SLF001 -- deliberate probe
        entry = cache.get(_key("a"))
        assert entry is not None and entry["payload"] == PAYLOAD

    def test_hit_writes_no_index_file(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_key("a"), PAYLOAD, MANIFEST)
        index_path = tmp_path / "cache" / "index.json"
        before = index_path.read_bytes()
        stat_before = index_path.stat()
        for __ in range(5):
            assert cache.get(_key("a")) is not None
        assert index_path.read_bytes() == before
        stat_after = index_path.stat()
        assert stat_after.st_mtime_ns == stat_before.st_mtime_ns
        assert stat_after.st_ino == stat_before.st_ino, (
            "hit path must not atomically rewrite index.json"
        )

    def test_entries_count_maintained_incrementally(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.stats.entries == 0 or cache.stats.entries == 0
        cache.put(_key("a"), PAYLOAD)
        assert cache.stats.entries == 1
        cache.put(_key("b"), PAYLOAD)
        assert cache.stats.entries == 2
        cache.put(_key("b"), PAYLOAD)  # overwrite, not a new entry
        assert cache.stats.entries == 2
        cache.evict(_key("a"))
        assert cache.stats.entries == 1
        cache.clear()
        assert cache.stats.entries == 0

    def test_flush_persists_write_behind_recency(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_entries=2)
        cache.put(_key("a"), PAYLOAD)
        cache.put(_key("b"), PAYLOAD)
        assert cache.get(_key("a")) is not None  # recency bump, unflushed
        cache.flush()
        # A *fresh* instance (crash-restart simulation after flush) must
        # see the bumped recency: "b" is now the LRU victim.
        fresh = ResultCache(tmp_path / "cache", max_entries=2)
        fresh.put(_key("c"), PAYLOAD)
        assert fresh.get(_key("a")) is not None
        assert fresh.get(_key("b")) is None

    def test_context_manager_flushes(self, tmp_path):
        with ResultCache(tmp_path / "cache", max_entries=2) as cache:
            cache.put(_key("a"), PAYLOAD)
            cache.put(_key("b"), PAYLOAD)
            assert cache.get(_key("a")) is not None
        fresh = ResultCache(tmp_path / "cache", max_entries=2)
        fresh.put(_key("c"), PAYLOAD)
        assert fresh.get(_key("a")) is not None
        assert fresh.get(_key("b")) is None

    def test_unflushed_recency_is_only_advisory_loss(self, tmp_path):
        """Dropping unflushed recency never loses entries."""
        cache = ResultCache(tmp_path / "cache")
        cache.put(_key("a"), PAYLOAD)
        cache.get(_key("a"))  # dirty, never flushed
        del cache  # simulated crash: write-behind state lost
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get(_key("a")) is not None


#: One writer process: waits for the go file, then puts COUNT distinct
#: keys into the shared cache directory.
_WRITER = """
import hashlib, os, sys, time
from repro.service.cache import ResultCache
root, go, tag, count, bound = sys.argv[1:6]
cache = ResultCache(root, max_entries=None if bound == "none" else int(bound))
while not os.path.exists(go):
    time.sleep(0.001)
for i in range(int(count)):
    key = hashlib.sha256(f"{tag}-{i}".encode()).hexdigest()
    cache.put(key, {"tag": tag, "i": i})
"""


def _concurrent_writers(tmp_path, root, writers, count, bound):
    """Run ``writers`` processes that put distinct keys into ``root``
    at the same time; returns every key written."""
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}
    go = tmp_path / "go"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(root), str(go), f"w{n}",
             str(count), str(bound)],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        for n in range(writers)
    ]
    time.sleep(0.5)  # let every writer import and reach the barrier
    go.touch()
    for proc in procs:
        __, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    return [
        hashlib.sha256(f"w{n}-{i}".encode()).hexdigest()
        for n in range(writers)
        for i in range(count)
    ]


class TestSharedDirectory:
    """Processes share warm results through one cache directory."""

    def test_stray_temp_file_is_not_an_entry(self, tmp_path):
        """Another writer's temp file, seen by an index rebuild, is
        neither counted, evicted nor cleared."""
        root = tmp_path / "cache"
        shard = root / "objects" / "aa"
        shard.mkdir(parents=True)
        stray = shard / ".tmp-x.json"
        stray.write_text("{")
        cache = ResultCache(root, max_entries=1)
        for tag in "abc":
            cache.put(_key(tag), PAYLOAD)  # every put past "a" evicts
            assert len(cache) == 1
        assert cache.get(_key("c")) is not None
        assert cache.clear() == 1
        assert stray.exists()

    def test_malformed_index_row_is_dropped(self, tmp_path):
        """An index saved with a temp file's row recovers instead of
        failing every later evicting put."""
        root = tmp_path / "cache"
        ResultCache(root, max_entries=1).put(_key("a"), PAYLOAD)
        index = json.loads((root / "index.json").read_text())
        index["entries"][".tmp-y"] = 0.0  # the oldest row: first victim
        (root / "index.json").write_text(json.dumps(index))
        cache = ResultCache(root, max_entries=1)
        cache.put(_key("b"), PAYLOAD)
        cache.put(_key("c"), PAYLOAD)
        assert len(cache) == 1
        assert cache.get(_key("c")) is not None

    def test_concurrent_writers_unbounded(self, tmp_path):
        root = tmp_path / "cache"
        keys = _concurrent_writers(tmp_path, root, 4, 150, "none")
        fresh = ResultCache(root, max_entries=None)
        assert all(fresh.get(key) is not None for key in keys)
        assert fresh.stats.corrupt == 0
        assert len(fresh) == len(keys)
        assert not list(root.rglob(".tmp-*"))

    def test_concurrent_writers_bounded(self, tmp_path):
        """With a small bound every writer evicts under the others'
        feet; no put raises and what is left reads back intact."""
        root = tmp_path / "cache"
        _concurrent_writers(tmp_path, root, 4, 100, 20)
        fresh = ResultCache(root, max_entries=None)
        left = [path.stem for path in root.glob("objects/*/*.json")]
        assert left
        assert all(fresh.get(key) is not None for key in left)
        assert fresh.stats.corrupt == 0
        assert not list(root.rglob(".tmp-*"))
