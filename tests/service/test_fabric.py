"""The distributed cache fabric: router, server, client, tiers."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.service.batch import BatchEngine, BatchJob
from repro.service.cache import CACHE_SCHEMA, ResultCache, _payload_sha
from repro.service.fabric import (
    FABRIC_SCHEMA,
    CacheServer,
    RemoteCache,
    ShardRouter,
    TieredCache,
)


def _key(i: int) -> str:
    return hashlib.sha256(f"key-{i}".encode()).hexdigest()


PEERS = [f"http://127.0.0.1:{9400 + i}" for i in range(4)]


class TestShardRouter:
    def test_bucket_is_first_nibble(self):
        assert ShardRouter.bucket_of("0" + "a" * 63) == 0
        assert ShardRouter.bucket_of("f" * 64) == 15

    def test_malformed_key_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter.bucket_of("")
        with pytest.raises(ValueError):
            ShardRouter.bucket_of("zzz")

    def test_needs_a_peer(self):
        with pytest.raises(ValueError):
            ShardRouter([])

    def test_deterministic_within_process(self):
        a = ShardRouter(PEERS)
        b = ShardRouter(list(reversed(PEERS)))  # order-insensitive
        assert a.mapping() == b.mapping()

    def test_deterministic_across_processes(self):
        """Same peer list -> same mapping under a different hash seed.

        The scheme must not lean on ``hash()`` (randomised per process)
        -- every client with the same ``--peers`` list has to route
        identically without coordination.
        """
        code = (
            "import json;"
            "from repro.service.fabric import ShardRouter;"
            f"r = ShardRouter({PEERS!r});"
            "print(json.dumps({str(k): v for k, v in r.mapping().items()}))"
        )
        import os
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={
                **os.environ,
                "PYTHONPATH": src_dir,
                "PYTHONHASHSEED": "12345",
            },
        )
        remote_mapping = {
            int(k): v for k, v in json.loads(out.stdout).items()
        }
        assert remote_mapping == ShardRouter(PEERS).mapping()

    def test_distribution_over_buckets_is_uniform_ish(self):
        """Keys spread over the 16 digest-prefix buckets ~uniformly."""
        counts = [0] * 16
        for i in range(1600):
            counts[ShardRouter.bucket_of(_key(i))] += 1
        # Expected 100 per bucket; SHA-256 nibbles are uniform, so a
        # generous 2x band catches only a broken bucket function.
        assert min(counts) > 50
        assert max(counts) < 200

    def test_every_peer_owns_something(self):
        owners = set(ShardRouter(PEERS[:2]).mapping().values())
        assert owners == set(p.rstrip("/") for p in PEERS[:2])

    def test_minimal_movement_on_peer_removal(self):
        """Removing one peer moves only the buckets it owned."""
        before = ShardRouter(PEERS).mapping()
        removed = PEERS[1]
        after = ShardRouter(
            [p for p in PEERS if p != removed]
        ).mapping()
        for bucket in range(16):
            if before[bucket] != removed:
                # Every surviving peer's buckets stay put -- the HRW
                # argmax over the remaining candidates is unchanged.
                assert after[bucket] == before[bucket]
            else:
                assert after[bucket] != removed


@pytest.fixture
def server(tmp_path):
    with CacheServer(tmp_path / "store", max_entries=64) as srv:
        yield srv


def _base(server) -> str:
    host, port = server.address
    return f"http://{host}:{port}"


def _envelope(key: str, payload: dict, manifest=None) -> bytes:
    entry = {
        "schema": CACHE_SCHEMA,
        "key": key,
        "stored_at": "2026-01-01T00:00:00",
        "payload_sha256": _payload_sha(payload, manifest),
        "payload": payload,
        "manifest": manifest,
    }
    return json.dumps(
        {"schema": FABRIC_SCHEMA, "key": key, "entry": entry}
    ).encode()


def _put(server, key, body, params=""):
    request = urllib.request.Request(
        f"{_base(server)}/objects/{key}{params}", data=body, method="PUT"
    )
    with urllib.request.urlopen(request) as r:
        return r.status


class TestCacheServer:
    def test_round_trip(self, server):
        key = _key(1)
        assert _put(server, key, _envelope(key, {"x": 1})) == 200
        with urllib.request.urlopen(
            f"{_base(server)}/objects/{key}"
        ) as r:
            doc = json.loads(r.read())
        assert doc["schema"] == FABRIC_SCHEMA
        assert doc["entry"]["payload"] == {"x": 1}

    def test_get_unknown_key_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{_base(server)}/objects/{_key(9)}")
        assert excinfo.value.code == 404

    def test_head_existence(self, server):
        key = _key(2)
        request = urllib.request.Request(
            f"{_base(server)}/objects/{key}", method="HEAD"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404
        _put(server, key, _envelope(key, {"x": 2}))
        with urllib.request.urlopen(request) as r:
            assert r.status == 200

    def test_put_integrity_reject_400(self, server):
        key = _key(3)
        body = _envelope(key, {"x": 3})
        tampered = body.replace(b'"x": 3', b'"x": 4')
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _put(server, key, tampered)
        assert excinfo.value.code == 400
        # The corrupt entry was never stored.
        assert server.cache.get(key) is None

    def test_put_wrong_schema_400(self, server):
        key = _key(4)
        body = json.dumps({"schema": "nope", "key": key}).encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _put(server, key, body)
        assert excinfo.value.code == 400

    def test_post_objects_405_allows_put(self, server):
        key = _key(5)
        request = urllib.request.Request(
            f"{_base(server)}/objects/{key}", data=b"x", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 405
        assert "PUT" in excinfo.value.headers["Allow"]

    def test_lease_blocks_eviction(self, tmp_path):
        with CacheServer(tmp_path / "s", max_entries=2) as srv:
            leased = _key(10)
            _put(srv, leased, _envelope(leased, {"i": 0}), "?lease=h1")
            for i in (11, 12, 13):
                key = _key(i)
                _put(srv, key, _envelope(key, {"i": i}))
            # Overflowed twice past max_entries=2, but the leased entry
            # was never the eviction victim.
            assert srv.cache.get(leased) is not None
            assert srv.leased(leased)

    def test_lease_expires(self, tmp_path):
        with CacheServer(
            tmp_path / "s", max_entries=8, lease_ttl_s=0.05
        ) as srv:
            key = _key(20)
            _put(srv, key, _envelope(key, {"x": 1}), "?lease=h1")
            assert srv.leased(key)
            time.sleep(0.06)
            assert not srv.leased(key)

    def test_lease_release(self, server):
        key = _key(21)
        _put(server, key, _envelope(key, {"x": 1}), "?lease=h1")
        assert server.leased(key)
        request = urllib.request.Request(
            f"{_base(server)}/leases/{key}?owner=h1", method="DELETE"
        )
        with urllib.request.urlopen(request) as r:
            assert json.loads(r.read())["released"] is True
        assert not server.leased(key)

    def test_fabricz(self, server):
        key = _key(22)
        _put(server, key, _envelope(key, {"x": 1}), "?lease=h1")
        with urllib.request.urlopen(f"{_base(server)}/fabricz") as r:
            doc = json.loads(r.read())
        assert doc["leases"] == 1
        assert doc["requests"] >= 1


class TestRemoteCache:
    def test_put_get_head(self, server):
        remote = RemoteCache([_base(server)])
        key = _key(30)
        assert remote.get(key) is None
        assert remote.head(key) is False
        assert remote.put(key, {"v": 30}, {"m": 1}) is True
        entry = remote.get(key)
        assert entry["payload"] == {"v": 30}
        assert entry["manifest"] == {"m": 1}
        assert remote.head(key) is True
        assert remote.stats.remote_hits == 1
        assert remote.stats.remote_misses == 1
        assert remote.stats.remote_stores == 1

    def test_client_side_integrity_check(self):
        """A lying server is a miss, never a poisoned cache."""
        from repro.service.httpmon import RouteHTTPServer, RouteTable

        key = _key(31)

        def lying(request):
            entry = {
                "schema": CACHE_SCHEMA,
                "key": key,
                "payload_sha256": "0" * 64,  # doesn't match payload
                "payload": {"v": 1},
                "manifest": None,
            }
            body = json.dumps(
                {"schema": FABRIC_SCHEMA, "key": key, "entry": entry}
            )
            return 200, "application/json", body

        table = RouteTable()
        table.add("GET", "/objects/<key>", lying)
        with RouteHTTPServer(table=table) as srv:
            host, port = srv.address
            remote = RemoteCache([f"http://{host}:{port}"])
            assert remote.get(key) is None
        assert remote.stats.integrity_failures == 1
        assert remote.stats.remote_hits == 0

    def test_dead_peer_degrades_and_recovers(self, tmp_path):
        down_events, up_events = [], []
        with CacheServer(tmp_path / "s") as srv:
            base = _base(srv)
        # Server stopped: the port is now dead.
        remote = RemoteCache(
            [base],
            timeout_s=0.2,
            retries=1,
            backoff_s=0.01,
            reprobe_s=30.0,
            on_peer_down=down_events.append,
            on_peer_up=up_events.append,
        )
        key = _key(40)
        assert remote.get(key) is None
        assert remote.degraded
        assert remote.down_peers() == [base]
        assert down_events == [base]
        assert remote.stats.retries == 1
        # While down (and before the re-probe window), requests are
        # skipped without touching the socket.
        assert remote.put(key, {"v": 1}) is False
        assert remote.stats.degraded_skips >= 1
        # Peer comes back on the same port; an active probe heals it.
        host, port = base.rsplit(":", 1)[0], int(base.rsplit(":", 1)[1])
        with CacheServer(tmp_path / "s2", port=port) as srv2:
            assert remote.probe_peers() == []
            assert not remote.degraded
            assert up_events == [base]
            assert remote.put(key, {"v": 1}) is True

    def test_probe_peers_marks_down(self, tmp_path):
        with CacheServer(tmp_path / "s") as srv:
            base = _base(srv)
            remote = RemoteCache([base], timeout_s=0.2)
            assert remote.probe_peers() == []
        assert remote.probe_peers(timeout_s=0.2) == [base]
        assert remote.degraded


class TestTieredCache:
    def _tier(self, tmp_path, server, name="l1"):
        return TieredCache(
            ResultCache(tmp_path / name, max_entries=32),
            RemoteCache([_base(server)]),
        )

    def test_put_reaches_both_tiers(self, tmp_path, server):
        tier = self._tier(tmp_path, server)
        key = _key(50)
        tier.put(key, {"v": 50})
        assert tier.local.get(key) is not None
        assert server.cache.get(key) is not None

    def test_remote_hit_writes_through_to_l1(self, tmp_path, server):
        writer = self._tier(tmp_path, server, "writer")
        key = _key(51)
        writer.put(key, {"v": 51})
        reader = self._tier(tmp_path, server, "reader")
        entry = reader.get(key)
        assert entry["payload"] == {"v": 51}
        assert reader.remote.stats.remote_hits == 1
        # Second probe is a pure L1 hit.
        assert reader.get(key)["payload"] == {"v": 51}
        assert reader.remote.stats.remote_hits == 1

    def test_local_only_on_dead_peer(self, tmp_path):
        with CacheServer(tmp_path / "s") as srv:
            base = _base(srv)
        tier = TieredCache(
            ResultCache(tmp_path / "l1"),
            RemoteCache([base], timeout_s=0.2, retries=0),
        )
        key = _key(52)
        tier.put(key, {"v": 52})  # remote push fails silently
        assert tier.get(key)["payload"] == {"v": 52}
        assert tier.remote.degraded

    def test_stats_merge(self, tmp_path, server):
        tier = self._tier(tmp_path, server)
        key = _key(53)
        tier.get(key)
        tier.put(key, {"v": 53})
        doc = tier.stats.to_dict()
        assert doc["remote"]["misses"] == 1
        assert doc["remote"]["stores"] == 1
        assert "remote_hit_rate" in doc

    def test_contains_checks_remote(self, tmp_path, server):
        writer = self._tier(tmp_path, server, "writer")
        key = _key(54)
        writer.put(key, {"v": 54})
        reader = self._tier(tmp_path, server, "reader")
        assert key in reader
        assert len(reader) == 0  # HEAD probe, no transfer


class TestBatchOverFabric:
    def test_second_host_warm_batch_hits_remotely(
        self, tmp_path, server, design_files
    ):
        """Host A computes; host B's cold local cache hits the fabric."""
        netlist, clocks = design_files
        jobs = [BatchJob(name="pipe", netlist=netlist, clocks=clocks)]

        def host(name):
            return TieredCache(
                ResultCache(tmp_path / name, max_entries=32),
                RemoteCache([_base(server)]),
            )

        cache_a = host("host_a")
        report_a = BatchEngine(cache=cache_a, serial=True).run(jobs)
        assert report_a.computed == 1
        assert cache_a.remote.stats.remote_stores == 1

        cache_b = host("host_b")
        report_b = BatchEngine(cache=cache_b, serial=True).run(jobs)
        assert report_b.cached == 1
        assert report_b.failed == 0
        assert cache_b.remote.stats.remote_hits == 1
        assert report_b.cache_stats["remote"]["hits"] == 1

    def test_peer_death_degrades_to_recompute(
        self, tmp_path, design_files
    ):
        """A dead peer costs recomputation, never a failed job."""
        netlist, clocks = design_files
        jobs = [BatchJob(name="pipe", netlist=netlist, clocks=clocks)]
        with CacheServer(tmp_path / "s") as srv:
            base = _base(srv)
        cache = TieredCache(
            ResultCache(tmp_path / "l1", max_entries=32),
            RemoteCache([base], timeout_s=0.2, retries=0),
        )
        report = BatchEngine(cache=cache, serial=True).run(jobs)
        assert report.failed == 0
        assert report.computed == 1
        assert cache.remote.degraded

    def test_new_design_hits_clusters_stored_by_other_designs(
        self, tmp_path, server
    ):
        """A design no host has analyzed still loads its prefix
        clusters from the fabric: shallower pipelines stored them."""
        from repro.clocks.serialize import save_schedule
        from repro.generators.pipelines import latch_pipeline
        from repro.netlist.persistence import save_network

        def job(stages):
            name = f"pipe{stages}"
            network, schedule = latch_pipeline(
                stages=stages, period=40.0, name=name
            )
            save_network(network, tmp_path / f"{name}.json")
            save_schedule(schedule, tmp_path / f"{name}.clocks.json")
            return BatchJob(
                name,
                str(tmp_path / f"{name}.json"),
                str(tmp_path / f"{name}.clocks.json"),
            )

        peers = [_base(server)]

        def host(name):
            return BatchEngine(
                cache=TieredCache(
                    ResultCache(tmp_path / name / "cache"),
                    RemoteCache(peers),
                ),
                cluster_cache=str(tmp_path / name / "clusters"),
                peers=peers,
                serial=True,
            )

        assert host("host_a").run([job(3), job(4)]).computed == 2
        outcome = host("host_b").run([job(5)]).outcomes[0]
        assert outcome.status == "computed"
        assert outcome.cluster_cache["hits"] > 0


class TestDynamicPeerMembership:
    """``--peers-file`` reloads: a new peer starts receiving the
    buckets it wins, without restarting the clients (PR 9)."""

    def _write_peers(self, path, peers):
        path.write_text("".join(f"{p}\n" for p in peers))

    def _touch(self, path, offset=10):
        import os

        stamp = path.stat().st_mtime + offset
        os.utime(path, (stamp, stamp))

    def test_new_peer_receives_its_buckets(self, tmp_path):
        with CacheServer(tmp_path / "sa") as srv_a, CacheServer(
            tmp_path / "sb"
        ) as srv_b:
            base_a, base_b = _base(srv_a), _base(srv_b)
            peers_file = tmp_path / "peers.txt"
            self._write_peers(peers_file, [base_a])
            remote = RemoteCache([base_a], peers_file=peers_file)
            assert remote.peers == (base_a,)

            # Unchanged file: no reload.
            assert remote.maybe_reload_peers() is False
            assert remote.stats.peer_set_reloads == 0

            # Grow the fleet; the next reload picks up the new peer.
            self._write_peers(peers_file, [base_a, base_b])
            self._touch(peers_file)
            assert remote.maybe_reload_peers() is True
            assert remote.stats.peer_set_reloads == 1
            assert set(remote.peers) == {base_a, base_b}
            mapping = remote.router.mapping()
            won = [b for b, url in mapping.items() if url == base_b]
            assert won, "new peer won no buckets"

            # A put routed to one of the won buckets lands on B.
            key = next(
                _key(i)
                for i in range(256)
                if remote.router.peer_for(_key(i)) == base_b
            )
            assert remote.put(key, {"v": 1}) is True
            with urllib.request.urlopen(
                f"{base_b}/objects/{key}", timeout=5
            ) as response:
                assert response.status == 200
            # ... and is readable back through the fabric client.
            entry = remote.get(key)
            assert entry is not None
            assert entry["payload"] == {"v": 1}

    def test_bad_or_empty_file_keeps_current_set(self, tmp_path):
        with CacheServer(tmp_path / "sa") as srv:
            base = _base(srv)
            peers_file = tmp_path / "peers.txt"
            self._write_peers(peers_file, [base])
            remote = RemoteCache([base], peers_file=peers_file)
            peers_file.write_text("")  # empty: would leave no peers
            self._touch(peers_file)
            assert remote.maybe_reload_peers() is False
            assert remote.peers == (base,)
            peers_file.write_text('{"peers": 42}')
            self._touch(peers_file, offset=20)
            assert remote.maybe_reload_peers() is False
            assert remote.peers == (base,)
            assert remote.stats.peer_set_reloads == 0

    def test_no_peers_file_is_inert(self):
        remote = RemoteCache(PEERS)
        assert remote.maybe_reload_peers() is False
