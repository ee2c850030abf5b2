"""Cluster-granular cache: digests, warm passes, byte-identity.

Covers the batch workers' cluster cache end to end:

* :func:`repro.service.digest.cluster_digest` -- stability across
  re-extraction, locality of a one-cell delay change;
* :class:`repro.service.cluster_cache.ClusterCache` -- cold warm,
  full-hit warm, one-dirty-cluster warm, the ``repro.clusterart/2``
  artifact shape, schema guard;
* the byte-identity property: a cluster-cached re-analysis after a
  single-cell delay mutation produces the *same* manifest digest as a
  from-scratch run, while every cluster outside the mutated cone hits;
* wiring: batch warm-re-run hit rates, and no cluster fields from
  the daemon (which keeps no cluster cache).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.analyzer import Hummingbird
from repro.core.clusters import ARTIFACT_SCHEMA, extract_clusters
from repro.delay.estimator import estimate_delays
from repro.generators import latch_pipeline
from repro.report.manifest import manifest_digest
from repro.service import (
    BatchEngine,
    BatchJob,
    ClusterCache,
    DaemonClient,
    ResultCache,
    TimingDaemon,
    cluster_digest,
)

CONFIG_SHA = "a" * 64


def _design():
    return latch_pipeline(
        stages=4, stage_lengths=[10, 1, 1, 1], period=12.0
    )


@pytest.fixture
def design():
    return _design()


@pytest.fixture
def store(tmp_path):
    return ClusterCache(tmp_path / "clusters")


def _keys(network, schedule, delays, config_sha=CONFIG_SHA):
    """cluster name -> content sub-key over a fresh extraction."""
    return {
        cluster.name: cluster_digest(cluster, schedule, delays, config_sha)
        for cluster in extract_clusters(network)
    }


def _owner(clusters, cell_name):
    """The cluster owning a combinational cell."""
    return next(
        cluster.name
        for cluster in clusters
        if any(cell.name == cell_name for cell in cluster.cells)
    )


class TestClusterDigest:
    def test_keys_stable_across_reextraction(self, design):
        network, schedule = design
        delays = estimate_delays(network)
        first = _keys(network, schedule, delays)
        assert first == _keys(network, schedule, delays)
        # And across a *fresh* network build of the same circuit.
        network2, schedule2 = _design()
        assert first == _keys(network2, schedule2, estimate_delays(network2))

    def test_one_cell_mutation_changes_exactly_one_key(self, design):
        network, schedule = design
        delays = estimate_delays(network)
        before = _keys(network, schedule, delays)
        after = _keys(
            network, schedule, delays.with_scaled_cell("s1_i0", 1.5)
        )
        changed = [name for name in before if before[name] != after[name]]
        assert changed == [_owner(extract_clusters(network), "s1_i0")]

    def test_config_perturbs_every_key(self, design):
        network, schedule = design
        delays = estimate_delays(network)
        a = _keys(network, schedule, delays)
        b = _keys(network, schedule, delays, "b" * 64)
        assert all(a[name] != b[name] for name in a)

    def test_schedule_perturbs_every_key(self, design):
        """Boundary clock waveforms are part of every digest."""
        network, schedule = design
        delays = estimate_delays(network)
        a = _keys(network, schedule, delays)
        b = _keys(network, schedule.scaled(2), delays)
        assert all(a[name] != b[name] for name in a)


class TestWarm:
    def test_cold_warm_recomputes_everything(self, design, store):
        network, schedule = design
        delays = estimate_delays(network)
        warmup = store.warm(network, schedule, delays, CONFIG_SHA)
        assert warmup.hits == []
        assert sorted(warmup.recomputed) == sorted(
            c.name for c in warmup.clusters
        )
        assert warmup.hit_rate == 0.0
        for cluster in warmup.clusters:
            artifact = store.probe(
                cluster_digest(cluster, schedule, delays, CONFIG_SHA)
            )
            assert artifact["schema"] == ARTIFACT_SCHEMA
            assert set(artifact) == {"schema", "cluster", "cells", "reach"}

    def test_second_warm_hits_everything(self, design, store):
        network, schedule = design
        delays = estimate_delays(network)
        store.warm(network, schedule, delays, CONFIG_SHA)
        warmup = store.warm(network, schedule, delays, CONFIG_SHA)
        assert warmup.recomputed == []
        assert warmup.hit_rate == 1.0

    def test_warm_seeds_reachability_on_hit(self, design, store):
        network, schedule = design
        delays = estimate_delays(network)
        store.warm(network, schedule, delays, CONFIG_SHA)
        clusters = extract_clusters(network)
        warm = store.warm(
            network, schedule, delays, CONFIG_SHA, clusters=clusters
        )
        assert warm.hit_rate == 1.0
        fresh = extract_clusters(network)
        for seeded, cold in zip(clusters, fresh):
            # The seeded map equals what the cold BFS computes.
            assert seeded.reachable_captures(
                network
            ) == cold.reachable_captures(network)

    def test_mutation_recomputes_only_the_dirty_cluster(
        self, design, store
    ):
        network, schedule = design
        delays = estimate_delays(network)
        store.warm(network, schedule, delays, CONFIG_SHA)
        mutated = delays.with_scaled_cell("s1_i0", 1.5)
        warmup = store.warm(network, schedule, mutated, CONFIG_SHA)
        assert warmup.recomputed == [_owner(warmup.clusters, "s1_i0")]
        assert len(warmup.hits) == len(warmup.clusters) - 1

    def test_probe_rejects_foreign_schema(self, store):
        store.store("k" * 64, {"schema": "bogus/9", "reach": {}})
        assert store.probe("k" * 64) is None
        # The corrupt entry was evicted, not just skipped.
        assert store.probe("k" * 64) is None
        assert len(store) == 0


_CELLS = ("s0_i0", "s0_i7", "s1_i0", "s2_i0", "s3_i0")
_FACTORS = (0.5, 1.25, 1.5, 2.0, 3.0)


class TestByteIdentity:
    """Satellite 4: cached re-analysis is byte-identical to scratch."""

    @given(
        cell=st.sampled_from(_CELLS),
        factor=st.sampled_from(_FACTORS),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mutated_rerun_matches_from_scratch(
        self, tmp_path_factory, cell, factor
    ):
        store = ClusterCache(
            tmp_path_factory.mktemp("clusters") / "store"
        )
        network, schedule = _design()
        base = estimate_delays(network)
        store.warm(network, schedule, base, CONFIG_SHA)

        mutated = base.with_scaled_cell(cell, factor)
        clusters = extract_clusters(network)
        warmup = store.warm(
            network, schedule, mutated, CONFIG_SHA, clusters=clusters
        )
        # Every cluster outside the mutated cone hits.
        assert warmup.recomputed == [_owner(clusters, cell)]
        assert len(warmup.hits) == len(clusters) - 1

        cached = Hummingbird(
            network, schedule, delays=mutated, clusters=clusters
        ).analyze()

        scratch_network, scratch_schedule = _design()
        scratch = Hummingbird(
            scratch_network,
            scratch_schedule,
            delays=estimate_delays(scratch_network).with_scaled_cell(
                cell, factor
            ),
        ).analyze()

        assert manifest_digest(cached.manifest()) == manifest_digest(
            scratch.manifest()
        )


class TestDaemonWiring:
    def test_disabled_cache_omits_cluster_fields(
        self, tmp_path, design_files
    ):
        """The daemon keeps no cluster cache, so no response carries
        cluster-cache fields."""
        netlist, clocks = design_files
        sock = str(tmp_path / "plain.sock")
        with TimingDaemon(sock):
            with DaemonClient(sock, timeout=30.0) as client:
                analyzed = client.analyze(netlist, clocks)
                assert "cluster_cache" not in analyzed
                mutated = client.mutate(
                    netlist, clocks, "scale_cell",
                    cell="s1_i0", factor=1.5,
                )
                assert "touched_cluster" not in mutated
                assert "cluster_cache" not in client.stats()


class TestBatchWiring:
    def test_warm_rerun_hits_every_cluster(
        self, tmp_path, design_files
    ):
        netlist, clocks = design_files
        jobs = [BatchJob("pipeline", netlist, clocks)]
        root = tmp_path / "clusters"

        cold_engine = BatchEngine(serial=True, cluster_cache=root)
        cold = cold_engine.run(jobs)
        assert cold.cluster_recomputed > 0
        assert cold.cluster_hits == 0

        warm_engine = BatchEngine(serial=True, cluster_cache=root)
        warm = warm_engine.run(jobs)
        assert warm.cluster_hit_rate == 1.0
        assert warm.cluster_recomputed == 0
        summary = warm.to_dict()["cluster_cache"]
        assert summary["hit_rate"] == 1.0
        assert "cluster hit rate" in warm.render_text()

    def test_new_design_hits_clusters_stored_by_other_designs(
        self, tmp_path
    ):
        """Engines with separate result caches share one cluster
        directory: a design neither has analyzed loads the prefix
        clusters that shallower pipelines stored there."""
        from repro.clocks.serialize import save_schedule
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

        def engine(name):
            return BatchEngine(
                cache=ResultCache(tmp_path / name),
                cluster_cache=tmp_path / "clusters",
                serial=True,
            )

        assert engine("first").run([job(3), job(4)]).computed == 2
        outcome = engine("second").run([job(5)]).outcomes[0]
        assert outcome.status == "computed"
        assert outcome.cluster_cache["hits"] > 0

    def test_outcomes_carry_cluster_info(self, tmp_path, design_files):
        netlist, clocks = design_files
        engine = BatchEngine(
            serial=True, cluster_cache=tmp_path / "clusters"
        )
        report = engine.run([BatchJob("pipeline", netlist, clocks)])
        (outcome,) = report.outcomes
        assert outcome.cluster_cache is not None
        assert outcome.cluster_cache["clusters"] > 0
