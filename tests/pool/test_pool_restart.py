"""Durable pool restarts: spill adoption across process boundaries.

The contract under test (DESIGN.md §11): a fresh :class:`SamplePool`
pointed at an existing ``spill_dir`` with the same pool seed, chunk size
and engine adopts its predecessor's spills -- including, through the
persisted digest-lineage record, blobs written under an *ancestor* CSR
digest for keys the recorded mutations never touched.  Adopted streams are
byte-identical to cold draws; anything that cannot be proven compatible
(other seed, other engine, unmatched digest, malformed or crash-interrupted
records) is silently re-drawn, never mis-served.
"""

from __future__ import annotations

import json

from repro.diffusion.engine import create_engine
from repro.faults import SITE_SPILL_IO, FaultPlan
from repro.graph.generators import barabasi_albert_graph
from repro.graph.social_graph import SocialGraph
from repro.graph.weights import apply_degree_normalized_weights
from repro.pool import STREAM_PMAX, SamplePool


def two_region_graph(main_n=80, side_n=20):
    """A weighted BA main component plus a disjoint side community.

    Two components keep a side-community mutation's reverse-reachable
    closure away from the main-community keys, so those keys survive the
    mutation and restart adoption across it is actually exercised (same
    construction as test_delta_invalidation.py).
    """
    main = apply_degree_normalized_weights(barabasi_albert_graph(main_n, 3, rng=17))
    side = apply_degree_normalized_weights(barabasi_albert_graph(side_n, 2, rng=23))
    graph = SocialGraph(name="two-region")
    for u, v in main.edges():
        graph.add_edge(u, v, main.weight(u, v), main.weight(v, u))
    for u, v in side.edges():
        graph.add_edge(u + main_n, v + main_n, side.weight(u, v), side.weight(v, u))
    return graph


def side_arrival(graph, rng_pair=(180, 190)):
    """Insert one new edge inside the side community (headroom-safe)."""
    u, v = rng_pair
    for candidate in range(80, 100):
        if candidate != u and not graph.has_edge(u, candidate):
            v = candidate
            break
    graph.add_edge(
        u, v,
        min(0.2, 0.5 * max(0.0, 1.0 - graph.total_in_weight(v))),
        min(0.2, 0.5 * max(0.0, 1.0 - graph.total_in_weight(u))),
    )
    return u, v


def _pool(graph, tmp_path, seed=9, **kwargs):
    return SamplePool(
        create_engine(graph, "python"), seed=seed, chunk_size=16,
        spill_dir=tmp_path, **kwargs,
    )


class TestWarmRestart:
    def test_restarted_pool_serves_spills_byte_identically(self, tmp_path):
        graph = two_region_graph()
        writer = _pool(graph, tmp_path)
        keys = [(t, graph.neighbor_set(s)) for s, t in [(0, 40), (1, 50), (80, 90)]]
        expected = {t: writer.paths(t, stop, 48, STREAM_PMAX) for t, stop in keys}
        assert writer.spill_all() == 3
        restarted = _pool(graph, tmp_path)
        for target, stop in keys:
            assert restarted.paths(target, stop, 48, STREAM_PMAX) == expected[target]
        stats = restarted.stats()
        assert stats.loads == 3
        assert stats.drawn_paths == 0  # every sample came off disk

    def test_adoption_requires_matching_seed(self, tmp_path):
        graph = two_region_graph()
        writer = _pool(graph, tmp_path, seed=9)
        stop = graph.neighbor_set(0)
        writer.paths(40, stop, 32, STREAM_PMAX)
        writer.spill_all()
        other = _pool(graph, tmp_path, seed=10)
        other.paths(40, stop, 32, STREAM_PMAX)
        assert other.stats().loads == 0


class TestLineageAdoption:
    """Restart adoption across a recorded mutation (the new capability)."""

    def _spill_then_mutate(self, tmp_path):
        """Warm a main-community key, record a side mutation, checkpoint."""
        graph = two_region_graph()
        writer = _pool(graph, tmp_path)
        stop = graph.neighbor_set(0)
        expected = writer.paths(40, stop, 48, STREAM_PMAX)
        assert writer.spill_all() == 1  # blobs land under the old digest
        side_arrival(graph, rng_pair=(85, 95))
        # The live writer observes the mutation; the refreshed lineage
        # record now binds the *new* digest to the old-digest transition.
        assert writer.spill_all() >= 0
        return graph, stop, expected

    def test_restarted_pool_adopts_ancestor_spills(self, tmp_path):
        graph, stop, expected = self._spill_then_mutate(tmp_path)
        restarted = _pool(graph, tmp_path)
        assert restarted.paths(40, stop, 48, STREAM_PMAX) == expected
        stats = restarted.stats()
        assert stats.loads == 1
        assert stats.drawn_paths == 0

    def test_affected_keys_are_never_adopted_across_the_mutation(self, tmp_path):
        graph = two_region_graph()
        writer = _pool(graph, tmp_path)
        side_stop = graph.neighbor_set(80)
        writer.paths(90, side_stop, 32, STREAM_PMAX)  # side-community key
        assert writer.spill_all() == 1
        side_arrival(graph, rng_pair=(85, 95))  # invalidates that key
        writer.spill_all()
        restarted = _pool(graph, tmp_path)
        refreshed = restarted.paths(90, side_stop, 32, STREAM_PMAX)
        assert restarted.stats().loads == 0  # stale blobs rejected
        cold = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        assert refreshed == cold.paths(90, side_stop, 32, STREAM_PMAX)

    def test_lineage_for_another_digest_adopts_nothing(self, tmp_path):
        graph, stop, expected = self._spill_then_mutate(tmp_path)
        side_arrival(graph, rng_pair=(86, 96))  # a mutation nobody recorded
        restarted = _pool(graph, tmp_path)
        assert restarted.paths(40, stop, 48, STREAM_PMAX) == expected
        assert restarted.stats().loads == 0  # same stream, but re-drawn

    def test_malformed_lineage_record_is_ignored(self, tmp_path):
        graph, stop, expected = self._spill_then_mutate(tmp_path)
        (record,) = tmp_path.glob("pool-lineage-*.json")
        record.write_text("{not json", encoding="utf-8")
        restarted = _pool(graph, tmp_path)  # must not raise
        assert restarted.paths(40, stop, 48, STREAM_PMAX) == expected
        assert restarted.stats().loads == 0

    def test_truncated_lineage_record_is_ignored(self, tmp_path):
        graph, stop, expected = self._spill_then_mutate(tmp_path)
        (record,) = tmp_path.glob("pool-lineage-*.json")
        payload = json.loads(record.read_text(encoding="utf-8"))
        payload["lineage"] = [{"digest": "bogus"}]  # missing required fields
        record.write_text(json.dumps(payload), encoding="utf-8")
        restarted = _pool(graph, tmp_path)
        assert restarted.paths(40, stop, 48, STREAM_PMAX) == expected
        assert restarted.stats().loads == 0


class TestSpillFaults:
    def test_injected_spill_error_keeps_the_key_in_memory(self, tmp_path):
        graph = two_region_graph()
        plan = FaultPlan(spill_fail_at={0})
        pool = _pool(graph, tmp_path, fault_plan=plan)
        stop = graph.neighbor_set(0)
        expected = pool.paths(40, stop, 48, STREAM_PMAX)
        assert pool.spill_all() == 0  # the write failed...
        stats = pool.stats()
        assert stats.spill_errors == 1
        assert plan.injected(SITE_SPILL_IO) == 1
        # ...but serving is unaffected, from memory, byte-identically.
        assert pool.paths(40, stop, 48, STREAM_PMAX) == expected
        assert pool.drawn_paths == stats.drawn_paths

    def test_spill_retry_succeeds_after_the_fault_passes(self, tmp_path):
        graph = two_region_graph()
        plan = FaultPlan(spill_fail_at={0})
        pool = _pool(graph, tmp_path, fault_plan=plan)
        stop = graph.neighbor_set(0)
        expected = pool.paths(40, stop, 48, STREAM_PMAX)
        assert pool.spill_all() == 0
        assert pool.spill_all() == 1  # occurrence 1 does not fire
        restarted = _pool(graph, tmp_path)
        assert restarted.paths(40, stop, 48, STREAM_PMAX) == expected
        assert restarted.stats().loads == 1

    def test_failed_spill_leaves_no_partial_files(self, tmp_path):
        graph = two_region_graph()
        plan = FaultPlan(spill_fail_at={0})
        pool = _pool(graph, tmp_path, fault_plan=plan)
        pool.paths(40, graph.neighbor_set(0), 48, STREAM_PMAX)
        assert pool.spill_all() == 0
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob("pool-*.meta.json")) == []


class TestCrashInterruptedSpills:
    def test_leftover_tmp_files_are_never_adopted(self, tmp_path):
        graph = two_region_graph()
        writer = _pool(graph, tmp_path)
        stop = graph.neighbor_set(0)
        expected = writer.paths(40, stop, 48, STREAM_PMAX)
        assert writer.spill_all() == 1
        # Simulate a crash mid-write: a half-written temp file next to the
        # real ones.  tmp+rename means it was never observable as a blob.
        (tmp_path / "pool-deadbeef.meta.json.tmp").write_text("{", encoding="utf-8")
        restarted = _pool(graph, tmp_path)
        assert restarted.paths(40, stop, 48, STREAM_PMAX) == expected
        assert restarted.stats().loads == 1

    def test_corrupt_meta_means_redraw_not_corruption(self, tmp_path):
        graph = two_region_graph()
        writer = _pool(graph, tmp_path)
        stop = graph.neighbor_set(0)
        expected = writer.paths(40, stop, 48, STREAM_PMAX)
        assert writer.spill_all() == 1
        (meta,) = tmp_path.glob("pool-*.meta.json")
        meta.write_text("garbage", encoding="utf-8")
        restarted = _pool(graph, tmp_path)
        assert restarted.paths(40, stop, 48, STREAM_PMAX) == expected
        assert restarted.stats().loads == 0  # re-drawn, byte-identical


class TestLineageRecordHygiene:
    def test_lineage_file_is_canonical_json_with_bound_identity(self, tmp_path):
        graph = two_region_graph()
        writer = _pool(graph, tmp_path)
        writer.paths(40, graph.neighbor_set(0), 32, STREAM_PMAX)
        assert writer.spill_all() == 1
        (record,) = tmp_path.glob("pool-lineage-*.json")
        text = record.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True)
        assert payload["pool_seed"] == 9
        assert payload["chunk_size"] == 16
        assert payload["engine"] == "python"
        assert payload["csr"]
        assert not list(tmp_path.glob("*.tmp"))

    def test_no_lineage_record_without_successful_spills(self, tmp_path):
        graph = two_region_graph()
        pool = _pool(graph, tmp_path)
        pool.paths(40, graph.neighbor_set(0), 32, STREAM_PMAX)
        assert list(tmp_path.glob("pool-lineage-*.json")) == []

    def test_adoption_requires_matching_engine_name(self, tmp_path):
        graph = two_region_graph()
        writer = _pool(graph, tmp_path)
        stop = graph.neighbor_set(0)
        writer.paths(40, stop, 32, STREAM_PMAX)
        assert writer.spill_all() == 1
        side_arrival(graph, rng_pair=(85, 95))
        writer.spill_all()
        numpy_pool = SamplePool(
            create_engine(graph, "numpy"), seed=9, chunk_size=16, spill_dir=tmp_path
        )
        numpy_pool.paths(40, stop, 32, STREAM_PMAX)
        assert numpy_pool.stats().loads == 0  # scope (engine) mismatch
