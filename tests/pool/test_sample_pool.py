"""Tests for the shared reverse-sample pool (repro/pool)."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.diffusion.engine import ENGINE_NAMES, create_engine
from repro.graph.datasets import load_dataset
from repro.parallel.engine import ParallelEngine
from repro.pool import (
    STREAM_EVAL,
    STREAM_PMAX,
    PoolStats,
    SamplePool,
    pool_key_digest,
)
from repro.setcover.hypergraph import SetSystem
from repro.types import ordered

ENGINES = [name for name in ENGINE_NAMES if name != "auto"]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wiki", scale=0.02, rng=7)


@pytest.fixture(scope="module")
def setting(graph):
    nodes = graph.node_list()
    source, target = nodes[0], nodes[5]
    return graph, target, graph.neighbor_set(source)


class TestKeyDigest:
    def test_independent_of_stop_set_order(self):
        assert pool_key_digest(1, [2, 3, 4]) == pool_key_digest(1, [4, 2, 3])

    def test_distinguishes_target_stop_and_stream(self):
        digests = {
            pool_key_digest(1, [2, 3]),
            pool_key_digest(2, [2, 3]),
            pool_key_digest(1, [2]),
            pool_key_digest(1, [2, 3], stream="eval"),
        }
        assert len(digests) == 4


class TestCanonicalStreams:
    def test_prefix_stability(self, setting):
        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, "python"), seed=42)
        long = pool.paths(target, stop, 1500)
        assert pool.paths(target, stop, 400) == long[:400]
        assert pool.paths(target, stop, 1500) == long

    def test_request_order_does_not_change_the_stream(self, setting):
        graph, target, stop = setting
        engine = create_engine(graph, "python")
        small_first = SamplePool(engine, seed=42)
        small_first.paths(target, stop, 10)
        grown = small_first.paths(target, stop, 1200)
        assert grown == SamplePool(engine, seed=42).paths(target, stop, 1200)

    def test_reuse_disabled_is_bit_identical(self, setting):
        graph, target, stop = setting
        engine = create_engine(graph, "python")
        cached = SamplePool(engine, seed=42).paths(target, stop, 1200)
        redrawn = SamplePool(engine, seed=42, reuse=False).paths(target, stop, 1200)
        assert cached == redrawn

    def test_streams_are_disjoint_draws(self, setting):
        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, "python"), seed=42)
        assert pool.paths(target, stop, 50, stream=STREAM_PMAX) != pool.paths(
            target, stop, 50, stream=STREAM_EVAL
        )

    def test_different_seeds_differ(self, setting):
        graph, target, stop = setting
        engine = create_engine(graph, "python")
        assert SamplePool(engine, seed=1).paths(target, stop, 50) != SamplePool(
            engine, seed=2
        ).paths(target, stop, 50)

    @pytest.mark.parametrize("name", ENGINES)
    def test_parallel_engine_matches_serial(self, setting, name):
        graph, target, stop = setting
        base = create_engine(graph, name)
        serial = SamplePool(base, seed=9).paths(target, stop, 5000)
        with ParallelEngine(base, workers=4) as fanned_engine:
            fanned = SamplePool(fanned_engine, seed=9).paths(target, stop, 5000)
        assert serial == fanned

    @pytest.mark.parametrize("name", ENGINES)
    def test_missing_chunks_are_drawn_as_one_request(self, setting, name, monkeypatch):
        graph, target, stop = setting
        engine = create_engine(graph, name)
        calls: list = []
        inside: list = []  # the python engine walks a plan's groups by calling itself
        draw = type(engine).sample_path_batch

        def counting(self, target, stop_set, count, rng=None):
            if not inside:
                calls.append(count)
            inside.append(count)
            try:
                return draw(self, target, stop_set, count, rng=rng)
            finally:
                inside.pop()

        monkeypatch.setattr(type(engine), "sample_path_batch", counting)
        pool = SamplePool(engine, seed=9, chunk_size=64)
        pool.paths(target, stop, 10)
        grown = pool.paths(target, stop, 300)  # four missing chunks, one call
        assert calls == [64, 256]
        (entry,) = pool._entries.values()
        assert [len(chunk) for chunk in entry.store.chunks()] == [64] * 5
        assert grown == SamplePool(create_engine(graph, name), seed=9, chunk_size=64).paths(
            target, stop, 300
        )


class TestReader:
    def test_reader_segments_match_direct_reads(self, setting):
        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, "python"), seed=7)
        reader = pool.reader(target, stop)
        collected = reader.take(100) + reader.take(0) + reader.take(900)
        assert reader.offset == 1000
        assert collected == pool.paths(target, stop, 1000)

    def test_cached_remaining_reflects_materialized_prefix(self, setting):
        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, "python"), seed=7)
        reader = pool.reader(target, stop)
        assert reader.cached_remaining() == 0
        pool.paths(target, stop, 10)  # materializes one whole chunk
        assert reader.cached_remaining() == pool.chunk_size
        reader.take(30)
        assert reader.cached_remaining() == pool.chunk_size - 30

    @pytest.mark.parametrize("reuse", [True, False])
    def test_key_is_hashed_once_per_estimate(self, setting, monkeypatch, reuse):
        from repro.core.raf import estimate_pmax
        from repro.pool import sample_pool

        graph, target, _ = setting
        source = graph.node_list()[0]
        pool = SamplePool(create_engine(graph, "numpy"), seed=7, reuse=reuse)
        cold = estimate_pmax(graph, source, target, confidence_n=1000.0, pool=pool)
        calls = []

        def counting_digest(*args, **kwargs):
            calls.append(args)
            return pool_key_digest(*args, **kwargs)

        monkeypatch.setattr(sample_pool, "pool_key_digest", counting_digest)
        warm = estimate_pmax(graph, source, target, confidence_n=1000.0, pool=pool)
        assert warm == cold
        assert len(calls) == 1  # the reader's, for cached_remaining() and every take


class TestIndicators:
    def test_indicators_agree_with_paths(self, setting):
        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, "python"), seed=3)
        paths = pool.paths(target, stop, 300)
        assert pool.type1_indicators(target, stop, 300) == bytes(
            1 if path.is_type1 else 0 for path in paths
        )
        invited = frozenset(graph.node_list())
        covered = pool.covered_indicators(target, stop, 300, invited)
        # Every type-1 trace is covered by the full node set (Corollary 2).
        assert covered == pool.type1_indicators(target, stop, 300)


class TestEvictionAndBudget:
    def test_lru_eviction_caps_key_count(self, graph):
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        pool = SamplePool(create_engine(graph, "python"), seed=5, max_targets=2)
        for target in nodes[5:9]:
            pool.paths(target, stop, 10)
        stats = pool.stats()
        assert stats.keys == 2
        assert stats.evictions == 2

    def test_budget_caps_cached_paths(self, graph):
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        pool = SamplePool(
            create_engine(graph, "python"), seed=5, budget=1500, chunk_size=512
        )
        first = pool.paths(nodes[5], stop, 1536)  # 3 chunks
        pool.paths(nodes[6], stop, 512)  # pushes the total over budget
        stats = pool.stats()
        assert stats.cached_paths <= 1500
        assert stats.evictions >= 1
        # The evicted key re-draws the identical canonical prefix.
        assert pool.paths(nodes[5], stop, 1536) == first

    def test_eviction_never_drops_the_key_being_served(self, graph):
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        pool = SamplePool(create_engine(graph, "python"), seed=5, budget=100)
        paths = pool.paths(nodes[5], stop, 2000)  # far over budget on its own
        assert len(paths) == 2000
        assert pool.cached_count(nodes[5], stop) >= 2000

    def test_stats_counters(self, setting):
        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, "python"), seed=5)
        pool.paths(target, stop, 100)
        pool.paths(target, stop, 100)
        stats = pool.stats()
        assert isinstance(stats, PoolStats)
        assert stats.served_paths == 200
        assert stats.drawn_paths == pool.chunk_size  # one chunk, drawn once


class TestCachedType1:
    def test_counts_type1_in_the_cached_prefix_up_to_the_limit(self, setting):
        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, "python"), seed=5, chunk_size=256)
        indicators = pool.type1_indicators(target, stop, 600, stream=STREAM_PMAX)
        cached = pool.cached_count(target, stop, STREAM_PMAX)
        assert cached == 768  # three whole chunks
        prefix = pool.type1_indicators(target, stop, cached, stream=STREAM_PMAX)
        assert prefix[:600] == indicators
        for limit in (1, 300, 600, cached, 10 * cached):
            assert pool.cached_type1(target, stop, STREAM_PMAX, limit) == sum(prefix[:limit])

    def test_is_read_only(self, setting):
        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, "python"), seed=5)
        pool.paths(target, stop, 10, stream=STREAM_PMAX)
        before = pool.stats()
        assert pool.cached_type1(target, stop, STREAM_EVAL, 100) == 0  # cold stream
        assert pool.cached_type1(target, stop, STREAM_PMAX, 100) >= 0
        assert pool.stats() == before

    def test_a_spilled_key_counts_zero_and_stays_on_disk(self, graph, tmp_path):
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        pool = SamplePool(
            create_engine(graph, "python"), seed=5, max_targets=1, spill_dir=tmp_path
        )
        pool.paths(nodes[5], stop, 100, stream=STREAM_PMAX)
        pool.paths(nodes[6], stop, 100, stream=STREAM_PMAX)  # spills the first key
        before = pool.stats()
        assert before.spills == 1
        assert pool.cached_type1(nodes[5], stop, STREAM_PMAX, 100) == 0
        assert pool.cached_count(nodes[5], stop, STREAM_PMAX) == 0
        assert pool.stats() == before  # no load, no new entry


class TestSpill:
    def test_spill_and_reload_round_trip(self, graph, tmp_path):
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        pool = SamplePool(
            create_engine(graph, "python"), seed=5, max_targets=1, spill_dir=tmp_path
        )
        first = pool.paths(nodes[5], stop, 100)
        pool.paths(nodes[6], stop, 100)  # evicts + spills the first key
        assert pool.stats().spills == 1
        reloaded = pool.paths(nodes[5], stop, 100)
        assert pool.stats().loads == 1
        assert reloaded == first

    def test_spill_files_are_canonical_json(self, graph, tmp_path):
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        pool = SamplePool(
            create_engine(graph, "python"), seed=5, max_targets=1, spill_dir=tmp_path
        )
        pool.paths(nodes[5], stop, 50)
        assert pool.spill_all() == 1
        (meta_file,) = tmp_path.glob("pool-*.meta.json")
        payload = json.loads(meta_file.read_text(encoding="utf-8"))
        assert meta_file.read_text(encoding="utf-8") == json.dumps(
            payload, indent=2, sort_keys=True
        )
        assert payload["pool_seed"] == 5
        assert payload["engine"] == "python"
        # Every engine spills its chunks as .npz column blobs, never JSON.
        (chunk_file,) = tmp_path.glob("pool-*.chunk-*")
        assert chunk_file.name.endswith(".chunk-00000.npz")
        assert not list(tmp_path.glob("pool-*.chunk-*.json"))
        assert not list(tmp_path.glob("*.tmp"))

    def test_json_chunk_spills_load_cold(self, graph, tmp_path):
        """A spill dir in the older layout (JSON chunk blobs beside the
        meta) is never read: the key is re-drawn, byte-identical to cold."""
        nodes = graph.node_list()
        target, stop = nodes[5], graph.neighbor_set(nodes[0])
        cold = SamplePool(create_engine(graph, "python"), seed=5)
        expected = cold.paths(target, stop, 50)
        expected_bytes = cold.type1_indicators(target, stop, 50)
        pool = SamplePool(create_engine(graph, "python"), seed=5, spill_dir=tmp_path)
        digest = pool_key_digest(target, stop)
        tag = pool._spill_tag(digest)
        meta = {
            "digest": digest,
            "target": target,
            "stop": ordered(stop),
            "stream": "",
            "pool_seed": 5,
            "chunk_size": pool.chunk_size,
            "csr": pool._csr_digest,
            "engine": "python",
            "chunks_drawn": 1,
        }
        chunk = {
            "paths": [
                {"nodes": ordered(p.nodes), "is_type1": p.is_type1, "anchor": p.anchor}
                for p in cold.paths(target, stop, pool.chunk_size)
            ]
        }
        for name, payload in (("meta", meta), ("chunk-00000", chunk)):
            (tmp_path / f"pool-{tag}.{name}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
            )
        fresh = SamplePool(create_engine(graph, "python"), seed=5, spill_dir=tmp_path)
        assert fresh.paths(target, stop, 50) == expected
        assert fresh.type1_indicators(target, stop, 50) == expected_bytes
        assert fresh.stats().loads == 0
        assert fresh.stats().drawn_paths == fresh.chunk_size

    def test_eviction_rewrites_only_new_chunks(self, graph, tmp_path):
        """Append-safe spill: re-evicting a grown key costs O(new chunks)."""
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        pool = SamplePool(
            create_engine(graph, "python"),
            seed=5,
            max_targets=1,
            chunk_size=64,
            spill_dir=tmp_path,
        )
        pool.paths(nodes[5], stop, 128)  # 2 chunks
        pool.paths(nodes[6], stop, 1)  # evicts + spills the first key
        assert pool.stats().chunk_writes == 2
        assert len(list(tmp_path.glob("pool-*.chunk-*"))) == 2
        pool.paths(nodes[5], stop, 320)  # reload, grow to 5 chunks
        assert pool.stats().loads == 1
        before = pool.stats().chunk_writes  # (nodes[6] was evicted+spilled too)
        pool.paths(nodes[6], stop, 1)  # evict the grown key again
        # Only the 3 *new* chunk blobs were written; the 2 old ones were
        # not rewritten (their names already existed on disk).
        assert pool.stats().chunk_writes == before + 3
        # Re-evicting with nothing new writes no blobs at all.
        pool.paths(nodes[5], stop, 320)
        before = pool.stats().chunk_writes
        pool.paths(nodes[6], stop, 1)
        assert pool.stats().chunk_writes == before
        # And the reloaded-and-grown stream is still the canonical one.
        fresh = SamplePool(create_engine(graph, "python"), seed=5, chunk_size=64)
        assert pool.paths(nodes[5], stop, 320) == fresh.paths(nodes[5], stop, 320)

    def test_foreign_spill_is_ignored(self, graph, tmp_path):
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        engine = create_engine(graph, "python")
        writer = SamplePool(engine, seed=5, spill_dir=tmp_path)
        expected = writer.paths(nodes[5], stop, 100)
        writer.spill_all()
        # A pool with another seed must not adopt the spilled stream.
        other = SamplePool(engine, seed=6, spill_dir=tmp_path)
        assert other.paths(nodes[5], stop, 100) != expected
        # The matching pool does.
        fresh = SamplePool(engine, seed=5, spill_dir=tmp_path)
        assert fresh.paths(nodes[5], stop, 100) == expected
        assert fresh.stats().loads == 1


class TestValidation:
    def test_rejects_bad_arguments(self, setting):
        graph, target, stop = setting
        engine = create_engine(graph, "python")
        with pytest.raises(TypeError):
            SamplePool(engine, seed="42")
        with pytest.raises(ValueError):
            SamplePool(engine, seed=1, chunk_size=0)
        with pytest.raises(ValueError):
            SamplePool(engine, seed=1, max_targets=0)
        with pytest.raises(ValueError):
            SamplePool(engine, seed=1, budget=0)
        pool = SamplePool(engine, seed=1)
        with pytest.raises(ValueError):
            pool.paths(target, stop, -1)
        assert pool.paths(target, stop, 0) == []


class TestSpillAllReturnValue:
    def test_counts_only_keys_actually_written(self, tmp_path):
        from repro.graph.social_graph import SocialGraph
        from repro.graph.weights import apply_degree_normalized_weights

        # Tuple node ids cannot round-trip through JSON, so they must not
        # be counted as written.
        edges = [((0, "a"), (1, "b")), ((1, "b"), (2, "c")), ((2, "c"), (3, "d"))]
        graph = apply_degree_normalized_weights(SocialGraph.from_edges(edges))
        pool = SamplePool(create_engine(graph, "python"), seed=1, spill_dir=tmp_path)
        pool.paths((3, "d"), graph.neighbor_set((0, "a")), 10)
        assert pool.spill_all() == 0
        assert list(tmp_path.glob("pool-*")) == []


class TestSnapshotInvalidation:
    """Caches drawn from a dead CSR must never be served after a mutation."""

    def _mutable_graph(self):
        from repro.graph.generators import barabasi_albert_graph
        from repro.graph.weights import apply_degree_normalized_weights

        return apply_degree_normalized_weights(barabasi_albert_graph(150, 3, rng=29))

    def test_mutation_flushes_the_cache(self):
        graph = self._mutable_graph()
        target, stop = 80, graph.neighbor_set(0)
        pool = SamplePool(create_engine(graph, "python"), seed=5)
        stale = pool.paths(target, stop, 100, stream=STREAM_PMAX)
        assert pool.cached_count(target, stop, STREAM_PMAX) >= 100
        graph.add_edge(0, 80, weight_uv=0.15, weight_vu=0.15)
        stop = graph.neighbor_set(0)
        refreshed = pool.paths(target, stop, 100, stream=STREAM_PMAX)
        fresh_pool = SamplePool(create_engine(graph, "python"), seed=5)
        assert refreshed == fresh_pool.paths(target, stop, 100, stream=STREAM_PMAX)
        assert refreshed != stale

    def test_unchanged_graph_keeps_the_cache(self):
        graph = self._mutable_graph()
        target, stop = 80, graph.neighbor_set(0)
        pool = SamplePool(create_engine(graph, "python"), seed=5)
        pool.paths(target, stop, 64, stream=STREAM_PMAX)
        drawn = pool.stats().drawn_paths
        pool.paths(target, stop, 64, stream=STREAM_PMAX)
        assert pool.stats().drawn_paths == drawn  # served from cache

    def test_spills_from_a_dead_topology_are_ignored(self, tmp_path):
        graph = self._mutable_graph()
        target, stop = 80, graph.neighbor_set(0)
        before = SamplePool(
            create_engine(graph, "python"), seed=5, spill_dir=tmp_path
        )
        before.paths(target, stop, 64, stream=STREAM_PMAX)
        assert before.spill_all() >= 1
        graph.add_edge(0, 80, weight_uv=0.15, weight_vu=0.15)
        stop = graph.neighbor_set(0)
        after = SamplePool(create_engine(graph, "python"), seed=5, spill_dir=tmp_path)
        refreshed = after.paths(target, stop, 64, stream=STREAM_PMAX)
        assert after.stats().loads == 0  # the old spill was rejected
        fresh = SamplePool(create_engine(graph, "python"), seed=5)
        assert refreshed == fresh.paths(target, stop, 64, stream=STREAM_PMAX)

    def test_spill_round_trip_on_the_same_topology_still_loads(self, tmp_path):
        graph = self._mutable_graph()
        target, stop = 80, graph.neighbor_set(0)
        writer = SamplePool(
            create_engine(graph, "python"), seed=5, spill_dir=tmp_path
        )
        expected = writer.paths(target, stop, 64, stream=STREAM_PMAX)
        assert writer.spill_all() >= 1
        reader = SamplePool(create_engine(graph, "python"), seed=5, spill_dir=tmp_path)
        assert reader.paths(target, stop, 64, stream=STREAM_PMAX) == expected
        assert reader.stats().loads == 1
        assert reader.stats().drawn_paths == 0


class TestReaderIndicators:
    def test_take_type1_bytes_advances_the_same_cursor(self, setting):
        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, "python"), seed=7)
        reader = pool.reader(target, stop)
        head = reader.take(100)
        flags = reader.take_type1_bytes(200)
        tail = reader.take(100)
        assert reader.offset == 400
        expected = pool.paths(target, stop, 400)
        assert head == expected[:100]
        assert flags == bytes(1 if p.is_type1 else 0 for p in expected[100:300])
        assert tail == expected[300:]

    def test_take_type1_bytes_reuse_disabled_matches(self, setting):
        graph, target, stop = setting
        engine = create_engine(graph, "python")
        cached = SamplePool(engine, seed=7).reader(target, stop).take_type1_bytes(500)
        redrawn = SamplePool(engine, seed=7, reuse=False).reader(target, stop).take_type1_bytes(500)
        assert cached == redrawn


class TestTypeOnePaths:
    @pytest.mark.parametrize("name", ENGINES)
    def test_distinct_type1_counts_the_stream(self, setting, name):
        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, name), seed=11)
        counted = Counter(p.nodes for p in pool.paths(target, stop, 2000) if p.is_type1)
        members, weights = pool.distinct_type1(target, stop, 2000)
        deduped = SetSystem(members, weights).deduplicate()
        assert deduped.sets() == tuple(counted)
        assert deduped.weights() == tuple(counted.values())


class TestColumnarPool:
    """The pool's columnar storage path (numpy engines)."""

    def test_columnar_chunks_are_stored(self, setting):
        from repro.diffusion.path_batch import PathBatch

        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, "numpy"), seed=3)
        pool.paths(target, stop, 100)
        (entry,) = pool._entries.values()
        assert all(isinstance(chunk, PathBatch) for chunk in entry.store.chunks())

    def test_indicators_match_object_views(self, setting):
        graph, target, stop = setting
        pool = SamplePool(create_engine(graph, "numpy"), seed=3)
        paths = pool.paths(target, stop, 1500)
        assert pool.type1_indicators(target, stop, 1500) == bytes(
            1 if p.is_type1 else 0 for p in paths
        )
        invited = frozenset(graph.node_list()[:60])
        assert pool.covered_indicators(target, stop, 1500, invited) == bytes(
            1 if p.covered_by(invited) else 0 for p in paths
        )
        members, weights = pool.distinct_type1(target, stop, 1500)
        counted = Counter(p.nodes for p in paths if p.is_type1)
        assert SetSystem(members, weights).deduplicate().weights() == tuple(counted.values())

    def test_parallel_columnar_matches_serial(self, setting):
        graph, target, stop = setting
        base = create_engine(graph, "numpy")
        serial = SamplePool(base, seed=9).paths(target, stop, 5000)
        with ParallelEngine(create_engine(graph, "numpy"), workers=4) as fanned:
            pooled = SamplePool(fanned, seed=9)
            assert pooled.paths(target, stop, 5000) == serial
            (entry,) = pooled._entries.values()
            from repro.diffusion.path_batch import PathBatch

            assert all(isinstance(chunk, PathBatch) for chunk in entry.store.chunks())

    def test_npz_spill_round_trip(self, graph, tmp_path):
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        engine = create_engine(graph, "numpy")
        writer = SamplePool(engine, seed=5, spill_dir=tmp_path)
        expected = writer.paths(nodes[5], stop, 100)
        assert writer.spill_all() == 1
        (blob,) = tmp_path.glob("pool-*.chunk-*.npz")
        assert blob.stat().st_size > 0
        assert list(tmp_path.glob("pool-*.chunk-*.json")) == []
        fresh = SamplePool(create_engine(graph, "numpy"), seed=5, spill_dir=tmp_path)
        assert fresh.paths(nodes[5], stop, 100) == expected
        assert fresh.stats().loads == 1
        assert fresh.stats().drawn_paths == 0

    def test_foreign_engine_spill_rejected(self, graph, tmp_path):
        # Python- and numpy-engine pools draw different canonical streams
        # for the same seed; sharing a spill_dir must never let one adopt
        # the other's blobs (that would break warm == cold bit-identity).
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        writer = SamplePool(create_engine(graph, "python"), seed=5, spill_dir=tmp_path)
        python_stream = writer.paths(nodes[5], stop, 100)
        writer.spill_all()
        warm = SamplePool(create_engine(graph, "numpy"), seed=5, spill_dir=tmp_path)
        warm_stream = warm.paths(nodes[5], stop, 100)
        assert warm.stats().loads == 0  # the python spill was never opened
        cold = SamplePool(create_engine(graph, "numpy"), seed=5)
        assert warm_stream == cold.paths(nodes[5], stop, 100)
        assert warm_stream != python_stream

    def test_spills_shared_across_worker_counts(self, graph, tmp_path):
        # A ParallelEngine is transparent to the stream identity: spills
        # written under workers=N must load under the bare base engine.
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        with ParallelEngine(create_engine(graph, "numpy"), workers=4) as fanned:
            writer = SamplePool(fanned, seed=5, spill_dir=tmp_path)
            expected = writer.paths(nodes[5], stop, 3000)
            writer.spill_all()
        reader = SamplePool(create_engine(graph, "numpy"), seed=5, spill_dir=tmp_path)
        assert reader.paths(nodes[5], stop, 3000) == expected
        assert reader.stats().loads == 1
        assert reader.stats().drawn_paths == 0

    def test_npz_spill_foreign_seed_rejected(self, graph, tmp_path):
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        engine = create_engine(graph, "numpy")
        writer = SamplePool(engine, seed=5, spill_dir=tmp_path)
        expected = writer.paths(nodes[5], stop, 100)
        writer.spill_all()
        other = SamplePool(engine, seed=6, spill_dir=tmp_path)
        assert other.paths(nodes[5], stop, 100) != expected
        assert other.stats().loads == 0

    def test_npz_spill_stale_csr_rejected(self, tmp_path):
        from repro.graph.generators import barabasi_albert_graph
        from repro.graph.weights import apply_degree_normalized_weights

        graph = apply_degree_normalized_weights(barabasi_albert_graph(150, 3, rng=29))
        target, stop = 80, graph.neighbor_set(0)
        before = SamplePool(create_engine(graph, "numpy"), seed=5, spill_dir=tmp_path)
        before.paths(target, stop, 64)
        assert before.spill_all() >= 1
        graph.add_edge(0, 80, weight_uv=0.15, weight_vu=0.15)
        stop = graph.neighbor_set(0)
        after = SamplePool(create_engine(graph, "numpy"), seed=5, spill_dir=tmp_path)
        refreshed = after.paths(target, stop, 64)
        assert after.stats().loads == 0  # dead-topology blobs never found
        fresh = SamplePool(create_engine(graph, "numpy"), seed=5)
        assert refreshed == fresh.paths(target, stop, 64)

    def test_npz_eviction_is_append_safe(self, graph, tmp_path):
        nodes = graph.node_list()
        stop = graph.neighbor_set(nodes[0])
        pool = SamplePool(
            create_engine(graph, "numpy"),
            seed=5,
            max_targets=1,
            chunk_size=64,
            spill_dir=tmp_path,
        )
        pool.paths(nodes[5], stop, 192)  # 3 chunks
        pool.paths(nodes[6], stop, 1)  # evict + spill
        assert pool.stats().chunk_writes == 3
        pool.paths(nodes[5], stop, 256)  # reload + 1 new chunk
        before = pool.stats().chunk_writes  # (nodes[6] was evicted+spilled too)
        pool.paths(nodes[6], stop, 1)  # evict the grown key again
        assert pool.stats().chunk_writes == before + 1  # only the new blob
        assert len(list(tmp_path.glob("pool-*.chunk-*.npz"))) == 5  # 4 + nodes[6]'s 1


class TestStatsSync:
    """stats()/cached_count() must reflect mutations immediately (PR 9 fix:
    both used to skip _sync_snapshot and report counts from the dead CSR
    until the next take/paths call)."""

    def _mutable_graph(self):
        from repro.graph.generators import barabasi_albert_graph
        from repro.graph.weights import apply_degree_normalized_weights

        return apply_degree_normalized_weights(barabasi_albert_graph(150, 3, rng=29))

    def test_stats_sees_a_mutation_before_the_next_take(self):
        graph = self._mutable_graph()
        target, stop = 80, graph.neighbor_set(0)
        pool = SamplePool(create_engine(graph, "python"), seed=5)
        pool.paths(target, stop, 64, stream=STREAM_PMAX)
        assert pool.stats().keys == 1
        graph.add_edge(0, 80, weight_uv=0.15, weight_vu=0.15)
        stats = pool.stats()  # no take in between
        assert stats.keys == 0 and stats.cached_paths == 0
        assert stats.invalidations == 1

    def test_cached_count_sees_a_mutation_before_the_next_take(self):
        graph = self._mutable_graph()
        target, stop = 80, graph.neighbor_set(0)
        pool = SamplePool(create_engine(graph, "python"), seed=5)
        pool.paths(target, stop, 64, stream=STREAM_PMAX)
        assert pool.cached_count(target, stop, STREAM_PMAX) >= 64
        graph.add_edge(0, 80, weight_uv=0.15, weight_vu=0.15)
        assert pool.cached_count(target, stop, STREAM_PMAX) == 0
