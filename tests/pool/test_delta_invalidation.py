"""Delta-scoped pool invalidation under live graph mutation (DESIGN.md §10).

One edge write must not flush every warm key: the pool maps the graph's
structured mutation log to a conservative affected set over the *old* CSR
and keeps every key outside it -- in memory and on disk -- while remaining
byte-identical to a cold pool on the new topology.  These tests construct
graphs with more than one component (or zero-weight barriers) because the
reverse-reachable closure of a mutation inside one connected
positive-weight component is that whole component: retention wins exactly
when the closure is smaller than the graph.
"""

from __future__ import annotations

import pytest

from repro.diffusion.engine import create_engine
from repro.graph.compiled import compile_graph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.social_graph import SocialGraph
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel.engine import ParallelEngine
from repro.pool import STREAM_PMAX, SamplePool, sample_pool


def two_region_graph(main_n=80, side_n=20):
    """A weighted BA main component plus a disjoint side community."""
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


class TestDeltaRetention:
    def test_far_keys_survive_without_redrawing(self):
        graph = two_region_graph()
        pool = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        main_keys = [(t, graph.neighbor_set(s)) for s, t in [(0, 40), (1, 50), (2, 60)]]
        before = {key[0]: pool.paths(key[0], key[1], 32, STREAM_PMAX) for key in main_keys}
        side_arrival(graph, rng_pair=(85, 95))
        drawn = pool.drawn_paths
        stats = pool.stats()
        assert stats.invalidations == 1
        assert stats.retained_keys == 3 and stats.flushed_keys == 0
        for target, stop in main_keys:
            assert pool.paths(target, stop, 32, STREAM_PMAX) == before[target]
        assert pool.drawn_paths == drawn  # retention means zero re-draws

    def test_retained_streams_equal_a_cold_pool_on_the_new_topology(self):
        graph = two_region_graph()
        pool = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        stop = graph.neighbor_set(0)
        pool.paths(40, stop, 48, STREAM_PMAX)
        side_arrival(graph, rng_pair=(85, 95))
        cold = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        assert pool.paths(40, stop, 48, STREAM_PMAX) == cold.paths(40, stop, 48, STREAM_PMAX)

    def test_touched_keys_are_flushed(self):
        graph = two_region_graph()
        pool = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        main_stop = graph.neighbor_set(0)
        side_stop = graph.neighbor_set(80)
        pool.paths(40, main_stop, 32, STREAM_PMAX)
        pool.paths(90, side_stop, 32, STREAM_PMAX)
        side_arrival(graph, rng_pair=(85, 95))
        stats = pool.stats()
        assert stats.retained_keys == 1 and stats.flushed_keys == 1
        assert pool.cached_count(40, main_stop, STREAM_PMAX) > 0
        assert pool.cached_count(90, side_stop, STREAM_PMAX) == 0
        cold = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        assert pool.paths(90, side_stop, 32, STREAM_PMAX) == cold.paths(
            90, side_stop, 32, STREAM_PMAX
        )

    def test_growing_a_retained_key_stays_canonical(self):
        graph = two_region_graph()
        pool = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        stop = graph.neighbor_set(0)
        pool.paths(40, stop, 16, STREAM_PMAX)  # one chunk warm
        side_arrival(graph, rng_pair=(85, 95))
        grown = pool.paths(40, stop, 48, STREAM_PMAX)  # extend past the warm prefix
        cold = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        assert grown == cold.paths(40, stop, 48, STREAM_PMAX)

    def test_multiple_mutation_rounds_accumulate(self):
        graph = two_region_graph()
        pool = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        stop = graph.neighbor_set(0)
        expected = pool.paths(40, stop, 32, STREAM_PMAX)
        for pair in ((85, 95), (81, 97), (82, 99)):
            side_arrival(graph, rng_pair=pair)
            assert pool.paths(40, stop, 32, STREAM_PMAX) == expected
        assert pool.stats().invalidations == 3
        assert pool.stats().retained_keys == 3


class TestFullFlushFallbacks:
    def test_pinned_engine_falls_back_to_full_flush(self):
        graph = two_region_graph()
        engine = create_engine(compile_graph(graph), "python")  # snapshot-pinned
        assert engine.source_graph is None
        pool = SamplePool(engine, seed=9, chunk_size=16)
        stop = graph.neighbor_set(0)
        pool.paths(40, stop, 16, STREAM_PMAX)
        # A pinned engine never re-snapshots, so no invalidation can even
        # occur; the fallback is observable through _delta_affected.
        assert pool._delta_affected(pool._snapshot) is None

    def test_opaque_mutation_flushes_everything(self):
        graph = two_region_graph()
        pool = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        stop = graph.neighbor_set(0)
        pool.paths(40, stop, 16, STREAM_PMAX)
        graph._invalidate()  # an untyped legacy invalidation
        stats = pool.stats()
        assert stats.keys == 0 and stats.flushed_keys == 1

    def test_bfs_cap_overrun_flushes_everything(self, monkeypatch):
        monkeypatch.setattr(sample_pool, "DELTA_MAX_NODES", 2)
        graph = two_region_graph()
        pool = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        stop = graph.neighbor_set(0)
        pool.paths(40, stop, 16, STREAM_PMAX)
        side_arrival(graph, rng_pair=(85, 95))  # side closure > 2 nodes
        stats = pool.stats()
        assert stats.keys == 0 and stats.flushed_keys == 1

    def test_log_overrun_flushes_everything(self):
        from repro.graph.social_graph import MUTATION_LOG_LIMIT

        graph = two_region_graph()
        pool = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        stop = graph.neighbor_set(0)
        pool.paths(40, stop, 16, STREAM_PMAX)
        for index in range(MUTATION_LOG_LIMIT + 1):
            graph.add_node(f"fresh-{index}")  # harmless events, but too many
        stats = pool.stats()
        assert stats.keys == 0 and stats.flushed_keys == 1

    def test_add_node_only_deltas_retain_everything(self):
        graph = two_region_graph()
        pool = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        stop = graph.neighbor_set(0)
        expected = pool.paths(40, stop, 16, STREAM_PMAX)
        graph.add_node("newcomer")  # touches no in-row
        stats = pool.stats()
        assert stats.keys == 1 and stats.retained_keys == 1
        cold = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        assert expected == cold.paths(40, stop, 16, STREAM_PMAX)


class TestSpillCompatibilityAcrossResnapshots:
    def test_historical_spill_loads_for_an_unaffected_key(self, tmp_path):
        graph = two_region_graph()
        pool = SamplePool(
            create_engine(graph, "python"), seed=9, chunk_size=16,
            max_targets=2, spill_dir=tmp_path,
        )
        stop = graph.neighbor_set(0)
        expected = pool.paths(40, stop, 32, STREAM_PMAX)
        # Evict the key by warming two more, spilling it under the old digest.
        pool.paths(50, graph.neighbor_set(1), 16, STREAM_PMAX)
        pool.paths(60, graph.neighbor_set(2), 16, STREAM_PMAX)
        assert pool.stats().spills >= 1
        side_arrival(graph, rng_pair=(85, 95))
        pool.stats()  # sync: the transition lands in the digest history
        drawn = pool.drawn_paths
        assert pool.paths(40, stop, 32, STREAM_PMAX) == expected
        assert pool.drawn_paths == drawn  # loaded from the old-digest blobs
        assert pool.stats().loads >= 1

    def test_historical_spill_rejected_for_an_affected_key(self, tmp_path):
        graph = two_region_graph()
        pool = SamplePool(
            create_engine(graph, "python"), seed=9, chunk_size=16,
            max_targets=2, spill_dir=tmp_path,
        )
        side_stop = graph.neighbor_set(80)
        pool.paths(90, side_stop, 32, STREAM_PMAX)  # side-community key
        pool.paths(50, graph.neighbor_set(1), 16, STREAM_PMAX)
        pool.paths(60, graph.neighbor_set(2), 16, STREAM_PMAX)  # evicts key 90
        assert pool.stats().spills >= 1
        side_arrival(graph, rng_pair=(85, 95))
        drawn = pool.drawn_paths
        refreshed = pool.paths(90, side_stop, 32, STREAM_PMAX)
        assert pool.drawn_paths > drawn  # the stale spill was not loaded
        cold = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        assert refreshed == cold.paths(90, side_stop, 32, STREAM_PMAX)

    def test_fresh_pools_do_not_see_historical_spills(self, tmp_path):
        # The persisted lineage record binds the digest current at spill
        # time; this pool spilled *before* the mutation, so a new pool on
        # the mutated graph finds a record for a digest it does not have
        # and adopts nothing (adoption after restart requires the writer to
        # have observed the mutation -- see test_pool_restart.py).
        graph = two_region_graph()
        writer = SamplePool(
            create_engine(graph, "python"), seed=9, chunk_size=16, spill_dir=tmp_path
        )
        stop = graph.neighbor_set(0)
        expected = writer.paths(40, stop, 32, STREAM_PMAX)
        assert writer.spill_all() >= 1
        side_arrival(graph, rng_pair=(85, 95))
        reader = SamplePool(
            create_engine(graph, "python"), seed=9, chunk_size=16, spill_dir=tmp_path
        )
        assert reader.paths(40, stop, 32, STREAM_PMAX) == expected  # same stream...
        assert reader.stats().loads == 0  # ...but re-drawn, not loaded

    def test_remove_node_disables_spilling_but_keeps_warmth(self, tmp_path):
        graph = two_region_graph()
        pool = SamplePool(
            create_engine(graph, "python"), seed=9, chunk_size=16, spill_dir=tmp_path
        )
        stop = graph.neighbor_set(0)
        expected = pool.paths(40, stop, 32, STREAM_PMAX)
        graph.remove_node(95)  # side community: main keys unaffected
        stats = pool.stats()
        assert stats.keys == 1 and stats.retained_keys == 1
        drawn = pool.drawn_paths
        assert pool.paths(40, stop, 32, STREAM_PMAX) == expected  # still warm
        assert pool.drawn_paths == drawn
        # ...but the interning shifted, so the key must not spill anymore.
        assert pool.spill_all() == 0
        cold = SamplePool(create_engine(graph, "python"), seed=9, chunk_size=16)
        assert pool.paths(40, stop, 32, STREAM_PMAX) == cold.paths(
            40, stop, 32, STREAM_PMAX
        )


class TestEngineSourceGraph:
    def test_live_engine_exposes_its_graph(self):
        graph = two_region_graph()
        engine = create_engine(graph, "python")
        assert engine.source_graph is graph

    def test_parallel_engine_proxies_the_base(self):
        graph = two_region_graph()
        engine = ParallelEngine(create_engine(graph, "python"), workers=2)
        assert engine.source_graph is graph
        pinned = ParallelEngine(create_engine(compile_graph(graph), "python"), workers=2)
        assert pinned.source_graph is None


@pytest.mark.parametrize("backend", ["python", "numpy"])
class TestBackendParity:
    def test_retention_is_backend_agnostic(self, backend):
        graph = two_region_graph()
        pool = SamplePool(create_engine(graph, backend), seed=9, chunk_size=16)
        stop = graph.neighbor_set(0)
        expected = pool.paths(40, stop, 32, STREAM_PMAX)
        side_arrival(graph, rng_pair=(85, 95))
        assert pool.stats().retained_keys == 1
        cold = SamplePool(create_engine(graph, backend), seed=9, chunk_size=16)
        assert expected == cold.paths(40, stop, 32, STREAM_PMAX)
        assert pool.paths(40, stop, 32, STREAM_PMAX) == expected
