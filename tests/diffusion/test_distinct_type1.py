"""The counted distinct type-1 sets every cover is built from (DESIGN.md §6.5).

``PathBatch.distinct_type1`` and the layers above it (``PathStore``,
``SamplePool.distinct_type1``, ``collect_type1``) replace one
``TargetPath`` per sampled trace with each distinct node set once, counted.
The oracle here is the object view of the same draws: a ``Counter`` over
the type-1 paths' node sets, whose keys are the first occurrences.  After
``SetSystem.deduplicate`` -- which every solver runs first -- the reduction
must give the same sets in the same order, the same weights, and members
that iterate like the oracle's (the node greedy's tie-break reads that
order through ``inverted_index``).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.maximization import maximize_acceptance_probability
from repro.core.problem import ActiveFriendingProblem
from repro.core.raf import RAFConfig, run_raf
from repro.diffusion.engine import create_engine
from repro.diffusion.path_batch import TargetPath
from repro.graph.generators import barabasi_albert_graph
from repro.graph.social_graph import SocialGraph
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel.engine import ParallelEngine, collect_type1
from repro.pool import SamplePool
from repro.setcover.hypergraph import SetSystem

ENGINES = ("python", "numpy", "numpy-alias")
WORKERS = (None, 1, 2)
TARGET, SOURCE = 200, 0

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def graph():
    return apply_degree_normalized_weights(barabasi_albert_graph(250, 4, rng=11))


@pytest.fixture(scope="module")
def engines(graph):
    """One engine per (backend, workers); small chunks so two workers split requests."""
    built = {}
    for name in ENGINES:
        for workers in WORKERS:
            base = create_engine(graph, name)
            built[name, workers] = (
                base if workers is None else ParallelEngine(base, workers=workers, chunk_size=128)
            )
    yield built
    for engine in built.values():
        if isinstance(engine, ParallelEngine):
            engine.close()


def _oracle(paths) -> Counter:
    return Counter(path.nodes for path in paths if path.is_type1)


def _assert_counts(members, weights, counted: Counter) -> None:
    """The reduction, after deduplicate, is the oracle: sets, order, weights, iteration."""
    assert sum(weights) == sum(counted.values())
    deduped = SetSystem(members, weights).deduplicate()
    assert deduped.sets() == tuple(counted)
    assert deduped.weights() == tuple(counted.values())
    assert [tuple(member) for member in deduped.sets()] == [tuple(key) for key in counted]


class TestDistinctTypeOneProperty:
    @given(
        name=st.sampled_from(ENGINES),
        workers=st.sampled_from(WORKERS),
        pooled=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
        count=st.integers(min_value=0, max_value=1500),
    )
    @SETTINGS
    def test_matches_the_object_oracle(self, graph, engines, name, workers, pooled, seed, count):
        engine = engines[name, workers]
        stop = graph.neighbor_set(SOURCE)
        if pooled:
            pool = SamplePool(engine, seed=seed, chunk_size=256)
            members, weights = pool.distinct_type1(TARGET, stop, count)  # cold
            counted = _oracle(pool.paths(TARGET, stop, count))  # warm
            _assert_counts(members, weights, counted)
            assert pool.distinct_type1(TARGET, stop, count) == (members, weights)
            return
        members, weights = collect_type1(engine, TARGET, stop, count, rng=seed)
        counted = _oracle(engine.sample_paths(TARGET, stop, count, rng=seed))
        _assert_counts(members, weights, counted)
        if workers is None:
            # One walk: the reduction is the oracle itself, before any merge.
            assert (members, weights) == (list(counted), list(counted.values()))

    @given(seed=st.integers(min_value=0, max_value=2**31), lo=st.integers(0, 600))
    @SETTINGS
    def test_batch_slices_match_the_oracle(self, graph, engines, seed, lo):
        stop = graph.neighbor_set(SOURCE)
        for name in ENGINES:
            batch = engines[name, None].sample_path_batch(TARGET, stop, 900, rng=seed)
            counted = _oracle(batch.paths_slice(lo, 900))
            members, weights = batch.distinct_type1(lo, 900)
            assert (members, weights) == (list(counted), list(counted.values()))
            assert [tuple(m) for m in members] == [tuple(key) for key in counted]


class TestWalkOrderMembers:
    @pytest.mark.parametrize("name", ENGINES)
    def test_members_are_built_from_walk_order_ids(self, graph, engines, name):
        # Where hashes collide, a set's iteration order depends on insertion
        # order: members and object views insert the ids in walk order.
        stop = graph.neighbor_set(SOURCE)
        batch = engines[name, None].sample_path_batch(TARGET, stop, 3000, rng=7)
        ids, offsets, flat = batch.graph.nodes, batch.offsets.tolist(), batch.node_indices.tolist()
        walked = [
            frozenset(ids[i] for i in flat[offsets[row] : offsets[row + 1]])
            for row in range(len(batch))
            if batch.is_type1[row]
        ]
        first: dict = {}
        for nodes in walked:
            first.setdefault(nodes, nodes)
        members, _ = batch.distinct_type1()
        assert [tuple(member) for member in members] == [tuple(first[m]) for m in members]
        paths = [tuple(path.nodes) for path in batch.to_paths() if path.is_type1]
        assert paths == [tuple(nodes) for nodes in walked]


def _side_first_graph() -> SocialGraph:
    """A side community interned first (ids 0-19), then a disjoint main one.

    Removing a side node shifts every main node's dense index, so a main
    key's retained chunks and its later chunks use different interning.
    """
    side = apply_degree_normalized_weights(barabasi_albert_graph(20, 2, rng=23))
    main = apply_degree_normalized_weights(barabasi_albert_graph(80, 3, rng=17))
    graph = SocialGraph(name="side-first")
    for u, v in side.edges():
        graph.add_edge(u, v, side.weight(u, v), side.weight(v, u))
    for u, v in main.edges():
        graph.add_edge(u + 20, v + 20, main.weight(u, v), main.weight(v, u))
    return graph


class TestAcrossRemoveNode:
    @given(
        name=st.sampled_from(ENGINES),
        seed=st.integers(min_value=0, max_value=2**31),
        cached=st.integers(1, 96),
        extra=st.integers(16, 96),  # at least one chunk drawn after the mutation
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_chunks_on_two_snapshots_merge_by_node_id(self, name, seed, cached, extra):
        graph = _side_first_graph()
        pool = SamplePool(create_engine(graph, name), seed=seed, chunk_size=16)
        target, stop = 60, graph.neighbor_set(20)
        pool.paths(target, stop, cached)
        before = pool.engine.compiled
        graph.remove_node(5)  # side community: the main key is retained
        assert pool.stats().retained_keys == 1
        members, weights = pool.distinct_type1(target, stop, cached + extra)
        after = pool.engine.compiled
        assert before.index_of(target) != after.index_of(target)
        chunks = next(iter(pool._entries.values())).store.chunks()
        assert chunks[0].graph is before and chunks[-1].graph is after
        _assert_counts(members, weights, _oracle(pool.paths(target, stop, cached + extra)))


class TestNoTracesOnTheCoverPath:
    """Covers read counted sets: no ``TargetPath`` is built on the way."""

    @pytest.fixture
    def constructed(self, monkeypatch):
        built = []
        original = TargetPath.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(TargetPath, "__init__", counting_init)
        return built

    def test_run_raf_builds_no_target_path(self, graph, constructed):
        problem = ActiveFriendingProblem(graph, SOURCE, TARGET, alpha=0.1)
        for workers in (None, 2):
            result = run_raf(
                problem, RAFConfig(engine="numpy", workers=workers, max_realizations=3000), rng=3
            )
            assert result.num_type1 > 0
        assert constructed == []

    def test_pooled_maximize_builds_no_target_path(self, graph, constructed):
        pool = SamplePool(create_engine(graph, "numpy"), seed=3)
        result = maximize_acceptance_probability(
            graph, SOURCE, TARGET, budget=4, num_realizations=2000, pool=pool
        )
        assert result.num_type1 > 0
        warm = maximize_acceptance_probability(
            graph, SOURCE, TARGET, budget=4, num_realizations=2000, pool=pool
        )
        assert warm == result
        assert constructed == []
