"""One lockstep walk for several seeded groups (``DrawPlan``).

``engine.sample_path_batch(target, stop, plan.count, rng=plan)`` must
return exactly the concatenation of one lone call per group, in group
order, on every engine and snapshot layout: the fused walk removes
kernel rounds, never changes a stream.  Groups may share one generator
(consumed in group order, as successive calls would), be empty, or walk
far past the kernel's history window.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.diffusion.engine as engine_module
from repro.diffusion.engine import DrawPlan, NumpyEngine, create_engine, pack_walks, reduce_walks
from repro.diffusion.path_batch import PathBatch
from repro.exceptions import EngineError
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.social_graph import SocialGraph
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel.engine import sample_type1_indicators

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

ENGINES = ["python", "numpy", "numpy-alias"]


def _ring() -> SocialGraph:
    # Weighted one way only: a walk from node 0 runs 0, 149, ... for up to
    # 150 steps, past HISTORY_WINDOW, so its cycle check spills.
    ring = SocialGraph()
    for node in range(150):
        ring.add_edge(node, (node + 1) % 150, 1.0, 0.0)
    return ring


@pytest.fixture(scope="module")
def settings_by_layout(tmp_path_factory):
    """(graph, target, stop set) per (topology, layout)."""
    ba = apply_degree_normalized_weights(barabasi_albert_graph(250, 4, rng=11))
    ring = _ring()
    out = {}
    for name, graph, target, stop in (
        ("ba", ba, 200, ba.neighbor_set(0)),
        ("ring", ring, 0, ring.neighbor_set(75)),
        ("ring-no-stop", ring, 0, frozenset()),
    ):
        directory = tmp_path_factory.mktemp(f"snapshot-{name}")
        compile_graph(graph).save(directory)
        out[(name, "memory")] = (graph, target, stop)
        out[(name, "mapped")] = (CompiledGraph.open(directory), target, stop)
    return out


def _columns(batch: PathBatch) -> tuple:
    return tuple(
        column.tolist()
        for column in (batch.offsets, batch.node_indices, batch.is_type1, batch.anchor_indices)
    )


def _lone_and_fused(engine, target, stop, sizes, seed, shared):
    """The concatenated lone calls, and the one fused call, over the same streams."""

    def rngs():
        if shared:
            generator = random.Random(seed)
            return [generator] * len(sizes)
        return [random.Random(seed + k) for k in range(len(sizes))]

    lone = [engine.sample_path_batch(target, stop, size, rng=r) for size, r in zip(sizes, rngs())]
    plan = DrawPlan(tuple(zip(sizes, rngs())))
    fused = engine.sample_path_batch(target, stop, plan.count, rng=plan)
    return PathBatch.concat(lone, engine.compiled), fused


class TestFusedEqualsLoneCalls:
    @pytest.mark.parametrize("layout", ["memory", "mapped"])
    @pytest.mark.parametrize("topology", ["ba", "ring", "ring-no-stop"])
    @pytest.mark.parametrize("name", ENGINES)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**31),
        shared=st.booleans(),
    )
    @SETTINGS
    def test_groups_equal_per_group_calls(
        self, settings_by_layout, name, topology, layout, sizes, seed, shared
    ):
        graph, target, stop = settings_by_layout[(topology, layout)]
        engine = create_engine(graph, name)
        lone, fused = _lone_and_fused(engine, target, stop, sizes, seed, shared)
        assert _columns(fused) == _columns(lone)

    @pytest.mark.parametrize("name", ENGINES)
    def test_walks_past_the_history_window_spill(self, settings_by_layout, name):
        graph, target, stop = settings_by_layout[("ring-no-stop", "memory")]
        engine = create_engine(graph, name)
        lone, fused = _lone_and_fused(engine, target, stop, [0, 7, 30, 0, 13], 5, shared=True)
        assert _columns(fused) == _columns(lone)
        assert fused.total_nodes == 50 * 150  # every walk goes all the way round

    @pytest.mark.parametrize("name", ENGINES)
    def test_only_empty_groups(self, settings_by_layout, name):
        graph, target, stop = settings_by_layout[("ba", "memory")]
        engine = create_engine(graph, name)
        for sizes in ([], [0], [0, 0, 0]):
            lone, fused = _lone_and_fused(engine, target, stop, sizes, 3, shared=True)
            assert len(fused) == 0 and _columns(fused) == _columns(lone)

    def test_empty_group_still_consumes_its_seed(self, settings_by_layout):
        # A lone call with count 0 still derives its numpy generator from
        # the caller's rng; a fused empty group must do the same.
        graph, target, stop = settings_by_layout[("ba", "memory")]
        engine = create_engine(graph, "numpy")
        lone, fused = _lone_and_fused(engine, target, stop, [40, 0, 40], 8, shared=True)
        assert _columns(fused) == _columns(lone)

    def test_plan_count_must_match(self, settings_by_layout):
        graph, target, stop = settings_by_layout[("ba", "memory")]
        plan = DrawPlan(((3, 1), (4, 2)))
        for name in ENGINES:
            with pytest.raises(EngineError):
                create_engine(graph, name).sample_path_batch(target, stop, 8, rng=plan)
        with pytest.raises(ValueError):
            create_engine(graph, "numpy").sample_path_batch(
                target, stop, 0, rng=DrawPlan(((-1, 1), (1, 2)))
            )


class TestWalkBound:
    def test_pack_walks_keeps_order_and_bound(self):
        groups = [(3, "a"), (4, "b"), (0, "c"), (9, "d"), (2, "e"), (5, "f")]
        walks = pack_walks(groups, 7)
        assert [group for walk in walks for group in walk] == groups
        assert walks == [[(3, "a"), (4, "b"), (0, "c")], [(9, "d")], [(2, "e"), (5, "f")]]
        assert pack_walks([], 7) == []

    @pytest.mark.parametrize("name", ["numpy", "numpy-alias"])
    def test_a_fused_walk_never_exceeds_the_bound(self, settings_by_layout, monkeypatch, name):
        graph, target, stop = settings_by_layout[("ba", "memory")]
        monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", 100)
        walked: list = []
        kernel = NumpyEngine._columnar_kernel

        def spy(self, compiled, start, stop_mask, groups):
            walked.append([size for size, _ in groups])
            return kernel(self, compiled, start, stop_mask, groups)

        monkeypatch.setattr(NumpyEngine, "_columnar_kernel", spy)
        engine = create_engine(graph, name)
        sizes = [30, 40, 20, 50, 150, 60, 60]
        lone, fused = _lone_and_fused(engine, target, stop, sizes, 2, shared=True)
        assert _columns(fused) == _columns(lone)
        fused_walks = walked[len(sizes):]  # the lone calls walk first, one each
        assert fused_walks == [[30, 40, 20], [50], [150], [60], [60]]
        assert all(sum(walk) <= 100 or len(walk) == 1 for walk in fused_walks)

    @pytest.mark.parametrize("name", ENGINES)
    def test_reduce_walks_sees_the_fused_call_walk_by_walk(
        self, settings_by_layout, monkeypatch, name
    ):
        graph, target, stop = settings_by_layout[("ba", "mapped")]
        monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", 100)
        engine = create_engine(graph, name)
        sizes = [30, 40, 20, 50, 150, 0, 60]
        _, fused = _lone_and_fused(engine, target, stop, sizes, 6, shared=True)
        generator = random.Random(6)
        plan = DrawPlan(tuple((size, generator) for size in sizes))
        walks = reduce_walks(
            engine, target, stop, plan.count, plan,
            lambda batch, groups: (batch, [size for size, _ in groups]),
        )
        assert [sizes for _, sizes in walks] == [[30, 40, 20], [50], [150], [0, 60]]
        batches = [batch for batch, _ in walks]
        assert _columns(PathBatch.concat(batches, engine.compiled)) == _columns(fused)


class TestOneWalkLive:
    """A request reduced walk by walk never holds more than one walk's
    columns, however many batches it asks for."""

    @pytest.mark.parametrize("name", ["numpy", "numpy-alias"])
    def test_indicator_peak_is_one_walks(self, name):
        # Every walk on the ring goes all the way round: 150 nodes a path,
        # so a 5000-path walk holds 6 MB of node columns.
        engine = create_engine(_ring(), name)
        engine.sample_path_batch(0, frozenset(), 8, rng=1)  # build the derived columns

        def peak(sizes) -> int:
            generator = random.Random(3)
            plan = DrawPlan(tuple((size, generator) for size in sizes))
            tracemalloc.start()
            try:
                flags = sample_type1_indicators(engine, 0, frozenset(), plan.count, rng=plan)
                _, high = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(flags) == plan.count
            return high

        # Six walks (no two groups fit one walk) peak like one: drawn as one
        # batch, the request would hold five finished walks during the
        # sixth, and then all six again in their concatenation.
        assert peak([5000] * 6) < 1.2 * peak([5000])


class TestSplit:
    def test_parts_view_the_batch(self, settings_by_layout):
        graph, target, stop = settings_by_layout[("ba", "memory")]
        batch = create_engine(graph, "numpy").sample_path_batch(target, stop, 50, rng=2)
        parts = batch.split([20, 0, 30])
        assert [len(part) for part in parts] == [20, 0, 30]
        assert _columns(PathBatch.concat(parts)) == _columns(batch)
        assert np.shares_memory(parts[2].node_indices, batch.node_indices)
