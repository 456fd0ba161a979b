"""Tests for the columnar PathBatch representation (repro/diffusion/path_batch).

Three layers of guarantees:

* **Round-trip fidelity** (property-based, derandomized): batch views
  materialize exactly the :class:`TargetPath` objects they were built
  from, and every columnar reduction (type indicators, Lemma-2 coverage,
  counted distinct type-1 sets) agrees with the object-path computation.
* **Kernel equivalence**: the vectorized engine's columnar kernel is
  draw-for-draw identical to the retained per-walker reference kernel
  (``sample_paths_reference``) -- the bit-identity discipline that keeps
  golden records and pool streams stable across the columnar rewrite.
* **Wire/disk formats**: pickling ships detached columns that re-attach
  losslessly; ``.npz`` blobs round-trip.
"""

from __future__ import annotations

import pickle
import random
import tracemalloc
from collections import Counter

import numpy as np

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.diffusion.engine as engine_module
from repro.diffusion.engine import ENGINE_NAMES, PythonEngine, create_engine
from repro.diffusion.path_batch import PathBatch, PathStore, TargetPath
from repro.graph.compiled import compile_graph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.social_graph import SocialGraph
from repro.graph.weights import apply_degree_normalized_weights
from repro.setcover.hypergraph import SetSystem

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

ENGINES = [name for name in ENGINE_NAMES if name != "auto"]
NUMPY_ENGINES = ["numpy", "numpy-alias"]


@pytest.fixture(scope="module")
def graph():
    return apply_degree_normalized_weights(barabasi_albert_graph(250, 4, rng=11))


@pytest.fixture(scope="module")
def setting(graph):
    return graph, 200, graph.neighbor_set(0)


class TestRoundTrip:
    """Batch views must reproduce the engine's object view of the same draws exactly."""

    @given(seed=st.integers(min_value=0, max_value=2**31), count=st.integers(0, 300))
    @SETTINGS
    def test_batch_round_trips(self, graph, seed, count):
        engine = PythonEngine(graph)
        stop = graph.neighbor_set(0)
        paths = engine.sample_paths(200, stop, count, rng=seed)
        batch = engine.sample_path_batch(200, stop, count, rng=seed)
        assert len(batch) == count
        assert batch.to_paths() == paths
        assert list(batch) == paths
        assert batch.type1_bytes() == bytes(1 if p.is_type1 else 0 for p in paths)
        assert batch.type1_count() == sum(p.is_type1 for p in paths)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        lo=st.integers(0, 150),
        width=st.integers(0, 150),
    )
    @SETTINGS
    def test_slices_and_single_paths(self, graph, seed, lo, width):
        engine = PythonEngine(graph)
        stop = graph.neighbor_set(0)
        paths = engine.sample_paths(200, stop, 300, rng=seed)
        batch = engine.sample_path_batch(200, stop, 300, rng=seed)
        hi = lo + width
        assert batch.paths_slice(lo, hi) == paths[lo:hi]
        assert batch.type1_bytes(lo, hi) == bytes(1 if p.is_type1 else 0 for p in paths[lo:hi])
        counted = Counter(p.nodes for p in paths[lo:hi] if p.is_type1)
        assert batch.distinct_type1(lo, hi) == (list(counted), list(counted.values()))
        if width:
            assert batch.path(lo) == paths[lo]

    @given(seed=st.integers(min_value=0, max_value=2**31), invite_bits=st.integers(0, 2**20))
    @SETTINGS
    def test_covered_bytes_matches_covered_by(self, graph, seed, invite_bits):
        engine = PythonEngine(graph)
        stop = graph.neighbor_set(0)
        nodes = graph.node_list()
        # A deterministic pseudo-random invitation derived from the bits.
        invited = frozenset(
            node for i, node in enumerate(nodes) if (invite_bits >> (i % 20)) & 1 or i % 7 == 0
        )
        paths = engine.sample_paths(200, stop, 200, rng=seed)
        batch = engine.sample_path_batch(200, stop, 200, rng=seed)
        assert batch.covered_bytes(invited) == bytes(
            1 if p.covered_by(invited) else 0 for p in paths
        )

    def test_distinct_type1_rows(self, setting):
        graph, target, stop = setting
        engine = PythonEngine(graph)
        paths = engine.sample_paths(target, stop, 400, rng=5)
        batch = engine.sample_path_batch(target, stop, 400, rng=5)
        rows, counts = batch.distinct_type1_rows()
        firsts: dict = {}
        for path in paths:
            if path.is_type1:
                firsts.setdefault(path.nodes, path)
        assert rows.to_paths() == list(firsts.values())
        assert bytes(rows.type1_bytes()) == b"\x01" * len(firsts)
        counted = Counter(p.nodes for p in paths if p.is_type1)
        assert counts.tolist() == [counted[nodes] for nodes in firsts]

    def test_distinct_type1_skips_type0_rows_with_the_same_nodes(self, graph):
        # Rows 0, 2 and 3 trace {0, 1} (row 3 in another walk order); row 2
        # is type-0 and must not count.
        compiled = compile_graph(graph)
        batch = PathBatch(
            np.array([0, 2, 3, 5, 7, 8], dtype=np.int64),
            np.array([0, 1, 2, 1, 0, 1, 0, 3], dtype=np.int64),
            np.array([True, True, False, True, True]),
            np.array([5, 6, -1, 5, 7], dtype=np.int64),
            compiled,
        )
        ids = compiled.nodes
        members, weights = batch.distinct_type1()
        pair = frozenset({ids[0], ids[1]})
        assert members == [pair, frozenset({ids[2]}), frozenset({ids[3]})]
        assert weights == [2, 1, 1]
        assert batch.distinct_type1(2, 5) == ([pair, frozenset({ids[3]})], [1, 1])
        assert batch.distinct_type1(2, 3) == ([], [])
        assert PathBatch.empty(compiled).distinct_type1() == ([], [])
        with pytest.raises(IndexError):
            batch.distinct_type1(0, 6)

    def test_empty_batch(self, graph):
        batch = PathBatch.empty(compile_graph(graph))
        assert len(batch) == 0
        assert batch.to_paths() == []
        assert batch.type1_bytes() == b""
        assert batch.covered_bytes(frozenset()) == b""

    def test_out_of_range_slice_raises(self, setting):
        graph, target, stop = setting
        engine = PythonEngine(graph)
        batch = engine.sample_path_batch(target, stop, 10, rng=1)
        with pytest.raises(IndexError):
            batch.paths_slice(0, 11)
        with pytest.raises(IndexError):
            batch.paths_slice(-1, 5)


class TestGenericEngineBatches:
    @pytest.mark.parametrize("name", ENGINES)
    def test_sample_path_batch_equals_sample_paths(self, setting, name):
        graph, target, stop = setting
        engine = create_engine(graph, name)
        batch = engine.sample_path_batch(target, stop, 500, rng=17)
        assert batch.to_paths() == engine.sample_paths(target, stop, 500, rng=17)
        # Every engine writes numpy columns: the target leads every trace,
        # and anchors are set exactly on the type-1 paths.
        columns = (batch.offsets, batch.node_indices, batch.is_type1, batch.anchor_indices)
        assert [column.dtype.name for column in columns] == ["int64", "int64", "bool", "int64"]
        start = engine.compiled.index_of(target)
        assert (batch.node_indices[batch.offsets[:-1]] == start).all()
        assert ((batch.anchor_indices >= 0) == batch.is_type1).all()


class TestBatchKernelInvariants:
    """Properties every engine's columnar kernel must hold trace by trace."""

    @pytest.mark.parametrize("name", ENGINES)
    def test_anchor_is_a_parent_of_the_last_traced_node(self, setting, name):
        graph, target, stop = setting
        engine = create_engine(graph, name)
        batch = engine.sample_path_batch(target, stop, 400, rng=23)
        compiled = engine.compiled
        stop_indices = set(compiled.indices_of(stop))
        assert batch.is_type1.any()
        for i in range(len(batch)):
            lo, hi = int(batch.offsets[i]), int(batch.offsets[i + 1])
            trace = batch.node_indices[lo:hi].tolist()
            assert len(set(trace)) == len(trace)
            assert not stop_indices & set(trace)
            if batch.is_type1[i]:
                last = trace[-1]
                anchor = int(batch.anchor_indices[i])
                assert anchor in stop_indices
                parents = compiled.parents[compiled.indptr[last] : compiled.indptr[last + 1]]
                assert anchor in list(parents)

    @pytest.mark.parametrize("name", ENGINES)
    def test_target_in_stop_set_changes_nothing(self, setting, name):
        # A walk back to the target closes a cycle before the stop check
        # runs, so adding the target to the stop set leaves every draw as is.
        graph, target, stop = setting
        engine = create_engine(graph, name)
        plain = engine.sample_path_batch(target, stop, 300, rng=5)
        with_target = engine.sample_path_batch(target, frozenset(stop) | {target}, 300, rng=5)
        for column in ("offsets", "node_indices", "is_type1", "anchor_indices"):
            assert (getattr(plain, column) == getattr(with_target, column)).all()

    def test_python_kernel_draws_once_per_traced_node(self, setting):
        # Each step draws before it selects, and every trace ends on a
        # draw that adds no node, so a trace of k nodes costs k draws.
        graph, target, stop = setting
        engine = PythonEngine(graph)
        used, replay = random.Random(8), random.Random(8)
        batch = engine.sample_path_batch(target, stop, 250, rng=used)
        for _ in range(len(batch.node_indices)):
            replay.random()
        assert used.random() == replay.random()

    def test_python_kernel_on_edgeless_graph(self):
        graph = SocialGraph.from_edges([])
        graph.add_node("x")
        graph.add_node("y")
        batch = PythonEngine(graph).sample_path_batch("x", {"y"}, 4, rng=1)
        assert batch.offsets.tolist() == [0, 1, 2, 3, 4]
        assert not batch.is_type1.any()
        assert batch.anchor_indices.tolist() == [-1] * 4
        assert batch.to_paths() == [TargetPath(nodes=frozenset({"x"}), is_type1=False)] * 4


class TestColumnarKernelEquivalence:
    """The array-native kernel vs the retained per-walker reference kernel."""

    @given(seed=st.integers(min_value=0, max_value=2**31), count=st.integers(0, 400))
    @SETTINGS
    def test_draw_for_draw_identical(self, graph, seed, count):
        engine = create_engine(graph, "numpy")
        stop = graph.neighbor_set(0)
        batch = engine.sample_path_batch(200, stop, count, rng=seed)
        reference = engine.sample_paths_reference(200, stop, count, rng=seed)
        assert batch.to_paths() == reference

    def test_target_inside_stop_set(self, graph):
        # A walk returning to the target must count as a cycle (type-0)
        # even when the target sits in the stop set: revisit checks take
        # precedence over stop hits, exactly as in the per-walker kernels.
        engine = create_engine(graph, "numpy")
        stop = frozenset(graph.neighbor_set(0)) | {200}
        for seed in range(5):
            assert (
                engine.sample_path_batch(200, stop, 300, rng=seed).to_paths()
                == engine.sample_paths_reference(200, stop, 300, rng=seed)
            )

    def test_empty_stop_set_and_isolated_target(self):
        graph = apply_degree_normalized_weights(barabasi_albert_graph(60, 2, rng=3))
        graph.add_node("loner")
        engine = create_engine(graph, "numpy")
        assert (
            engine.sample_path_batch(40, frozenset(), 200, rng=2).to_paths()
            == engine.sample_paths_reference(40, frozenset(), 200, rng=2)
        )
        lone = engine.sample_path_batch("loner", graph.neighbor_set(0), 50, rng=2)
        assert lone.to_paths() == engine.sample_paths_reference(
            "loner", graph.neighbor_set(0), 50, rng=2
        )

    def test_edgeless_graph(self):
        graph = SocialGraph.from_edges([])
        graph.add_node("x")
        graph.add_node("y")
        engine = create_engine(graph, "numpy")
        batch = engine.sample_path_batch("x", {"y"}, 4, rng=1)
        assert batch.to_paths() == engine.sample_paths_reference("x", {"y"}, 4, rng=1)
        assert batch.to_paths() == [TargetPath(nodes=frozenset({"x"}), is_type1=False)] * 4

    @pytest.mark.parametrize("window", [1, 2])
    @pytest.mark.parametrize("name", NUMPY_ENGINES)
    def test_forced_tiny_window_is_bit_identical(self, setting, monkeypatch, name, window):
        # A window of one or two steps spills almost every round, so the
        # cycle check runs through the spilled hash set nearly throughout.
        graph, target, stop = setting
        engine = create_engine(graph, name)
        monkeypatch.setattr(engine_module, "HISTORY_WINDOW", window)
        want = engine.sample_paths_reference(target, stop, 600, rng=9)
        assert engine.sample_path_batch(target, stop, 600, rng=9).to_paths() == want
        assert engine.sample_paths(target, stop, 600, rng=9) == want

    @pytest.mark.parametrize("with_stop", [False, True])
    @pytest.mark.parametrize("name", NUMPY_ENGINES)
    def test_walks_longer_than_the_window(self, name, with_stop):
        # A 300-node ring weighted one way only: every walk from node 0
        # traces 0, 299, ..., 152 and then reaches node 151 in N(150), or
        # goes all the way round and back to the target, where only the
        # spilled history can see the cycle.
        ring = SocialGraph()
        for node in range(300):
            ring.add_edge(node, (node + 1) % 300, 1.0, 0.0)
        stop = ring.neighbor_set(150) if with_stop else frozenset()
        engine = create_engine(ring, name)
        batch = engine.sample_path_batch(0, stop, 50, rng=4)
        assert batch.to_paths() == engine.sample_paths_reference(0, stop, 50, rng=4)
        assert (batch.is_type1 == with_stop).all()
        assert batch.total_nodes == 50 * (149 if with_stop else 300)

    @pytest.mark.parametrize("name", NUMPY_ENGINES)
    def test_memory_is_bounded_by_the_request(self, name):
        # The cycle check's state scales with the batch, not the graph: a
        # 4096-path batch on a 50k-node ring stays far below the 195 MiB a
        # (paths x nodes) visited matrix would take.
        ring = SocialGraph()
        for node in range(50_000):
            ring.add_edge(node, (node + 1) % 50_000, 0.5, 0.5)
        engine = create_engine(ring, name)
        engine.sample_path_batch(0, frozenset(), 8, rng=1)  # build the derived columns
        tracemalloc.start()
        try:
            engine.sample_path_batch(0, {25_000}, 4096, rng=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_epoch_recycling_stays_consistent(self, setting):
        # 300 consecutive batches on one engine: no cycle-check state may
        # leak from one batch into the next, so every batch must keep
        # matching the reference kernel.
        graph, target, stop = setting
        engine = create_engine(graph, "numpy")
        for seed in range(300):
            assert (
                engine.sample_path_batch(target, stop, 5, rng=seed).to_paths()
                == engine.sample_paths_reference(target, stop, 5, rng=seed)
            )

    def test_rng_stream_consumed_identically(self, setting):
        # Both kernels must take exactly one 64-bit draw from the caller's
        # generator, so downstream consumers of the same Random see the
        # same continuation.
        graph, target, stop = setting
        engine = create_engine(graph, "numpy")
        a, b = random.Random(42), random.Random(42)
        engine.sample_path_batch(target, stop, 100, rng=a)
        engine.sample_paths_reference(target, stop, 100, rng=b)
        assert a.getrandbits(64) == b.getrandbits(64)


class TestWireFormats:
    def test_pickle_detaches_and_reattaches(self, setting):
        graph, target, stop = setting
        engine = create_engine(graph, "numpy")
        batch = engine.sample_path_batch(target, stop, 200, rng=3)
        shipped = pickle.loads(pickle.dumps(batch))
        assert shipped.graph is None
        with pytest.raises(RuntimeError):
            shipped.to_paths()
        assert shipped.attach(engine.compiled).to_paths() == batch.to_paths()

    def test_npz_round_trip(self, setting, tmp_path):
        graph, target, stop = setting
        engine = create_engine(graph, "numpy")
        batch = engine.sample_path_batch(target, stop, 200, rng=3)
        blob = tmp_path / "batch.npz"
        batch.save_npz(blob)
        loaded = PathBatch.load_npz(blob, graph=engine.compiled)
        assert loaded.to_paths() == batch.to_paths()
        assert loaded.type1_bytes() == batch.type1_bytes()

    def test_concat(self, setting):
        graph, target, stop = setting
        engine = create_engine(graph, "numpy")
        parts = [
            engine.sample_path_batch(target, stop, n, rng=seed)
            for seed, n in ((1, 50), (2, 0), (3, 70))
        ]
        merged = PathBatch.concat(parts, engine.compiled)
        assert merged.to_paths() == [p for part in parts for p in part.to_paths()]


class TestPathStore:
    @pytest.mark.parametrize("name", ENGINES)
    def test_cross_chunk_reads(self, setting, name):
        graph, target, stop = setting
        engine = create_engine(graph, name)
        store = PathStore()
        everything: list[TargetPath] = []
        for seed, count in ((1, 64), (2, 64), (3, 32)):
            chunk = engine.sample_path_batch(target, stop, count, rng=seed)
            store.append(chunk)
            everything.extend(chunk.to_paths())
        assert len(store) == 160
        invited = frozenset(graph.node_list()[:80])
        for lo, hi in ((0, 160), (10, 150), (64, 128), (63, 65), (40, 40)):
            assert store.slice(lo, hi) == everything[lo:hi]
            assert store.type1_bytes(lo, hi) == bytes(
                1 if p.is_type1 else 0 for p in everything[lo:hi]
            )
            assert store.covered_bytes(lo, hi, invited) == bytes(
                1 if p.covered_by(invited) else 0 for p in everything[lo:hi]
            )
            members, weights = store.distinct_type1(lo, hi)
            counted = Counter(p.nodes for p in everything[lo:hi] if p.is_type1)
            deduped = SetSystem(members, weights).deduplicate()
            assert deduped.sets() == tuple(counted)
            assert deduped.weights() == tuple(counted.values())
        with pytest.raises(IndexError):
            store.slice(0, 161)
