"""Tests for the zero-copy shared-memory chunk transport (repro.parallel.shm).

Three load-bearing properties:

* **Transparency** -- the transport never changes results: batches off the
  shm wire are byte-for-byte the pickled ones, for every engine and worker
  count, and the whole layer degrades to pickling when shared memory is
  unavailable (monkeypatched away here) or a segment cannot be created.
* **Lifecycle** -- every published segment is unlinked exactly once: at
  adoption in the common case (the mapping then lives as long as any
  column viewing it), by the orphan sweep (``ParallelEngine.close()`` /
  ``atexit``) when a worker died between publish and delivery.  Nothing
  may survive in ``/dev/shm``.
* **Fork inheritance** -- workers receive the compiled CSR snapshot by
  forking, never by pickle: task payloads and result batches must stay
  free of snapshot array buffers (poisoning ``CompiledGraph`` pickling
  must not disturb a parallel run).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.diffusion.engine import ENGINE_NAMES, create_engine
from repro.exceptions import EngineError
from repro.graph.compiled import CompiledGraph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel import ParallelEngine, fork_available, shm_available
from repro.parallel import shm as shm_transport

ENGINES = [name for name in ENGINE_NAMES if name != "auto"]

needs_shm = pytest.mark.skipif(not shm_available(), reason="shared memory unavailable")
needs_fork = pytest.mark.skipif(not fork_available(), reason="platform lacks fork")


@pytest.fixture(scope="module")
def graph():
    return apply_degree_normalized_weights(barabasi_albert_graph(300, 4, rng=17))


@pytest.fixture(scope="module")
def pair(graph):
    source = 0
    target = next(
        node
        for node in reversed(graph.node_list())
        if node != source and not graph.has_edge(source, node)
    )
    return source, target


def _segment_on_disk(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


class TestResolveTransport:
    def test_explicit_names_pass_through(self):
        assert shm_transport.resolve_transport("pickle") == "pickle"
        assert shm_transport.resolve_transport("PICKLE") == "pickle"
        assert shm_transport.resolve_transport("shm") == "shm"

    def test_auto_prefers_shm_for_columnar_engines(self):
        expected = "shm" if shm_available() else "pickle"
        assert shm_transport.resolve_transport("auto") == expected

    def test_unknown_transport_rejected(self):
        with pytest.raises(EngineError):
            shm_transport.resolve_transport("carrier-pigeon")

    def test_auto_without_shared_memory_is_pickle(self, monkeypatch):
        monkeypatch.setattr(shm_transport, "_shared_memory", None)
        assert not shm_transport.shm_available()
        assert shm_transport.resolve_transport("auto") == "pickle"

    def test_engine_exposes_resolved_transport(self, graph):
        # Every engine emits columnar batches, so "auto" means shm for all.
        for backend in ENGINES:
            engine = ParallelEngine(create_engine(graph, backend), workers=2)
            assert engine.transport == ("shm" if shm_available() else "pickle")
            pinned = ParallelEngine(create_engine(graph, backend), workers=2, transport="pickle")
            assert pinned.transport == "pickle"


@needs_shm
class TestPublishAdopt:
    def test_round_trip_is_byte_identical(self, graph, pair):
        import numpy as np

        source, target = pair
        engine = create_engine(graph, "numpy")
        batch = engine.sample_path_batch(target, graph.neighbor_set(source), 257, rng=5)
        ref = shm_transport.publish_batch(batch)
        assert ref is not None
        assert ref.num_paths == len(batch)
        adopted = shm_transport.adopt(ref)
        assert adopted.graph is None  # detached, exactly like a pickled batch
        assert np.array_equal(np.asarray(adopted.offsets), np.asarray(batch.offsets))
        assert np.array_equal(np.asarray(adopted.node_indices), np.asarray(batch.node_indices))
        assert np.array_equal(np.asarray(adopted.is_type1), np.asarray(batch.is_type1))
        assert np.array_equal(
            np.asarray(adopted.anchor_indices), np.asarray(batch.anchor_indices)
        )
        assert adopted.attach(engine.compiled).to_paths() == batch.to_paths()

    def test_segment_unlinked_at_adopt(self, graph, pair):
        source, target = pair
        engine = create_engine(graph, "numpy")
        batch = engine.sample_path_batch(target, graph.neighbor_set(source), 64, rng=7)
        ref = shm_transport.publish_batch(batch)
        assert _segment_on_disk(ref.name)
        adopted = shm_transport.adopt(ref)
        assert not _segment_on_disk(ref.name)
        assert adopted.attach(engine.compiled).to_paths() == batch.to_paths()

    def test_split_view_outlives_the_adopted_batch(self):
        """A part's column keeps the mapping alive after its batch is gone.

        Runs in a subprocess: a column over unmapped pages segfaults, and
        that must fail this test rather than kill the test run.
        """
        script = textwrap.dedent(
            """
            import gc
            import numpy as np
            from repro.diffusion.path_batch import PathBatch
            from repro.parallel import shm

            offsets = np.arange(0, 3001, 3, dtype=np.int64)
            nodes = np.arange(3000, dtype=np.int64)
            flags = np.zeros(1000, dtype=bool)
            batch = shm.adopt(shm.publish_batch(PathBatch(offsets, nodes, flags, flags * 0)))
            column = batch.split([500, 500])[1].node_indices
            del batch
            gc.collect()
            assert int(column.sum()) == int(nodes[1500:].sum())
            """
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
        assert done.returncode == 0

    def test_empty_batch_round_trips(self, graph, pair):
        source, target = pair
        engine = create_engine(graph, "numpy")
        empty = engine.sample_path_batch(target, graph.neighbor_set(source), 0, rng=1)
        ref = shm_transport.publish_batch(empty)
        assert ref is not None and ref.num_paths == 0
        adopted = shm_transport.adopt(ref)
        assert len(adopted) == 0
        assert not _segment_on_disk(ref.name)

    def test_segment_creation_failure_falls_back_to_pickle(self, graph, pair, monkeypatch):
        # /dev/shm exhaustion (or any create failure) degrades per-chunk.
        source, target = pair
        engine = create_engine(graph, "numpy")
        batch = engine.sample_path_batch(target, graph.neighbor_set(source), 16, rng=3)

        class _ExhaustedShm:
            @staticmethod
            def SharedMemory(*args, **kwargs):
                raise OSError("no space left on device")

        monkeypatch.setattr(shm_transport, "_shared_memory", _ExhaustedShm)
        assert shm_transport.publish_batch(batch) is None

    def test_publish_without_shared_memory_returns_none(self, graph, pair, monkeypatch):
        source, target = pair
        engine = create_engine(graph, "numpy")
        batch = engine.sample_path_batch(target, graph.neighbor_set(source), 16, rng=3)
        monkeypatch.setattr(shm_transport, "_shared_memory", None)
        assert shm_transport.publish_batch(batch) is None


@needs_shm
class TestOrphanSweep:
    def test_sweep_unlinks_stranded_segments(self):
        """A segment published by a worker that died before delivery has no
        adopter and no finalizer; the sweep is what reclaims it."""
        segment = shm_transport._shared_memory.SharedMemory(
            name=shm_transport.segment_name(), create=True, size=64
        )
        shm_transport._unregister_from_tracker(segment)
        segment.close()
        assert _segment_on_disk(segment.name)
        swept = shm_transport.sweep_orphans()
        assert segment.name in swept
        assert not _segment_on_disk(segment.name)

    def test_adopted_columns_survive_a_sweep(self, graph, pair):
        source, target = pair
        engine = create_engine(graph, "numpy")
        batch = engine.sample_path_batch(target, graph.neighbor_set(source), 32, rng=9)
        adopted = shm_transport.adopt(shm_transport.publish_batch(batch))
        shm_transport.sweep_orphans()
        assert adopted.attach(engine.compiled).to_paths() == batch.to_paths()

    def test_sweep_ignores_foreign_prefixes(self):
        # Another live process's segments must never be touched: the sweep
        # is scoped to this process's pid-embedding prefix.
        foreign = shm_transport._shared_memory.SharedMemory(
            name=f"repro-pb-{os.getpid() + 1}-deadbeef", create=True, size=64
        )
        try:
            assert foreign.name not in shm_transport.sweep_orphans()
            assert _segment_on_disk(foreign.name)
        finally:
            foreign.close()
            foreign.unlink()

    @needs_fork
    def test_engine_close_sweeps_after_simulated_worker_crash(self, graph, pair):
        source, target = pair
        engine = ParallelEngine(
            create_engine(graph, "numpy"), workers=2, chunk_size=32, transport="shm"
        )
        try:
            engine.sample_path_batch(target, graph.neighbor_set(source), 256, rng=5)
            # Simulate the leftover of a worker that died between publish
            # and delivery: on disk, never adopted.
            stranded = shm_transport._shared_memory.SharedMemory(
                name=shm_transport.segment_name(), create=True, size=64
            )
            shm_transport._unregister_from_tracker(stranded)
            stranded.close()
            name = stranded.name
        finally:
            engine.close()
        assert not _segment_on_disk(name)


@needs_fork
class TestTransportTransparency:
    @pytest.mark.parametrize("backend", ENGINES)
    def test_batches_identical_across_transports(self, graph, pair, backend):
        source, target = pair
        stop = graph.neighbor_set(source)
        base = create_engine(graph, backend)
        serial = ParallelEngine(base, workers=1, chunk_size=64).sample_path_batch(
            target, stop, 500, rng=23
        )
        for transport in ("pickle", "shm"):
            fanned = ParallelEngine(base, workers=4, chunk_size=64, transport=transport)
            try:
                batch = fanned.sample_path_batch(target, stop, 500, rng=23)
            finally:
                fanned.close()
            assert batch.to_paths() == serial.to_paths()
        assert not [
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(shm_transport.default_prefix())
        ]

    def test_seeded_batches_identical_across_transports(self, graph, pair):
        source, target = pair
        stop = graph.neighbor_set(source)
        base = create_engine(graph, "numpy")
        sized_seeds = [(64, 11), (64, 12), (32, 13)]
        expected = [
            chunk.to_paths() for chunk in base_seeded(base, target, stop, sized_seeds)
        ]
        for transport in ("pickle", "shm"):
            fanned = ParallelEngine(base, workers=4, chunk_size=64, transport=transport)
            try:
                chunks = fanned.sample_seeded_batches(target, stop, sized_seeds)
            finally:
                fanned.close()
            assert [chunk.to_paths() for chunk in chunks] == expected

    def test_worker_side_fallback_when_segments_unavailable(self, graph, pair, monkeypatch):
        """Explicit transport="shm" with no shared memory degrades per-chunk
        to pickling -- same results, no error.  The monkeypatch is applied
        before the pool forks, so the workers inherit the broken module."""
        source, target = pair
        stop = graph.neighbor_set(source)
        base = create_engine(graph, "numpy")
        expected = ParallelEngine(base, workers=1, chunk_size=64).sample_path_batch(
            target, stop, 300, rng=11
        )
        monkeypatch.setattr(shm_transport, "_shared_memory", None)
        fanned = ParallelEngine(base, workers=2, chunk_size=64, transport="shm")
        try:
            batch = fanned.sample_path_batch(target, stop, 300, rng=11)
        finally:
            fanned.close()
        assert batch.to_paths() == expected.to_paths()


def base_seeded(engine, target, stop, sized_seeds):
    import random

    return [
        engine.sample_path_batch(target, stop, size, rng=random.Random(seed))
        for size, seed in sized_seeds
    ]


@needs_fork
class TestForkInheritsSnapshot:
    @pytest.mark.parametrize("transport", ["pickle", "auto"])
    def test_snapshot_never_pickled(self, graph, pair, monkeypatch, transport):
        """Poison CompiledGraph pickling: the fork path must not notice.

        Workers inherit the snapshot through the fork; task payloads are
        ``(target, stop_set, count, seed)`` tuples and results are packed
        columns or descriptors.  If any of them dragged the snapshot's
        array buffers along, the poisoned reduce would blow up the run.
        """

        def _refuse(self, *args, **kwargs):
            raise AssertionError("compiled snapshot must never be pickled")

        monkeypatch.setattr(CompiledGraph, "__reduce_ex__", _refuse, raising=False)
        source, target = pair
        stop = graph.neighbor_set(source)
        base = create_engine(graph, "numpy")
        fanned = ParallelEngine(base, workers=2, chunk_size=64, transport=transport)
        try:
            batch = fanned.sample_path_batch(target, stop, 256, rng=29)
            paths = fanned.sample_paths(target, stop, 256, rng=31)
        finally:
            fanned.close()
        assert len(batch) == 256
        assert len(paths) == 256
