"""Tests for the deterministic multi-process sampling fan-out.

The load-bearing property: for a fixed seed, every result produced through
a :class:`ParallelEngine` is *identical for every worker count* -- same
paths, same pmax estimate (value and consumed sample count), same selected
invitation set.  The chunk layout and the per-chunk seed derivation depend
only on the request, never on the degree of parallelism or on scheduling.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.problem import ActiveFriendingProblem
from repro.core.raf import RAFConfig, estimate_pmax, run_raf, run_sampling_framework
from repro.diffusion.engine import ENGINE_NAMES, DrawPlan, create_engine
from repro.diffusion.path_batch import PathBatch
from repro.diffusion.friending_process import estimate_acceptance_probability
from repro.exceptions import EngineError
from repro.experiments.pair_selection import screen_pmax
from repro.faults import FaultPlan
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel import (
    ParallelEngine,
    fork_available,
    maybe_parallel,
    resolve_worker_count,
    sample_type1_indicators,
)

ENGINES = [name for name in ENGINE_NAMES if name != "auto"]


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


class TestResolveWorkerCount:
    def test_none_passes_through(self):
        assert resolve_worker_count(None) is None

    def test_auto_resolves_to_at_least_one(self):
        assert resolve_worker_count("auto") >= 1
        assert resolve_worker_count("AUTO") >= 1

    def test_positive_integers_accepted(self):
        assert resolve_worker_count(1) == 1
        assert resolve_worker_count(8) == 8

    def test_invalid_values_rejected(self):
        with pytest.raises(EngineError):
            resolve_worker_count("three")
        with pytest.raises(ValueError):
            resolve_worker_count(0)
        with pytest.raises(ValueError):
            resolve_worker_count(-2)
        with pytest.raises(TypeError):
            resolve_worker_count(2.5)


class TestMaybeParallel:
    def test_none_returns_engine_unchanged(self, graph):
        base = create_engine(graph, "python")
        assert maybe_parallel(base, None) is base

    def test_count_wraps(self, graph):
        wrapped = maybe_parallel(create_engine(graph, "python"), 2)
        assert isinstance(wrapped, ParallelEngine)
        assert wrapped.workers == 2

    def test_already_parallel_passes_through(self, graph):
        wrapped = maybe_parallel(create_engine(graph, "python"), 2)
        assert maybe_parallel(wrapped, 4) is wrapped

    def test_double_wrap_rejected(self, graph):
        wrapped = maybe_parallel(create_engine(graph, "python"), 2)
        with pytest.raises(EngineError):
            ParallelEngine(wrapped, workers=2)


class TestParallelEngineProtocol:
    def test_satisfies_engine_interface(self, graph, pair):
        engine = ParallelEngine(create_engine(graph, "python"), workers=2)
        source, target = pair
        assert engine.compiled is create_engine(graph, "python").compiled
        path = engine.sample_path(target, graph.neighbor_set(source), rng=5)
        assert target in path.nodes

    def test_zero_count_returns_empty(self, graph, pair):
        engine = ParallelEngine(create_engine(graph, "python"), workers=2)
        source, target = pair
        assert engine.sample_paths(target, graph.neighbor_set(source), 0, rng=5) == []

    def test_count_is_respected(self, graph, pair):
        engine = ParallelEngine(create_engine(graph, "python"), workers=3, chunk_size=16)
        source, target = pair
        assert len(engine.sample_paths(target, graph.neighbor_set(source), 100, rng=5)) == 100

    def test_close_is_idempotent_and_engine_survives(self, graph, pair):
        source, target = pair
        with ParallelEngine(create_engine(graph, "python"), workers=2, chunk_size=8) as engine:
            first = engine.sample_paths(target, graph.neighbor_set(source), 32, rng=3)
        engine.close()
        again = engine.sample_paths(target, graph.neighbor_set(source), 32, rng=3)
        assert first == again


@pytest.mark.parametrize("backend", ENGINES)
class TestDeterminismAcrossWorkerCounts:
    """Same seed => identical outputs for workers=1 and workers=4."""

    def test_sample_paths_identical(self, graph, pair, backend):
        source, target = pair
        stop = graph.neighbor_set(source)
        base = create_engine(graph, backend)
        serial = ParallelEngine(base, workers=1, chunk_size=64)
        fanned = ParallelEngine(base, workers=4, chunk_size=64)
        assert serial.sample_paths(target, stop, 500, rng=23) == fanned.sample_paths(
            target, stop, 500, rng=23
        )

    def test_sequential_calls_consume_identical_streams(self, graph, pair, backend):
        source, target = pair
        stop = graph.neighbor_set(source)
        base = create_engine(graph, backend)
        serial, fanned = (ParallelEngine(base, workers=n, chunk_size=32) for n in (1, 4))
        rng_a, rng_b = random.Random(9), random.Random(9)
        a = [serial.sample_paths(target, stop, 150, rng=rng_a) for _ in range(3)]
        b = [fanned.sample_paths(target, stop, 150, rng=rng_b) for _ in range(3)]
        assert a == b

    def test_pmax_estimate_identical(self, graph, pair, backend):
        source, target = pair
        estimates = [
            estimate_pmax(
                graph,
                source,
                target,
                epsilon=0.4,
                confidence_n=100.0,
                max_samples=20_000,
                rng=31,
                engine=backend,
                workers=workers,
            )
            for workers in (1, 4)
        ]
        assert estimates[0] == estimates[1]

    def test_invitation_set_identical(self, graph, pair, backend):
        source, target = pair
        problem = ActiveFriendingProblem(graph, source, target, alpha=0.3)
        outputs = [
            run_sampling_framework(
                problem, beta=0.4, num_realizations=1200, rng=13, engine=backend, workers=workers
            )
            for workers in (1, 4)
        ]
        assert outputs[0] == outputs[1]

    def test_run_raf_identical(self, graph, pair, backend):
        source, target = pair
        problem = ActiveFriendingProblem(graph, source, target, alpha=0.3)
        results = [
            run_raf(
                problem,
                RAFConfig(
                    epsilon=0.05,
                    confidence_n=100.0,
                    fixed_realizations=800,
                    sample_policy="fixed",
                    engine=backend,
                    workers=workers,
                ),
                rng=29,
            )
            for workers in (1, 4)
        ]
        assert results[0].invitation == results[1].invitation
        assert results[0].pmax_estimate == results[1].pmax_estimate
        assert results[0].pmax_samples == results[1].pmax_samples

    def test_screen_pmax_identical(self, graph, pair, backend):
        source, target = pair
        values = [
            screen_pmax(graph, source, target, num_samples=600, rng=7, engine=backend, workers=n)
            for n in (1, 4)
        ]
        assert values[0] == values[1]

    def test_acceptance_estimate_identical(self, graph, pair, backend):
        source, target = pair
        invitation = set(graph.neighbor_set(target)) | {target}
        estimates = [
            estimate_acceptance_probability(
                graph,
                source,
                target,
                invitation,
                num_samples=900,
                rng=3,
                engine=backend,
                workers=workers,
            )
            for workers in (1, 4)
        ]
        assert estimates[0] == estimates[1]


class TestFallbacks:
    def test_serial_fallback_matches_pool(self, graph, pair, monkeypatch):
        """With fork reported unavailable the chunked results are unchanged."""
        source, target = pair
        stop = graph.neighbor_set(source)
        base = create_engine(graph, "python")
        expected = ParallelEngine(base, workers=4, chunk_size=32).sample_paths(
            target, stop, 300, rng=11
        )
        monkeypatch.setattr("repro.parallel.engine.fork_available", lambda: False)
        fallback = ParallelEngine(base, workers=4, chunk_size=32)
        assert fallback.sample_paths(target, stop, 300, rng=11) == expected
        assert fallback._pool is None  # nothing was forked

    def test_fork_available_reports_platform(self):
        # On the Linux CI/dev platforms this is simply true; the call must
        # never raise anywhere.
        assert isinstance(fork_available(), bool)


@pytest.mark.skipif(not fork_available(), reason="platform lacks the fork start method")
class TestStart:
    def test_start_forks_the_pool_that_dispatches_reuse(self, graph, pair):
        source, target = pair
        with ParallelEngine(create_engine(graph, "python"), workers=2, chunk_size=16) as engine:
            engine.start()
            forked = engine._worker_pids()
            engine.start()  # already up: forks nothing new
            assert len(forked) == 2 and engine._worker_pids() == forked
            engine.sample_paths(target, graph.neighbor_set(source), 64, rng=3)
            assert engine._worker_pids() == forked
        assert engine._worker_pids() == frozenset()

    def test_start_forks_nothing_for_one_worker(self, graph):
        with ParallelEngine(create_engine(graph, "python"), workers=1) as engine:
            engine.start()
            assert engine._pool is None

    def test_start_after_close_forks_a_fresh_pool(self, graph):
        with ParallelEngine(create_engine(graph, "python"), workers=2) as engine:
            engine.start()
            first = engine._worker_pids()
            engine.close()
            engine.start()
            second = engine._worker_pids()
            assert len(second) == 2 and not first & second

    def test_start_forks_nothing_without_fork(self, graph, monkeypatch):
        monkeypatch.setattr("repro.parallel.engine.fork_available", lambda: False)
        with ParallelEngine(create_engine(graph, "python"), workers=2) as engine:
            engine.start()
            assert engine._pool is None

    def test_start_forks_nothing_once_degraded(self, graph, pair):
        source, target = pair
        with ParallelEngine(
            create_engine(graph, "python"), workers=2, chunk_size=16,
            max_chunk_retries=0, on_worker_failure="serial",
            fault_plan=FaultPlan(kill_rate=1.0),
        ) as engine:
            engine.sample_paths(target, graph.neighbor_set(source), 128, rng=3)
            assert engine.degraded
            engine.close()
            engine.start()
            assert engine._pool is None

    def test_close_waits_for_a_dispatch_on_another_thread(self, graph, pair):
        """close() must not terminate the pool under another thread's
        dispatch; that dispatch finishes on its pool, with no crash."""
        source, target = pair
        stop = graph.neighbor_set(source)
        expected = ParallelEngine(
            create_engine(graph, "python"), workers=1, chunk_size=16
        ).sample_paths(target, stop, 128, rng=3)
        engine = ParallelEngine(
            create_engine(graph, "python"), workers=2, chunk_size=16,
            fault_plan=FaultPlan(slow_rate=1.0, slow_seconds=0.1),
        )
        engine.start()
        drawn: dict = {}
        thread = threading.Thread(
            target=lambda: drawn.setdefault("paths", engine.sample_paths(target, stop, 128, rng=3))
        )
        thread.start()
        while engine._lock.acquire(blocking=False):  # until the dispatch holds it
            engine._lock.release()
            assert thread.is_alive(), "the dispatch finished before close() was called"
        engine.close()
        thread.join(timeout=60.0)
        assert drawn["paths"] == expected
        assert engine.worker_crashes == 0


class TestStaleSnapshotPoolRefork:
    def test_pool_forked_on_dead_snapshot_is_reforked(self, pair):
        """A worker pool forked before a graph mutation must not keep sampling
        the dead CSR: the next dispatch re-snapshots the base engine and
        re-forks the pool on the current snapshot."""
        if not fork_available():
            pytest.skip("platform lacks the fork start method")
        local = apply_degree_normalized_weights(barabasi_albert_graph(120, 3, rng=23))
        engine = ParallelEngine(create_engine(local, "python"), workers=2, chunk_size=32)
        try:
            stop = local.neighbor_set(0)
            engine.sample_paths(60, stop, 128, rng=1)  # forks the pool
            local.add_edge(0, 60, weight_uv=0.2, weight_vu=0.2)
            stop = local.neighbor_set(0)
            parallel = engine.sample_paths(61, stop, 128, rng=2)
            serial = ParallelEngine(
                create_engine(local, "python"), workers=1, chunk_size=32
            ).sample_paths(61, stop, 128, rng=2)
            assert parallel == serial
        finally:
            engine.close()


def _columns(batch: PathBatch) -> tuple:
    return tuple(
        column.tolist()
        for column in (batch.offsets, batch.node_indices, batch.is_type1, batch.anchor_indices)
    )


@pytest.mark.parametrize("backend", ENGINES)
class TestFusedWalks:
    """Chunks share fused walks: in the parent while spreading the request
    over the workers saves less than two chunks of lockstep walking, as one
    pool task per even walk otherwise -- and the same paths for every
    worker count either way."""

    CHUNK = 16  # at two workers, pooled from two chunks (python) or 64 paths on

    def _engines(self, graph, backend):
        base = create_engine(graph, backend)
        return [ParallelEngine(base, workers=n, chunk_size=self.CHUNK) for n in (1, 2)]

    @pytest.mark.parametrize("count", [16, 40, 63, 64, 200])
    def test_identical_at_one_and_two_workers(self, graph, pair, backend, count):
        source, target = pair
        stop = graph.neighbor_set(source)
        serial, fanned = self._engines(graph, backend)
        try:
            drawn = [e.sample_path_batch(target, stop, count, rng=8) for e in (serial, fanned)]
            assert _columns(drawn[0]) == _columns(drawn[1])
            pooled_from = 17 if backend == "python" else 64
            assert (fanned._pool is not None) == (fork_available() and count >= pooled_from)
            flags = [
                sample_type1_indicators(e, target, stop, count, rng=8) for e in (serial, fanned)
            ]
            assert flags[0] == flags[1] == drawn[0].type1_bytes()
            seeds = [(size, 100 + size) for size in (16, 0, 16, 9, 16, 16, 5)][: count // 16 + 1]
            batches = [e.sample_seeded_batches(target, stop, seeds) for e in (serial, fanned)]
            assert [_columns(b) for b in batches[0]] == [_columns(b) for b in batches[1]]
            assert [len(b) for b in batches[0]] == [size for size, _ in seeds]
        finally:
            fanned.close()

    def test_a_plan_chunks_each_group_like_a_lone_call(self, graph, pair, backend):
        source, target = pair
        stop = graph.neighbor_set(source)
        serial, fanned = self._engines(graph, backend)
        try:
            sizes = (20, 0, 40, 70, 33)
            for engine in (serial, fanned):
                generator = random.Random(4)
                lone = [engine.sample_path_batch(target, stop, n, rng=generator) for n in sizes]
                generator = random.Random(4)
                plan = DrawPlan(tuple((n, generator) for n in sizes))
                fused = engine.sample_path_batch(target, stop, plan.count, rng=plan)
                assert _columns(fused) == _columns(PathBatch.concat(lone, engine.compiled))
        finally:
            fanned.close()


@pytest.mark.skipif(not fork_available(), reason="the pool rule applies only where workers fork")
class TestPoolRule:
    """Which requests go to the pool, and as how many walks, per worker
    count: a request is spread over ``min(workers, chunks)`` even walks
    once that takes two chunks' worth of paths off the parent's lockstep
    walk -- or, on an engine that does not walk in lockstep, whenever two
    walks can run at once.  Deciding the layout forks nothing."""

    @staticmethod
    def _layout(workers, sizes, backend="numpy"):
        base = create_engine(barabasi_albert_graph(20, 2, rng=1), backend)
        engine = ParallelEngine(base, workers)
        generator = random.Random(0)
        plan = DrawPlan(tuple((size, generator) for size in sizes))
        walks, pooled = engine._walks(engine._request_chunks(plan.count, plan))
        assert engine._pool is None
        return [sum(size for size, _ in walk) for walk in walks], pooled

    @pytest.mark.parametrize(
        "workers, chunks, walks, pooled",
        [
            (2, 2, [4096], False),
            (2, 3, [6144], False),
            (2, 4, [4096, 4096], True),
            (2, 8, [8192, 8192], True),
            (2, 16, [8192] * 4, True),  # no walk past the walk bound
            (4, 2, [4096], False),
            (4, 3, [2048] * 3, True),
            (4, 4, [2048] * 4, True),
            (4, 5, [4096, 4096, 2048], True),
            (4, 8, [4096] * 4, True),
            (8, 3, [2048] * 3, True),
        ],
    )
    @pytest.mark.parametrize("backend", ["numpy", "numpy-alias"])
    def test_even_walks_per_worker_count(self, backend, workers, chunks, walks, pooled):
        assert self._layout(workers, [2048] * chunks, backend) == (walks, pooled)

    def test_the_stopping_rule_requests(self):
        # Its first request (64 ... 1024) never pays for the pool; its next
        # (2048 + 4096: three chunks) does once three workers can share it.
        assert self._layout(2, [64, 128, 256, 512, 1024]) == ([1984], False)
        assert self._layout(8, [64, 128, 256, 512, 1024]) == ([1984], False)
        assert self._layout(2, [2048, 4096]) == ([6144], False)
        assert self._layout(4, [2048, 4096]) == ([2048] * 3, True)

    def test_a_walk_that_costs_its_paths_always_spreads(self):
        # The python engine walks a plan's groups one after another, so
        # fusing saves nothing and any two chunks pay for the pool.
        assert self._layout(2, [2048, 2048], "python") == ([2048, 2048], True)
        assert self._layout(2, [2048] * 3, "python") == ([4096, 2048], True)
        assert self._layout(4, [64, 128, 256, 512, 1024], "python") == ([960, 1024], True)
        assert self._layout(2, [2048], "python") == ([2048], False)

    def test_one_worker_walks_in_the_parent(self):
        assert self._layout(1, [2048] * 8) == ([8192, 8192], False)
