"""Tests for the deterministic multi-process sampling fan-out.

The load-bearing property: for a fixed seed, every result produced through
a :class:`ParallelEngine` is *identical for every worker count* -- same
paths, same pmax estimate (value and consumed sample count), same selected
invitation set.  The chunk layout and the per-chunk seed derivation depend
only on the request, never on the degree of parallelism or on scheduling.
"""

from __future__ import annotations

import random

import pytest

from repro.core.problem import ActiveFriendingProblem
from repro.core.raf import RAFConfig, estimate_pmax, run_raf, run_sampling_framework
from repro.diffusion.engine import ENGINE_NAMES, create_engine
from repro.diffusion.friending_process import estimate_acceptance_probability
from repro.exceptions import EngineError
from repro.experiments.pair_selection import screen_pmax
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel import (
    ParallelEngine,
    fork_available,
    maybe_parallel,
    resolve_worker_count,
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
