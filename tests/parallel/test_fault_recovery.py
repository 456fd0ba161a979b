"""Crash-recovery tests for the parallel sampling engine.

The contract under test (DESIGN.md §11): a worker killed mid-chunk is
*detected* (no hang), the lost chunks are *re-dispatched on a fresh pool*
with their original derived seeds, and the recovered results are
byte-identical to a fault-free run -- because each chunk is a pure function
of its seed, a retry cannot produce different samples.  When the retry
budget runs out the engine either raises a typed
:class:`~repro.exceptions.WorkerCrashError` or -- with
``on_worker_failure="serial"`` -- permanently degrades to in-process
sampling, still byte-identically.  Either way every crashed pool's
shared-memory segments are swept.
"""

from __future__ import annotations

import asyncio
import random
from pathlib import Path

import pytest

from repro.diffusion.engine import DrawPlan, create_engine
from repro.exceptions import EngineError, WorkerCrashError
from repro.faults import SITE_WORKER_KILL, FaultPlan
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel import ParallelEngine, fork_available, shm as shm_transport

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="crash recovery requires the fork start method"
)

#: Small enough to keep kill-and-respawn rounds fast, large enough that a
#: request fans out over several chunks (so *specific* chunks can be lost).
CHUNK = 50
SAMPLES = 8 * CHUNK


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


def _draw(engine, graph, pair):
    _, target = pair
    stop = graph.neighbor_set(pair[0])
    return engine.sample_paths(target, stop, SAMPLES, rng=random.Random(99))


def _own_segments():
    """Names under this process's shm prefix still present in /dev/shm."""
    prefix = shm_transport.default_prefix()
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-/dev/shm platforms
        return []
    return sorted(p.name for p in shm_dir.glob(f"{prefix}*"))


class TestKillRecovery:
    @pytest.mark.parametrize("engine_name", ["python", "numpy"])
    def test_killed_worker_is_retried_byte_identically(self, graph, pair, engine_name):
        with ParallelEngine(create_engine(graph, engine_name), 2, CHUNK) as clean:
            expected = _draw(clean, graph, pair)
        plan = FaultPlan(kill_at={0})
        with ParallelEngine(
            create_engine(graph, engine_name), 2, CHUNK, fault_plan=plan
        ) as faulted:
            recovered = _draw(faulted, graph, pair)
            assert faulted.worker_crashes == 1
            assert faulted.degraded is False
        assert plan.injected(SITE_WORKER_KILL) == 1
        assert recovered == expected
        assert _own_segments() == []

    def test_recovered_engine_keeps_serving(self, graph, pair):
        """After one recovery the respawned pool serves later requests too."""
        plan = FaultPlan(kill_at={1})
        with ParallelEngine(
            create_engine(graph, "python"), 2, CHUNK, fault_plan=plan
        ) as engine:
            first = _draw(engine, graph, pair)
            assert engine.worker_crashes == 1
            second = _draw(engine, graph, pair)
        assert first == second
        assert _own_segments() == []

    def test_retry_budget_exhaustion_raises_typed_error(self, graph, pair):
        plan = FaultPlan(kill_rate=1.0)
        with ParallelEngine(
            create_engine(graph, "python"), 2, CHUNK,
            max_chunk_retries=1, fault_plan=plan,
        ) as engine:
            with pytest.raises(WorkerCrashError) as excinfo:
                _draw(engine, graph, pair)
        assert isinstance(excinfo.value, EngineError)
        assert excinfo.value.chunks  # names the chunks that were lost
        assert engine.worker_crashes >= 2
        assert _own_segments() == []

    def test_raise_mode_fails_on_first_crash(self, graph, pair):
        plan = FaultPlan(kill_at={0})
        with ParallelEngine(
            create_engine(graph, "python"), 2, CHUNK,
            on_worker_failure="raise", fault_plan=plan,
        ) as engine:
            with pytest.raises(WorkerCrashError):
                _draw(engine, graph, pair)
            assert engine.worker_crashes == 1
        assert _own_segments() == []


class TestFusedWalkRecovery:
    """A pooled task is one fused walk of several chunks: losing it loses
    (and retries) all of them, and errors name every chunk it held."""

    @staticmethod
    def _plan_draw(engine, graph, pair):
        _, target = pair
        generator = random.Random(7)
        plan = DrawPlan(tuple((size, generator) for size in (30, 60, 120, 240)))
        return engine.sample_path_batch(
            target, graph.neighbor_set(pair[0]), plan.count, rng=plan
        ).to_paths()

    @pytest.mark.parametrize("engine_name", ["python", "numpy"])
    @pytest.mark.parametrize("kill_at", [{0}, {1}, {0, 2}])
    def test_killed_walk_is_retried_byte_identically(self, graph, pair, engine_name, kill_at):
        with ParallelEngine(create_engine(graph, engine_name), 2, CHUNK) as clean:
            expected = self._plan_draw(clean, graph, pair)
        plan = FaultPlan(kill_at=kill_at)
        with ParallelEngine(
            create_engine(graph, engine_name), 2, CHUNK, fault_plan=plan
        ) as faulted:
            assert self._plan_draw(faulted, graph, pair) == expected
            assert faulted.worker_crashes >= 1
        assert _own_segments() == []

    def test_crash_error_names_the_lost_walks_chunks(self, graph, pair):
        plan = FaultPlan(kill_at={0})
        with ParallelEngine(
            create_engine(graph, "python"), 2, CHUNK,
            on_worker_failure="raise", fault_plan=plan,
        ) as engine:
            with pytest.raises(WorkerCrashError) as excinfo:
                _draw(engine, graph, pair)  # 8 chunks: two even walks of four
        assert excinfo.value.chunks in ((0, 1, 2, 3), tuple(range(8)))


class TestSerialDegrade:
    def test_exhausted_budget_degrades_byte_identically(self, graph, pair):
        with ParallelEngine(create_engine(graph, "python"), 2, CHUNK) as clean:
            expected = _draw(clean, graph, pair)
        plan = FaultPlan(kill_rate=1.0)
        with ParallelEngine(
            create_engine(graph, "python"), 2, CHUNK,
            max_chunk_retries=1, on_worker_failure="serial", fault_plan=plan,
        ) as engine:
            degraded_draw = _draw(engine, graph, pair)
            assert engine.degraded is True
            # Degradation is permanent: later requests skip the pool (no
            # fresh fork) and still match exactly.
            again = _draw(engine, graph, pair)
            assert engine._pool is None
        assert degraded_draw == expected
        assert again == expected
        assert _own_segments() == []

    def test_degraded_is_false_until_budget_runs_out(self, graph, pair):
        plan = FaultPlan(kill_at={0})
        with ParallelEngine(
            create_engine(graph, "python"), 2, CHUNK,
            on_worker_failure="serial", fault_plan=plan,
        ) as engine:
            _draw(engine, graph, pair)  # one kill, recovered within budget
            assert engine.degraded is False


class TestCloseSafety:
    def test_close_is_idempotent_after_crash(self, graph, pair):
        plan = FaultPlan(kill_rate=1.0)
        engine = ParallelEngine(
            create_engine(graph, "python"), 2, CHUNK,
            max_chunk_retries=0, fault_plan=plan,
        )
        with pytest.raises(WorkerCrashError):
            _draw(engine, graph, pair)
        engine.close()
        engine.close()  # double close after a crash must be a quiet no-op
        assert engine._pool is None
        assert _own_segments() == []

    def test_aclose_matches_close(self, graph, pair):
        engine = ParallelEngine(create_engine(graph, "python"), 2, CHUNK)
        _draw(engine, graph, pair)
        asyncio.run(engine.aclose())
        asyncio.run(engine.aclose())
        engine.close()
        assert engine._pool is None

    def test_closed_engine_reforks_on_next_request(self, graph, pair):
        with ParallelEngine(create_engine(graph, "python"), 2, CHUNK) as engine:
            before = _draw(engine, graph, pair)
            engine.close()
            after = _draw(engine, graph, pair)
        assert before == after


class TestNonFatalFaults:
    def test_slow_and_shm_faults_never_change_results(self, graph, pair):
        with ParallelEngine(create_engine(graph, "numpy"), 2, CHUNK) as clean:
            expected = _draw(clean, graph, pair)
        plan = FaultPlan(
            7, slow_rate=0.5, shm_fail_rate=0.5, slow_seconds=0.001
        )
        with ParallelEngine(
            create_engine(graph, "numpy"), 2, CHUNK, fault_plan=plan
        ) as faulted:
            observed = _draw(faulted, graph, pair)
            assert faulted.worker_crashes == 0
        assert observed == expected
        assert plan.total_injected > 0
        assert _own_segments() == []

    def test_inject_faults_can_be_cleared(self, graph, pair):
        plan = FaultPlan(kill_at={0})
        with ParallelEngine(create_engine(graph, "python"), 2, CHUNK) as engine:
            engine.inject_faults(plan)
            _draw(engine, graph, pair)
            assert engine.worker_crashes == 1
            engine.inject_faults(None)
            _draw(engine, graph, pair)
            assert engine.worker_crashes == 1  # no further kills


class TestFaultPlanDeterminism:
    def test_same_seed_fires_identically(self):
        first = FaultPlan(11, kill_rate=0.4, slow_rate=0.2)
        second = FaultPlan(11, kill_rate=0.4, slow_rate=0.2)
        draws = [(first.fires(SITE_WORKER_KILL), second.fires(SITE_WORKER_KILL))
                 for _ in range(64)]
        assert all(a == b for a, b in draws)
        assert any(a for a, _ in draws) and not all(a for a, _ in draws)

    def test_explicit_indices_fire_exactly_once(self):
        plan = FaultPlan(kill_at={2})
        fired = [plan.fires(SITE_WORKER_KILL) for _ in range(6)]
        assert fired == [False, False, True, False, False, False]

    def test_max_faults_caps_total_injection(self):
        plan = FaultPlan(3, kill_rate=1.0, max_faults=2)
        fired = [plan.fires(SITE_WORKER_KILL) for _ in range(8)]
        assert sum(fired) == 2
        assert plan.total_injected == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(kill_rate=1.5)
        with pytest.raises(TypeError):
            FaultPlan(seed="zero")
        with pytest.raises(ValueError):
            FaultPlan(slow_seconds=-1)
        with pytest.raises(ValueError):
            FaultPlan().fires("unknown-site")


class TestOrphanSweep:
    def test_crash_recovery_unlinks_stranded_segments(self, graph, pair):
        """A segment published by a worker that then dies unadopted must be
        unlinked during recovery, not leaked until interpreter exit."""
        stranded = shm_transport.segment_name()
        if not shm_transport.shm_available():  # pragma: no cover
            pytest.skip("POSIX shared memory unavailable")
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(stranded, create=True, size=64)
        segment.close()
        assert stranded in _own_segments()
        plan = FaultPlan(kill_at={0})
        with ParallelEngine(
            create_engine(graph, "numpy"), 2, CHUNK, fault_plan=plan
        ) as engine:
            _draw(engine, graph, pair)
            assert engine.worker_crashes == 1
        assert stranded not in _own_segments()
        assert _own_segments() == []
