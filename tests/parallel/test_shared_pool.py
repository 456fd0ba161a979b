"""One cached worker pool per process, reused across one-shot calls.

``run_raf(workers=N)`` and the other one-shot sampling entry points take
their engine from :func:`repro.parallel.engine.shared_engine`: consecutive
calls on one snapshot share one warm pool, a call with another key closes
it before forking the next, and a forked child never dispatches to (or
terminates) the pool it inherited from its parent.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.problem import ActiveFriendingProblem
from repro.core.raf import RAFConfig, run_raf
from repro.graph.compiled import compile_graph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import apply_degree_normalized_weights
import repro.parallel.engine as parallel_engine
from repro.parallel import ParallelEngine, close_shared_engine, fork_available, shared_engine

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs the fork start method")

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Fixed l above one 8192-path walk, so every run dispatches to the pool.
CONFIG = RAFConfig(
    engine="numpy", workers=2, sample_policy="fixed", fixed_realizations=10_000,
    pmax_epsilon=0.2,
)


def _children() -> frozenset:
    """Pids of this process's live child processes."""
    return frozenset(process.pid for process in multiprocessing.active_children())


def _problem(graph) -> ActiveFriendingProblem:
    source = 0
    target = next(
        node
        for node in reversed(graph.node_list())
        if node != source and not graph.has_edge(source, node)
    )
    return ActiveFriendingProblem(graph, source, target, alpha=0.2)


@pytest.fixture(scope="module")
def graph():
    return apply_degree_normalized_weights(barabasi_albert_graph(400, 4, rng=29))


@pytest.fixture(autouse=True)
def fresh_cache():
    close_shared_engine()
    yield
    close_shared_engine()


def _raf_in_child(graph, connection) -> None:
    try:
        connection.send(sorted(run_raf(_problem(graph), CONFIG, rng=5).invitation))
    except Exception as error:  # noqa: BLE001 - reported to the parent
        connection.send(repr(error))
    finally:
        connection.close()


class TestBoundedPool:
    def test_consecutive_runs_share_one_pool(self, graph):
        earlier = _children()
        seen: set = set()
        answers = set()
        for _ in range(5):
            answers.add(frozenset(run_raf(_problem(graph), CONFIG, rng=5).invitation))
            seen |= _children() - earlier
        assert len(seen) == 2  # two workers, forked once
        assert len(answers) == 1

    def test_another_snapshot_closes_the_first_pool(self, graph):
        earlier = _children()
        run_raf(_problem(graph), CONFIG, rng=5)
        first = _children() - earlier
        other = apply_degree_normalized_weights(barabasi_albert_graph(400, 4, rng=31))
        run_raf(_problem(other), CONFIG, rng=5)
        second = _children() - earlier
        assert len(first) == len(second) == 2
        assert not first & second  # the first pool's workers are gone

    def test_key_is_snapshot_engine_and_workers(self, graph):
        compiled = compile_graph(graph)
        engine = shared_engine(graph, "numpy", 2)
        assert shared_engine(compiled, "NUMPY", 2) is engine
        assert shared_engine(graph, "auto", 2) is engine  # auto selects numpy
        assert shared_engine(graph, "python", 2) is not engine
        assert shared_engine(graph, engine, 4) is engine  # already parallel
        assert shared_engine(graph, "numpy", None).name == "numpy"


class TestThreads:
    def test_threads_switching_keys_answer_like_serial_runs(self, graph):
        """Threads alternate between two snapshots, so each call may close
        the engine another thread is sampling from; every answer must still
        equal a serial run, and no pool may outlive the calls."""
        other = apply_degree_normalized_weights(barabasi_albert_graph(400, 4, rng=31))
        graphs = [graph, other]
        expected = [sorted(run_raf(_problem(g), CONFIG, rng=5).invitation) for g in graphs]
        close_shared_engine()
        earlier = _children()
        wrong: list = []

        def worker(offset: int) -> None:
            for step in range(4):
                index = (offset + step) % 2
                answer = sorted(run_raf(_problem(graphs[index]), CONFIG, rng=5).invitation)
                if answer != expected[index]:
                    wrong.append((index, answer))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a thread hung"
        assert not wrong
        close_shared_engine()
        assert not _children() - earlier  # every pool was closed or collected


    def test_a_replaced_engine_never_forks_again(self, graph, monkeypatch):
        """Two threads alternate two snapshots: each call replaces the slot
        the other thread's run may still be sampling from.  That run
        finishes in the parent -- no pool is ever forked by an engine the
        cache no longer holds -- and answers equal the one-worker runs."""
        other = apply_degree_normalized_weights(barabasi_albert_graph(400, 4, rng=31))
        graphs = [graph, other]
        serial = dataclasses.replace(CONFIG, workers=1)
        expected = [sorted(run_raf(_problem(g), serial, rng=5).invitation) for g in graphs]
        close_shared_engine()
        uncached: list = []
        ensure_pool = ParallelEngine._ensure_pool

        def counting(self):
            forking = self._pool is None
            pool = ensure_pool(self)
            slot = parallel_engine._SHARED
            if forking and (slot is None or slot[1] is not self):
                uncached.append(self)
            return pool

        monkeypatch.setattr(ParallelEngine, "_ensure_pool", counting)
        wrong: list = []

        def worker(offset: int) -> None:
            for step in range(6):
                index = (offset + step) % 2
                answer = sorted(run_raf(_problem(graphs[index]), CONFIG, rng=5).invitation)
                if answer != expected[index]:
                    wrong.append((index, answer))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a thread hung"
        assert not wrong
        assert uncached == []


class TestForkedChild:
    def test_child_forks_its_own_pool(self, graph):
        expected = sorted(run_raf(_problem(graph), CONFIG, rng=5).invitation)
        parent_workers = shared_engine(graph, "numpy", 2)._worker_pids()
        assert len(parent_workers) == 2  # the child inherits a live pool
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_raf_in_child, args=(graph, sender))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "the forked child hung"
            answer = receiver.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert answer == expected
        assert child.exitcode == 0
        # The parent's pool survived the child, untouched.
        assert shared_engine(graph, "numpy", 2)._worker_pids() == parent_workers
        assert sorted(run_raf(_problem(graph), CONFIG, rng=5).invitation) == expected


def test_cli_raf_with_workers_exits_promptly():
    command = [
        sys.executable, "-m", "repro", "--seed", "3", "raf", "--dataset", "wiki",
        "--scale", "0.04", "--alpha", "0.2", "--realizations", "5000",
        "--eval-samples", "150", "--engine", "numpy", "--workers", "2",
    ]
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    start = time.perf_counter()
    completed = subprocess.run(
        command, capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=60
    )
    assert completed.returncode == 0, completed.stderr
    assert "RAF invitation set" in completed.stdout
    assert time.perf_counter() - start < 30
