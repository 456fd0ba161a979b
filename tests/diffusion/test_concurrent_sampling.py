"""One engine instance sampled from several threads at once.

A server shares one sampling engine across every tenant, and tenants
execute on their own threads, so ``sample_path_batch`` calls on a single
engine interleave.  Each call's paths must still be a pure function of its
arguments and seed: four threads drawing interleaved batches must produce
exactly the batches the same calls produce one after another.
"""

from __future__ import annotations

import os
import random
import signal
import sys
import threading
import time

import pytest

from repro.diffusion.engine import create_engine
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel.engine import ParallelEngine, _init_worker, fork_available

THREADS = 4
BATCH = 64

ENGINE_CASES = ("python", "numpy", "numpy-alias", "parallel")


@pytest.fixture(scope="module")
def graph():
    return apply_degree_normalized_weights(barabasi_albert_graph(2000, 4, rng=29))


def _build(graph, case):
    if case == "parallel":
        # A small chunk size makes every batch a multi-chunk pooled dispatch.
        return ParallelEngine(create_engine(graph, "numpy-alias"), workers=2, chunk_size=16)
    return create_engine(graph, case)


def _jobs(graph, count):
    """``count`` distinct (target, stop set, seed) draws over the graph."""
    picker = random.Random(5)
    nodes = sorted(graph.nodes())
    jobs = []
    for index in range(count):
        target = picker.choice(nodes)
        source = picker.choice(nodes)
        stop = frozenset(graph.neighbor_set(source)) - {target}
        jobs.append((target, stop, 1000 + index))
    return jobs


def _columns(batch) -> tuple:
    return (
        batch.offsets.tobytes(),
        batch.node_indices.tobytes(),
        batch.is_type1.tobytes(),
        batch.anchor_indices.tobytes(),
    )


def _draw(engine, job) -> tuple:
    target, stop, seed = job
    return _columns(engine.sample_path_batch(target, stop, BATCH, rng=random.Random(seed)))


@pytest.mark.parametrize("case", ENGINE_CASES)
def test_interleaved_threads_equal_serial_draws(graph, case):
    jobs = _jobs(graph, 40 if case == "parallel" else 200)
    engine = _build(graph, case)
    interval = sys.getswitchinterval()
    try:
        serial = [_draw(engine, job) for job in jobs]
        results: list = [None] * len(jobs)
        errors: list = []
        barrier = threading.Barrier(THREADS)

        def worker(offset: int) -> None:
            try:
                barrier.wait()
                for index in range(offset, len(jobs), THREADS):
                    results[index] = _draw(engine, jobs[index])
            except BaseException as error:  # surfaced below, not swallowed
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(THREADS)]
        sys.setswitchinterval(1e-5)  # switch threads often: races show, not hide
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        differing = [index for index in range(len(jobs)) if results[index] != serial[index]]
        assert not differing, f"{len(differing)} of {len(jobs)} batches differ"
    finally:
        sys.setswitchinterval(interval)
        close = getattr(engine, "close", None)
        if close is not None:
            close()


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_worker_initializer_drops_a_lock_held_at_fork(graph):
    """A pool worker can be forked while another thread is inside the
    engine.  That thread does not exist in the child, so the worker must
    not inherit its hold on the engine lock, or every chunk would block."""
    engine = create_engine(graph, "numpy-alias")
    target, stop, seed = _jobs(graph, 1)[0]
    held, release = threading.Event(), threading.Event()

    def holder() -> None:
        with engine._lock:  # noqa: SLF001 - the state a fork can catch
            held.set()
            release.wait(30.0)

    thread = threading.Thread(target=holder)
    thread.start()
    assert held.wait(30.0)
    pid = os.fork()
    if pid == 0:  # the child runs what a pool worker runs, then one draw
        code = 1
        try:
            _init_worker(engine)
            engine.sample_path_batch(target, stop, BATCH, rng=random.Random(seed))
            code = 0
        finally:
            os._exit(code)
    release.set()
    thread.join()
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked worker blocked on the engine lock it inherited")
    assert os.waitstatus_to_exitcode(status) == 0
