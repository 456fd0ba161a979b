"""Deterministic multi-process fan-out for the sampling engines.

The whole RAF pipeline consumes i.i.d. reverse-sampled realizations -- the
stopping-rule ``pmax`` estimator (Alg. 2), the ``l`` realizations of the
sampling framework (Alg. 3), pair screening and the Lemma-2 Monte Carlo
evaluation -- so it is embarrassingly parallel at the sampling layer.
:class:`ParallelEngine` adds that parallelism *behind* the
:class:`~repro.diffusion.engine.SamplingEngine` protocol: it wraps any base
engine and fans each sampling request out over a ``multiprocessing``
worker pool, so every layer above (estimation, core, experiments, CLI)
parallelizes without code changes.

Determinism contract (see DESIGN.md §3):

* A request for ``count`` paths is split into fixed-size chunks of
  ``chunk_size`` paths.  The chunk layout depends only on ``count`` and
  ``chunk_size`` -- never on the worker count.
* Chunk ``i`` draws from its own generator, rebuilt from an integer seed
  derived from the caller's ``rng`` via SHA-256 label mixing
  (:func:`repro.utils.rng.derive_seed` with label ``"parallel-chunk-<i>"``).
  Seeds are derived sequentially in chunk order, so the caller's stream is
  consumed identically regardless of how chunks are later scheduled.
* Results are concatenated in chunk order, so the merged path list -- and
  therefore everything downstream, including the exact sample index at
  which the stopping rule halts -- is bit-stable across runs and identical
  for ``workers=1`` and ``workers=N``.

Execution falls back to an in-process loop (same chunking, same seeds, same
results) when ``workers <= 1``, when the request is a single chunk, or when
the platform lacks the ``fork`` start method (workers inherit the compiled
graph by forking; shipping it by pickle to spawned processes would cost more
than it saves).  The pool is forked by :meth:`ParallelEngine.start` -- or,
failing that, on first parallel dispatch -- reused across calls, and torn
down when the engine is closed or collected.  One engine may serve several
threads: dispatches and pool teardown are serialized on the engine's lock.

Transport (DESIGN.md §7): every chunk is a columnar
:class:`~repro.diffusion.path_batch.PathBatch`; finished chunks travel back
from the workers either pickled through the result pipe
(``transport="pickle"``) or as zero-copy shared-memory segments
(``transport="shm"``, the default where available): the worker
publishes the columns once into a named segment and ships only a tiny
descriptor; the parent adopts views over the segment with a ref-counted,
unlink-on-release lifecycle (:mod:`repro.parallel.shm`).  The transport
never changes results -- the adopted columns are byte-for-byte the
pickled ones -- and degrades per-chunk to pickling whenever a segment
cannot be created.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
import weakref
from typing import Iterable

from repro.diffusion.engine import SamplingEngine, TargetPath, collect_type1_paths
from repro.diffusion.path_batch import PathBatch
from repro.exceptions import EngineError, WorkerCrashError
from repro.faults import SITE_SHM_PUBLISH, SITE_SLOW_CHUNK, SITE_WORKER_KILL, FaultPlan
from repro.graph.compiled import CompiledGraph
from repro.parallel import shm as shm_transport
from repro.parallel.shm import ShmBatchRef, resolve_transport
from repro.types import NodeId
from repro.utils.rng import RandomSource, derive_seed, ensure_rng
from repro.utils.validation import require_non_negative_int, require_positive_int

__all__ = [
    "WORKERS_AUTO",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_CHUNK_RETRIES",
    "FAILURE_MODES",
    "ParallelEngine",
    "fork_available",
    "resolve_worker_count",
    "maybe_parallel",
    "sample_type1_indicators",
    "sample_covered_indicators",
    "collect_type1",
]

#: CLI/config sentinel meaning "one worker per available CPU".
WORKERS_AUTO = "auto"

#: Paths per chunk.  Fixed (worker-count independent) so the chunk layout --
#: and with it every derived seed -- never depends on the degree of
#: parallelism.  Large enough to amortize task pickling, small enough that a
#: typical stopping-rule batch still spreads over several workers.
DEFAULT_CHUNK_SIZE = 2048

#: How many respawn-and-retry rounds a lost chunk gets before the engine
#: gives up (raises :class:`~repro.exceptions.WorkerCrashError`) or degrades
#: to serial execution, per ``on_worker_failure``.
DEFAULT_CHUNK_RETRIES = 2

#: What a dispatch does when a worker process dies mid-chunk: ``"retry"``
#: re-derives the lost chunks on a respawned pool up to the retry budget and
#: then raises; ``"serial"`` retries the same way but degrades to in-process
#: execution (slower, never wrong) when the budget runs out; ``"raise"``
#: fails fast on the first crash.
FAILURE_MODES = ("retry", "serial", "raise")

#: How long (seconds) a pending chunk future is polled before the worker
#: processes are re-checked for deaths.  Latency-only: detection happens
#: within one interval, results never depend on it.
_CRASH_POLL_SECONDS = 0.05


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_worker_count(workers: int | str | None) -> int | None:
    """Normalize a worker-count argument.

    ``None`` means "no parallel wrapper" and is returned unchanged;
    ``"auto"`` resolves to the CPU count; a positive integer passes through.
    Anything else raises :class:`~repro.exceptions.EngineError` (strings) or
    ``ValueError``/``TypeError`` (bad integers).
    """
    if workers is None:
        return None
    if isinstance(workers, str):
        if workers.lower() == WORKERS_AUTO:
            return max(1, os.cpu_count() or 1)
        raise EngineError(
            f"workers must be a positive integer or {WORKERS_AUTO!r}, got {workers!r}"
        )
    require_positive_int(workers, "workers")
    return int(workers)


# --------------------------------------------------------------------------- #
# Worker-process plumbing
# --------------------------------------------------------------------------- #

#: The base engine of the owning ParallelEngine, inherited by pool workers at
#: fork time through the pool initializer (no pickling of the compiled graph).
_WORKER_ENGINE: SamplingEngine | None = None

#: Result transport for columnar chunks ("pickle" or "shm") and the parent's
#: shared-memory name prefix, both set by the pool initializer at fork time.
_WORKER_TRANSPORT: str = "pickle"
_WORKER_SHM_PREFIX: str | None = None


def _init_worker(
    engine: SamplingEngine, transport: str = "pickle", shm_prefix: "str | None" = None
) -> None:
    global _WORKER_ENGINE, _WORKER_TRANSPORT, _WORKER_SHM_PREFIX
    _WORKER_ENGINE = engine
    _WORKER_TRANSPORT = transport
    _WORKER_SHM_PREFIX = shm_prefix
    # The fork may have caught another parent thread holding the engine's
    # lock; that thread does not exist here, so the worker starts unlocked.
    if hasattr(engine, "_lock"):
        engine._lock = threading.RLock()
    # A memory-mapped snapshot is re-opened read-only by path in each worker
    # rather than sampled through the mappings inherited from the parent at
    # fork time: every worker then holds its own file-backed views (the OS
    # page cache still shares the physical pages, so per-worker RSS stays
    # flat) and keeps a valid snapshot even if the parent's mapping goes
    # away.  Digest equality is checked inside reopen(), so a snapshot
    # swapped on disk between fork and first chunk fails loudly instead of
    # silently sampling different topology than the parent.
    compiled = getattr(engine, "compiled", None)
    if compiled is not None and getattr(compiled, "is_mapped", False):
        compiled.reopen()
        rebind = getattr(engine, "_rebind", None)
        if rebind is not None:
            rebind(compiled)


def _ship_batch(batch: PathBatch):
    """Worker-side egress: publish to shared memory, or fall through to pickle.

    The descriptor is a few dozen bytes regardless of batch size; if the
    segment cannot be created (shared memory unavailable, ``/dev/shm``
    exhausted) the batch itself is returned and crosses the pipe pickled
    -- same columns either way.
    """
    if _WORKER_TRANSPORT == "shm":
        ref = shm_transport.publish_batch(batch, prefix=_WORKER_SHM_PREFIX)
        if ref is not None:
            return ref
    return batch


def _sample_batch_chunk_on(
    engine: SamplingEngine, payload: tuple[NodeId, frozenset, int, int]
) -> PathBatch:
    """Draw one chunk on ``engine`` from its own seed-rebuilt generator.

    Returned batches pickle as packed array buffers -- the graph reference
    is dropped in transit and the parent re-attaches its own snapshot --
    so shipping full paths between processes costs a few flat arrays
    instead of one pickled :class:`TargetPath` per sample.
    """
    target, stop_set, count, seed = payload
    return engine.sample_path_batch(target, stop_set, count, rng=random.Random(seed))


def _sample_batch_chunk(payload: tuple[NodeId, frozenset, int, int]):
    assert _WORKER_ENGINE is not None, "worker pool used before initialization"
    return _ship_batch(_sample_batch_chunk_on(_WORKER_ENGINE, payload))


def _reduce_chunk_on(engine: SamplingEngine, payload) -> object:
    reducer, target, stop_set, count, seed, arg = payload
    return reducer(_sample_batch_chunk_on(engine, (target, stop_set, count, seed)), arg)


def _reduce_chunk(payload) -> object:
    assert _WORKER_ENGINE is not None, "worker pool used before initialization"
    return _reduce_chunk_on(_WORKER_ENGINE, payload)


def _run_with_fault(directives, run_pooled, payload):
    """Apply a chunk's injected-fault directives, then run it normally.

    The parent decides the directives (from its :class:`FaultPlan`) when
    the chunk is dispatched; the worker only executes them: ``"slow"``
    sleeps, ``"shm-fail"`` forces this chunk's shared-memory publish to
    decline (pickle fallback), ``"kill"`` SIGKILLs the worker process --
    the real crash the recovery path must survive, not a simulation of
    one.  Directives never touch the chunk's seed or contents.
    """
    sleep_seconds = 0.0
    kill = False
    for directive in directives:
        if directive == "kill":
            kill = True
        elif directive == "shm-fail":
            shm_transport.set_publish_failures(1)
        else:  # ("slow", seconds)
            sleep_seconds += float(directive[1])
    if sleep_seconds:
        time.sleep(sleep_seconds)
    if kill:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_pooled(payload)


# Chunk reducers.  Applied worker-side so a chunk's IPC cost is one byte per
# sample (indicators) or only the useful paths (type-1 filtering) instead of
# every path; must be top-level functions so they pickle by reference.  Each
# reduces a chunk's columns directly, building no per-path objects.
def _type1_indicator_bytes(chunk: PathBatch, _arg) -> bytes:
    return chunk.type1_bytes()


def _covered_indicator_bytes(chunk: PathBatch, invited: frozenset) -> bytes:
    return chunk.covered_bytes(invited)


def _type1_paths_only(chunk: PathBatch, _arg) -> PathBatch:
    return chunk.select_type1()  # ships as packed columns, type-1 only


def _shutdown_pool(pool) -> None:
    pool.terminate()
    pool.join()


# --------------------------------------------------------------------------- #
# The engine wrapper
# --------------------------------------------------------------------------- #


class ParallelEngine:
    """A :class:`SamplingEngine` that fans chunked batches over worker processes.

    Wraps any base engine (python or numpy backed).  Satisfies the engine
    protocol, so it threads through ``resolve_engine`` and every consumer of
    engines unchanged; results are deterministic for a fixed seed and
    identical across worker counts (see the module docstring for the
    contract).
    """

    def __init__(
        self,
        base: SamplingEngine,
        workers: int | str = WORKERS_AUTO,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        transport: str = "auto",
        *,
        max_chunk_retries: int = DEFAULT_CHUNK_RETRIES,
        on_worker_failure: str = "retry",
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        if isinstance(base, ParallelEngine):
            raise EngineError("cannot wrap a ParallelEngine in another ParallelEngine")
        resolved = resolve_worker_count(workers)
        if resolved is None:
            raise EngineError("ParallelEngine requires an explicit worker count (or 'auto')")
        require_positive_int(chunk_size, "chunk_size")
        require_non_negative_int(max_chunk_retries, "max_chunk_retries")
        if on_worker_failure not in FAILURE_MODES:
            raise EngineError(
                f"on_worker_failure must be one of {', '.join(FAILURE_MODES)}, "
                f"got {on_worker_failure!r}"
            )
        self._base = base
        self._workers = resolved
        self._chunk_size = int(chunk_size)
        self._transport = resolve_transport(transport)
        self._max_chunk_retries = int(max_chunk_retries)
        self._on_worker_failure = on_worker_failure
        self._fault_plan = fault_plan
        self._degraded = False
        self._worker_crashes = 0
        self._pool = None
        self._pool_finalizer = None
        self._pool_snapshot = None
        # Guards the pool lifecycle and the crash bookkeeping: concurrent
        # dispatches take turns, and close() never tears a pool down under one.
        self._lock = threading.RLock()
        self.name = f"parallel[{base.name}x{resolved}]"

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def base(self) -> SamplingEngine:
        """The wrapped single-process engine."""
        return self._base

    @property
    def workers(self) -> int:
        """The configured worker-process count."""
        return self._workers

    @property
    def chunk_size(self) -> int:
        """Paths per chunk (worker-count independent)."""
        return self._chunk_size

    @property
    def transport(self) -> str:
        """How chunks return from the workers: ``"shm"`` (zero-copy
        shared-memory segments, with per-chunk pickling fallback) or
        ``"pickle"`` (packed columns through the result pipe).  Never
        affects results, only the wire."""
        return self._transport

    @property
    def compiled(self) -> CompiledGraph:
        """The frozen CSR snapshot the wrapped engine samples from."""
        return self._base.compiled

    @property
    def source_graph(self):
        """The wrapped engine's live graph (None when snapshot-pinned)."""
        return getattr(self._base, "source_graph", None)

    @property
    def max_chunk_retries(self) -> int:
        """Respawn-and-retry rounds a lost chunk gets before giving up."""
        return self._max_chunk_retries

    @property
    def on_worker_failure(self) -> str:
        """Crash policy: ``"retry"``, ``"serial"`` or ``"raise"``."""
        return self._on_worker_failure

    @property
    def degraded(self) -> bool:
        """Whether the engine has fallen back to permanent serial execution.

        Set (only) by the ``on_worker_failure="serial"`` escape hatch when
        the retry budget runs out: every later dispatch runs in-process --
        slower, but byte-identical to the fanned-out results, so a service
        above keeps answering correctly while surfacing this flag.
        """
        return self._degraded

    @property
    def worker_crashes(self) -> int:
        """Worker-pool crashes detected (and recovered or escalated) so far."""
        return self._worker_crashes

    def inject_faults(self, fault_plan: "FaultPlan | None") -> None:
        """Attach (or clear) a :class:`~repro.faults.FaultPlan`.

        While attached, each dispatched chunk consults the plan for
        worker-kill / shm-publish-failure / slow-chunk directives.  Faults
        alter scheduling and cost, never chunk seeds or contents: a faulted
        run that completes is byte-identical to a fault-free one.
        """
        self._fault_plan = fault_plan

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"<ParallelEngine base={self._base!r} workers={self._workers}>"

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #

    def _forks(self) -> bool:
        """Whether multi-chunk dispatches go to a worker pool at all."""
        return self._workers > 1 and fork_available() and not self._degraded

    def start(self) -> None:
        """Fork the worker pool now rather than on the first dispatch.

        A server calls this before it starts any thread, so no worker is
        forked from a process whose other threads may hold locks.  A no-op
        when the engine never forks (one worker, no ``fork``, degraded) or
        the pool is already up.
        """
        with self._lock:
            if self._forks():
                self._ensure_pool()

    def _ensure_pool(self):
        # Workers inherit the base engine's CSR snapshot at fork time, so a
        # pool forked before the source graph was mutated would keep sampling
        # the dead snapshot.  Reading base.compiled re-snapshots the base
        # engine (see repro.diffusion.engine._EngineBase); a pool forked on a
        # different snapshot is torn down and re-forked on the current one.
        current = self._base.compiled
        if self._pool is not None and self._pool_snapshot is not current:
            self.close()
        if self._pool is None:
            if self._transport == "shm":
                shm_transport.register_exit_cleanup()
            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(
                self._workers,
                initializer=_init_worker,
                initargs=(self._base, self._transport, shm_transport.default_prefix()),
            )
            self._pool_finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
            self._pool_snapshot = current
        return self._pool

    def close(self) -> None:
        """Tear down the worker pool (idempotent; the engine stays usable --
        a later parallel dispatch simply forks a fresh pool).  Also sweeps
        shared-memory orphans: with the pool gone no descriptor is in
        flight, so any surviving segment under this process's prefix is the
        leftover of a crashed worker and is unlinked.  Waits for a dispatch
        running on another thread to finish first."""
        with self._lock:
            had_pool = self._pool is not None
            if self._pool_finalizer is not None:
                self._pool_finalizer()
                self._pool_finalizer = None
            self._pool = None
            self._pool_snapshot = None
            if had_pool and self._transport == "shm":
                shm_transport.sweep_orphans()

    async def aclose(self) -> None:
        """Async counterpart of :meth:`close` (same idempotence guarantee).

        Runs the teardown -- pool terminate/join plus the shared-memory
        orphan sweep -- on a worker thread so an event loop hosting the
        serving front end never blocks on process joins.  Safe to call
        multiple times, concurrently with :meth:`close`, and after a
        worker crash.
        """
        import asyncio

        await asyncio.to_thread(self.close)

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def sample_path(
        self, target: NodeId, stop_set: Iterable[NodeId], rng: RandomSource = None
    ) -> TargetPath:
        """Draw one backward trace from ``target``."""
        return self.sample_paths(target, stop_set, 1, rng=rng)[0]

    def sample_paths(
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, rng: RandomSource = None
    ) -> list[TargetPath]:
        """Draw ``count`` independent backward traces from ``target``.

        The object view of :meth:`sample_path_batch`: same chunks, same
        seeds, same order.
        """
        return self.sample_path_batch(target, stop_set, count, rng=rng).to_paths()

    def sample_path_batch(
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, rng: RandomSource = None
    ) -> PathBatch:
        """Draw ``count`` traces as one columnar batch (chunked fan-out).

        The request is split into fixed-size chunks, each chunk is drawn
        from its own derived-seed generator (possibly on a worker process,
        which ships packed columns back), and the chunks are concatenated
        in chunk order on the parent -- so the result is independent of
        the worker count and of chunk scheduling.
        """
        compiled = self.compiled
        chunks = self._run_chunks(target, stop_set, count, rng)
        return PathBatch.concat([chunk.attach(compiled) for chunk in chunks], compiled)

    def sample_seeded_batches(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        sized_seeds: "list[tuple[int, int]]",
    ) -> list[PathBatch]:
        """Draw explicitly seeded chunks, fanned over the worker pool.

        ``sized_seeds`` is a list of ``(count, seed)`` pairs; chunk ``i`` is
        ``sample_path_batch(target, stop_set, count_i,
        rng=random.Random(seed_i))`` on the base engine, and the per-chunk
        batches are returned in input order.  This is the fan-out the
        sample pool (:mod:`repro.pool`) uses to extend a key by several
        chunks at once: the caller owns the seed schedule (so the chunk
        contents are a pure function of the seeds, worker-count
        independent), and each worker's shard is merged back
        deterministically by position.
        """
        compiled = self.compiled
        chunks = self._run_seeded(
            target, stop_set, sized_seeds, _sample_batch_chunk, _sample_batch_chunk_on
        )
        return [chunk.attach(compiled) for chunk in chunks]

    def sample_seeded_chunks(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        sized_seeds: "list[tuple[int, int]]",
    ) -> list[list[TargetPath]]:
        """The object view of :meth:`sample_seeded_batches`, chunk by chunk."""
        chunks = self.sample_seeded_batches(target, stop_set, sized_seeds)
        return [chunk.to_paths() for chunk in chunks]

    def _run_seeded(self, target, stop_set, sized_seeds, run_pooled, run_local) -> list:
        stop = stop_set if isinstance(stop_set, frozenset) else frozenset(stop_set)
        payloads = []
        for size, seed in sized_seeds:
            require_non_negative_int(size, "count")
            payloads.append((target, stop, size, seed))
        return self._dispatch(payloads, run_pooled, run_local)

    def sample_reduced(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        count: int,
        rng: RandomSource,
        reducer,
        arg=None,
    ) -> list:
        """Draw ``count`` traces and apply ``reducer`` to each chunk worker-side.

        ``reducer(paths, arg)`` must be a top-level (picklable) function; its
        per-chunk results are returned in chunk order.  Chunk layout and
        seeds are exactly those of :meth:`sample_paths`, so a reduction over
        ``sample_reduced`` sees the same paths ``sample_paths`` would return
        -- the reduction only moves *where* the paths are consumed, keeping
        the inter-process traffic proportional to the reduced size rather
        than to the raw path count.
        """
        return self._run_chunks(target, stop_set, count, rng, reducer=reducer, arg=arg)

    def _run_chunks(self, target, stop_set, count, rng, reducer=None, arg=None) -> list:
        require_non_negative_int(count, "count")
        generator = ensure_rng(rng)
        stop = stop_set if isinstance(stop_set, frozenset) else frozenset(stop_set)
        payloads = []
        offset = 0
        while offset < count:
            size = min(self._chunk_size, count - offset)
            label = f"parallel-chunk-{len(payloads)}"
            payloads.append((target, stop, size, derive_seed(generator, label)))
            offset += size
        if not payloads:
            return []
        if reducer is not None:
            payloads = [(reducer, *payload, arg) for payload in payloads]
            run_pooled, run_local = _reduce_chunk, _reduce_chunk_on
        else:
            run_pooled, run_local = _sample_batch_chunk, _sample_batch_chunk_on
        return self._dispatch(payloads, run_pooled, run_local)

    # ------------------------------------------------------------------ #
    # Dispatch and crash recovery
    # ------------------------------------------------------------------ #

    def _dispatch(self, payloads, run_pooled, run_local) -> list:
        """Run the chunk payloads, pooled where possible, serially otherwise.

        The serial path (one worker, one chunk, no fork support, or a
        degraded engine) runs the same payloads on the base engine; chunk
        contents are pure functions of their seeds, so both paths return
        the identical list.
        """
        if len(payloads) > 1 and self._forks():
            with self._lock:
                if not self._degraded:  # another thread may have degraded it
                    return self._dispatch_pooled(payloads, run_pooled, run_local)
        return [run_local(self._base, payload) for payload in payloads]

    def _worker_pids(self) -> frozenset:
        """Current pids of the pool's worker processes (empty without a pool)."""
        processes = getattr(self._pool, "_pool", None) or ()
        return frozenset(process.pid for process in processes)

    def _pool_damaged(self, initial_pids: frozenset) -> bool:
        """Whether a worker died since dispatch (the lost-chunk sentinel).

        ``multiprocessing.Pool`` silently drops the task a killed worker
        was running (and may respawn the worker), so a chunk future would
        otherwise be awaited forever.  A pid that disappeared or a process
        that is no longer alive is the crash signal; either observation is
        definitive because pool workers are never recycled by this engine
        outside a crash.
        """
        processes = getattr(self._pool, "_pool", None) or ()
        if any(not process.is_alive() for process in processes):
            return True
        return self._worker_pids() != initial_pids

    def _chunk_directives(self) -> tuple:
        """The attached fault plan's directives for the next dispatched chunk."""
        plan = self._fault_plan
        directives: list = []
        if plan is None:
            return ()
        if plan.fires(SITE_SLOW_CHUNK):
            directives.append(("slow", plan.slow_seconds))
        if plan.fires(SITE_SHM_PUBLISH):
            directives.append("shm-fail")
        if plan.fires(SITE_WORKER_KILL):
            directives.append("kill")
        return tuple(directives)

    def _apply_async(self, pool, run_pooled, payload):
        if self._fault_plan is None:
            return pool.apply_async(run_pooled, (payload,))
        return pool.apply_async(_run_with_fault, (self._chunk_directives(), run_pooled, payload))

    def _crash_error(self, lost: list, attempts: int) -> WorkerCrashError:
        return WorkerCrashError(
            f"worker pool crashed with chunks {lost} in flight "
            f"(after {attempts} dispatch attempt(s), "
            f"max_chunk_retries={self._max_chunk_retries})",
            chunks=tuple(lost),
        )

    def _dispatch_pooled(self, payloads, run_pooled, run_local) -> list:
        """Fan the payloads over the pool, recovering from worker crashes.

        Every chunk is dispatched as its own future and polled with a
        timeout; when a worker death is detected the damaged pool is torn
        down (which sweeps shared-memory orphans), a fresh pool is forked,
        and only the unfinished chunks are re-dispatched with their
        original payloads -- each chunk is a pure function of its seed, so
        the recovered results are byte-identical to a fault-free run.
        Completed shared-memory chunks are adopted as they arrive, which
        keeps their segments out of the orphan sweep.  Chunks still lost
        after ``max_chunk_retries`` rounds escalate per
        ``on_worker_failure`` (typed error, or permanent serial degrade).
        """
        results: list = [None] * len(payloads)
        retries = [0] * len(payloads)
        pending = list(range(len(payloads)))
        while pending:
            pool = self._ensure_pool()
            initial_pids = self._worker_pids()
            inflight = {
                index: self._apply_async(pool, run_pooled, payloads[index])
                for index in pending
            }
            crashed = False
            while inflight and not crashed:
                for index in list(inflight):
                    try:
                        value = inflight[index].get(timeout=_CRASH_POLL_SECONDS)
                    except multiprocessing.TimeoutError:
                        if self._pool_damaged(initial_pids):
                            crashed = True
                            break
                        continue
                    if isinstance(value, ShmBatchRef):
                        value = shm_transport.adopt(value)
                    results[index] = value
                    del inflight[index]
            if not inflight:
                return results
            # Crash path: the chunks still in flight are (possibly) lost.
            lost = sorted(inflight)
            self._worker_crashes += 1
            self.close()  # terminate the damaged pool; sweep shm orphans
            if self._on_worker_failure == "raise":
                raise self._crash_error(lost, attempts=max(retries[i] for i in lost) + 1)
            for index in lost:
                retries[index] += 1
            exhausted = max(retries[index] for index in lost) > self._max_chunk_retries
            if exhausted:
                if self._on_worker_failure == "serial":
                    self._degraded = True
                    for index in lost:
                        results[index] = run_local(self._base, payloads[index])
                    return results
                raise self._crash_error(lost, attempts=max(retries[i] for i in lost))
            pending = lost
        return results


def maybe_parallel(
    engine: SamplingEngine,
    workers: int | str | None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    on_worker_failure: str = "retry",
) -> SamplingEngine:
    """Wrap ``engine`` in a :class:`ParallelEngine` when a worker count is given.

    ``workers=None`` returns the engine unchanged (the historical
    single-stream path, bit-compatible with pre-parallel releases); any
    explicit count -- including 1 -- selects the chunked deterministic
    fan-out path, so results for ``workers=1`` and ``workers=N`` coincide.
    An engine that is already parallel passes through untouched (its own
    worker count *and* crash policy win; wrapping pools in pools would
    only add overhead).  ``on_worker_failure`` sets the crash policy of a
    newly created wrapper (the serving layer passes ``"serial"`` so a
    crashed pool degrades instead of failing queries).
    """
    resolved = resolve_worker_count(workers)
    if resolved is None or isinstance(engine, ParallelEngine):
        return engine
    return ParallelEngine(
        engine, workers=resolved, chunk_size=chunk_size, on_worker_failure=on_worker_failure
    )


# --------------------------------------------------------------------------- #
# Engine-agnostic sampling reductions
# --------------------------------------------------------------------------- #
#
# The estimation layers consume *functions of* the sampled paths -- type-1
# indicators for pmax (Alg. 2 / Corollary 2), covered-trace indicators for
# f(I) (Lemma 2), the type-1 subset for the MSC instance (Alg. 3).  These
# helpers dispatch on the engine: a ParallelEngine reduces worker-side (so
# only the reduced form crosses the process boundary), any other engine
# samples and reduces in-process on the caller's own stream -- which keeps
# the workers=None path bit-compatible with pre-parallel releases.


def sample_type1_indicators(
    engine: SamplingEngine,
    target: NodeId,
    stop_set: Iterable[NodeId],
    count: int,
    rng: RandomSource = None,
) -> bytes:
    """The type indicators ``y(ĝ)`` of ``count`` reverse samples, one byte each."""
    if isinstance(engine, ParallelEngine):
        return b"".join(engine.sample_reduced(target, stop_set, count, rng, _type1_indicator_bytes))
    return engine.sample_path_batch(target, stop_set, count, rng=rng).type1_bytes()


def sample_covered_indicators(
    engine: SamplingEngine,
    target: NodeId,
    stop_set: Iterable[NodeId],
    count: int,
    invitation: frozenset,
    rng: RandomSource = None,
) -> bytes:
    """Covered-trace indicators (Lemma 2) of ``count`` reverse samples."""
    if isinstance(engine, ParallelEngine):
        return b"".join(
            engine.sample_reduced(
                target, stop_set, count, rng, _covered_indicator_bytes, arg=invitation
            )
        )
    return engine.sample_path_batch(target, stop_set, count, rng=rng).covered_bytes(invitation)


def collect_type1(
    engine: SamplingEngine,
    target: NodeId,
    stop_set: Iterable[NodeId],
    count: int,
    rng: RandomSource = None,
) -> tuple[list[TargetPath], int]:
    """Draw ``count`` traces, keeping only the type-1 ones.

    The parallel counterpart of
    :func:`repro.diffusion.engine.collect_type1_paths` (to which it defers
    for non-parallel engines): with a :class:`ParallelEngine` the type-0
    paths are dropped inside the workers and never cross the process
    boundary.
    """
    if isinstance(engine, ParallelEngine):
        compiled = engine.compiled
        chunks = engine.sample_reduced(target, stop_set, count, rng, _type1_paths_only)
        paths: list[TargetPath] = []
        for chunk in chunks:
            # Packed type-1 columns off the wire; objects built here, once,
            # only for the paths the MSC instance will consume.
            paths.extend(chunk.attach(compiled).to_paths())
        return paths, len(paths)
    return collect_type1_paths(engine, target, stop_set, count, rng=rng)
