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
  ``chunk_size`` -- never on the worker count.  A request whose ``rng`` is
  a :class:`~repro.diffusion.engine.DrawPlan` (the stopping rule's several
  batches) chunks each group as a lone request with that group's count
  and rng would.
* Chunk ``i`` draws from its own generator, rebuilt from an integer seed
  derived from the caller's ``rng`` via SHA-256 label mixing
  (:func:`repro.utils.rng.derive_seed` with label ``"parallel-chunk-<i>"``).
  Seeds are derived sequentially in chunk order, so the caller's stream is
  consumed identically regardless of how chunks are later scheduled.
* Results are concatenated in chunk order, so the merged path list -- and
  therefore everything downstream, including the exact sample index at
  which the stopping rule halts -- is bit-stable across runs and identical
  for ``workers=1`` and ``workers=N``.

Execution (DESIGN.md §3, "walks").  A lockstep walk costs about the same
per round whatever its walker count, so consecutive chunks are fused into
walks of at most :data:`WALK_SIZE` paths (8192, the base engine's walk
bound), and each walk is one kernel call over its chunks' seeded groups.
The pool rule: with ``T = min(workers, chunks)`` walks able to run at
once, a request goes to the pool when cutting it into ``T`` walks takes at
least :data:`POOL_MIN_CHUNKS` chunks' worth of paths off the parent's walk
(``P - P / T``) -- on a lockstep base engine, whose fused walk costs its
rounds; on any other engine, whenever ``T > 1``.  A pooled request is cut
into walks as even as whole chunks allow, one task per walk.  Any other
request runs as fused walks in the parent.
Execution also stays in-process (same chunks, same results)
when ``workers <= 1``, when the engine is degraded or retired, or when the
platform lacks the ``fork`` start method (workers inherit the compiled
graph by forking; shipping it by pickle to spawned processes would cost more
than it saves).  The pool is forked by :meth:`ParallelEngine.start` -- or,
failing that, on first pooled dispatch -- reused across calls, and torn
down when the engine is closed or collected.  One engine may serve several
threads: dispatches and pool teardown are serialized on the engine's lock.
A pool belongs to the process that forked it: in a forked child (say, a
scenario-matrix cell) the inherited pool is disowned untouched -- neither
dispatched to nor terminated -- and the child forks its own on first use.

Who owns the engine decides when its pool dies.  A caller that builds one
(:func:`maybe_parallel`: a server, the CLI's ``--pool``) closes it.  The
one-shot entry points (``run_raf``, ``estimate_pmax``, the evaluation and
screening helpers) get theirs from :func:`shared_engine` instead: one cached
engine per process for the current (snapshot, engine, worker count), reused
by every call with that key, retired -- its pool closed for good -- when
the key changes, and torn down at exit.

Transport (DESIGN.md §7): every walk is a columnar
:class:`~repro.diffusion.path_batch.PathBatch`; finished walks travel back
from the workers either pickled through the result pipe
(``transport="pickle"``) or as zero-copy shared-memory segments
(``transport="shm"``, the default where available): the worker
publishes the columns once into a named segment and ships only a tiny
descriptor; the parent adopts views over the segment with a ref-counted,
unlink-on-release lifecycle (:mod:`repro.parallel.shm`).  The transport
never changes results -- the adopted columns are byte-for-byte the
pickled ones -- and degrades per walk to pickling whenever a segment
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

from repro.diffusion.engine import (
    DEFAULT_CHUNK_SIZE as WALK_SIZE,
    DrawPlan,
    SamplingEngine,
    TargetPath,
    canonical_engine_name,
    pack_walks,
    plan_groups,
    reduce_walks,
    resolve_engine,
)
from repro.diffusion.path_batch import PathBatch
from repro.exceptions import EngineError, WorkerCrashError
from repro.faults import SITE_SHM_PUBLISH, SITE_SLOW_CHUNK, SITE_WORKER_KILL, FaultPlan
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.social_graph import SocialGraph
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
    "shared_engine",
    "close_shared_engine",
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

#: On a lockstep base engine, a request goes to the pool only when spreading
#: it over the workers takes at least this many chunks' worth of paths off
#: the parent's own walk (4096 paths at the default chunk size): below that,
#: dispatching and collecting the tasks costs more than the rounds it saves
#: (DESIGN.md §3.5).
POOL_MIN_CHUNKS = 2

#: How many respawn-and-retry rounds a lost walk gets before the engine
#: gives up (raises :class:`~repro.exceptions.WorkerCrashError`) or degrades
#: to serial execution, per ``on_worker_failure``.
DEFAULT_CHUNK_RETRIES = 2

#: What a dispatch does when a worker process dies mid-walk: ``"retry"``
#: re-derives the lost walks on a respawned pool up to the retry budget and
#: then raises; ``"serial"`` retries the same way but degrades to in-process
#: execution (slower, never wrong) when the budget runs out; ``"raise"``
#: fails fast on the first crash.
FAILURE_MODES = ("retry", "serial", "raise")

#: How long (seconds) a pending walk future is polled before the worker
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


def _sample_walk_on(engine: SamplingEngine, payload: tuple) -> PathBatch:
    """Draw one walk's chunks on ``engine`` as one fused lockstep walk.

    ``payload`` is ``(target, stop_set, sized_seeds)``; chunk ``i`` draws
    from a generator rebuilt from its seed, so its paths are those a lone
    ``sample_path_batch(target, stop_set, size_i, rng=random.Random(seed_i))``
    returns.  Returned batches pickle as packed array buffers -- the graph
    reference is dropped in transit and the parent re-attaches its own
    snapshot -- so shipping full paths between processes costs a few flat
    arrays instead of one pickled :class:`TargetPath` per sample.
    """
    target, stop_set, sized_seeds = payload
    plan = DrawPlan(tuple((size, random.Random(seed)) for size, seed in sized_seeds))
    return engine.sample_path_batch(target, stop_set, plan.count, rng=plan)


def _sample_walk(payload: tuple):
    assert _WORKER_ENGINE is not None, "worker pool used before initialization"
    return _ship_batch(_sample_walk_on(_WORKER_ENGINE, payload))


def _reduce_walk_on(engine: SamplingEngine, payload) -> object:
    reducer, target, stop_set, sized_seeds, arg = payload
    return reducer(_sample_walk_on(engine, (target, stop_set, sized_seeds)), arg)


def _reduce_walk(payload) -> object:
    assert _WORKER_ENGINE is not None, "worker pool used before initialization"
    return _reduce_walk_on(_WORKER_ENGINE, payload)


def _run_with_fault(directives, run_pooled, payload):
    """Apply a walk's injected-fault directives, then run it normally.

    The parent decides the directives (from its :class:`FaultPlan`) when
    the walk is dispatched; the worker only executes them: ``"slow"``
    sleeps, ``"shm-fail"`` forces this walk's shared-memory publish to
    decline (pickle fallback), ``"kill"`` SIGKILLs the worker process --
    the real crash the recovery path must survive, not a simulation of
    one.  Directives never touch the walk's seeds or contents.
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


# Walk reducers.  Applied worker-side so a walk's IPC cost is one byte per
# sample (indicators) or only the distinct type-1 sets instead of every
# path; must be top-level functions so they pickle by reference.  Each
# reduces a walk's columns directly, building no per-path objects.
def _type1_indicator_bytes(batch: PathBatch, _arg) -> bytes:
    return batch.type1_bytes()


def _covered_indicator_bytes(batch: PathBatch, invited: frozenset) -> bytes:
    return batch.covered_bytes(invited)


def _distinct_type1_rows(batch: PathBatch, _arg) -> tuple:
    # The first occurrence of each distinct type-1 set as packed columns,
    # plus the counts; the parent merges walks (DESIGN.md §6.5).
    return batch.distinct_type1_rows()


def _even_walks(chunks: list, tasks: int) -> list:
    """Contiguous walks over ``(size, ...)`` chunks for ``tasks`` workers.

    Finds the smallest bound that packs the chunks into at most ``tasks``
    walks -- the largest walk as small as whole chunks allow -- and packs
    by it, capped at :data:`WALK_SIZE` (so a large request gets more
    walks, and a larger chunk walks alone).
    """
    low = max(size for size, _ in chunks)
    high = max(low, sum(size for size, _ in chunks))
    while low < high:
        middle = (low + high) // 2
        if len(pack_walks(chunks, middle)) <= tasks:
            high = middle
        else:
            low = middle + 1
    return pack_walks(chunks, min(low, WALK_SIZE))


def _shutdown_pool(pool) -> None:
    pool.terminate()
    pool.join()


#: Pools a forked child inherited from its parent and disowned (see
#: ParallelEngine._disown_pool): referenced, never used, never collected.
_INHERITED_POOLS: list = []


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
        self._retired = False
        self._worker_crashes = 0
        self._pool = None
        self._pool_finalizer = None
        self._pool_snapshot = None
        self._pool_pid = None  # the process that forked self._pool
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
    def walk_size(self) -> int:
        """Most paths one fused lockstep walk holds (a larger chunk walks
        alone): :data:`WALK_SIZE`."""
        return WALK_SIZE

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

        While attached, each dispatched walk consults the plan for
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
        """Whether multi-walk dispatches go to a worker pool at all."""
        if self._degraded or self._retired:
            return False
        return self._workers > 1 and fork_available()

    def retire(self) -> None:
        """Close the pool for good: every later dispatch runs in the parent.

        :func:`shared_engine` retires the engine its slot lets go of, so a
        run still sampling from it finishes in-process (same results)
        instead of forking a pool no cache will ever close.
        """
        with self._lock:
            self._retired = True
            self.close()

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
        if self._pool is not None and self._pool_pid != os.getpid():
            self._disown_pool()
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
            self._pool_pid = os.getpid()
        return self._pool

    def _disown_pool(self) -> None:
        """Forget a pool this process inherited by ``fork``, untouched.

        Its workers are the forking parent's children, its pipes are the
        parent's, and its handler threads did not survive the fork: this
        process may neither dispatch to it nor terminate it.  The finalizer
        is detached so exit never kills the parent's workers, and the
        ``Pool`` object is kept referenced so that collecting it never
        writes to the parent's task pipe (``Pool.__del__`` wakes its
        handler).
        """
        self._pool_finalizer.detach()
        _INHERITED_POOLS.append(self._pool)
        self._pool = None
        self._pool_finalizer = None
        self._pool_snapshot = None

    def close(self) -> None:
        """Tear down the worker pool (idempotent; the engine stays usable --
        a later parallel dispatch simply forks a fresh pool).  Also sweeps
        shared-memory orphans: with the pool gone no descriptor is in
        flight, so any surviving segment under this process's prefix is the
        leftover of a crashed worker and is unlinked.  Waits for a dispatch
        running on another thread to finish first.  In a forked child the
        inherited pool is only disowned (see :meth:`_disown_pool`)."""
        with self._lock:
            if self._pool is not None and self._pool_pid != os.getpid():
                self._disown_pool()
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
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        count: int,
        rng: "RandomSource | DrawPlan" = None,
    ) -> PathBatch:
        """Draw ``count`` traces as one columnar batch (chunked fan-out).

        The request is split into fixed-size chunks, each chunk is drawn
        from its own derived-seed generator, the chunks are fused into
        walks by the pool rule (possibly on a worker process, which ships
        packed columns back), and the walks are concatenated in order on
        the parent -- so the result is independent of the worker count and
        of walk scheduling.  A :class:`~repro.diffusion.engine.DrawPlan`
        chunks each of its groups as a lone call with that group's count
        and rng would.
        """
        compiled = self.compiled
        walks = self._run_walks(target, stop_set, self._request_chunks(count, rng))
        return PathBatch.concat([walk.attach(compiled) for walk, _ in walks], compiled)

    def sample_seeded_batches(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        sized_seeds: "list[tuple[int, int]]",
    ) -> list[PathBatch]:
        """Draw explicitly seeded chunks, fused into walks over the worker pool.

        ``sized_seeds`` is a list of ``(count, seed)`` pairs; chunk ``i`` is
        ``sample_path_batch(target, stop_set, count_i,
        rng=random.Random(seed_i))`` on the base engine, and the per-chunk
        batches are returned in input order.  This is the fan-out the
        sample pool (:mod:`repro.pool`) uses to extend a key by several
        chunks at once: the caller owns the seed schedule (so the chunk
        contents are a pure function of the seeds, worker-count
        independent), and each walk is split back into its chunks by
        position.
        """
        compiled = self.compiled
        for size, _ in sized_seeds:
            require_non_negative_int(size, "count")
        batches: list[PathBatch] = []
        for walk, chunks in self._run_walks(target, stop_set, list(sized_seeds)):
            batches.extend(walk.attach(compiled).split([size for size, _ in chunks]))
        return batches

    def sample_seeded_chunks(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        sized_seeds: "list[tuple[int, int]]",
    ) -> list[list[TargetPath]]:
        """The object view of :meth:`sample_seeded_batches`, chunk by chunk."""
        chunks = self.sample_seeded_batches(target, stop_set, sized_seeds)
        return [chunk.to_paths() for chunk in chunks]

    def sample_reduced(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        count: int,
        rng: "RandomSource | DrawPlan",
        reducer,
        arg=None,
    ) -> list:
        """Draw ``count`` traces and apply ``reducer`` to each walk worker-side.

        ``reducer(batch, arg)`` must be a top-level (picklable) function
        whose value on a walk is its values on the walk's chunks
        concatenated -- or, for the distinct type-1 sets, merges to them --
        so the answer does not depend on how chunks fuse into walks; its
        per-walk results are returned in walk order.
        Chunk layout and seeds are exactly those of :meth:`sample_paths`,
        so a reduction over ``sample_reduced`` sees the same paths
        ``sample_paths`` would return -- the reduction only moves *where*
        the paths are consumed, keeping the inter-process traffic
        proportional to the reduced size rather than to the raw path count.
        """
        chunks = self._request_chunks(count, rng)
        walks = self._run_walks(target, stop_set, chunks, reducer=reducer, arg=arg)
        return [result for result, _ in walks]

    def _request_chunks(self, count, rng) -> list:
        """The request's ``(size, seed)`` chunks, in order.

        Each group of the request (see :func:`~repro.diffusion.engine.plan_groups`)
        is cut into ``chunk_size`` pieces, and chunk ``i`` of a group gets
        ``derive_seed(group_rng, "parallel-chunk-<i>")``.
        """
        require_non_negative_int(count, "count")
        chunks = []
        for size, group_rng in plan_groups(count, rng):
            generator = ensure_rng(group_rng)
            for index, offset in enumerate(range(0, size, self._chunk_size)):
                seed = derive_seed(generator, f"parallel-chunk-{index}")
                chunks.append((min(self._chunk_size, size - offset), seed))
        return chunks

    def _walks(self, chunks: list) -> tuple[list, bool]:
        """The pool rule: ``(walks, pooled)`` for a request's ``(size, seed)`` chunks.

        With ``T = min(workers, chunks)`` walks able to run at once, the
        request is pooled when ``T`` even walks take at least
        :data:`POOL_MIN_CHUNKS` chunks' worth of paths off the parent's
        walk (on a lockstep base engine; on another, whenever ``T > 1``);
        the walks then keep the largest one as small as whole chunks allow.
        Otherwise the chunks are packed into walks of at most
        :data:`WALK_SIZE` paths for the parent.  Walks never change which
        paths a chunk draws, only how many run in one kernel call.
        """
        total = sum(size for size, _ in chunks)
        tasks = min(self._workers, len(chunks)) if self._forks() else 1
        # Only a lockstep engine walks a fused request faster than its
        # paths' worth; on any other, spreading the paths always pays.
        lockstep = getattr(self._base, "lockstep", False)
        saving = POOL_MIN_CHUNKS * self._chunk_size if lockstep else 0
        if tasks > 1 and total * (tasks - 1) >= saving * tasks:
            walks = _even_walks(chunks, tasks)
            if len(walks) > 1:
                return walks, True
        return pack_walks(chunks, WALK_SIZE), False

    def _run_walks(self, target, stop_set, chunks, reducer=None, arg=None) -> list:
        """Draw the ``(size, seed)`` chunks as fused walks, in order.

        Returns ``(result, walk)`` per walk: the walk's batch (or its
        reduction) and the chunks it holds.
        """
        walks, pooled = self._walks(chunks)
        stop = stop_set if isinstance(stop_set, frozenset) else frozenset(stop_set)
        if reducer is None:
            payloads = [(target, stop, tuple(walk)) for walk in walks]
            run_pooled, run_local = _sample_walk, _sample_walk_on
        else:
            payloads = [(reducer, target, stop, tuple(walk), arg) for walk in walks]
            run_pooled, run_local = _reduce_walk, _reduce_walk_on
        first_chunks = [0]
        for walk in walks:
            first_chunks.append(first_chunks[-1] + len(walk))
        chunk_ids = [range(low, high) for low, high in zip(first_chunks, first_chunks[1:])]
        results = self._dispatch(payloads, run_pooled, run_local, chunk_ids, pooled)
        return list(zip(results, walks))

    # ------------------------------------------------------------------ #
    # Dispatch and crash recovery
    # ------------------------------------------------------------------ #

    def _dispatch(self, payloads, run_pooled, run_local, chunk_ids, pooled) -> list:
        """Run the walk payloads, on the pool when ``pooled``, serially otherwise.

        The serial path (the pool rule's choice, or a degraded or retired
        engine) runs the same payloads on the base engine; walk contents
        are pure functions of their chunk seeds, so both paths return the
        identical list.  ``chunk_ids[i]`` holds the chunk indices of walk
        ``i``, which crash errors name.
        """
        if pooled and self._forks():
            with self._lock:
                if self._forks():  # another thread may have degraded or retired it
                    return self._dispatch_pooled(payloads, run_pooled, run_local, chunk_ids)
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
        """The attached fault plan's directives for the next dispatched walk."""
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

    def _crash_error(self, lost: list, attempts: int, chunk_ids) -> WorkerCrashError:
        lost = [chunk for index in lost for chunk in chunk_ids[index]]
        return WorkerCrashError(
            f"worker pool crashed with chunks {lost} in flight "
            f"(after {attempts} dispatch attempt(s), "
            f"max_chunk_retries={self._max_chunk_retries})",
            chunks=tuple(lost),
        )

    def _dispatch_pooled(self, payloads, run_pooled, run_local, chunk_ids) -> list:
        """Fan the walk payloads over the pool, recovering from worker crashes.

        Every walk is dispatched as its own future and polled with a
        timeout; when a worker death is detected the damaged pool is torn
        down (which sweeps shared-memory orphans), a fresh pool is forked,
        and only the unfinished walks are re-dispatched with their
        original payloads -- each walk is a pure function of its chunk
        seeds, so the recovered results are byte-identical to a fault-free
        run.  Completed shared-memory walks are adopted as they arrive,
        which keeps their segments out of the orphan sweep.  Walks still
        lost after ``max_chunk_retries`` rounds escalate per
        ``on_worker_failure`` (typed error naming the lost chunks, or
        permanent serial degrade).
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
            # Crash path: the walks still in flight are (possibly) lost.
            lost = sorted(inflight)
            self._worker_crashes += 1
            self.close()  # terminate the damaged pool; sweep shm orphans
            if self._on_worker_failure == "raise":
                raise self._crash_error(lost, max(retries[i] for i in lost) + 1, chunk_ids)
            for index in lost:
                retries[index] += 1
            exhausted = max(retries[index] for index in lost) > self._max_chunk_retries
            if exhausted:
                if self._on_worker_failure == "serial":
                    self._degraded = True
                    for index in lost:
                        results[index] = run_local(self._base, payloads[index])
                    return results
                raise self._crash_error(lost, max(retries[i] for i in lost), chunk_ids)
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


#: The process's one cached engine, ``((snapshot, engine key, workers),
#: engine)``, or None.  Read and replaced under _SHARED_LOCK.
_SHARED: "tuple[tuple, ParallelEngine] | None" = None
_SHARED_LOCK = threading.Lock()


def shared_engine(
    graph: "SocialGraph | CompiledGraph",
    engine: "SamplingEngine | str | None",
    workers: int | str | None,
) -> SamplingEngine:
    """The sampling engine a one-shot call with ``workers`` should use.

    With ``workers=None``, or an ``engine`` that is already parallel, this
    is ``maybe_parallel(resolve_engine(graph, engine), workers)``.
    Otherwise it is the process's cached :class:`ParallelEngine` for the
    key (compiled snapshot, engine, worker count), built on first use --
    the engine is its canonical backend name, or the instance itself when
    one is passed.  Calls with the same key share one warm worker pool
    instead of forking and tearing one down per call.  The cache has one
    slot: a call with a different key (a mutated graph's new snapshot,
    another backend or worker count) first retires the engine it holds
    (:meth:`ParallelEngine.retire`), so a process never keeps more than one
    cached pool, and a run still sampling from a replaced engine finishes
    in-process instead of forking a pool of its own.  Callers leave the
    returned engine open; :func:`close_shared_engine` releases it early, and
    it is torn down at exit otherwise.  Results are those of a fresh
    wrapper: chunk contents are pure functions of their seeds.
    """
    global _SHARED
    resolved = resolve_worker_count(workers)
    if resolved is None or isinstance(engine, ParallelEngine):
        return maybe_parallel(resolve_engine(graph, engine), workers)
    compiled = graph if isinstance(graph, CompiledGraph) else compile_graph(graph)
    if engine is None or isinstance(engine, str):
        engine = canonical_engine_name(engine)
    with _SHARED_LOCK:
        if _SHARED is not None:
            (snapshot, *rest), cached = _SHARED
            if snapshot is compiled and rest == [engine, resolved]:
                return cached
            cached.retire()  # before the slot lets go: it never forks uncached
            _SHARED = None
        cached = ParallelEngine(resolve_engine(compiled, engine), workers=resolved)
        _SHARED = ((compiled, engine, resolved), cached)
        return cached


def close_shared_engine() -> None:
    """Retire and forget the engine :func:`shared_engine` caches, if any."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is not None:
            _SHARED[1].retire()
            _SHARED = None


def _reset_shared_lock() -> None:
    # A fork may catch another thread holding the lock; in the child that
    # thread does not exist, so the child starts with a free lock.
    global _SHARED_LOCK
    _SHARED_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_shared_lock)


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
    rng: "RandomSource | DrawPlan" = None,
) -> bytes:
    """The type indicators ``y(ĝ)`` of ``count`` reverse samples, one byte each.

    ``rng`` may be a :class:`~repro.diffusion.engine.DrawPlan`.  Each walk
    is reduced as soon as it is drawn, so only one walk's columns are live
    at a time, however many batches the request holds.
    """
    if isinstance(engine, ParallelEngine):
        return b"".join(engine.sample_reduced(target, stop_set, count, rng, _type1_indicator_bytes))
    return b"".join(
        reduce_walks(engine, target, stop_set, count, rng, lambda batch, _: batch.type1_bytes())
    )


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
    return b"".join(
        reduce_walks(
            engine, target, stop_set, count, rng, lambda batch, _: batch.covered_bytes(invitation)
        )
    )


def collect_type1(
    engine: SamplingEngine,
    target: NodeId,
    stop_set: Iterable[NodeId],
    count: int,
    rng: RandomSource = None,
) -> tuple[list[frozenset], list[int]]:
    """Draw ``count`` traces and count the distinct type-1 node sets.

    Returns ``(members, weights)``: walk by walk, the walk's
    :meth:`~repro.diffusion.path_batch.PathBatch.distinct_type1`.  A set
    drawn in two walks appears once per walk until
    ``SetSystem.deduplicate`` merges them.  A :class:`ParallelEngine`
    reduces each walk where it is drawn, so only distinct rows cross the
    process boundary; a plain engine draws on the caller's generator in
    walks of :data:`WALK_SIZE` paths, so memory is bounded by the walk.
    """
    if isinstance(engine, ParallelEngine):
        compiled = engine.compiled
        reduced = engine.sample_reduced(target, stop_set, count, rng, _distinct_type1_rows)
        walks = [(rows.attach(compiled), counts) for rows, counts in reduced]
    else:
        require_non_negative_int(count, "count")
        generator = ensure_rng(rng)
        stop = stop_set if isinstance(stop_set, (set, frozenset)) else frozenset(stop_set)
        walks = []
        for drawn in range(0, count, WALK_SIZE):
            size = min(WALK_SIZE, count - drawn)
            batch = engine.sample_path_batch(target, stop, size, rng=generator)
            walks.append(batch.distinct_type1_rows())
    members: list[frozenset] = []
    weights: list[int] = []
    for rows, counts in walks:
        members += rows.node_sets()
        weights += counts.tolist()
    return members, weights
