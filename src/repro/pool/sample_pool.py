"""A shared, growable cache of reverse-sampled paths (the sample pool).

Every estimator in the pipeline consumes i.i.d. backward traces ``t(ĝ)``
drawn for some ``(target, stop_set)`` pair: the stopping-rule ``pmax``
estimator (Alg. 2), pair screening, the ``l`` realizations of Alg. 3 and
the Lemma-2 evaluation of ``f(I)``.  Without a pool each of those calls
re-draws its samples from scratch, so a screening run over ``k``
candidates -- or ``k`` queries arriving for the same pair -- re-pays the
full sampling cost ``k`` times.  :class:`SamplePool` removes that
duplication the same way RIS/IMM-family influence estimators reuse their
reverse-reachable sets: samples are drawn once, cached, and every
estimator consumes *prefixes* of one shared stream.

Determinism contract (DESIGN.md §4)
-----------------------------------

The pool never consumes a caller's ``random.Random`` stream.  Instead the
``i``-th sample of a key is a pure function of ``(pool seed, key, i)``:

* a *key* is ``(target, stop_set, stream)``, canonicalized by sorting the
  stop set and hashing with SHA-256 (:func:`pool_key_digest`);
* the key's seed is ``derive_seed(random.Random(pool_seed),
  "pool-key-<digest>")`` -- a fresh generator per derivation, so key seeds
  do not depend on the order in which keys are first touched;
* samples are appended in fixed-size chunks, chunk ``i`` drawn from
  ``random.Random(derive_seed(random.Random(key_seed), "pool-chunk-<i>"))``.

Because chunk seeds depend only on the chunk index, the pool is
*append-only with a stable prefix*: the first ``n`` samples of a key are
the same bytes no matter which query triggered their materialization, how
far the key has been extended since, whether the key was evicted and
re-drawn (or spilled and re-loaded), and whether caching is enabled at
all.  ``reuse=False`` turns the pool into a pass-through that re-draws
every request from the same canonical streams -- the "pool disabled"
reference that pooled results are bit-identical to.

Columnar storage (DESIGN.md §6)
-------------------------------

Chunks are stored exactly as the engine hands them over: every engine
(alone or behind a :class:`~repro.parallel.engine.ParallelEngine`) yields
columnar :class:`~repro.diffusion.path_batch.PathBatch` chunks whose
columns never decay into per-path objects inside the pool -- indicator
reads (:meth:`SamplePool.type1_indicators`,
:meth:`SamplePool.covered_indicators`) reduce directly on the arrays, and
:class:`TargetPath` objects are materialized lazily only where a caller
asks for them.

Memory is bounded two ways: at most ``max_targets`` keys are cached (LRU
by key), and an optional ``budget`` caps the total cached paths across
keys (least-recently-used keys are dropped first; the key currently being
served is never dropped).  With ``spill_dir`` set, evicted keys persist
as *append-safe per-chunk blobs*: each chunk is written once, as a
``.npz`` array blob of its columns, under a name derived from the key
digest *and* the (pool seed, chunk size, CSR digest) triple -- so
re-evicting a grown key writes only the new chunks (eviction cost is
O(new samples), not O(key)), and spills from a foreign seed or a dead
topology are simply never found.  A small
``.meta.json`` per key (rewritten on each spill, O(1)) records the key
metadata for validation and debugging.

Cached paths are only meaningful for the topology they were sampled from.
The pool therefore pins the engine's compiled CSR snapshot and, when the
source graph is mutated (the engine re-snapshots, see
:mod:`repro.graph.compiled`), scopes the invalidation to the keys the
mutation can actually touch (DESIGN.md §10): the graph's structured
mutation log names the nodes whose in-rows changed, and a conservative
reverse-reachability BFS over the *old* CSR
(:func:`repro.graph.compiled.reverse_reachable`) over-approximates the
targets whose walks could ever visit one of them.  Keys outside that set
keep their cached chunks -- and their spill blobs, found through a short
history of previous digests -- because their streams are provably
byte-identical to a cold re-draw on the new topology.  Whenever the delta
cannot be bounded (pinned engine, opaque mutation, log overrun, BFS cap
exceeded), the pool falls back to the historical full flush, so the
prefix-per-topology contract is never weakened, only served cheaper.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.diffusion.engine import DrawPlan, SamplingEngine, TargetPath, reduce_walks
from repro.diffusion.path_batch import PathBatch, PathStore
from repro.faults import SITE_SPILL_IO, FaultPlan
from repro.graph.compiled import reverse_reachable
from repro.parallel.engine import ParallelEngine
from repro.types import NodeId, ordered
from repro.utils.rng import derive_seed
from repro.utils.validation import (
    require,
    require_non_negative_int,
    require_positive_int,
)

__all__ = [
    "DEFAULT_POOL_CHUNK",
    "PoolStats",
    "PoolReader",
    "SamplePool",
    "pool_key_digest",
    "STREAM_PMAX",
    "STREAM_REALIZATIONS",
    "STREAM_EVAL",
]

#: Paths drawn per pool chunk.  Fixed so the chunk layout (and with it every
#: chunk seed) never depends on the request sizes that happened to arrive.
DEFAULT_POOL_CHUNK = 1024

#: Stream labels used by the library's own call sites.  Screening and the
#: stopping-rule ``pmax`` estimator share STREAM_PMAX (a screen warms the
#: estimator); realization sampling for cover *selection* and the Lemma-2
#: *evaluation* of candidate invitations use disjoint streams so an
#: invitation is never scored on the very samples it was optimized against.
STREAM_PMAX = "pmax"
STREAM_REALIZATIONS = "realizations"
STREAM_EVAL = "eval"

#: Default cap on the number of cached keys.
DEFAULT_MAX_TARGETS = 64

#: Caps on the reverse-reachability BFS that scopes invalidation after a
#: graph mutation (DESIGN.md §10): at most this many levels / visited nodes
#: before the delta is declared unbounded and the pool falls back to a full
#: flush.  Read at each sync; they trade sync-time CPU for retention and
#: never affect results.
DELTA_MAX_HOPS = 64
DELTA_MAX_NODES = 4096

#: How many re-snapshot transitions the pool remembers for spill-tag
#: compatibility: a key untouched by the last k <= this many transitions can
#: still load the blobs it spilled k topologies ago.
DIGEST_HISTORY_LIMIT = 8


def _csr_digest(compiled) -> str:
    """Digest of the compiled CSR a pool's cached paths were sampled from.

    Delegates to :meth:`repro.graph.compiled.CompiledGraph.csr_digest`,
    which hashes exactly the material this function historically hashed
    (the interned node-id tuple plus the raw CSR column bytes), so spill
    tags written by older releases keep matching.  For a memory-mapped
    snapshot this is O(1): the digest was computed at compile time and is
    carried by the snapshot's ``meta.json``, which is what binds spilled
    samples to the on-disk topology that produced them.
    """
    return compiled.csr_digest()


def pool_key_digest(target: NodeId, stop_set: Iterable[NodeId], stream: str = "") -> str:
    """Canonical digest identifying one ``(target, stop_set, stream)`` key.

    The stop set is sorted (:func:`repro.types.ordered`) and everything is
    serialized through ``repr`` before hashing, so the digest is stable
    across processes and insertion orders without constraining the node-id
    type.  Keys whose stop set is a ``frozenset`` -- every stop set the
    library builds -- are memoized over the last 4096 keys, since one
    served request asks for its key's digest several times.
    """
    if isinstance(stop_set, frozenset):
        return _memoized_key_digest(target, stop_set, stream)
    return _key_digest(target, stop_set, stream)


@functools.lru_cache(maxsize=4096)
def _memoized_key_digest(target: NodeId, stop_set: frozenset, stream: str) -> str:
    return _key_digest(target, stop_set, stream)


def _key_digest(target: NodeId, stop_set: Iterable[NodeId], stream: str) -> str:
    payload = json.dumps(
        {
            "target": repr(target),
            "stop": [repr(node) for node in ordered(stop_set)],
            "stream": stream,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


@dataclass(frozen=True, slots=True)
class PoolStats:
    """Counters describing what a pool has done so far.

    Attributes
    ----------
    keys:
        Keys currently cached in memory.
    cached_paths:
        Paths currently held across all cached keys.
    drawn_paths:
        Paths drawn from the engine over the pool's lifetime.
    served_paths:
        Paths returned to callers (``served - drawn`` is the reuse win).
    evictions:
        Keys dropped by the LRU/budget policy.
    spills, loads:
        Keys written to / restored from the spill directory.
    chunk_writes:
        Chunk blobs actually written to the spill directory.  Chunks
        already on disk are never rewritten (the append-safe contract), so
        re-evicting a grown key increments this only by the new chunks.
    invalidations:
        Re-snapshot transitions the pool has processed (graph mutations
        observed between two pool reads, however many events each covered).
    retained_keys:
        Cumulative keys kept warm across those transitions because the
        delta-scoped reverse-reachability check proved them untouched.
    flushed_keys:
        Cumulative keys discarded by those transitions (delta-scoped hits
        plus every key of each full-flush fallback).
    spill_errors:
        Spill attempts abandoned on an I/O error (real or injected).  A
        failed spill never corrupts state -- blobs are tmp+rename and
        append-only, so the key simply stays memory-only for that round --
        and serving continues unaffected.
    """

    keys: int
    cached_paths: int
    drawn_paths: int
    served_paths: int
    evictions: int
    spills: int
    loads: int
    chunk_writes: int
    invalidations: int = 0
    retained_keys: int = 0
    flushed_keys: int = 0
    spill_errors: int = 0


@dataclass(slots=True)
class _PoolEntry:
    """In-memory state of one key: its chunk store plus the key metadata
    needed to extend or spill it without re-deriving anything.

    ``spill_digest`` is the CSR digest whose snapshot interned the key's
    on-disk blob indices -- the digest its spill tag is built from.  A key
    retained across re-snapshots keeps its original digest, so re-evicting
    it appends to the same blob family instead of re-writing everything.
    ``spill_ok`` drops to False when an index-map-changing transition
    (``remove_node``) makes mixed-interning blobs possible; such keys stay
    warm in memory but are never spilled again.
    """

    target: NodeId
    stop_set: frozenset
    stream: str
    key_seed: int
    store: PathStore = field(default_factory=PathStore)
    chunks_drawn: int = 0
    spill_digest: str = ""
    spill_ok: bool = True


@dataclass(frozen=True, slots=True)
class _DeltaTransition:
    """One processed re-snapshot: what the mutation touched and how.

    ``digest``/``snapshot`` identify the *previous* topology (the one the
    retained blobs were interned on), ``affected`` is the conservative set
    of targets whose streams the transition could have changed, and
    ``index_stable`` records whether the dense node interning survived
    (False after ``remove_node``, which shifts later indices).
    """

    digest: str
    affected: frozenset
    snapshot: object
    index_stable: bool


class SamplePool:
    """A per-target, per-engine cache of canonical reverse-sample streams.

    Parameters
    ----------
    engine:
        The :class:`~repro.diffusion.engine.SamplingEngine` the pool draws
        from (any backend, including a
        :class:`~repro.parallel.engine.ParallelEngine`, whose seeded-chunk
        fan-out the pool uses to extend multiple chunks concurrently).
        Chunks are stored as columnar
        :class:`~repro.diffusion.path_batch.PathBatch` batches.
    seed:
        The pool's base seed.  Everything the pool ever returns is a pure
        function of ``(seed, key, index)``; derive it from the run's base
        generator with a label (e.g. ``derive_seed(rng, "pool")``).
    chunk_size:
        Paths drawn per extension chunk (fixed; part of the stream contract).
    max_targets:
        Maximum cached keys before LRU eviction.
    budget:
        Optional cap on total cached paths across keys (LRU eviction down
        to the cap; the key being served is never evicted).
    spill_dir:
        Optional directory for append-safe per-chunk spill blobs of
        evicted keys (one ``.npz`` per chunk plus one ``.meta.json`` per
        key).
    reuse:
        ``False`` disables caching entirely: every request re-draws from
        the same canonical streams.  Results are bit-identical either way;
        only the sampling cost differs.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` injecting spill I/O
        errors (chaos testing).  Faults only ever make spills fail --
        which the pool survives by keeping the key memory-only -- and
        never change what any caller is served.

    A fresh pool pointed at an existing ``spill_dir`` *adopts* its
    predecessor's spills (DESIGN.md §11): same-digest blobs are found
    through the content-addressed spill tags alone, and blobs written
    under an earlier topology are found through the persisted digest
    lineage record, provided the pool seed, chunk size and engine backend
    match and the lineage proves the key untouched since.  Adoption is
    lazy (per key, on first touch) and byte-identical to a cold re-draw.
    """

    def __init__(
        self,
        engine: SamplingEngine,
        seed: int,
        *,
        chunk_size: int = DEFAULT_POOL_CHUNK,
        max_targets: int = DEFAULT_MAX_TARGETS,
        budget: int | None = None,
        spill_dir: "str | Path | None" = None,
        reuse: bool = True,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        require_positive_int(chunk_size, "chunk_size")
        require_positive_int(max_targets, "max_targets")
        if budget is not None:
            require_positive_int(budget, "budget")
        self._engine = engine
        self._seed = seed
        self._chunk_size = int(chunk_size)
        self._max_targets = int(max_targets)
        self._budget = budget
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._reuse = bool(reuse)
        self._entries: "OrderedDict[str, _PoolEntry]" = OrderedDict()
        self._snapshot = engine.compiled
        self._csr_digest = _csr_digest(self._snapshot)
        self._digest_history: list[_DeltaTransition] = []
        self._drawn = 0
        self._served = 0
        self._evictions = 0
        self._spills = 0
        self._loads = 0
        self._chunk_writes = 0
        self._invalidations = 0
        self._retained = 0
        self._flushed = 0
        self._spill_errors = 0
        self._fault_plan = fault_plan
        self._adopt_persisted_lineage()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def engine(self) -> SamplingEngine:
        """The engine the pool draws from."""
        return self._engine

    @property
    def seed(self) -> int:
        """The pool's base seed (the stream-defining constant)."""
        return self._seed

    @property
    def chunk_size(self) -> int:
        """Paths per extension chunk."""
        return self._chunk_size

    @property
    def reuse(self) -> bool:
        """Whether caching is enabled (``False`` = canonical pass-through)."""
        return self._reuse

    @property
    def drawn_paths(self) -> int:
        """Paths drawn from the engine so far (a plain counter read --
        safe to sample without synchronization while a query executes,
        unlike :meth:`stats`, which iterates the mutable entry map)."""
        return self._drawn

    @property
    def served_paths(self) -> int:
        """Paths returned to callers so far (same lock-free guarantee as
        :attr:`drawn_paths`)."""
        return self._served

    def stats(self) -> PoolStats:
        """Current counters (see :class:`PoolStats`).

        Syncs against the engine's snapshot first, so a graph mutated since
        the last read is reflected immediately (keys/cached-path counts
        never describe a dead CSR).
        """
        self._sync_snapshot()
        return PoolStats(
            keys=len(self._entries),
            cached_paths=sum(len(entry.store) for entry in self._entries.values()),
            drawn_paths=self._drawn,
            served_paths=self._served,
            evictions=self._evictions,
            spills=self._spills,
            loads=self._loads,
            chunk_writes=self._chunk_writes,
            invalidations=self._invalidations,
            retained_keys=self._retained,
            flushed_keys=self._flushed,
            spill_errors=self._spill_errors,
        )

    def cached_count(self, target: NodeId, stop_set: Iterable[NodeId], stream: str = "") -> int:
        """How many samples of this key are materialized in memory right now.

        Synced like :meth:`stats`: a key invalidated by a graph mutation
        counts 0 here even before the next ``take``/``paths`` call.
        """
        return self._cached_count(pool_key_digest(target, stop_set, stream))

    def _cached_count(self, digest: str) -> int:
        self._sync_snapshot()
        entry = self._entries.get(digest)
        return len(entry.store) if entry is not None else 0

    def cached_type1(
        self, target: NodeId, stop_set: Iterable[NodeId], stream: str, limit: int
    ) -> int:
        """The type-1 samples among this key's first ``min(limit, cached)``
        in-memory samples.

        A read-only count over the entry map as it stands: it creates no
        entry, loads no spill, changes no counter and does not sync (call
        :meth:`cached_count` first to drop keys a graph mutation invalidated).
        """
        entry = self._entries.get(pool_key_digest(target, stop_set, stream))
        if entry is None:
            return 0
        return entry.store.type1_bytes(0, min(limit, len(entry.store))).count(1)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        stats = self.stats()
        return (
            f"<SamplePool seed={self._seed} keys={stats.keys} "
            f"cached={stats.cached_paths} reuse={self._reuse}>"
        )

    # ------------------------------------------------------------------ #
    # The canonical streams
    # ------------------------------------------------------------------ #

    def _sync_snapshot(self) -> None:
        """Scope the cache invalidation when the engine re-snapshotted.

        Reading ``engine.compiled`` is what triggers the engine's own
        mutation-counter check, so a graph mutated between two pool reads
        is caught here.  The delta mapper (:meth:`_delta_affected`) turns
        the graph's structured mutation log into a conservative affected
        set over the *old* CSR; only keys whose target lies inside it are
        discarded, every other key stays warm (its stream is provably
        byte-identical on the new topology) and the old digest/snapshot
        are remembered so those keys' spill blobs stay loadable.  When the
        delta cannot be bounded the pool flushes everything, exactly as it
        always did.
        """
        current = self._engine.compiled
        if current is self._snapshot:
            return
        previous = self._snapshot
        previous_digest = self._csr_digest
        self._snapshot = current
        self._csr_digest = _csr_digest(current)
        self._invalidations += 1
        delta = self._delta_affected(previous)
        if delta is None:
            self._flushed += len(self._entries)
            self._entries.clear()
            self._digest_history.clear()
            return
        affected, index_stable = delta
        if affected:
            doomed = [
                digest
                for digest, entry in self._entries.items()
                if entry.target in affected
            ]
            for digest in doomed:
                del self._entries[digest]
            self._flushed += len(doomed)
        self._retained += len(self._entries)
        if not index_stable:
            # The dense interning shifted: appending new-snapshot chunks to
            # an old-digest blob family would mix index spaces on disk.
            # Retained keys stay warm in memory but stop spilling.
            for entry in self._entries.values():
                entry.spill_ok = False
        self._digest_history.append(
            _DeltaTransition(previous_digest, affected, previous, index_stable)
        )
        del self._digest_history[:-DIGEST_HISTORY_LIMIT]

    def _delta_affected(self, previous) -> "tuple[frozenset, bool] | None":
        """Map the mutations behind a re-snapshot to an affected target set.

        Returns ``(affected_node_ids, index_stable)`` when the delta is
        bounded: any key whose target is *not* in the set provably draws
        byte-identical paths on the new topology (its walks, replayed on
        the old CSR, can never reach a node whose in-row changed --
        :func:`repro.graph.compiled.reverse_reachable`).  Returns ``None``
        when the delta is unknowable -- snapshot-pinned engine, snapshots
        without a recorded graph version, an opaque mutation event, a
        mutation log that no longer covers the span, or a BFS that
        overran its hop/size caps -- and the caller must flush everything.
        """
        graph = getattr(self._engine, "source_graph", None)
        if graph is None:
            return None
        old_version = getattr(previous, "graph_version", None)
        if old_version is None or getattr(self._snapshot, "graph_version", None) is None:
            return None
        events = graph.mutations_since(old_version)
        if events is None:
            return None
        touched: list = []
        index_stable = True
        for event in events:
            if event.touched is None:
                return None
            if event.kind == "remove_node":
                index_stable = False
            touched.extend(event.touched)
        if not touched:
            return frozenset(), index_stable
        affected = reverse_reachable(
            previous, touched, max_hops=DELTA_MAX_HOPS, max_nodes=DELTA_MAX_NODES
        )
        if affected is None:
            return None
        return affected, index_stable

    def _key_seed(self, digest: str) -> int:
        # A fresh generator per derivation keeps key seeds independent of
        # the order in which keys are first touched.
        return derive_seed(random.Random(self._seed), f"pool-key-{digest}")

    def _chunk_seed(self, key_seed: int, index: int) -> int:
        return derive_seed(random.Random(key_seed), f"pool-chunk-{index}")

    def _draw_chunks(self, entry: _PoolEntry, first: int, last: int) -> list[PathBatch]:
        """Draw chunks ``[first, last)`` of the entry's canonical stream.

        Returns one columnar batch per index, ready to append to the store.
        """
        sized_seeds = [
            (self._chunk_size, self._chunk_seed(entry.key_seed, index))
            for index in range(first, last)
        ]
        engine = self._engine
        if isinstance(engine, ParallelEngine):
            chunks = engine.sample_seeded_batches(entry.target, entry.stop_set, sized_seeds)
        else:
            # All missing chunks as one request: they share the engine's walks,
            # and each walk is cut back into its chunks as it comes.
            plan = DrawPlan(tuple((size, random.Random(seed)) for size, seed in sized_seeds))
            walks = reduce_walks(
                engine, entry.target, entry.stop_set, plan.count, plan,
                lambda batch, groups: batch.split([size for size, _ in groups]),
            )
            chunks = [chunk for walk in walks for chunk in walk]
        self._drawn += sum(len(chunk) for chunk in chunks)
        return chunks

    def _extend(self, entry: _PoolEntry, count: int) -> None:
        """Materialize the entry's stream up to at least ``count`` paths."""
        if len(entry.store) >= count:
            return
        last = -(-count // self._chunk_size)  # ceil
        for chunk in self._draw_chunks(entry, entry.chunks_drawn, last):
            entry.store.append(chunk)
        entry.chunks_drawn = last

    def _entry_for(
        self, target: NodeId, stop_set: Iterable[NodeId], stream: str, digest: str
    ) -> _PoolEntry:
        """The entry of the key whose :func:`pool_key_digest` is ``digest``:
        cached, loaded from a spill, or new."""
        self._sync_snapshot()
        stop = stop_set if isinstance(stop_set, frozenset) else frozenset(stop_set)
        entry = self._entries.get(digest)
        if entry is None:
            entry = self._load_spilled(digest)
            if entry is None:
                entry = _PoolEntry(
                    target=target,
                    stop_set=stop,
                    stream=stream,
                    key_seed=self._key_seed(digest),
                    spill_digest=self._csr_digest,
                )
            self._entries[digest] = entry
        self._entries.move_to_end(digest)  # LRU: most recent last
        return entry

    def _transient_entry(
        self, target: NodeId, stop_set: Iterable[NodeId], stream: str, digest: str
    ) -> _PoolEntry:
        """An uncached entry over the same canonical stream (``reuse=False``)."""
        self._sync_snapshot()
        return _PoolEntry(
            target=target,
            stop_set=stop_set if isinstance(stop_set, frozenset) else frozenset(stop_set),
            stream=stream,
            key_seed=self._key_seed(digest),
            spill_digest=self._csr_digest,
        )

    def _serve_segment(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        start: int,
        upto: int,
        stream: str,
        view: "Callable[[PathStore, int, int], object]",
        digest: str,
    ):
        """Serve ``view(store, start, upto)`` of a cached key's stream."""
        entry = self._entry_for(target, stop_set, stream, digest)
        self._extend(entry, upto)
        self._served += upto - start
        result = view(entry.store, start, upto)
        self._evict_over_limits()
        return result

    def _serve(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        count: int,
        stream: str,
        view: "Callable[[PathStore, int, int], object]",
    ):
        require_non_negative_int(count, "count")
        digest = pool_key_digest(target, stop_set, stream)
        if not self._reuse:
            self._served += count
            entry = self._transient_entry(target, stop_set, stream, digest)
            self._extend(entry, count)
            return view(entry.store, 0, count)
        return self._serve_segment(target, stop_set, 0, count, stream, view, digest)

    def paths(
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, stream: str = ""
    ) -> list[TargetPath]:
        """The first ``count`` samples of this key's canonical stream.

        Cached samples are served as-is; missing ones are drawn (in whole
        chunks) and appended first.  The returned list is a fresh
        materialization -- callers may consume it freely without perturbing
        the cache.  With ``reuse=False`` each call re-draws its prefix from
        the canonical chunk seeds (sequential consumers should hold a
        :meth:`reader`, which buffers its own key even when caching is off).
        """
        return self._serve(target, stop_set, count, stream, PathStore.slice)

    def distinct_type1(
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, stream: str = ""
    ) -> tuple[list, list]:
        """The counted distinct type-1 node sets of the stream's first ``count`` samples.

        ``(members, weights)`` chunk by chunk
        (:meth:`~repro.diffusion.path_batch.PathStore.distinct_type1`); no
        path becomes an object.
        """
        return self._serve(target, stop_set, count, stream, PathStore.distinct_type1)

    def type1_indicators(
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, stream: str = ""
    ) -> bytes:
        """Type indicators ``y(ĝ)`` of the stream's first ``count`` samples."""
        return self._serve(target, stop_set, count, stream, PathStore.type1_bytes)

    def covered_indicators(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        count: int,
        invitation: frozenset,
        stream: str = "",
    ) -> bytes:
        """Lemma-2 covered-trace indicators of the stream's first ``count`` samples."""

        def _view(store: PathStore, start: int, stop: int) -> bytes:
            return store.covered_bytes(start, stop, invitation)

        return self._serve(target, stop_set, count, stream, _view)

    def reader(self, target: NodeId, stop_set: Iterable[NodeId], stream: str = "") -> "PoolReader":
        """A sequential cursor over this key's canonical stream."""
        return PoolReader(self, target, stop_set, stream)

    # ------------------------------------------------------------------ #
    # Eviction and spill
    # ------------------------------------------------------------------ #

    def _evict_over_limits(self) -> None:
        def total() -> int:
            return sum(len(entry.store) for entry in self._entries.values())

        # Never evict the most recently served key (last in LRU order):
        # dropping a key mid-query would re-draw what was just extended.
        while len(self._entries) > 1 and (
            len(self._entries) > self._max_targets
            or (self._budget is not None and total() > self._budget)
        ):
            digest, entry = self._entries.popitem(last=False)
            self._evictions += 1
            self._spill(digest, entry)

    def _stream_engine_name(self) -> str:
        """The name of the engine whose draws define the canonical streams.

        A :class:`~repro.parallel.engine.ParallelEngine` is transparent
        here: pool chunks are drawn from caller-owned seeds, so its chunk
        contents equal its *base* engine's -- spills must stay shareable
        across worker counts (and with the unwrapped engine).  Different
        base backends (python vs numpy vs numpy-alias) draw different
        streams for the same seed -- the alias engine maps the *same*
        uniform draws through its alias tables rather than the inverse
        CDF -- so their spills must never be mistaken for each other.
        """
        engine = self._engine
        base = getattr(engine, "base", engine)
        return base.name

    def _spill_tag(self, digest: str, csr_digest: "str | None" = None) -> str:
        """The on-disk identity of one key's blobs.

        Besides the key digest it hashes in the pool seed, the chunk size,
        a CSR digest and the stream-defining engine backend -- everything
        that defines the canonical chunk contents -- so a blob name *is*
        its validity: foreign-seed, foreign-chunking, foreign-engine and
        dead-topology spills are never even opened.  ``csr_digest``
        defaults to the current snapshot's; retained keys pass the digest
        their blob family was started under (``_PoolEntry.spill_digest``),
        and historical loads pass digests from the transition history.
        """
        material = (
            f"{digest}:{self._seed}:{self._chunk_size}:"
            f"{csr_digest or self._csr_digest}:{self._stream_engine_name()}"
        )
        return f"{digest}-{hashlib.sha256(material.encode('utf-8')).hexdigest()[:12]}"

    def _meta_path(self, tag: str) -> Path:
        return self._spill_dir / f"pool-{tag}.meta.json"

    def _chunk_path(self, tag: str, index: int) -> Path:
        return self._spill_dir / f"pool-{tag}.chunk-{index:05d}.npz"

    @staticmethod
    def _spillable_id(node: object) -> bool:
        # JSON round-trips these id types losslessly; anything fancier
        # (tuples, dataclasses) is kept in memory only.
        return isinstance(node, (int, str)) and not isinstance(node, bool)

    def _spillable(self, entry: _PoolEntry) -> bool:
        # Blobs hold dense indices only; the key's own ids go into meta.json.
        return all(self._spillable_id(node) for node in (entry.target, *entry.stop_set))

    def _write_canonical_json(self, path: Path, payload: dict) -> None:
        # Canonical encoding (sorted keys, fixed indent) and write-then-rename,
        # exactly like the experiment record store.
        scratch = path.with_name(path.name + ".tmp")
        scratch.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(scratch, path)

    def _write_chunk_blob(self, tag: str, index: int, chunk) -> None:
        """Write one chunk blob unless it is already on disk (append-safe:
        a chunk's contents are a pure function of its name, so an existing
        blob is never rewritten)."""
        path = self._chunk_path(tag, index)
        if path.is_file():
            return
        if self._fault_plan is not None and self._fault_plan.fires(SITE_SPILL_IO):
            raise OSError(f"injected spill fault writing chunk {index} of {tag}")
        scratch = path.with_name(path.name + ".tmp")
        with open(scratch, "wb") as handle:
            chunk.save_npz(handle)
        os.replace(scratch, path)
        self._chunk_writes += 1

    def _spill(self, digest: str, entry: _PoolEntry) -> bool:
        if self._spill_dir is None or entry.chunks_drawn == 0:
            return False
        if not entry.spill_ok:
            return False  # interning shifted under this key; memory-only now
        if not self._spillable(entry):
            return False
        spill_digest = entry.spill_digest or self._csr_digest
        tag = self._spill_tag(digest, spill_digest)
        try:
            self._spill_dir.mkdir(parents=True, exist_ok=True)
            for index, chunk in enumerate(entry.store.chunks()):
                self._write_chunk_blob(tag, index, chunk)
            self._write_canonical_json(
                self._meta_path(tag),
                {
                    "digest": digest,
                    "target": entry.target,
                    "stop": ordered(entry.stop_set),
                    "stream": entry.stream,
                    "pool_seed": self._seed,
                    "chunk_size": self._chunk_size,
                    "csr": spill_digest,
                    "engine": self._stream_engine_name(),
                    "chunks_drawn": entry.chunks_drawn,
                },
            )
        except OSError:
            # A failed spill (disk full, injected fault) abandons this
            # round without corrupting anything: blobs already written are
            # valid (each is complete or absent, tmp+rename), the previous
            # meta -- if any -- still describes a consistent shorter
            # prefix, and the key itself stays served from memory.
            self._spill_errors += 1
            return False
        self._spills += 1
        self._write_lineage()
        return True

    # ------------------------------------------------------------------ #
    # Persisted digest lineage (restart adoption)
    # ------------------------------------------------------------------ #

    def _lineage_path(self) -> Path:
        """The pool's digest-lineage record inside ``spill_dir``.

        Scoped by (pool seed, chunk size, engine backend) -- the
        stream-defining triple -- so pools with different stream contracts
        sharing one directory never read each other's lineage.
        """
        material = f"{self._seed}:{self._chunk_size}:{self._stream_engine_name()}"
        scope = hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]
        return self._spill_dir / f"pool-lineage-{scope}.json"

    def _write_lineage(self) -> None:
        """Persist the current digest plus the transition history (tmp+rename).

        The record is what lets a *restarted* pool adopt spills written
        under an earlier topology: it proves, per transition, which
        targets the mutation could have touched and whether the dense
        interning survived.  Transitions whose affected sets JSON cannot
        round-trip are dropped together with everything older (the
        lineage walk needs an unbroken chain); the write itself is
        tmp+rename, so a crash mid-write leaves the previous record
        intact and a half-written record is never adoptable.
        """
        if self._spill_dir is None:
            return
        lineage = []
        for transition in self._digest_history:
            if not all(self._spillable_id(node) for node in transition.affected):
                lineage = []  # unbroken-chain rule: older entries unreachable
                continue
            lineage.append(
                {
                    "digest": transition.digest,
                    "affected": ordered(transition.affected),
                    "index_stable": transition.index_stable,
                }
            )
        try:
            self._spill_dir.mkdir(parents=True, exist_ok=True)
            self._write_canonical_json(
                self._lineage_path(),
                {
                    "pool_seed": self._seed,
                    "chunk_size": self._chunk_size,
                    "engine": self._stream_engine_name(),
                    "csr": self._csr_digest,
                    "lineage": lineage,
                },
            )
        except OSError:
            self._spill_errors += 1

    def _adopt_persisted_lineage(self) -> None:
        """Seed the transition history from a predecessor's lineage record.

        Adoption requires the full identity to line up: same pool seed,
        chunk size and engine backend (the record's scope *and* its body,
        as a backstop) and -- crucially -- the predecessor's final CSR
        digest equal to this pool's current one.  A graph that changed
        while no pool was running is an unprovable delta, so the lineage
        is ignored and only same-digest spills remain adoptable, exactly
        like the in-memory full-flush fallback.  Adopted transitions
        carry no snapshot object (the predecessor's interning is gone);
        the load path therefore only uses them when the index chain is
        recorded stable, in which case attaching the current snapshot is
        byte-identical.
        """
        if self._spill_dir is None or not self._reuse:
            return
        path = self._lineage_path()
        if not path.is_file():
            return
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return
        if (
            not isinstance(payload, dict)
            or payload.get("pool_seed") != self._seed
            or payload.get("chunk_size") != self._chunk_size
            or payload.get("engine") != self._stream_engine_name()
            or payload.get("csr") != self._csr_digest
        ):
            return
        entries = payload.get("lineage")
        if not isinstance(entries, list):
            return
        adopted = []
        for item in entries:
            if (
                not isinstance(item, dict)
                or not isinstance(item.get("digest"), str)
                or not isinstance(item.get("affected"), list)
                or not isinstance(item.get("index_stable"), bool)
            ):
                return  # malformed record: adopt nothing rather than guess
            adopted.append(
                _DeltaTransition(
                    digest=item["digest"],
                    affected=frozenset(item["affected"]),
                    snapshot=None,
                    index_stable=item["index_stable"],
                )
            )
        self._digest_history = adopted[-DIGEST_HISTORY_LIMIT:]

    def _load_chunk_blob(self, tag: str, index: int, snapshot) -> "PathBatch | None":
        path = self._chunk_path(tag, index)
        if not path.is_file():
            return None
        # Blobs store dense indices relative to the snapshot they were
        # interned on -- attach exactly that snapshot so id materialization
        # stays correct for historical generations.
        return PathBatch.load_npz(path, graph=snapshot)

    def _load_spilled(self, digest: str) -> "_PoolEntry | None":
        """Re-materialize a key from its spill blobs, if any are valid.

        The spill tag already binds the blobs to (key, pool seed, chunk
        size, CSR digest), so a foreign or stale spill is simply not found
        and the key is re-drawn -- the append-only prefix contract makes
        the two outcomes indistinguishable apart from cost.  A partial set
        of blobs (e.g. an interrupted spill) loads as a shorter prefix.

        Blobs written under the current digest are tried first; on a miss
        the transition history is walked newest to oldest, loading a
        previous-topology spill when the key's target was provably
        unaffected by *every* transition since it was written (spill-tag
        compatibility across re-snapshots, DESIGN.md §10).  History
        adopted from a persisted lineage record (a restarted pool) has no
        snapshot object for its generations; those are only consulted
        while the interning chain is recorded stable, in which case the
        current snapshot indexes the old blobs byte-identically.
        """
        if self._spill_dir is None:
            return None
        entry = self._load_spill_generation(digest, self._csr_digest, self._snapshot)
        if entry is not None:
            self._loads += 1
            return entry
        affected_since: set = set()
        index_stable = True
        for transition in reversed(self._digest_history):
            affected_since |= transition.affected
            index_stable = index_stable and transition.index_stable
            if transition.snapshot is None and not index_stable:
                continue  # old interning is gone and provably shifted
            snapshot = transition.snapshot if transition.snapshot is not None else self._snapshot
            entry = self._load_spill_generation(digest, transition.digest, snapshot)
            if entry is not None:
                if entry.target in affected_since:
                    return None  # stale -- and older generations staler still
                entry.spill_ok = index_stable
                self._loads += 1
                return entry
        return None

    def _load_spill_generation(
        self, digest: str, csr_digest: str, snapshot
    ) -> "_PoolEntry | None":
        """Load one key's blobs written under one specific CSR digest.

        Any unreadable, unparsable or structurally wrong file -- a
        crash-interrupted or otherwise damaged spill -- makes the
        generation load as nothing (or as the shorter prefix before the
        damage), never as wrong data: the key is then simply re-drawn.
        """
        tag = self._spill_tag(digest, csr_digest)
        meta_path = self._meta_path(tag)
        if not meta_path.is_file():
            return None
        try:
            payload = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        if (  # the tag construction implies these; keep them as a backstop
            payload.get("digest") != digest
            or payload.get("pool_seed") != self._seed
            or payload.get("chunk_size") != self._chunk_size
            or payload.get("csr") != csr_digest
            or payload.get("engine") != self._stream_engine_name()
        ):
            return None
        store = PathStore()
        try:
            for index in range(int(payload["chunks_drawn"])):
                chunk = self._load_chunk_blob(tag, index, snapshot)
                if chunk is None:
                    break  # later blobs without this one would break the prefix
                store.append(chunk)
            if store.num_chunks == 0:
                return None
            return _PoolEntry(
                target=payload["target"],
                stop_set=frozenset(payload["stop"]),
                stream=payload["stream"],
                key_seed=self._key_seed(digest),
                store=store,
                chunks_drawn=store.num_chunks,
                spill_digest=csr_digest,
            )
        except (KeyError, TypeError, ValueError, OSError, json.JSONDecodeError):
            return None

    def spill_all(self) -> int:
        """Spill every cached key to ``spill_dir`` (no-op without one).

        Returns the number of keys actually written (keys with ids JSON
        cannot round-trip are skipped).  Entries stay cached; this is a
        checkpoint, not an eviction.  The digest-lineage record is
        refreshed alongside, so a process restarting after this call can
        adopt everything the checkpoint wrote (DESIGN.md §11).
        """
        if self._spill_dir is None:
            return 0
        self._sync_snapshot()
        written = sum(1 for digest, entry in self._entries.items() if self._spill(digest, entry))
        if written or self._spills:
            self._write_lineage()
        return written


class PoolReader:
    """A sequential cursor over one key's canonical stream.

    ``take(n)`` returns the next ``n`` samples and advances; the segment
    boundaries a reader happens to use never change the underlying stream,
    so any interleaving of readers and direct :meth:`SamplePool.paths`
    calls over the same key observes the same samples at the same indices.
    ``take_type1_bytes(n)`` advances the same cursor but reads only the
    type indicators -- on columnar chunks no path objects are built.

    With a ``reuse=False`` pool the reader buffers its own copy of the key
    (discarded with the reader), so a sequential consumer still draws each
    chunk once -- the "pool disabled" mode re-pays sampling per *query*,
    not per ``take``.
    """

    def __init__(
        self, pool: SamplePool, target: NodeId, stop_set: Iterable[NodeId], stream: str = ""
    ) -> None:
        self._pool = pool
        self._target = target
        self._stop_set = stop_set if isinstance(stop_set, frozenset) else frozenset(stop_set)
        self._stream = stream
        self._digest = pool_key_digest(target, self._stop_set, stream)  # hashed once per reader
        self._offset = 0
        self._local: _PoolEntry | None = None

    @property
    def offset(self) -> int:
        """How many samples this reader has consumed."""
        return self._offset

    def rewind(self, offset: int) -> None:
        """Move the cursor back to ``offset``: samples read past it count as unserved."""
        require(0 <= offset <= self._offset, "rewind offset must lie in [0, offset]")
        self._pool._served -= self._offset - offset
        self._offset = offset

    def cached_remaining(self) -> int:
        """How many already-materialized *pool* samples lie ahead of the cursor
        (always 0 for a ``reuse=False`` pool: nothing outlives a query)."""
        cached = self._pool._cached_count(self._digest)
        return max(0, cached - self._offset)

    def _take(self, count: int, view: "Callable[[PathStore, int, int], object]"):
        require_non_negative_int(count, "count")
        upto = self._offset + count
        if self._pool.reuse:
            result = self._pool._serve_segment(
                self._target, self._stop_set, self._offset, upto, self._stream, view, self._digest
            )
        else:
            if self._local is None:
                self._local = self._pool._transient_entry(
                    self._target, self._stop_set, self._stream, self._digest
                )
            self._pool._extend(self._local, upto)
            self._pool._served += count
            result = view(self._local.store, self._offset, upto)
        self._offset = upto
        return result

    def take(self, count: int) -> list[TargetPath]:
        """The next ``count`` samples of the stream (drawing if needed)."""
        return self._take(count, PathStore.slice)

    def take_type1_bytes(self, count: int) -> bytes:
        """Type indicators of the next ``count`` samples (cursor advances)."""
        return self._take(count, PathStore.type1_bytes)
