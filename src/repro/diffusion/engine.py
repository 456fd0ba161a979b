"""Batch reverse-sampling engines over the compiled CSR substrate.

Everything the RAF pipeline does with randomness reduces to drawing
backward traces ``t(ĝ)`` (Remark 3, Borgs-style reverse sampling):
estimating ``pmax``, sampling the ``l`` realizations of Alg. 3, screening
experiment pairs and (via Lemma 2) evaluating ``f(I)``.  This module
defines the one interface all of those go through:

* :class:`SamplingEngine` -- the protocol: ``sample_path_batch(target,
  stop_set, count, rng)`` returns ``count`` independent draws as one
  columnar :class:`~repro.diffusion.path_batch.PathBatch`, the only
  representation of drawn paths; ``sample_paths`` is the shared object
  view of that batch (``sample_path_batch(...).to_paths()``), returning
  :class:`TargetPath` objects.  ``rng`` may be a :class:`DrawPlan` of
  several seeded groups, which one request draws as if by one call per
  group, in order.
* :class:`PythonEngine` -- the default, bit-compatible stream.  It walks the
  :class:`~repro.graph.compiled.CompiledGraph` CSR arrays with an
  allocation-free binary search per step and consumes the ``random.Random``
  stream exactly like the historical dict-based sampler (one uniform draw
  per step, neighbours in insertion order), so seeded results are
  bit-for-bit identical to pre-engine versions of the library.  The walk
  writes the batch columns itself.
* :class:`NumpyEngine` -- a vectorized backend that advances a
  whole batch of walks in lockstep: uniform draws and friend selections for
  all active walks are computed with one `numpy` call per step (the friend
  selection uses a single ``searchsorted`` over a globally shifted
  cumulative-weight array), the cycle check compares against each
  walker's own recent history, and finished walks are compacted out with
  boolean masks; once at most :data:`SCALAR_TAIL` walkers are live, the
  walk finishes one walker at a time in Python on the same draws and
  float operations.  The groups of a
  :class:`DrawPlan` share one lockstep walk, each drawing from its own
  generator.  The kernel emits
  a columnar :class:`~repro.diffusion.path_batch.PathBatch` directly; its
  object view is bit-identical, draw for draw, to the historical
  per-walker lockstep kernel (retained as
  :meth:`~NumpyEngine.sample_paths_reference`, the oracle the columnar
  kernel is asserted against).  The engine draws from a ``numpy``
  generator seeded from the caller's ``rng``, so it is deterministic per
  seed but follows its own stream.

* :class:`NumpyAliasEngine` (engine name ``"numpy-alias"``) -- the same
  lockstep kernels with the per-step ``searchsorted`` replaced by an O(1)
  walk over the snapshot's precomputed Vose alias tables
  (:meth:`repro.graph.compiled.CompiledGraph.alias_tables`): one multiply,
  one floor and two gathers per walker per step, independent of degree and
  of the edge count.  It samples the *same distribution* from the *same
  derived generator* but maps uniforms to friends differently, so it
  defines its own named stream (the engine name is the stream tag --
  threaded through pool spill tags and matrix fingerprints exactly like
  the python/numpy split); the default ``"numpy"`` mode stays bit-identical
  to every prior release.

Engines are selected by name (``"python"``, ``"numpy"``, ``"numpy-alias"``
or ``"auto"``) via :func:`create_engine`; :class:`~repro.core.raf.RAFConfig`
and the CLI's ``--engine`` flag feed into that.  See DESIGN.md for the
architecture notes and the determinism contract (§7 for the alias-stream
contract).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from array import array
from bisect import bisect_right
from typing import Iterable, Protocol, runtime_checkable

import numpy as _np

from repro.diffusion.path_batch import PathBatch, TargetPath
from repro.exceptions import EngineError
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.social_graph import SocialGraph
from repro.types import NodeId
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import require_non_negative_int

__all__ = [
    "TargetPath",
    "PathBatch",
    "SamplingEngine",
    "DrawPlan",
    "plan_groups",
    "pack_walks",
    "reduce_walks",
    "PythonEngine",
    "NumpyEngine",
    "NumpyAliasEngine",
    "ENGINE_NAMES",
    "require_engine_name",
    "canonical_engine_name",
    "create_engine",
    "default_engine",
    "resolve_engine",
]

#: Engine names accepted by :func:`create_engine` (and the CLI ``--engine`` flag).
ENGINE_NAMES = ("python", "numpy", "numpy-alias", "auto")

#: Batch size used when a huge sample count is split into bounded chunks,
#: and the most paths the groups of one fused lockstep walk may hold.
DEFAULT_CHUNK_SIZE = 8192


@dataclass(frozen=True, slots=True)
class DrawPlan:
    """Several seeded groups drawn by one sampling request, in order.

    ``groups`` holds ``(count, rng)`` pairs.  ``engine.sample_path_batch(
    target, stop_set, plan.count, rng=plan)`` returns the groups' paths
    concatenated in group order, group ``k`` exactly the batch a lone
    ``sample_path_batch(target, stop_set, count_k, rng=rng_k)`` call
    returns; groups that share one generator consume it in group order,
    as successive calls would.  A plain ``rng`` is the one-group plan.
    """

    groups: tuple

    @property
    def count(self) -> int:
        """The total number of paths the plan draws."""
        return sum(size for size, _ in self.groups)


def plan_groups(count: int, rng: "RandomSource | DrawPlan") -> tuple:
    """The ``(count, rng)`` groups a request draws: a plan's, or ``((count, rng),)``."""
    if not isinstance(rng, DrawPlan):
        return ((count, rng),)
    for size, _ in rng.groups:
        require_non_negative_int(size, "count")
    if rng.count != count:
        raise EngineError(f"a draw plan of {rng.count} paths was requested as {count}")
    return rng.groups


def pack_walks(groups, limit: int) -> list:
    """Split ``(count, ...)`` groups into contiguous runs of at most ``limit`` paths.

    Runs keep the group order; a group larger than ``limit`` runs alone.
    """
    runs: list = []
    run: list = []
    held = 0
    for group in groups:
        if run and held + group[0] > limit:
            runs.append(run)
            run, held = [], 0
        run.append(group)
        held += group[0]
    if run:
        runs.append(run)
    return runs


def reduce_walks(
    engine: "SamplingEngine",
    target: NodeId,
    stop_set: Iterable[NodeId],
    count: int,
    rng: "RandomSource | DrawPlan",
    reducer,
) -> list:
    """Draw a request one fused walk at a time and reduce each walk as it comes.

    The walks are those one ``engine.sample_path_batch(target, stop_set,
    count, rng=rng)`` call makes -- the request's groups packed into runs
    of at most :data:`DEFAULT_CHUNK_SIZE` paths -- and their batches, in
    order, are that call's batch.  Returns ``reducer(batch, groups)`` per
    walk, where ``groups`` are the walk's ``(count, rng)`` groups; only one
    walk's columns are live at a time, not the whole request's.
    """
    results = []
    for walk in pack_walks(plan_groups(count, rng), DEFAULT_CHUNK_SIZE):
        plan = DrawPlan(tuple(walk))
        batch = engine.sample_path_batch(target, stop_set, plan.count, rng=plan)
        results.append(reducer(batch, walk))
        del batch  # the next walk is drawn without this one's columns
    return results


@runtime_checkable
class SamplingEngine(Protocol):
    """The batch reverse-sampling interface consumed by every layer above."""

    name: str

    @property
    def compiled(self) -> CompiledGraph:
        """The frozen CSR snapshot the engine samples from."""
        ...

    def sample_path(
        self, target: NodeId, stop_set: Iterable[NodeId], rng: RandomSource = None
    ) -> TargetPath:
        """Draw one backward trace from ``target``."""
        ...

    def sample_paths(
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, rng: RandomSource = None
    ) -> list[TargetPath]:
        """Draw ``count`` independent backward traces from ``target`` as objects."""
        ...

    def sample_path_batch(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        count: int,
        rng: "RandomSource | DrawPlan" = None,
    ) -> PathBatch:
        """Draw ``count`` backward traces as one columnar :class:`PathBatch`.

        ``sample_paths`` with the same arguments returns exactly this
        batch's object view, in the same order.  ``rng`` may be a
        :class:`DrawPlan` whose groups total ``count``.
        """
        ...


#: Steps of each walker's recent path that the vectorized kernel's cycle
#: check compares against directly; older history spills into a
#: batch-local :class:`_SpilledHistory`.
HISTORY_WINDOW = 64

#: Live walkers at or below which the lockstep kernel finishes a walk one
#: walker at a time in Python: a vectorized round costs tens of numpy calls
#: however few walkers it moves, a scalar step a few microseconds each.
#: The draws and every float operation stay those of the vectorized round,
#: so the cutoff never changes a stream (DESIGN.md §6.4).
SCALAR_TAIL = 8

#: Most walker steps one scatter of the kernel's path assembly places.
_SCATTER_STEPS = 1 << 12

_FIBONACCI = _np.uint64(0x9E3779B97F4A7C15)


class _SpilledHistory:
    """A batch-local open-addressing set of non-negative int64 keys.

    Multiplicative (Fibonacci) hashing into a power-of-two table where -1
    marks a free cell, and linear probing.  An insert that would pass half
    load rebuilds the table at four times the key count, so the table only
    grows as the keys double and each key is re-inserted O(1) times over a
    walk.  Every operation is vectorized over an array.
    """

    __slots__ = ("table", "size")

    def __init__(self) -> None:
        self.table = _np.full(2, -1, dtype=_np.int64)
        self.size = 0

    def _home(self, keys):
        shift = 65 - self.table.size.bit_length()  # 64 - log2(table size)
        return ((keys.astype(_np.uint64) * _FIBONACCI) >> _np.uint64(shift)).astype(_np.int64)

    def add(self, keys) -> None:
        """Insert ``keys``, which must be distinct and not yet present."""
        self.size += keys.size
        if 2 * self.size > self.table.size:
            present = self.keys()
            self.table = _np.full(1 << (4 * self.size - 1).bit_length(), -1, dtype=_np.int64)
            keys = _np.concatenate([present, keys])
        table, slots = self.table, self._home(keys)
        while keys.size:
            free = table[slots] < 0
            table[slots[free]] = keys[free]  # colliding claims: one wins, the rest probe on
            pending = table[slots] != keys
            keys, slots = keys[pending], (slots[pending] + 1) & (table.size - 1)

    def contains(self, keys):
        """Boolean membership of each of ``keys``."""
        table, slots = self.table, self._home(keys)
        found = _np.zeros(keys.size, dtype=bool)
        pending = _np.arange(keys.size)
        while pending.size:
            probe = table[slots]
            found[pending[probe == keys]] = True
            more = (probe != keys) & (probe >= 0)
            pending, keys, slots = pending[more], keys[more], (slots[more] + 1) & (table.size - 1)
        return found

    def keys(self):
        """Every key in the set, in table order."""
        return self.table[self.table >= 0]


class _EngineBase:
    """Shared plumbing: compiled-graph binding and the object views.

    An engine built from a :class:`SocialGraph` stays *live*: every batch
    (and every ``compiled`` access) re-checks the graph's mutation counter
    through :func:`compile_graph` -- O(1) while the graph is unchanged --
    and re-snapshots when the graph was mutated, closing the stale-snapshot
    window between engine construction and the first batch.  An engine built
    directly from a :class:`CompiledGraph` is pinned to that snapshot (the
    caller opted into a specific frozen view).
    """

    __slots__ = ("_graph", "_compiled")

    #: Whether a call advances all its walks in lockstep rounds, so a fused
    #: walk costs about its rounds rather than its paths.  The pool rule of
    #: :class:`~repro.parallel.engine.ParallelEngine` keys on it.
    lockstep = False

    def __init__(self, graph: SocialGraph | CompiledGraph) -> None:
        if isinstance(graph, CompiledGraph):
            self._graph = None
            self._compiled = graph
        else:
            self._graph = graph
            self._compiled = compile_graph(graph)

    @property
    def compiled(self) -> CompiledGraph:
        """The (current) frozen CSR snapshot the engine samples from."""
        if self._graph is not None:
            fresh = compile_graph(self._graph)
            if fresh is not self._compiled:
                self._compiled = fresh
                self._rebind(fresh)
        return self._compiled

    @property
    def source_graph(self) -> "SocialGraph | None":
        """The live graph this engine re-snapshots from (None when pinned).

        Delta-scoped consumers (the sample pool) read the graph's mutation
        log through this to scope invalidation between two snapshots; a
        pinned engine returns ``None`` and they fall back to a full flush.
        """
        return self._graph

    def _rebind(self, compiled: CompiledGraph) -> None:
        """Hook for engines holding derived state of the snapshot."""

    def sample_path(
        self, target: NodeId, stop_set: Iterable[NodeId], rng: RandomSource = None
    ) -> TargetPath:
        """Draw one backward trace from ``target``."""
        return self.sample_paths(target, stop_set, 1, rng=rng)[0]

    def sample_paths(
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, rng: RandomSource = None
    ) -> list[TargetPath]:
        """Draw ``count`` traces as objects: the engine's batch, viewed.

        Same draws, same paths, same order as :meth:`sample_path_batch` --
        this is literally that batch materialized.
        """
        return self.sample_path_batch(target, stop_set, count, rng=rng).to_paths()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"<{type(self).__name__} graph={self._compiled!r}>"


class PythonEngine(_EngineBase):
    """Stdlib-kernel engine: binary-search walks over the CSR arrays.

    Bit-compatible with the historical dict-based sampler: for the same
    seed it consumes the same uniform stream and returns the same paths.
    """

    __slots__ = ()
    name = "python"

    def sample_path_batch(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        count: int,
        rng: "RandomSource | DrawPlan" = None,
    ) -> PathBatch:
        """Draw ``count`` backward traces with the stdlib bisect walk.

        Consumes exactly one ``rng.random()`` per walk step, so seeded
        results are bit-for-bit identical to the historical dict-based
        sampler -- and identical whether the snapshot lives in RAM or is
        memory-mapped from disk (the binary search only ever touches the
        CSR slice of the node being stepped).  The walk appends each
        trace's dense indices (target first, then walk order) straight
        into the batch columns; no per-path object is built.  The groups
        of a :class:`DrawPlan` are walked one after another.
        """
        require_non_negative_int(count, "count")
        groups = plan_groups(count, rng)
        if len(groups) != 1:
            batches = [self.sample_path_batch(target, stop_set, *group) for group in groups]
            return PathBatch.concat(batches, self.compiled)
        generator = ensure_rng(groups[0][1])
        compiled = self.compiled  # re-snapshots if the source graph mutated
        start = compiled.index_of(target)
        stop = compiled.indices_of(stop_set)
        indptr = compiled.indptr
        parents = compiled.parents
        cum_weights = compiled.cum_weights
        rand = generator.random
        offsets = array("q", [0])
        node_indices = array("q")
        flags = bytearray(count)
        anchors = array("q", [-1]) * count
        append = node_indices.append
        for walker in range(count):
            append(start)
            traced = {start}
            current = start
            while True:
                # One uniform draw per step, exactly like the dict sampler
                # (which drew before scanning, even for isolated nodes).
                # The selection inlines CompiledGraph.select_parent: the
                # per-step method call is measurable on this hot path.
                draw = rand()
                lo = indptr[current]
                hi = indptr[current + 1]
                j = bisect_right(cum_weights, draw, lo, hi)
                if j == hi:  # the draw fell into the stop-probability tail
                    break
                parent = parents[j]
                if parent in traced:  # the walk closed a cycle: type-0
                    break
                if parent in stop:  # reached N_s: type-1
                    flags[walker] = 1
                    anchors[walker] = parent
                    break
                traced.add(parent)
                append(parent)
                current = parent
            offsets.append(len(node_indices))
        return PathBatch(
            _np.frombuffer(offsets, dtype=_np.int64),
            _np.frombuffer(node_indices, dtype=_np.int64),
            _np.frombuffer(flags, dtype=bool),
            _np.frombuffer(anchors, dtype=_np.int64),
            compiled,
        )


class NumpyEngine(_EngineBase):
    """Vectorized engine: fully array-native lockstep batched walks.

    Per step, the uniform draws and the per-walk friend selections are one
    ``Generator.random`` and one ``searchsorted`` call for the whole active
    batch.  The friend selection uses the shifted-cumulative trick: entry
    ``j`` of node ``v`` is stored as ``stride·v + cum_weights[j]`` with
    ``stride`` larger than any node's total weight, which makes the
    concatenated array globally sorted so one binary search resolves every
    walker at once.

    The columnar kernel (:meth:`sample_path_batch`) keeps *everything*
    array-native: the cycle check compares each live walker's choice with
    a dense block of the live walkers' last :data:`HISTORY_WINDOW` nodes
    (older history spills into a batch-local hash set), finished walks are
    compacted out with boolean masks, the last :data:`SCALAR_TAIL`
    walkers finish in a scalar tail (:meth:`_scalar_tail`), and the
    surviving per-step frontiers are scattered into a CSR-of-paths
    :class:`PathBatch` at the end.  Its
    memory is bounded by the request (paths and their lengths), never by
    the graph size.  It consumes the numpy stream draw for draw like the
    historical per-walker kernel (one ``Generator.random(live)`` per
    lockstep round, walkers in stable order), so the produced paths are
    bit-identical to pre-columnar releases; :meth:`sample_paths_reference`
    retains that historical kernel as the oracle.

    One instance may be sampled from several threads: a batch (and a
    re-snapshot, which rebinds the derived arrays a batch reads) holds the
    engine's lock, so concurrent calls serialize and each returns exactly
    the paths it would return alone.
    """

    __slots__ = (
        "_np",
        "_indptr",
        "_parents",
        "_shifted",
        "_stride",
        "_totals",
        "_degrees",
        "_alias_prob",
        "_alias_index",
        "_lock",
    )
    name = "numpy"
    lockstep = True

    #: How a lockstep round maps uniform draws to friend selections.  The
    #: subclassed alias mode overrides this; it is part of the engine's
    #: *stream identity* (fixed per engine class, reflected in ``name``),
    #: never a per-call switch -- downstream stream tags (pool spills,
    #: matrix fingerprints) key on the engine name.
    mode = "search"

    def __init__(self, graph: SocialGraph | CompiledGraph) -> None:
        super().__init__(graph)
        self._np = _np
        self._lock = threading.RLock()
        self._rebind(self._compiled)

    @property
    def compiled(self) -> CompiledGraph:
        """The (current) frozen CSR snapshot; re-snapshots under the lock."""
        with self._lock:
            return super().compiled

    def _rebind(self, compiled: CompiledGraph) -> None:
        """Bind the engine's array views to a (possibly re-)compiled snapshot.

        ``asarray`` on a memory-mapped snapshot's columns returns the
        memmap views unchanged (zero-copy), so binding a mapped snapshot
        keeps the O(m) columns on disk; only O(n) derived arrays are
        materialized here.  The search mode's O(m) shifted-cumulative
        array is built lazily by :meth:`_shifted_cum` on first use.
        """
        np = self._np
        self._indptr = np.asarray(compiled.indptr, dtype=np.int64)
        self._parents = np.asarray(compiled.parents, dtype=np.int64)
        self._totals = np.asarray(compiled.totals, dtype=np.float64)
        self._stride = None
        self._shifted = None
        self._degrees = np.diff(self._indptr)
        # Alias columns are built on first alias-mode selection (per snapshot).
        self._alias_prob = None
        self._alias_index = None

    # ------------------------------------------------------------------ #
    # Shared batch setup
    # ------------------------------------------------------------------ #

    def _batch_rng(self, rng: RandomSource):
        # Derive the numpy stream from the caller's random.Random source so a
        # single seed still controls the whole run deterministically.
        return self._np.random.default_rng(ensure_rng(rng).getrandbits(64))

    def _stop_mask(self, compiled: CompiledGraph, stop_set: Iterable[NodeId]):
        np = self._np
        stop_mask = np.zeros(len(compiled), dtype=bool)
        stop_indices = compiled.indices_of(stop_set)
        if stop_indices:
            stop_mask[np.fromiter(stop_indices, dtype=np.int64, count=len(stop_indices))] = True
        return stop_mask

    def _select_parents(self, current, draws):
        """One lockstep round of friend selections: ``(alive, chosen)``.

        ``alive[k]`` is False when walker ``k``'s draw fell into its node's
        stop-probability tail; ``chosen[k]`` is the selected parent's dense
        index (an arbitrary in-range index where ``alive`` is False -- the
        kernels mask it out).  The search mode resolves the whole round
        with one binary search over the globally shifted cumulative array.
        """
        shifted, stride = self._shifted_cum()
        locations = shifted.searchsorted(stride * current + draws, side="right")
        alive = locations < self._indptr.take(current + 1)
        return alive, self._parents.take(locations, mode="clip")

    def _scalar_step(self):
        """One walker's friend selection as Python scalars: ``step(node, draw)``.

        Returns the selected parent's dense index, or -1 when the draw falls
        into the node's stop-probability tail -- exactly what
        :meth:`_select_parents` decides for that walker: the same float64
        key ``stride*node + draw``, searched inside the node's own slice of
        the shifted array, which is where the global search lands.
        """
        shifted, stride = self._shifted_cum()
        indptr, parents = self._indptr.item, self._parents.item

        def step(node, draw):
            hi = indptr(node + 1)
            location = bisect_right(shifted, stride * node + draw, indptr(node), hi)
            return parents(location) if location < hi else -1

        return step

    def _shifted_cum(self):
        """The globally shifted cumulative array (search mode), built lazily.

        Entry ``j`` of node ``v`` is stored as ``stride*v + cum_weights[j]``
        with ``stride`` larger than any node's total weight, which keeps
        the concatenated array globally sorted so one binary search
        resolves a whole lockstep round.  This is the one derived column
        that is O(m) *resident* RAM, so it is materialized only when the
        search mode actually selects -- the alias engine never calls this,
        which is what keeps a memory-mapped snapshot fully out-of-core
        under ``"numpy-alias"``.
        """
        if self._shifted is None:
            np = self._np
            cum = np.asarray(self._compiled.cum_weights, dtype=np.float64)
            totals = self._totals
            # stride > max total weight + 1 keeps every node's slice inside
            # its own [stride*v, stride*(v+1)) band.
            self._stride = float(np.ceil(totals.max() + 2.0)) if totals.size else 2.0
            owner = np.repeat(
                np.arange(len(self._compiled), dtype=np.int64), np.diff(self._indptr)
            )
            self._shifted = cum + self._stride * owner
        return self._shifted, self._stride

    # ------------------------------------------------------------------ #
    # The columnar kernel
    # ------------------------------------------------------------------ #

    def sample_path_batch(
        self,
        target: NodeId,
        stop_set: Iterable[NodeId],
        count: int,
        rng: "RandomSource | DrawPlan" = None,
    ) -> PathBatch:
        """Draw ``count`` backward traces as one columnar :class:`PathBatch`.

        One ``Generator.random(live)`` and one vectorized friend selection
        per lockstep round for the whole surviving batch; deterministic per
        seed on this engine's named stream, bit-identical to
        :meth:`sample_paths_reference`, and bit-identical between in-memory
        and memory-mapped snapshots of the same graph.

        The groups of a :class:`DrawPlan` share one lockstep walk of at
        most :data:`DEFAULT_CHUNK_SIZE` paths (a larger group walks alone):
        each round, every group with live walkers draws ``random(live_k)``
        from its own generator, so group ``k``'s paths are bit-identical to
        a lone call with ``count_k`` and ``rng_k``.
        """
        require_non_negative_int(count, "count")
        groups = plan_groups(count, rng)
        with self._lock:
            np = self._np
            # Generators are derived in group order, as successive calls would.
            seeded = [(size, self._batch_rng(group_rng)) for size, group_rng in groups]
            compiled = self.compiled  # re-snapshots (and rebinds arrays) if stale
            start = compiled.index_of(target)
            if count == 0:
                return PathBatch.empty(compiled)
            if self._parents.size == 0:  # edgeless graph: every walk dies at once
                offsets = np.arange(count + 1, dtype=np.int64)
                return PathBatch(
                    offsets,
                    np.full(count, start, dtype=np.int64),
                    np.zeros(count, dtype=bool),
                    np.full(count, -1, dtype=np.int64),
                    compiled,
                )
            stop_mask = self._stop_mask(compiled, stop_set)
            walks = [
                self._columnar_kernel(compiled, start, stop_mask, walk)
                for walk in pack_walks(seeded, DEFAULT_CHUNK_SIZE)
            ]
            return walks[0] if len(walks) == 1 else PathBatch.concat(walks, compiled)

    def _group_draws(self, groups):
        """The per-round uniform draws of one walk over ``(count, generator)`` groups.

        Returns ``draw(rows)``: ``random(live_k)`` from group ``k``'s own
        generator for each group with live walkers, in group order.
        Compaction keeps walker slots sorted, so each group's live walkers
        are one contiguous run of ``rows``; a group whose walkers have all
        finished is dropped from later rounds.
        """
        np = self._np
        if len(groups) == 1:
            generator = groups[0][1]
            return lambda rows: generator.random(rows.size)
        # Each group as (generator, one past its last slot), while it has live walkers.
        live_groups = list(zip((generator for _, generator in groups),
                               np.cumsum([size for size, _ in groups]).tolist()))

        def draw(rows):
            nonlocal live_groups
            draws = np.empty(rows.size)
            highs = rows.searchsorted([end for _, end in live_groups]).tolist()
            kept, low = [], 0
            for group, high in zip(live_groups, highs):
                if high > low:
                    group[0].random(out=draws[low:high])
                    kept.append(group)
                low = high
            live_groups = kept
            return draws

        return draw

    def _columnar_kernel(self, compiled, start, stop_mask, groups) -> PathBatch:
        np = self._np
        num_nodes = len(compiled)
        count = sum(size for size, _ in groups)
        draw = self._group_draws(groups)
        tail = SCALAR_TAIL
        # Lockstep walkers have all taken the same number of steps, so their
        # recent paths form one dense (width x live) block, its rows doubling
        # up to HISTORY_WINDOW as walks lengthen: one comparison per round is
        # the whole cycle check.  A full block spills into a hash set of
        # slot*n + node keys and restarts, keeping long walks O(1) per step.
        window_size = HISTORY_WINDOW
        window = np.empty((min(8, window_size), count), dtype=np.int64)  # column k: live walker k
        window[0] = start
        width = 1
        spilled = None
        rows = np.arange(count, dtype=np.int64)  # walker slot = output position
        current = np.full(count, start, dtype=np.int64)
        is_type1 = np.zeros(count, dtype=bool)
        anchors = np.full(count, -1, dtype=np.int64)
        step_rows: list = []  # per lockstep round: the walkers that continued
        step_nodes: list = []  # ... and the node each of them moved to
        while rows.size > tail:
            live = rows.size
            alive, chosen = self._select_parents(current, draw(rows))
            # Precedence exactly as the per-walker kernels: a draw in the
            # stop-probability tail or a revisited node ends the walk as
            # type-0 *before* the stop set is consulted.
            revisit = (window[:width, :live] == chosen).any(axis=0)
            if spilled is not None:
                revisit |= spilled.contains(rows * num_nodes + chosen)
            ok = alive > revisit
            hit_stop = stop_mask.take(chosen)
            stopped = ok & hit_stop
            if stopped.any():
                finished = rows[stopped]
                is_type1[finished] = True
                anchors[finished] = chosen[stopped]
            # One index array compacts the walkers and their history columns.
            kept = (ok > hit_stop).nonzero()[0]
            rows = rows.take(kept)
            current = chosen.take(kept)
            if width == window_size:
                spilled = spilled or _SpilledHistory()
                spilled.add((rows * num_nodes + window[:, :live].take(kept, axis=1)).ravel())
                width = 0
            elif width == len(window):
                grown = np.empty((min(2 * width, window_size), rows.size), dtype=np.int64)
                grown[:width] = window[:width, :live].take(kept, axis=1)
                window = grown
            elif rows.size < live:
                window[:width, : rows.size] = window[:width, :live].take(kept, axis=1)
            window[width, : rows.size] = current
            width += 1
            step_rows.append(rows)
            step_nodes.append(current)

        tail_paths = []
        if rows.size:
            # Each remaining walker's traced set: its window column plus its
            # spilled keys.
            history = [set(column) for column in window[:width, : rows.size].T.tolist()]
            if spilled is not None:
                keys = spilled.keys()
                owners, nodes = np.divmod(keys, num_nodes)
                for seen, slot in zip(history, rows.tolist()):
                    seen.update(nodes[owners == slot].tolist())
            tail_paths = self._scalar_tail(
                rows, current, history, stop_mask, draw, is_type1, anchors
            )

        # Assemble the CSR-of-paths columns: each walker's trace is its
        # start node followed by the nodes of the rounds it survived.
        rounds = len(step_rows)
        walked = np.concatenate(step_rows) if step_rows else rows[:0]
        lengths = np.bincount(walked, minlength=count) + 1
        for slot, nodes in tail_paths:
            lengths[slot] += len(nodes)
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        node_indices = np.empty(int(offsets[-1]), dtype=np.int64)
        node_indices[offsets[:-1]] = start
        # A walker that survived round r has taken exactly r steps, so round
        # r's frontier lands at offsets[survivors] + r: one scatter per run
        # of rounds.  Runs of up to _SCATTER_STEPS steps keep the
        # temporaries small, in cache and off the peak RSS.
        steps = [(survivors.size, depth, survivors, frontier) for depth, (survivors, frontier)
                 in enumerate(zip(step_rows, step_nodes), 1)]
        for run in pack_walks(steps, _SCATTER_STEPS):
            sizes, depths, survivors, frontiers = zip(*run)
            at = offsets.take(np.concatenate(survivors))
            at += np.repeat(depths, sizes)
            node_indices[at] = np.concatenate(frontiers)
        for slot, nodes in tail_paths:
            at = int(offsets[slot]) + rounds + 1
            node_indices[at : at + len(nodes)] = nodes
        return PathBatch(offsets, node_indices, is_type1, anchors, compiled)

    def _scalar_tail(self, rows, current, history, stop_mask, draw, is_type1, anchors) -> list:
        """Finish a walk's last few walkers one at a time in Python.

        ``rows`` and ``current`` are the live walkers' slots and nodes, and
        ``history[k]`` is walker ``k``'s traced set.  Every round draws
        exactly as a vectorized round would (``draw(rows)``: one
        ``random(live_k)`` per group with live walkers) and steps the
        walkers in slot order through :meth:`_scalar_step`, with the
        kernel's precedence: the stop tail or a revisit ends a walk as
        type-0 before the stop set is consulted.  Writes the type-1 flags
        and anchors; returns ``(slot, nodes walked here)`` per walker.
        """
        step = self._scalar_step()
        stops = stop_mask.item
        walkers = [
            [slot, node, seen, []]
            for slot, node, seen in zip(rows.tolist(), current.tolist(), history)
        ]
        paths = [(slot, nodes) for slot, _, _, nodes in walkers]
        while walkers:
            survivors = []
            for walker, value in zip(walkers, draw(rows).tolist()):
                slot, node, seen, nodes = walker
                parent = step(node, value)
                if parent < 0 or parent in seen:
                    continue
                if stops(parent):
                    is_type1[slot] = True
                    anchors[slot] = parent
                    continue
                seen.add(parent)
                nodes.append(parent)
                walker[1] = parent
                survivors.append(walker)
            if len(survivors) < len(walkers):
                rows = self._np.array([walker[0] for walker in survivors], dtype=self._np.int64)
            walkers = survivors
        return paths

    # ------------------------------------------------------------------ #
    # The historical per-walker kernel, retained as the reference path
    # ------------------------------------------------------------------ #

    def sample_paths_reference(
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, rng: RandomSource = None
    ) -> list[TargetPath]:
        """The pre-columnar lockstep kernel (per-walker set bookkeeping).

        Consumes the numpy stream identically to :meth:`sample_path_batch`
        and returns the identical paths; kept only as the reference the
        columnar kernel is asserted against (benchmarks and the
        equivalence test suites).
        """
        require_non_negative_int(count, "count")
        nprng = self._batch_rng(rng)
        compiled = self.compiled
        start = compiled.index_of(target)
        if count == 0:
            return []
        if self._parents.size == 0:
            return [TargetPath(nodes=frozenset({target}), is_type1=False) for _ in range(count)]
        stop_mask = self._stop_mask(compiled, stop_set)
        return self._reference_kernel(compiled, start, stop_mask, count, nprng)

    def _reference_kernel(self, compiled, start, stop_mask, count, nprng) -> list[TargetPath]:
        np = self._np
        ids = compiled.nodes
        # Dense results first, ids mapped in one bulk pass at the end: the
        # per-walker loop only juggles ints and sets.
        traced: list[set[int]] = [{start} for _ in range(count)]
        flags = bytearray(count)
        anchor_of: dict[int, int] = {}
        walkers: list[int] = list(range(count))
        current: list[int] = [start] * count
        while walkers:
            current_arr = np.asarray(current, dtype=np.int64)
            draws = nprng.random(len(walkers))
            alive_arr, chosen_arr = self._select_parents(current_arr, draws)
            # Bulk-convert once per step: per-element numpy indexing inside
            # the bookkeeping loop costs more than the search itself.
            stop_hit = (stop_mask[chosen_arr] & alive_arr).tolist()
            alive = alive_arr.tolist()
            chosen = chosen_arr.tolist()
            next_walkers: list[int] = []
            next_current: list[int] = []
            for k, walker in enumerate(walkers):
                nodes_seen = traced[walker]
                parent = chosen[k]
                if not alive[k] or parent in nodes_seen:
                    pass  # type-0: flags[walker] stays 0
                elif stop_hit[k]:
                    flags[walker] = 1
                    anchor_of[walker] = parent
                else:
                    nodes_seen.add(parent)
                    next_walkers.append(walker)
                    next_current.append(parent)
            walkers = next_walkers
            current = next_current
        lookup = ids.__getitem__
        return [
            TargetPath(
                nodes=frozenset(map(lookup, nodes_seen)),
                is_type1=bool(flag),
                anchor=ids[anchor_of[walker]] if flag else None,
            )
            for walker, (nodes_seen, flag) in enumerate(zip(traced, flags))
        ]


class NumpyAliasEngine(NumpyEngine):
    """Vectorized engine with O(1) alias-table walk steps (``"numpy-alias"``).

    Identical to :class:`NumpyEngine` -- same columnar kernel, same
    windowed cycle check, same CSR assembly, same per-round
    ``Generator.random(live)`` consumption -- except that each friend
    selection walks the snapshot's precomputed Vose alias tables
    (:meth:`repro.graph.compiled.CompiledGraph.alias_tables`) instead of
    binary-searching the cumulative-weight array: a draw below the node's
    total in-weight is rescaled to a unit uniform, floored into one of the
    node's ``degree`` alias cells, and resolved with two gathers.  Cost per
    walker per step is constant -- independent of node degree and of the
    global edge count -- where ``searchsorted`` pays O(log m).

    The sampled *distribution* is exactly Definition 1 (the alias table is
    an exact redistribution of the normalized in-weights), but the mapping
    from uniforms to friends differs from the search mode, so for the same
    seed this engine draws *different concrete paths*: it is a separate
    named stream.  The engine name is the stream tag -- sample-pool spill
    tags, matrix fingerprints and golden records all key on it -- so alias
    streams and search streams can never be mistaken for one another, and
    the default ``"numpy"`` engine remains bit-identical to every prior
    release.  See DESIGN.md §7 for the contract.
    """

    __slots__ = ()
    name = "numpy-alias"
    mode = "alias"

    def _alias_arrays(self):
        # Built per snapshot on first use; _rebind() resets them to None.
        if self._alias_prob is None:
            np = self._np
            prob, index = self._compiled.alias_tables()
            self._alias_prob = np.asarray(prob, dtype=np.float64)
            self._alias_index = np.asarray(index, dtype=np.int64)
        return self._alias_prob, self._alias_index

    def _select_parents(self, current, draws):
        """O(1) alias walk for one lockstep round: ``(alive, chosen)``.

        Overwrites ``draws``.  Walkers whose draw fell into the stop tail
        (or that sit on a zero-degree node) compute an arbitrary in-range
        choice -- the ``clip`` gathers keep their indices in bounds -- that
        the kernel masks out; live walkers' indices are always in range.
        """
        np = self._np
        alias_prob, alias_index = self._alias_arrays()
        totals = self._totals.take(current)
        alive = draws < totals
        # Conditional on surviving the stop tail, draw/total is uniform on
        # [0, 1); a stopped walker keeps its draw, which is finite.
        position = np.divide(draws, totals, out=draws, where=alive)
        low = self._indptr.take(current)
        degrees = self._degrees.take(current)
        position *= degrees
        cell = position.astype(np.int64)
        # Guard the float edge: keep a live walker's cell inside its node's slice.
        np.minimum(cell, degrees - 1, out=cell)
        entries = low + cell
        keep = (position - cell) < alias_prob.take(entries, mode="clip")
        local = np.where(keep, cell, alias_index.take(entries, mode="clip"))
        return alive, self._parents.take(low + local, mode="clip")

    def _scalar_step(self):
        """One walker's alias step as Python scalars: ``step(node, draw)``.

        Repeats :meth:`_select_parents`'s float64 operations for one
        walker -- ``draw / total``, ``* degree``, truncation, the clamp and
        ``(position - cell) < alias_prob`` -- so it selects the parent the
        vectorized round would; -1 when the draw falls into the stop tail.
        """
        alias_prob, alias_index = self._alias_arrays()
        prob, alias = alias_prob.item, alias_index.item
        indptr, parents, totals = self._indptr.item, self._parents.item, self._totals.item

        def step(node, draw):
            total = totals(node)
            if not draw < total:
                return -1
            low = indptr(node)
            degree = indptr(node + 1) - low
            position = draw / total * degree
            cell = min(int(position), degree - 1)
            entry = low + cell
            if position - cell < prob(entry):
                return parents(entry)
            return parents(low + alias(entry))

        return step


_ENGINE_TYPES: dict[str, type] = {
    PythonEngine.name: PythonEngine,
    NumpyEngine.name: NumpyEngine,
    NumpyAliasEngine.name: NumpyAliasEngine,
}


def require_engine_name(name: object) -> str:
    """Validate a configured engine name against :data:`ENGINE_NAMES`.

    Shared by :class:`repro.core.raf.RAFConfig` and
    :class:`repro.experiments.config.ExperimentConfig` so backend additions
    happen in one place.  Raises ``ValueError`` on unknown names.
    """
    if not isinstance(name, str) or name.lower() not in ENGINE_NAMES:
        raise EngineError(
            f"engine must be one of {', '.join(ENGINE_NAMES)}, got {name!r}"
        )
    return name.lower()


def canonical_engine_name(name: "str | None") -> str:
    """The backend a configured engine name selects.

    ``None`` means ``"python"`` and ``"auto"`` the vectorized ``"numpy"``
    backend.  Unknown names raise :class:`~repro.exceptions.EngineError`.
    """
    key = (name or "python").lower()
    if key == "auto":
        key = NumpyEngine.name
    if key not in _ENGINE_TYPES:
        raise EngineError(
            f"unknown sampling engine {name!r}; choose one of {', '.join(ENGINE_NAMES)}"
        )
    return key


def create_engine(graph: SocialGraph | CompiledGraph, name: str = "python") -> SamplingEngine:
    """Build a sampling engine for ``graph`` by backend name
    (see :func:`canonical_engine_name`)."""
    return _ENGINE_TYPES[canonical_engine_name(name)](graph)


def default_engine(graph: SocialGraph | CompiledGraph) -> SamplingEngine:
    """The default (stdlib bisect-walk, bit-compatible) engine for ``graph``.

    Construction is cheap: the compiled snapshot is cached on the graph, so
    this can be called per sampling request without re-freezing anything.
    """
    return PythonEngine(graph)


def resolve_engine(
    graph: SocialGraph | CompiledGraph, engine: "SamplingEngine | str | None"
) -> SamplingEngine:
    """Coerce an engine argument (instance, name or None) into an engine.

    An engine *instance* must have been built on the same graph (same
    compiled snapshot) as ``graph``: silently sampling a different graph's
    topology would produce well-formed but wrong estimates, so a mismatch
    raises :class:`~repro.exceptions.EngineError` instead.  An engine whose
    source graph was merely *mutated* since construction is not stale --
    reading ``engine.compiled`` re-snapshots it against the graph's current
    mutation counter -- so only genuinely foreign graphs (or engines pinned
    to an explicit :class:`CompiledGraph`) are rejected.
    """
    if engine is None:
        return default_engine(graph)
    if isinstance(engine, str):
        return create_engine(graph, engine)
    expected = graph if isinstance(graph, CompiledGraph) else compile_graph(graph)
    if engine.compiled is not expected:
        raise EngineError(
            "the provided sampling engine was built on a different graph (or an "
            "outdated snapshot of this graph); create the engine from the same "
            "graph, e.g. create_engine(graph, name)"
        )
    return engine
