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
  :class:`TargetPath` objects.
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
  cumulative-weight array), cycle detection runs against an epoch-stamped
  visited matrix, and finished walks are compacted out with boolean masks
  -- zero per-walker Python bookkeeping.  The kernel emits a columnar
  :class:`~repro.diffusion.path_batch.PathBatch` directly; its object
  view is bit-identical, draw for draw, to the historical per-walker
  lockstep kernel (retained, micro-optimized, as
  :meth:`~NumpyEngine.sample_paths_reference` -- the fallback when the
  visited matrix would not fit in memory, and the reference the columnar
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
    "PythonEngine",
    "NumpyEngine",
    "NumpyAliasEngine",
    "ENGINE_NAMES",
    "require_engine_name",
    "create_engine",
    "default_engine",
    "resolve_engine",
    "collect_type1_paths",
]

#: Engine names accepted by :func:`create_engine` (and the CLI ``--engine`` flag).
ENGINE_NAMES = ("python", "numpy", "numpy-alias", "auto")

#: Batch size used when a huge sample count is split into bounded chunks.
DEFAULT_CHUNK_SIZE = 8192


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
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, rng: RandomSource = None
    ) -> PathBatch:
        """Draw ``count`` backward traces as one columnar :class:`PathBatch`.

        ``sample_paths`` with the same arguments returns exactly this
        batch's object view, in the same order.
        """
        ...


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
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, rng: RandomSource = None
    ) -> PathBatch:
        """Draw ``count`` backward traces with the stdlib bisect walk.

        Consumes exactly one ``rng.random()`` per walk step, so seeded
        results are bit-for-bit identical to the historical dict-based
        sampler -- and identical whether the snapshot lives in RAM or is
        memory-mapped from disk (the binary search only ever touches the
        CSR slice of the node being stepped).  The walk appends each
        trace's dense indices (target first, then walk order) straight
        into the batch columns; no per-path object is built.
        """
        require_non_negative_int(count, "count")
        generator = ensure_rng(rng)
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
    array-native: cycle detection runs against a persistent epoch-stamped
    visited matrix (one ``uint8`` cell per (walker slot, node); a new epoch
    per batch makes re-zeroing unnecessary), finished walks are compacted
    out with boolean masks, and the surviving per-step frontiers are
    scattered into a CSR-of-paths :class:`PathBatch` at the end -- no
    per-walker Python bookkeeping at all.  It consumes the numpy stream
    draw for draw like the historical per-walker kernel (one
    ``Generator.random(live)`` per lockstep round, walkers in stable
    order), so the produced paths are bit-identical to pre-columnar
    releases; :meth:`sample_paths_reference` retains that historical
    kernel as the reference path, and also serves as the fallback when the
    visited matrix for a request would exceed
    :data:`NumpyEngine.STAMP_CELL_LIMIT` cells.

    One instance may be sampled from several threads: a batch (and a
    re-snapshot) holds the engine's lock, so concurrent calls serialize and
    each returns exactly the paths it would return alone.
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
        "_stamps",
        "_stamp_epoch",
        "_lock",
    )
    name = "numpy"

    #: How a lockstep round maps uniform draws to friend selections.  The
    #: subclassed alias mode overrides this; it is part of the engine's
    #: *stream identity* (fixed per engine class, reflected in ``name``),
    #: never a per-call switch -- downstream stream tags (pool spills,
    #: matrix fingerprints) key on the engine name.
    mode = "search"

    #: Upper bound on visited-matrix cells (walker slots × nodes) for the
    #: columnar kernel; one cell is one uint8, so the default caps the
    #: matrix at 256 MiB.  Larger requests fall back to the per-walker
    #: reference kernel (identical draws, identical paths).
    STAMP_CELL_LIMIT = 1 << 28

    #: Visited matrices up to this many cells (128 MiB of uint8) stay
    #: resident on the engine between batches -- the epoch-stamp trick then
    #: skips both re-zeroing and re-faulting their pages, which is most of
    #: the win for repeated large batches.  Anything larger is dropped
    #: after its batch, so one oversized request never pins hundreds of
    #: MiB on a long-lived engine (or on every forked worker of a
    #: ParallelEngine, whose per-chunk batches are far below this cap).
    STAMP_RETAIN_CELLS = 1 << 27

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
        # The visited matrix is per-topology (its width is the node count).
        self._stamps = None
        self._stamp_epoch = 0

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

    def _visited_stamps(self, count: int, num_nodes: int):
        """The epoch-stamped visited matrix, grown/recycled as needed.

        A cell equals the current epoch iff that walker slot visited that
        node *in this batch*; bumping the epoch invalidates every stamp at
        once, so the matrix is zeroed only when the uint8 epoch wraps
        (every 255 batches) instead of on every call.
        """
        np = self._np
        stamps = self._stamps
        if stamps is None or stamps.shape[0] < count or stamps.shape[1] != num_nodes:
            rows = max(count, stamps.shape[0] if stamps is not None else 0)
            stamps = self._stamps = np.zeros((rows, num_nodes), dtype=np.uint8)
            self._stamp_epoch = 0
        if self._stamp_epoch >= 255:
            stamps.fill(0)
            self._stamp_epoch = 0
        self._stamp_epoch += 1
        return stamps, np.uint8(self._stamp_epoch)

    def _select_parents(self, current, draws):
        """One lockstep round of friend selections: ``(alive, chosen)``.

        ``alive[k]`` is False when walker ``k``'s draw fell into its node's
        stop-probability tail; ``chosen[k]`` is the selected parent's dense
        index (an arbitrary in-range index where ``alive`` is False -- the
        kernels mask it out).  The search mode resolves the whole round
        with one binary search over the globally shifted cumulative array.
        """
        np = self._np
        shifted, stride = self._shifted_cum()
        locations = np.searchsorted(shifted, stride * current + draws, side="right")
        alive = locations < self._indptr[current + 1]
        chosen = self._parents[np.minimum(locations, self._parents.size - 1)]
        return alive, chosen

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
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, rng: RandomSource = None
    ) -> PathBatch:
        """Draw ``count`` backward traces as one columnar :class:`PathBatch`.

        One ``Generator.random(live)`` and one vectorized friend selection
        per lockstep round for the whole surviving batch; deterministic per
        seed on this engine's named stream, bit-identical to
        :meth:`sample_paths_reference`, and bit-identical between in-memory
        and memory-mapped snapshots of the same graph.
        """
        require_non_negative_int(count, "count")
        with self._lock:
            np = self._np
            nprng = self._batch_rng(rng)
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
            if count * len(compiled) > self.STAMP_CELL_LIMIT:
                # The visited matrix would not fit: fall back to the per-walker
                # reference kernel (same draws, same paths) and columnarize.
                paths = self._reference_kernel(compiled, start, stop_mask, count, nprng)
                return PathBatch.from_paths(paths, compiled)
            try:
                return self._columnar_kernel(compiled, start, stop_mask, count, nprng)
            finally:
                stamps = self._stamps
                if stamps is not None and stamps.size > self.STAMP_RETAIN_CELLS:
                    self._stamps = None  # oversized: rebuilt (zeroed) on demand
                    self._stamp_epoch = 0

    def _columnar_kernel(self, compiled, start, stop_mask, count, nprng) -> PathBatch:
        np = self._np
        stamps, epoch = self._visited_stamps(count, len(compiled))

        rows = np.arange(count, dtype=np.int64)  # walker slot = output position
        current = np.full(count, start, dtype=np.int64)
        stamps[rows, start] = epoch
        is_type1 = np.zeros(count, dtype=bool)
        anchors = np.full(count, -1, dtype=np.int64)
        step_rows: list = []  # per lockstep round: the walkers that continued
        step_nodes: list = []  # ... and the node each of them moved to
        while rows.size:
            draws = nprng.random(rows.size)
            alive, chosen = self._select_parents(current, draws)
            # Precedence exactly as the per-walker kernels: a draw in the
            # stop-probability tail or a revisited node ends the walk as
            # type-0 *before* the stop set is consulted.
            revisit = stamps[rows, chosen] == epoch
            hit_stop = stop_mask[chosen]
            stopped = alive & ~revisit & hit_stop
            cont = alive & ~revisit & ~hit_stop
            finished = rows[stopped]
            is_type1[finished] = True
            anchors[finished] = chosen[stopped]
            rows = rows[cont]
            current = chosen[cont]
            stamps[rows, current] = epoch
            step_rows.append(rows)
            step_nodes.append(current)

        # Assemble the CSR-of-paths columns: each walker's trace is its
        # start node followed by the nodes of the rounds it survived.
        lengths = np.ones(count, dtype=np.int64)
        walked = np.concatenate(step_rows) if step_rows else np.empty(0, dtype=np.int64)
        if walked.size:
            lengths += np.bincount(walked, minlength=count)
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        node_indices = np.empty(int(offsets[-1]), dtype=np.int64)
        cursor = offsets[:-1].copy()
        node_indices[cursor] = start
        cursor += 1
        for survivors, frontier in zip(step_rows, step_nodes):
            if survivors.size:
                slots = cursor[survivors]
                node_indices[slots] = frontier
                cursor[survivors] = slots + 1
        return PathBatch(offsets, node_indices, is_type1, anchors, compiled)

    # ------------------------------------------------------------------ #
    # The historical per-walker kernel, retained as the reference path
    # ------------------------------------------------------------------ #

    def sample_paths_reference(
        self, target: NodeId, stop_set: Iterable[NodeId], count: int, rng: RandomSource = None
    ) -> list[TargetPath]:
        """The pre-columnar lockstep kernel (per-walker set bookkeeping).

        Consumes the numpy stream identically to :meth:`sample_path_batch`
        and returns the identical paths; kept as the memory-frugal
        fallback for huge (batch × graph) requests and as the reference
        the columnar kernel is asserted against (benchmarks and the
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
    epoch-stamped cycle detection, same CSR assembly, same per-round
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
        """O(1) alias walk for one lockstep round: ``(alive, chosen)``."""
        np = self._np
        alias_prob, alias_index = self._alias_arrays()
        totals = self._totals[current]
        alive = draws < totals
        # Conditional on surviving the stop tail, draw/total is uniform on
        # [0, 1); walkers that stopped keep a harmless 0 (masked out later).
        unit = np.divide(draws, totals, out=np.zeros_like(draws), where=alive)
        degrees = self._degrees[current]
        position = unit * degrees
        cell = position.astype(np.int64)
        # Guard the float edges: draw/total can round up to 1.0, and dead
        # walkers on degree-0 nodes must still gather in-range entries.
        cell = np.minimum(cell, np.maximum(degrees - 1, 0))
        entries = np.minimum(self._indptr[current] + cell, self._parents.size - 1)
        keep = (position - cell) < alias_prob[entries]
        local = np.where(keep, cell, alias_index[entries])
        chosen = self._parents[np.minimum(self._indptr[current] + local, self._parents.size - 1)]
        return alive, chosen


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


def create_engine(graph: SocialGraph | CompiledGraph, name: str = "python") -> SamplingEngine:
    """Build a sampling engine for ``graph`` by backend name.

    ``"auto"`` picks the vectorized ``"numpy"`` backend.  Unknown names
    raise :class:`~repro.exceptions.EngineError`.
    """
    key = (name or "python").lower()
    if key == "auto":
        key = NumpyEngine.name
    try:
        engine_type = _ENGINE_TYPES[key]
    except KeyError:
        raise EngineError(
            f"unknown sampling engine {name!r}; choose one of {', '.join(ENGINE_NAMES)}"
        ) from None
    return engine_type(graph)


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


def collect_type1_paths(
    engine: SamplingEngine,
    target: NodeId,
    stop_set: Iterable[NodeId],
    count: int,
    rng: RandomSource = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> tuple[list[TargetPath], int]:
    """Draw ``count`` traces in bounded chunks, keeping only the type-1 ones.

    Returns ``(type1_paths, num_type1)``.  Chunking keeps peak memory
    proportional to ``chunk_size`` plus the type-1 yield instead of the full
    realization count, which matters for the theory-faithful ``l``; the
    filter runs on the columns, so type-0 traces never become objects.
    """
    require_non_negative_int(count, "count")
    generator = ensure_rng(rng)
    stop = stop_set if isinstance(stop_set, (set, frozenset)) else frozenset(stop_set)
    type1: list[TargetPath] = []
    remaining = count
    while remaining > 0:
        batch = min(chunk_size, remaining)
        drawn = engine.sample_path_batch(target, stop, batch, rng=generator)
        type1.extend(drawn.type1_paths_slice(0, len(drawn)))
        remaining -= batch
    return type1, len(type1)
