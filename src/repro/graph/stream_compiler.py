"""Streaming edge-list compiler: edge file -> on-disk CSR snapshot, bounded RAM.

:func:`compile_edge_list` turns a SNAP-style edge list into a snapshot
directory that :meth:`~repro.graph.compiled.CompiledGraph.open` maps back,
**without ever materializing a** :class:`~repro.graph.social_graph.SocialGraph`
adjacency dict.  That is the piece that unlocks million-node graphs: the
dict representation costs hundreds of bytes per edge, while this compiler's
working set is O(n) small integer columns (the id table, degrees and
scatter cursors -- about 40 bytes per node) plus one bounded edge chunk,
with every O(m) column written straight into memory-mapped ``.npy`` files.

The compiler makes two passes over the edge stream:

1. **Count.** Interns node ids in first-appearance order (vectorized, so it
   matches ``SocialGraph.add_edge`` insertion order exactly), filters
   self-loops and (optionally) duplicate friendships, and accumulates
   in-degrees.  Between the passes the prefix sum of the degrees becomes
   ``indptr``, and ``cum_weights``/``totals`` are synthesized analytically
   -- both supported weight schemes assign every in-edge of a node the same
   share, so each node's running sum is a cumulative sum known from its
   degree alone.
2. **Scatter.** Replays the stream and writes each edge's two CSR entries
   (``v``'s row gets parent ``u`` and vice versa) at per-node cursors, in
   chronological order per row -- the same order a dict-built graph's
   ``in_weights`` iteration produces.

The resulting snapshot is **bit-identical** -- same column bytes, same
:meth:`~repro.graph.compiled.CompiledGraph.csr_digest` -- to compiling the
same edge list through ``read_snap_graph`` + weight application +
``compile_graph`` + ``save``; the test suite asserts this equivalence, and
it is what lets spill tags and matrix fingerprints agree across the two
compilation routes.  Alias columns are built by the shared
:func:`~repro.graph.compiled.build_alias_tables` and ``meta.json`` is
written last, so an interrupted compile leaves an unopenable directory
rather than a plausible-but-wrong snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as _np
from numpy.lib.format import open_memmap

from repro.exceptions import GraphFormatError, SnapshotError, SnapshotFormatError
from repro.graph.compiled import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    _write_snapshot_meta,
    build_alias_tables,
    compute_csr_digest,
)

__all__ = ["compile_edge_list", "StreamCompileResult", "WEIGHT_SCHEMES"]

#: Weight schemes the compiler can synthesize without seeing the graph:
#: both assign every in-edge of a node an equal share, so the cumulative
#: column is a closed-form function of the node's degree.
#: ``degree`` mirrors :func:`~repro.graph.weights.apply_degree_normalized_weights`
#: (share ``1/deg``); ``uniform`` mirrors
#: :func:`~repro.graph.weights.apply_uniform_weights` with ``normalize=True``
#: (share ``w``, clamped to ``1/deg`` when ``w * deg > 1``).
WEIGHT_SCHEMES = ("degree", "uniform")

#: Edges per processing chunk (both passes); bounds transient memory at a
#: few hundred MB per million chunked edges worst case.
DEFAULT_CHUNK_EDGES = 1 << 20

_SCATTER_BATCH = 1 << 20


@dataclass(frozen=True)
class StreamCompileResult:
    """Summary of a streaming compilation, returned by :func:`compile_edge_list`.

    ``digest`` is the snapshot's CSR digest (identical to what
    ``CompiledGraph.open(directory).csr_digest()`` reports);
    ``self_loops_skipped`` / ``duplicates_skipped`` count dropped input
    lines, mirroring ``read_edge_list`` semantics.
    """

    directory: Path
    num_nodes: int
    num_edges: int
    digest: str
    self_loops_skipped: int
    duplicates_skipped: int


def _iter_file_chunks(path: Path, chunk_edges: int):
    """Yield ``(u_array, v_array)`` int64 chunks parsed from an edge-list file.

    Parsing mirrors :func:`~repro.graph.io.read_edge_list` exactly --
    blank and ``#`` comment lines skipped, whitespace-delimited, extra
    tokens ignored, short lines rejected -- except that node ids must be
    integers (the on-disk format v1 stores an int64 ``nodes`` column).
    """
    us: list[int] = []
    vs: list[int] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as error:
        raise GraphFormatError(f"cannot read edge list {path}: {error}") from None
    with handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{path}: line {number}: expected 'u v', got {stripped!r}"
                )
            try:
                u = int(parts[0])
                v = int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"{path}: line {number}: node ids must be integers for "
                    f"streaming compilation, got {stripped!r}"
                ) from None
            us.append(u)
            vs.append(v)
            if len(us) >= chunk_edges:
                yield _as_id_array(us, path), _as_id_array(vs, path)
                us, vs = [], []
    if us:
        yield _as_id_array(us, path), _as_id_array(vs, path)


def _as_id_array(values: list, source) -> "object":
    try:
        return _np.asarray(values, dtype=_np.int64)
    except OverflowError:
        raise GraphFormatError(
            f"{source}: node ids must fit in a signed 64-bit integer"
        ) from None


def _iter_source_chunks(source, chunk_edges: int):
    """Normalize an edge source into ``(u_array, v_array)`` int64 chunks.

    ``source`` is either a path to an edge-list file (re-read on each
    pass) or a zero-argument callable returning an iterable of edges --
    each item either a ``(u, v)`` pair of ints or a pre-chunked
    ``(u_array, v_array)`` pair of equal-length integer arrays.  A
    callable source is invoked once per pass and must replay the identical
    stream (e.g. a deterministic generator); the compiler's two passes
    otherwise disagree and the scatter cursors catch it.
    """
    if not callable(source):
        yield from _iter_file_chunks(Path(source), chunk_edges)
        return
    us: list[int] = []
    vs: list[int] = []
    for item in source():
        u, v = item
        if isinstance(u, _np.ndarray) or isinstance(v, _np.ndarray):
            if us:
                yield _as_id_array(us, "<edge stream>"), _as_id_array(vs, "<edge stream>")
                us, vs = [], []
            u_array = _np.asarray(u, dtype=_np.int64)
            v_array = _np.asarray(v, dtype=_np.int64)
            if u_array.shape != v_array.shape or u_array.ndim != 1:
                raise GraphFormatError(
                    "<edge stream>: chunked edge sources must yield equal-length "
                    "1-D (u, v) array pairs"
                )
            yield u_array, v_array
            continue
        us.append(int(u))
        vs.append(int(v))
        if len(us) >= chunk_edges:
            yield _as_id_array(us, "<edge stream>"), _as_id_array(vs, "<edge stream>")
            us, vs = [], []
    if us:
        yield _as_id_array(us, "<edge stream>"), _as_id_array(vs, "<edge stream>")


class _Interner:
    """Vectorized id -> dense-index table preserving first-appearance order.

    Keeps two parallel sorted columns (ids, dense index of each id) for
    O(log n) batch lookups via ``searchsorted``, plus the ids in dense
    order for the ``nodes`` column -- about 24 bytes per node, the
    dominant resident cost of a streaming compile.
    """

    __slots__ = ("sorted_ids", "sorted_index", "order_chunks", "count")

    def __init__(self) -> None:
        self.sorted_ids = _np.empty(0, dtype=_np.int64)
        self.sorted_index = _np.empty(0, dtype=_np.int64)
        self.order_chunks: list = []
        self.count = 0

    def intern(self, flat) -> None:
        """Intern every id in ``flat`` (first appearance wins the next index)."""
        uniq, first_pos = _np.unique(flat, return_index=True)
        if self.count:
            pos = _np.searchsorted(self.sorted_ids, uniq)
            clipped = _np.minimum(pos, self.sorted_ids.size - 1)
            known = self.sorted_ids[clipped] == uniq
            known &= pos < self.sorted_ids.size
        else:
            known = _np.zeros(uniq.size, dtype=bool)
        fresh_ids = uniq[~known]
        if fresh_ids.size == 0:
            return
        order = _np.argsort(first_pos[~known], kind="stable")
        fresh_ordered = fresh_ids[order]
        dense = _np.arange(self.count, self.count + fresh_ordered.size, dtype=_np.int64)
        merged_ids = _np.concatenate([self.sorted_ids, fresh_ordered])
        merged_index = _np.concatenate([self.sorted_index, dense])
        sorter = _np.argsort(merged_ids, kind="stable")
        self.sorted_ids = merged_ids[sorter]
        self.sorted_index = merged_index[sorter]
        self.order_chunks.append(fresh_ordered)
        self.count += fresh_ordered.size

    def map(self, values):
        """Dense indices of ``values``; rejects ids never interned.

        An unknown id here means the source yielded an edge in the scatter
        pass that the counting pass never saw -- a non-replayable stream --
        so the error is raised eagerly instead of scattering garbage.
        """
        values = _np.asarray(values, dtype=_np.int64)
        if values.size == 0:
            return values
        pos = _np.searchsorted(self.sorted_ids, values)
        clipped = _np.minimum(pos, max(0, self.sorted_ids.size - 1))
        if self.sorted_ids.size == 0 or not _np.array_equal(
            self.sorted_ids[clipped], values
        ):
            raise SnapshotFormatError(
                "edge source did not replay identically between the counting "
                "and scatter passes (unknown node id in the second pass)"
            )
        return self.sorted_index[clipped]

    def iter_ids(self) -> Iterator[int]:
        """All ids as Python ints, in dense (first-appearance) order."""
        for chunk in self.order_chunks:
            yield from chunk.tolist()


class _EdgeFilter:
    """Shared self-loop + duplicate filtering for both passes.

    The duplicate set is rebuilt per pass (same stream, same verdicts) and
    keys undirected pairs of *dense* indices packed into one int64, which
    is why the interner caps n below 2^31.
    """

    __slots__ = ("interner", "dedup", "seen", "self_loops", "duplicates")

    def __init__(self, interner: _Interner, dedup: bool) -> None:
        self.interner = interner
        self.dedup = dedup
        self.seen: set = set()
        self.self_loops = 0
        self.duplicates = 0

    def accept(self, us, vs, *, intern: bool):
        """Filter one chunk; returns dense ``(a, b)`` index arrays of kept edges."""
        keep = us != vs
        self.self_loops += int(us.size - int(keep.sum()))
        us = us[keep]
        vs = vs[keep]
        if intern:
            flat = _np.empty(2 * us.size, dtype=_np.int64)
            flat[0::2] = us
            flat[1::2] = vs
            self.interner.intern(flat)
            if self.interner.count >= 1 << 31:  # pragma: no cover - 2B nodes
                raise SnapshotFormatError(
                    "streaming compiler supports at most 2^31 distinct nodes"
                )
        a = self.interner.map(us)
        b = self.interner.map(vs)
        if not self.dedup:
            return a, b
        lo = _np.minimum(a, b)
        hi = _np.maximum(a, b)
        keys = (lo << _np.int64(32)) | hi
        mask = _np.ones(keys.size, dtype=bool)
        seen = self.seen
        for i, key in enumerate(keys.tolist()):
            if key in seen:
                mask[i] = False
            else:
                seen.add(key)
        self.duplicates += int(keys.size - int(mask.sum()))
        return a[mask], b[mask]


def _edge_share(degree: int, weights: str, uniform_weight: float) -> float:
    """The per-in-edge weight for a node of the given degree -- exactly the
    float the dict-based weight appliers would store."""
    if weights == "degree":
        return 1.0 / degree
    value = uniform_weight
    if uniform_weight * degree > 1.0:
        value = 1.0 / degree
    return value


def _open_output(directory: Path, name: str, dtype, shape):
    try:
        return open_memmap(directory / f"{name}.npy", mode="w+", dtype=dtype, shape=shape)
    except OSError as error:
        raise SnapshotError(
            f"cannot write snapshot column {directory / (name + '.npy')}: {error}"
        ) from None


def compile_edge_list(
    source,
    out_dir,
    *,
    weights: str = "degree",
    uniform_weight: float = 0.1,
    name: "str | None" = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    dedup: bool = True,
) -> StreamCompileResult:
    """Compile an edge list into an on-disk snapshot directory, streaming.

    ``source`` is an edge-list file path (SNAP format, integer ids) or a
    replayable zero-argument callable yielding edges -- see
    :func:`_iter_source_chunks` for the accepted shapes.  ``weights``
    selects one of :data:`WEIGHT_SCHEMES`; ``dedup=False`` skips the
    O(m)-memory duplicate-edge set for inputs known to be duplicate-free
    (every duplicate would otherwise corrupt degrees and the scatter).
    The finished directory opens via ``CompiledGraph.open(out_dir)`` and
    is bit-identical to the in-memory compile-and-save route for the same
    input; returns a :class:`StreamCompileResult` carrying the digest.
    """
    if weights not in WEIGHT_SCHEMES:
        raise SnapshotFormatError(
            f"unknown weight scheme {weights!r}; expected one of {WEIGHT_SCHEMES}"
        )
    if chunk_edges <= 0:
        raise SnapshotFormatError("chunk_edges must be positive")
    directory = Path(out_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise SnapshotError(f"cannot create snapshot directory {directory}: {error}") from None
    stale_meta = directory / "meta.json"
    if stale_meta.exists():
        stale_meta.unlink()  # a partially rewritten directory must not open

    if name is None:
        name = Path(source).stem if not callable(source) else "stream"

    # ---- pass 1: intern ids, count degrees ---------------------------- #
    interner = _Interner()
    edge_filter = _EdgeFilter(interner, dedup)
    degrees = _np.empty(0, dtype=_np.int64)
    num_edges = 0
    for us, vs in _iter_source_chunks(source, chunk_edges):
        a, b = edge_filter.accept(us, vs, intern=True)
        if interner.count > degrees.size:
            degrees = _np.concatenate(
                [degrees, _np.zeros(interner.count - degrees.size, dtype=_np.int64)]
            )
        if a.size:
            counts = _np.bincount(_np.concatenate([a, b]), minlength=interner.count)
            degrees[: counts.size] += counts
        num_edges += int(a.size)

    n = interner.count
    entries = int(degrees.sum())

    indptr = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(degrees, out=indptr[1:])

    nodes_column = (
        _np.concatenate(interner.order_chunks)
        if interner.order_chunks
        else _np.empty(0, dtype=_np.int64)
    )
    contiguous = bool(n == 0 or _np.array_equal(nodes_column, _np.arange(n, dtype=_np.int64)))
    try:
        _np.save(directory / "nodes.npy", nodes_column)
        _np.save(directory / "indptr.npy", indptr)
    except OSError as error:
        raise SnapshotError(
            f"cannot write snapshot column under {directory}: {error}"
        ) from None

    # ---- analytic cum_weights / totals (equal share per in-edge) ------ #
    cum_weights = _open_output(directory, "cum_weights", _np.float64, (entries,))
    totals = _np.zeros(n, dtype=_np.float64)
    if n:
        by_degree = _np.argsort(degrees, kind="stable")
        sorted_degrees = degrees[by_degree]
        starts = _np.flatnonzero(
            _np.concatenate([[True], sorted_degrees[1:] != sorted_degrees[:-1]])
        )
        bounds = _np.append(starts, n)
        for g in range(starts.size):
            degree = int(sorted_degrees[starts[g]])
            if degree == 0:
                continue
            group = by_degree[bounds[g] : bounds[g + 1]]
            share = _edge_share(degree, weights, uniform_weight)
            pattern = _np.cumsum(_np.full(degree, share, dtype=_np.float64))
            totals[group] = pattern[-1]
            rows_per_batch = max(1, _SCATTER_BATCH // degree)
            for lo in range(0, group.size, rows_per_batch):
                rows = group[lo : lo + rows_per_batch]
                positions = indptr[rows][:, None] + _np.arange(degree, dtype=_np.int64)
                cum_weights[positions.ravel()] = _np.broadcast_to(
                    pattern, (rows.size, degree)
                ).ravel()
    try:
        _np.save(directory / "totals.npy", totals)
    except OSError as error:
        raise SnapshotError(
            f"cannot write snapshot column under {directory}: {error}"
        ) from None

    # ---- pass 2: scatter parents in chronological per-row order ------- #
    parents = _open_output(directory, "parents", _np.int64, (entries,))
    cursors = indptr[:-1].copy()
    edge_filter = _EdgeFilter(interner, dedup)
    for us, vs in _iter_source_chunks(source, chunk_edges):
        a, b = edge_filter.accept(us, vs, intern=False)
        if not a.size:
            continue
        targets = _np.empty(2 * a.size, dtype=_np.int64)
        sources = _np.empty(2 * a.size, dtype=_np.int64)
        targets[0::2] = b  # v's row receives parent u ...
        sources[0::2] = a
        targets[1::2] = a  # ... and u's row receives parent v
        sources[1::2] = b
        order = _np.argsort(targets, kind="stable")
        targets = targets[order]
        sources = sources[order]
        flags = _np.empty(targets.size, dtype=bool)
        flags[0] = True
        _np.not_equal(targets[1:], targets[:-1], out=flags[1:])
        starts = _np.flatnonzero(flags)
        sizes = _np.diff(_np.append(starts, targets.size))
        within = _np.arange(targets.size, dtype=_np.int64) - _np.repeat(starts, sizes)
        rows = targets[starts]
        if _np.any(cursors[rows] + sizes > indptr[rows + 1]):
            # More in-edges for some row than the counting pass allotted:
            # the source is not replaying the same stream.  Caught before
            # the scatter so no write can land in a neighbouring row.
            raise SnapshotFormatError(
                f"snapshot {directory}: edge source did not replay identically "
                "between the counting and scatter passes"
            )
        parents[cursors[targets] + within] = sources
        _np.add.at(cursors, rows, sizes)
    if not _np.array_equal(cursors, indptr[1:]):
        raise SnapshotFormatError(
            f"snapshot {directory}: edge source did not replay identically "
            "between the counting and scatter passes"
        )

    # ---- alias columns + digest + metadata ---------------------------- #
    alias_prob = _open_output(directory, "alias_prob", _np.float64, (entries,))
    alias_index = _open_output(directory, "alias_index", _np.int64, (entries,))
    build_alias_tables(indptr, cum_weights, totals, alias_prob, alias_index)
    for column in (cum_weights, parents, alias_prob, alias_index):
        column.flush()

    digest = compute_csr_digest(interner.iter_ids(), indptr, parents, cum_weights, count=n)
    meta = {
        "format": SNAPSHOT_FORMAT,
        "format_version": SNAPSHOT_VERSION,
        "digest": digest,
        "num_nodes": n,
        "num_edges": num_edges,
        "weights": weights,
        "name": name,
        "contiguous_ids": contiguous,
    }
    _write_snapshot_meta(directory, meta)
    return StreamCompileResult(
        directory=directory,
        num_nodes=n,
        num_edges=num_edges,
        digest=digest,
        self_loops_skipped=edge_filter.self_loops,
        duplicates_skipped=edge_filter.duplicates,
    )
