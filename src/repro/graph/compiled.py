"""Frozen CSR snapshot of a :class:`SocialGraph` for allocation-free sampling.

Every quantity the RAF pipeline computes -- ``pmax`` (Alg. 2), the ``l``
reverse-sampled realizations (Alg. 3) and the Monte Carlo evaluation of
``f(I)`` -- boils down to millions of independent friend selections
(Def. 1).  Doing those selections against the mutable adjacency-dict
representation costs a mapping view plus an O(degree) linear scan per step.

:class:`CompiledGraph` freezes the graph once into contiguous arrays:

* node ids are interned to dense indices ``0..n-1`` (insertion order, so
  compiled sampling visits neighbours in exactly the same order as the
  dict-based code and stays bit-compatible with it for a fixed seed);
* ``indptr``/``parents`` form a CSR layout of each node's in-neighbours;
* ``cum_weights`` holds the *running* left-to-right sum of each node's
  incoming weights, so a friend selection is a single binary search of the
  node's slice with a uniform draw;
* ``totals`` holds each node's total incoming weight -- the complement
  ``1 - totals[i]`` is the precomputed probability that the node selects
  nobody (the stop-probability tail of Def. 1);
* :meth:`CompiledGraph.alias_tables` lazily builds per-node **alias tables**
  (Vose's method) as two flat columns aligned entry-for-entry with the CSR
  in-edge layout -- see :func:`build_alias_tables` for the contract.

Snapshots are cached on the source graph and invalidated by its mutation
counter, so repeated calls to :func:`compile_graph` are free until the graph
actually changes.  The sampling engines in :mod:`repro.diffusion.engine`
consume these arrays directly.

The out-of-core snapshot tier (DESIGN.md §8)
--------------------------------------------

A compiled snapshot can also live *on disk*: :meth:`CompiledGraph.save`
writes the columns as little-endian ``.npy`` files plus a ``meta.json``
into a snapshot directory, and :meth:`CompiledGraph.open` maps them back
as plain ``ndarray`` views of the file mappings -- the graph then pages
its columns from the file system on demand instead of holding them in
RAM, which is what lets
million-node graphs be sampled on laptop-sized memory.  A mapped snapshot
is a drop-in :class:`CompiledGraph`: same dtypes, same neighbour order,
same :meth:`csr_digest`, and therefore *bit-identical* sampled paths from
every engine for the same seed.  Large graphs are compiled straight to
disk -- without ever building a :class:`SocialGraph` -- by the streaming
compiler in :mod:`repro.graph.stream_compiler`.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from array import array
from bisect import bisect_right
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as _np

from repro.exceptions import (
    NodeNotFoundError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotVersionError,
)
from repro.graph.social_graph import WEIGHT_SUM_TOLERANCE, SocialGraph
from repro.types import NodeId

__all__ = [
    "CompiledGraph",
    "compile_graph",
    "build_alias_tables",
    "compute_csr_digest",
    "read_snapshot_meta",
    "reverse_reachable",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SNAPSHOT_COLUMNS",
]

#: The ``format`` marker every snapshot ``meta.json`` must carry.
SNAPSHOT_FORMAT = "repro-csr-snapshot"

#: On-disk format version this release reads and writes.  Bumped on any
#: change to the column set, dtypes, digest material or meta fields; open
#: rejects other versions (see DESIGN.md §8 for the compatibility rules).
SNAPSHOT_VERSION = 1

#: Column files of a snapshot directory, in their canonical (digest) order.
#: ``nodes``/``indptr``/``parents``/``alias_index`` are little-endian int64;
#: ``cum_weights``/``totals``/``alias_prob`` are little-endian float64.
SNAPSHOT_COLUMNS = (
    "nodes",
    "indptr",
    "parents",
    "cum_weights",
    "totals",
    "alias_prob",
    "alias_index",
)

_COLUMN_DTYPES = {
    "nodes": "int64",
    "indptr": "int64",
    "parents": "int64",
    "cum_weights": "float64",
    "totals": "float64",
    "alias_prob": "float64",
    "alias_index": "int64",
}

#: Hex characters kept of the SHA-256 CSR digest (96 bits -- collision-safe
#: for fingerprinting, short enough for file names and log lines).
_DIGEST_HEX = 24

#: Bytes / entries per chunk when streaming column bytes (digest, verify).
_STREAM_CHUNK = 1 << 18


class _NodeIds(tuple):
    """Interned node ids of an in-memory snapshot.

    A plain tuple -- same ``repr`` (the digest material), same indexing --
    that is additionally *callable*, returning an iterator, so a
    :class:`CompiledGraph` satisfies the read-only half of the
    :class:`SocialGraph` interface (``graph.nodes()``) as well as the
    array-style access (``graph.nodes[i]``) the sampling kernels use.
    """

    __slots__ = ()

    def __call__(self) -> Iterator:
        """Iterate over the node ids (``SocialGraph.nodes()`` compatibility)."""
        return iter(self)

    def take(self, indices) -> list:
        """The ids at dense ``indices``, as one list (the mapped twin's API)."""
        return [self[i] for i in indices]


class _MappedNodeIds:
    """Lazy node-id sequence over the memory-mapped ``nodes`` column.

    Behaves like the interned tuple of an in-memory snapshot -- indexing
    returns plain Python ints (so sampled paths, pool keys and JSON records
    carry identical types and ``repr`` bytes whichever backend produced
    them) -- but only ever keeps a bounded window of ids resident.
    """

    __slots__ = ("_ids",)

    _CHUNK = 1 << 16

    def __init__(self, ids) -> None:
        self._ids = ids

    def __len__(self) -> int:
        return int(self._ids.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._ids[index].tolist())
        return int(self._ids[index])

    def take(self, indices) -> list:
        """The ids at an integer array of dense ``indices``, as one list
        (a single gather, not one ``__getitem__`` per index)."""
        return self._ids[indices].tolist()

    def __iter__(self) -> Iterator[int]:
        ids = self._ids
        for lo in range(0, len(self), self._CHUNK):
            yield from ids[lo : lo + self._CHUNK].tolist()

    def __call__(self) -> Iterator[int]:
        """Iterate over the node ids (``SocialGraph.nodes()`` compatibility)."""
        return iter(self)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"<mapped node ids n={len(self)}>"


def _digest_nodes(update: Callable[[bytes], None], nodes, count: int) -> None:
    """Feed exactly ``repr(tuple(nodes))`` into ``update``, streamed.

    The node-id tuple ``repr`` is the historical first component of the CSR
    digest; streaming it keeps digest computation O(chunk) in memory for
    mapped snapshots instead of materializing a million-entry tuple.
    """
    if count == 0:
        update(b"()")
        return
    parts: list[str] = ["("]
    size = 1
    first = True
    for node in nodes:
        text = repr(node) if first else ", " + repr(node)
        first = False
        parts.append(text)
        size += len(text)
        if size >= _STREAM_CHUNK:
            update("".join(parts).encode("utf-8"))
            parts, size = [], 0
    parts.append(",)" if count == 1 else ")")
    update("".join(parts).encode("utf-8"))


def _digest_column_bytes(update: Callable[[bytes], None], column) -> None:
    """Feed a column's raw little-endian bytes into ``update``, chunk-wise."""
    length = len(column)
    for lo in range(0, length, _STREAM_CHUNK):
        update(column[lo : lo + _STREAM_CHUNK].tobytes())
    if length == 0:
        update(b"")


def compute_csr_digest(nodes, indptr, parents, cum_weights, count: int | None = None) -> str:
    """SHA-256 digest (truncated to 24 hex chars) of a CSR snapshot.

    The digest material is ``repr(tuple(node ids))`` followed by the raw
    little-endian bytes of ``indptr``, ``parents`` and ``cum_weights`` --
    byte-for-byte the material the sample pool has always hashed, so
    digests computed here agree with every previously written spill tag.
    It covers the interned ids and the full weighted adjacency.  The
    derived ``totals`` and alias columns are functions of these arrays
    but are stored, not digested: :meth:`CompiledGraph.verify_integrity`
    checks them against the digested columns instead.  Works on stdlib
    arrays and memory-mapped columns alike (columns are streamed in
    bounded chunks).
    """
    digest = hashlib.sha256()
    _digest_nodes(digest.update, nodes, len(nodes) if count is None else count)
    for column in (indptr, parents, cum_weights):
        _digest_column_bytes(digest.update, column)
    return digest.hexdigest()[:_DIGEST_HEX]


def build_alias_tables(indptr, cum_weights, totals, alias_prob, alias_index) -> None:
    """Fill per-node Vose alias columns aligned to a CSR in-edge layout.

    For a node ``v`` with in-degree ``d`` and CSR slice ``[lo, hi)``, an
    O(1) friend selection conditional on the walk *not* stopping (the
    caller handles the stop tail by comparing its uniform draw against
    ``totals[v]`` first) is::

        u = draw / totals[v]          # uniform on [0, 1) given no stop
        k = min(int(u * d), d - 1)    # the uniform cell
        if (u * d) - k < alias_prob[lo + k]:
            parent = parents[lo + k]
        else:
            parent = parents[lo + alias_index[lo + k]]

    ``alias_index`` entries are *node-local* (0-based within the node's
    slice).  The construction is a pure function of
    ``indptr``/``cum_weights``/``totals`` with a fixed floating-point
    evaluation order, so the produced columns are bit-identical whichever
    buffer types are passed -- stdlib ``array`` columns of an in-memory
    snapshot or the memory-mapped ``.npy`` columns the streaming compiler
    writes.  The CSR digest does not cover the tables; on disk they are
    checked against the digested columns by
    :meth:`CompiledGraph.verify_integrity`.  Nodes with zero total weight
    get the identity table as a benign placeholder (they are unreachable
    conditional on "no stop").
    """
    num_nodes = len(indptr) - 1
    for v in range(num_nodes):
        lo = int(indptr[v])
        hi = int(indptr[v + 1])
        degree = hi - lo
        if degree == 0:
            continue
        total = float(totals[v])
        if total <= 0.0:
            for k in range(degree):
                alias_prob[lo + k] = 1.0
                alias_index[lo + k] = k
            continue
        # Vose's method over the normalized weights w_k / total.  The
        # segment is materialized as Python floats so the arithmetic below
        # runs identically for array- and memmap-backed columns.
        segment = cum_weights[lo:hi]
        cum = segment.tolist()
        previous = 0.0
        scaled = []
        for value in cum:
            scaled.append((value - previous) * degree / total)
            previous = value
        small = [k for k in range(degree) if scaled[k] < 1.0]
        large = [k for k in range(degree) if scaled[k] >= 1.0]
        while small and large:
            lesser = small.pop()
            greater = large.pop()
            alias_prob[lo + lesser] = scaled[lesser]
            alias_index[lo + lesser] = greater
            scaled[greater] -= 1.0 - scaled[lesser]
            if scaled[greater] < 1.0:
                small.append(greater)
            else:
                large.append(greater)
        # Float leftovers on either worklist carry probability ~1.
        for k in small + large:
            alias_prob[lo + k] = 1.0
            alias_index[lo + k] = k


def read_snapshot_meta(path) -> dict:
    """Read and validate a snapshot directory's ``meta.json`` (columns untouched).

    Cheap (one small JSON file), so callers that only need the recorded
    CSR digest -- e.g. the matrix runner binding a snapshot into its
    protocol fingerprint -- can get it without mapping any column.  Raises
    :class:`~repro.exceptions.SnapshotError` /
    :class:`~repro.exceptions.SnapshotFormatError` /
    :class:`~repro.exceptions.SnapshotVersionError` with the offending path
    named, per the DESIGN.md §8 rejection rules.
    """
    directory = Path(path)
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        if not directory.is_dir():
            raise SnapshotError(f"snapshot directory {directory} does not exist")
        raise SnapshotFormatError(
            f"{directory} is not a compiled-graph snapshot: missing {meta_path.name}"
        )
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotFormatError(
            f"unreadable snapshot metadata {meta_path}: {error}"
        ) from None
    if not isinstance(meta, dict) or meta.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(
            f"{meta_path} does not describe a {SNAPSHOT_FORMAT!r} snapshot"
        )
    version = meta.get("format_version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"snapshot {directory} uses on-disk format version {version!r}; this "
            f"release reads version {SNAPSHOT_VERSION} only -- recompile the edge "
            "list with `repro compile-graph`"
        )
    expected = (
        ("digest", str),
        ("num_nodes", int),
        ("num_edges", int),
        ("weights", str),
        ("name", str),
        ("contiguous_ids", bool),
    )
    for key, kind in expected:
        value = meta.get(key)
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise SnapshotFormatError(
                f"snapshot metadata {meta_path} is missing or mistypes the "
                f"required field {key!r}"
            )
    if meta["num_nodes"] < 0 or meta["num_edges"] < 0:
        raise SnapshotFormatError(
            f"snapshot metadata {meta_path} declares negative node/edge counts"
        )
    return meta


def _load_column(directory: Path, name: str, expected_length: int | None, mmap: bool):
    """Map (or load) one ``.npy`` column, validating dtype/endianness/shape."""
    path = directory / f"{name}.npy"
    if not path.is_file():
        raise SnapshotFormatError(f"snapshot {directory} is missing column file {path.name}")
    try:
        column = _np.load(path, mmap_mode="r" if mmap else None, allow_pickle=False)
    except (OSError, ValueError) as error:
        raise SnapshotFormatError(f"snapshot column {path} cannot be read: {error}") from None
    expected_dtype = _np.dtype(_COLUMN_DTYPES[name]).newbyteorder("<")
    if column.dtype.str != expected_dtype.str:
        raise SnapshotFormatError(
            f"snapshot column {path} has dtype {column.dtype.str!r}, expected "
            f"little-endian {expected_dtype.str!r}"
        )
    if column.ndim != 1:
        raise SnapshotFormatError(
            f"snapshot column {path} has shape {column.shape}, expected a flat column"
        )
    if expected_length is not None and column.shape[0] != expected_length:
        raise SnapshotFormatError(
            f"snapshot column {path} has {column.shape[0]} entries, expected "
            f"{expected_length}"
        )
    # A plain ndarray view of the mapping (which it keeps alive): reads skip
    # the Python-level memmap.__getitem__ and __array_finalize__.
    return _np.asarray(column)


class CompiledGraph:
    """Immutable CSR view of a :class:`SocialGraph` (in RAM or memory-mapped).

    The public array attributes (``nodes``, ``indptr``, ``parents``,
    ``cum_weights``, ``totals``) are exposed for the sampling engines and
    must be treated as read-only; mutate the source graph and recompile
    instead.  For an in-memory snapshot they are stdlib ``array`` columns;
    for a snapshot opened with :meth:`open` they are read-only ``ndarray``
    views of the memory-mapped column files with the same dtypes and the
    same element values, so both backends produce bit-identical samples
    for the same seed (the contract every engine test asserts).

    A :class:`CompiledGraph` also implements the *read-only* subset of the
    :class:`SocialGraph` interface the pipeline consumes (``has_node``,
    ``has_edge``, ``neighbors``, ``neighbor_set``, ``node_list``, callable
    ``nodes``, ``degree``, ``weight``, ``is_normalized``), so problems,
    screening and the query service accept a mapped snapshot wherever they
    accept a graph.
    """

    __slots__ = (
        "name",
        "nodes",
        "indptr",
        "parents",
        "cum_weights",
        "totals",
        "_index",
        "_num_edges",
        "_alias",
        "_digest",
        "_normalized",
        "_directory",
        "_mmap",
        "_nodes_column",
        "_contiguous",
        "_lookup",
        "graph_version",
    )

    def __init__(self, graph: SocialGraph) -> None:
        """Freeze ``graph`` into in-memory CSR columns (insertion order)."""
        self.name = graph.name
        self.nodes = _NodeIds(graph.nodes())
        self._index: "dict | None" = {node: i for i, node in enumerate(self.nodes)}
        indptr = array("q", [0])
        parents = array("q")
        cum_weights = array("d")
        totals = array("d")
        index = self._index
        for v in self.nodes:
            running = 0.0
            for u, weight in graph.in_weights(v).items():
                running += weight
                parents.append(index[u])
                cum_weights.append(running)
            totals.append(running)
            indptr.append(len(parents))
        self.indptr = indptr
        self.parents = parents
        self.cum_weights = cum_weights
        self.totals = totals
        self._num_edges = graph.num_edges
        self._alias = None  # (alias_prob, alias_index), built lazily
        self._digest = None  # computed lazily by csr_digest()
        self._normalized = None  # computed lazily by is_normalized()
        self._directory = None
        self._mmap = False
        self._nodes_column = None
        self._contiguous = False
        self._lookup = None
        # The source graph's mutation counter at freeze time; set by
        # compile_graph() (None for snapshots built any other way).  The
        # sample pool uses it to slice the graph's mutation log between two
        # snapshots for delta-scoped invalidation.
        self.graph_version: "int | None" = None

    # ------------------------------------------------------------------ #
    # The on-disk snapshot tier
    # ------------------------------------------------------------------ #

    @property
    def is_mapped(self) -> bool:
        """Whether the columns are memory-mapped ``.npy`` files (vs in RAM)."""
        return self._directory is not None

    @property
    def snapshot_path(self) -> "Path | None":
        """The snapshot directory backing a mapped graph (``None`` in RAM)."""
        return self._directory

    def save(self, path, *, weights: str = "unspecified") -> Path:
        """Write this snapshot as an on-disk directory (DESIGN.md §8).

        Writes the seven little-endian ``.npy`` columns (including the
        alias tables, built here if not yet cached) and then ``meta.json``
        *last* -- a crashed or interrupted save leaves no ``meta.json`` and
        is therefore never openable as a snapshot.  ``weights`` is a
        free-form label of the weight scheme recorded in the metadata
        (``repro compile-graph`` records its ``--weights`` choice).  A
        graph re-opened from the directory via :meth:`open` has the same
        :meth:`csr_digest` and yields bit-identical samples.  Node ids
        must be plain Python ints (the format-v1 ``nodes`` column is
        int64); anything else raises
        :class:`~repro.exceptions.SnapshotFormatError`.
        """
        directory = Path(path)
        if any(type(node) is not int for node in self.nodes):
            raise SnapshotFormatError(
                f"snapshot {directory}: node ids must be plain integers to be "
                "stored in the int64 nodes column (on-disk format v1)"
            )
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise SnapshotError(
                f"cannot create snapshot directory {directory}: {error}"
            ) from None
        ids = _np.fromiter(self.nodes, dtype=_np.int64, count=len(self.nodes))
        contiguous = bool(ids.size == 0 or _np.array_equal(ids, _np.arange(ids.size)))
        alias_prob, alias_index = self.alias_tables()
        columns = {
            "nodes": ids,
            "indptr": _np.asarray(self.indptr, dtype=_np.int64),
            "parents": _np.asarray(self.parents, dtype=_np.int64),
            "cum_weights": _np.asarray(self.cum_weights, dtype=_np.float64),
            "totals": _np.asarray(self.totals, dtype=_np.float64),
            "alias_prob": _np.asarray(alias_prob, dtype=_np.float64),
            "alias_index": _np.asarray(alias_index, dtype=_np.int64),
        }
        try:
            for name in SNAPSHOT_COLUMNS:
                _np.save(directory / f"{name}.npy", columns[name])
        except OSError as error:
            raise SnapshotError(
                f"cannot write snapshot column under {directory}: {error}"
            ) from None
        meta = {
            "format": SNAPSHOT_FORMAT,
            "format_version": SNAPSHOT_VERSION,
            "digest": self.csr_digest(),
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "weights": weights,
            "name": self.name,
            "contiguous_ids": contiguous,
        }
        _write_snapshot_meta(directory, meta)
        return directory

    @classmethod
    def open(cls, path, *, mmap: bool = True, verify: bool = False) -> "CompiledGraph":
        """Open an on-disk snapshot directory as a :class:`CompiledGraph`.

        With ``mmap=True`` (the default) the columns are read-only
        ``ndarray`` views of file mappings, paged in on demand -- opening a
        million-node snapshot costs a few file headers, not gigabytes of RAM.  The
        recorded CSR digest is adopted from ``meta.json`` (O(1)); pass
        ``verify=True`` to re-hash the column bytes against it
        (:meth:`verify_integrity`).  Every failure mode raises a typed
        :class:`~repro.exceptions.SnapshotError` subclass naming the
        offending path: missing/garbled files and dtype, shape or CSR
        inconsistencies raise ``SnapshotFormatError``, a foreign
        ``format_version`` raises ``SnapshotVersionError``, and a digest
        mismatch under ``verify`` raises ``SnapshotIntegrityError``.
        """
        directory = Path(path)
        meta = read_snapshot_meta(directory)
        n = meta["num_nodes"]
        nodes_column = _load_column(directory, "nodes", n, mmap)
        indptr = _load_column(directory, "indptr", n + 1, mmap)
        if n >= 0 and (int(indptr[0]) != 0 or not bool((_np.diff(indptr) >= 0).all())):
            raise SnapshotFormatError(
                f"snapshot column {directory / 'indptr.npy'} is not a monotone "
                "CSR offset array starting at 0"
            )
        entries = int(indptr[-1])
        if entries != 2 * meta["num_edges"]:
            raise SnapshotFormatError(
                f"snapshot {directory}: indptr declares {entries} in-edge entries "
                f"but meta.json records {meta['num_edges']} friendships "
                f"(expected {2 * meta['num_edges']} entries)"
            )
        parents = _load_column(directory, "parents", entries, mmap)
        cum_weights = _load_column(directory, "cum_weights", entries, mmap)
        totals = _load_column(directory, "totals", n, mmap)
        alias_prob = _load_column(directory, "alias_prob", entries, mmap)
        alias_index = _load_column(directory, "alias_index", entries, mmap)

        compiled = object.__new__(cls)
        compiled.name = meta["name"]
        compiled.nodes = _MappedNodeIds(nodes_column)
        compiled.indptr = indptr
        compiled.parents = parents
        compiled.cum_weights = cum_weights
        compiled.totals = totals
        compiled._index = None
        compiled._num_edges = meta["num_edges"]
        compiled._alias = (alias_prob, alias_index)
        compiled._digest = meta["digest"]
        compiled._normalized = None
        compiled._directory = directory
        compiled._mmap = mmap
        compiled._nodes_column = nodes_column
        compiled._contiguous = meta["contiguous_ids"]
        compiled._lookup = None
        compiled.graph_version = None
        if verify:
            compiled.verify_integrity()
        return compiled

    def reopen(self) -> None:
        """Re-map a mapped snapshot's columns from disk (no-op in RAM).

        :class:`~repro.parallel.engine.ParallelEngine` workers call this
        after fork so each worker holds its *own* read-only file mappings
        opened by path, instead of relying on mappings inherited from the
        parent -- per-worker RSS stays flat (page-cache pages are shared by
        the OS) and a worker outliving its parent keeps a valid view.
        The re-opened columns must carry the same digest; a snapshot that
        changed on disk raises
        :class:`~repro.exceptions.SnapshotIntegrityError`.
        """
        if self._directory is None:
            return
        fresh = type(self).open(self._directory, mmap=self._mmap)
        if fresh._digest != self._digest:
            raise SnapshotIntegrityError(
                f"snapshot {self._directory} changed on disk while in use "
                f"(digest {fresh._digest} != {self._digest})"
            )
        self.nodes = fresh.nodes
        self.indptr = fresh.indptr
        self.parents = fresh.parents
        self.cum_weights = fresh.cum_weights
        self.totals = fresh.totals
        self._alias = fresh._alias
        self._normalized = None
        self._nodes_column = fresh._nodes_column
        self._lookup = None

    def csr_digest(self) -> str:
        """Digest of the snapshot's interned ids and weighted adjacency.

        24 hex chars of SHA-256 over ``repr(tuple(nodes))`` + the raw
        ``indptr``/``parents``/``cum_weights`` bytes
        (:func:`compute_csr_digest`) -- the fingerprint the sample pool
        keys its spill tags on and the matrix runner binds into protocol
        fingerprints.  Computed once and cached for in-memory snapshots;
        mapped snapshots return the digest recorded at compile time
        (O(1) -- use :meth:`verify_integrity` to re-hash the bytes).
        """
        if self._digest is None:
            self._digest = compute_csr_digest(
                self.nodes, self.indptr, self.parents, self.cum_weights
            )
        return self._digest

    def verify_integrity(self) -> str:
        """Re-hash the column bytes and check them against the known digest.

        Returns the digest on success.  For a mapped snapshot this streams
        the on-disk bytes (bounded memory) and raises
        :class:`~repro.exceptions.SnapshotIntegrityError` -- naming the
        snapshot directory -- if the columns no longer match the digest
        ``meta.json`` recorded, if the recorded ``contiguous_ids`` flag
        misdescribes the ids, or if a derived column the digest does not
        cover (``totals``, the alias tables) disagrees with the digested
        ones (:meth:`_verify_derived_columns`).
        """
        recomputed = compute_csr_digest(self.nodes, self.indptr, self.parents, self.cum_weights)
        if self._digest is None:
            self._digest = recomputed
        elif recomputed != self._digest:
            raise SnapshotIntegrityError(
                f"snapshot {self._directory or '<in-memory>'} failed integrity "
                f"verification: column bytes hash to {recomputed}, metadata "
                f"records {self._digest}"
            )
        if self._directory is not None:
            ids = self._nodes_column
            contiguous = bool(ids.size == 0 or _np.array_equal(ids, _np.arange(ids.size)))
            if contiguous != self._contiguous:
                raise SnapshotIntegrityError(
                    f"snapshot {self._directory} failed integrity verification: "
                    "meta.json misdeclares contiguous_ids"
                )
        self._verify_derived_columns()
        return recomputed

    def _verify_derived_columns(self) -> None:
        """Check ``totals`` and the alias tables against the digested columns.

        Row by row: ``totals`` is bit for bit the last running weight
        (``0.0`` when empty); alias indices are node-local in ``[0,
        degree)``, probabilities in ``[0, 1]``, and a cell aliases itself
        iff its probability is 1 (as :func:`build_alias_tables` lays them
        out); each edge's alias mass -- its cell's probability plus the
        leftovers of the cells aliasing to it, over the degree -- is within
        ``1e-9`` of its weight over the total (zero-total rows hold
        placeholders).  Runs over node ranges of about
        :data:`_STREAM_CHUNK` entries, so memory stays bounded.
        """
        indptr = _np.asarray(self.indptr, dtype=_np.int64)
        num_nodes, first = len(indptr) - 1, 0
        while first < num_nodes:
            end = int(_np.searchsorted(indptr, indptr[first] + _STREAM_CHUNK, "right")) - 1
            last = min(num_nodes, max(first + 1, end))
            problem = self._derived_problem(first, indptr[first : last + 1])
            if problem is not None:
                raise SnapshotIntegrityError(
                    f"snapshot {self._directory or '<in-memory>'} failed integrity "
                    f"verification: {problem}"
                )
            first = last

    def _derived_problem(self, first: int, bounds) -> "str | None":
        """The first problem in the derived columns of the nodes from ``first`` whose
        CSR row pointers are ``bounds``, or ``None``."""
        lo, hi = int(bounds[0]), int(bounds[-1])
        starts, degrees = bounds[:-1] - lo, _np.diff(bounds)
        running = _np.asarray(self.cum_weights[lo:hi], dtype=_np.float64)
        totals = _np.asarray(self.totals[first : first + degrees.size], dtype=_np.float64)
        full = degrees > 0
        expected = _np.zeros(degrees.size)
        expected[full] = running[starts[full] + degrees[full] - 1]
        if not _np.array_equal(totals.view(_np.int64), expected.view(_np.int64)):
            return "totals is not each row's last running weight"
        if self._alias is None or hi == lo:  # an in-memory snapshot builds its tables lazily
            return None
        prob = _np.asarray(self._alias[0][lo:hi], dtype=_np.float64)
        index = _np.asarray(self._alias[1][lo:hi], dtype=_np.int64)
        owner = _np.repeat(_np.arange(degrees.size), degrees)
        degree = degrees[owner]
        if not ((index >= 0) & (index < degree) & (prob >= 0.0) & (prob <= 1.0)).all():
            return "alias entries are out of range"
        if not _np.array_equal(index == _np.arange(hi - lo) - starts[owner], prob == 1.0):
            return "alias cells disagree with their probabilities"
        weight = running.copy()
        weight[1:] -= running[:-1]
        weight[starts[full]] = running[starts[full]]
        mass = prob + _np.bincount(starts[owner] + index, 1.0 - prob, hi - lo)
        live = totals[owner] > 0.0
        error = mass[live] / degree[live] - weight[live] / totals[owner][live]
        if not (_np.abs(error) <= 1e-9).all():
            return "alias tables do not encode the edge weights"
        return None

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """The number of users ``n`` (alias of :attr:`num_nodes`)."""
        return len(self.nodes)

    def __contains__(self, node: NodeId) -> bool:
        """Whether ``node`` is a user of the network."""
        return self._position(node) is not None

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        label = f" {self.name!r}" if self.name else ""
        mapped = f" mapped={str(self._directory)!r}" if self._directory is not None else ""
        return f"<CompiledGraph{label} n={self.num_nodes} m={self.num_edges}{mapped}>"

    @property
    def num_nodes(self) -> int:
        """The number of users ``n``."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """The number of friendships ``m`` (each stored twice in the CSR)."""
        return self._num_edges

    def _ensure_lookup(self):
        """The (sorted ids, argsort) lookup of a mapped snapshot, built lazily.

        O(n log n) once, O(n) resident (two int64 columns) -- the only
        per-node RAM a mapped snapshot ever materializes, and only when the
        ids are not the contiguous ``0..n-1`` fast path.
        """
        if self._lookup is None:
            ids = self._nodes_column
            sorter = _np.argsort(ids, kind="stable")
            self._lookup = (ids[sorter], sorter)
        return self._lookup

    def _position(self, node) -> "int | None":
        """Dense index of ``node``, or ``None`` when unknown."""
        if self._index is not None:
            return self._index.get(node)
        try:
            key = operator.index(node)
        except TypeError:
            return None
        n = len(self.nodes)
        if self._contiguous:
            return key if 0 <= key < n else None
        sorted_ids, sorter = self._ensure_lookup()
        try:
            pos = int(_np.searchsorted(sorted_ids, key))
        except (OverflowError, TypeError):  # pragma: no cover - exotic ints
            return None
        if pos < n and int(sorted_ids[pos]) == key:
            return int(sorter[pos])
        return None

    def index_of(self, node: NodeId) -> int:
        """Dense index of ``node``; raises :class:`NodeNotFoundError` if unknown."""
        position = self._position(node)
        if position is None:
            raise NodeNotFoundError(node)
        return position

    def node_at(self, index: int) -> NodeId:
        """The node id interned at ``index``."""
        return self.nodes[index]

    def indices_of(self, nodes: Iterable[NodeId]) -> frozenset:
        """Dense indices of the given nodes, silently skipping unknown ids.

        Unknown members of a stop set can never be reached by a walk, so
        dropping them preserves the dict-based sampling semantics exactly.
        """
        if self._index is not None:
            index = self._index
            return frozenset(index[node] for node in nodes if node in index)
        positions = (self._position(node) for node in nodes)
        return frozenset(position for position in positions if position is not None)

    # ------------------------------------------------------------------ #
    # Weighted structure (round-trips the source graph)
    # ------------------------------------------------------------------ #

    def degree(self, node: NodeId) -> int:
        """The number of current friends of ``node``."""
        i = self.index_of(node)
        return int(self.indptr[i + 1] - self.indptr[i])

    def total_in_weight(self, node: NodeId) -> float:
        """``sum_u w(u, node)`` (the model requires this to be <= 1)."""
        return float(self.totals[self.index_of(node)])

    def stop_probability(self, node: NodeId) -> float:
        """The precomputed tail probability that ``node`` selects nobody."""
        return max(0.0, 1.0 - self.total_in_weight(node))

    def in_weights(self, node: NodeId) -> dict:
        """``{u: w(u, node)}`` reconstructed from the CSR arrays."""
        i = self.index_of(node)
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        weights: dict = {}
        previous = 0.0
        for j in range(lo, hi):
            value = float(self.cum_weights[j])
            weights[self.nodes[self.parents[j]]] = value - previous
            previous = value
        return weights

    def weight(self, u: NodeId, v: NodeId) -> float:
        """``w(u, v)``: v's familiarity with u (0 for non-friends)."""
        self.index_of(u)
        return self.in_weights(v).get(u, 0.0)

    def edges(self) -> Iterator[tuple]:
        """Iterate over each friendship exactly once (arbitrary orientation)."""
        seen: set[int] = set()
        for v in range(self.num_nodes):
            for j in range(int(self.indptr[v]), int(self.indptr[v + 1])):
                u = int(self.parents[j])
                if u not in seen:
                    yield (self.nodes[v], self.nodes[u])
            seen.add(v)

    # ------------------------------------------------------------------ #
    # Read-only SocialGraph interface (problems, screening, service)
    # ------------------------------------------------------------------ #

    def has_node(self, node: NodeId) -> bool:
        """Whether ``node`` is a user of the network."""
        return self._position(node) is not None

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether ``u`` and ``v`` are currently friends."""
        iu = self._position(u)
        iv = self._position(v)
        if iu is None or iv is None:
            return False
        lo, hi = int(self.indptr[iv]), int(self.indptr[iv + 1])
        return iu in self.parents[lo:hi]

    def neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterate over the current friends ``N_v`` of ``node``.

        Friendship is symmetric and both directions are stored, so a
        node's in-neighbour slice *is* its friend set -- in the same
        insertion order the source graph would report.
        """
        i = self.index_of(node)
        # One slice and one gather: a mapped column read per neighbour
        # costs a memmap __getitem__ each.
        return iter(self.nodes.take(self.parents[int(self.indptr[i]) : int(self.indptr[i + 1])]))

    def neighbor_set(self, node: NodeId) -> frozenset:
        """The current friends ``N_v`` of ``node`` as a frozenset."""
        return frozenset(self.neighbors(node))

    def node_list(self) -> list:
        """All users as a list (insertion order)."""
        return list(self.nodes)

    def is_normalized(self) -> bool:
        """Whether every node's incoming weights sum to at most 1.

        A compiled snapshot originates from a validated graph (or from the
        streaming compiler's normalized weight schemes), so this reduces to
        checking the precomputed ``totals`` column against the model bound,
        once per snapshot (:meth:`reopen` clears the cached answer).
        """
        if self._normalized is None:
            totals = self.totals
            if hasattr(totals, "max"):  # numpy-backed mapped column
                largest = float(totals.max(initial=0.0))
            else:
                largest = max(totals, default=0.0)
            self._normalized = largest <= 1.0 + WEIGHT_SUM_TOLERANCE
        return self._normalized

    # ------------------------------------------------------------------ #
    # Sampling primitive
    # ------------------------------------------------------------------ #

    def select_parent(self, node_index: int, draw: float) -> int:
        """Index of the friend selected by ``node_index`` for a uniform ``draw``.

        Returns ``-1`` when the draw falls into the stop-probability tail
        (the node selects nobody).  This is the allocation-free binary-search
        equivalent of the dict-based linear scan: it returns the first
        neighbour whose running weight sum exceeds ``draw``.  Identical for
        in-memory and mapped snapshots: the running sums are the same
        float64 values wherever the column lives.
        """
        lo = int(self.indptr[node_index])
        hi = int(self.indptr[node_index + 1])
        j = bisect_right(self.cum_weights, draw, lo, hi)
        return int(self.parents[j]) if j < hi else -1

    def alias_tables(self) -> tuple:
        """Per-node Vose alias tables, flat and aligned to the CSR layout.

        Returns ``(alias_prob, alias_index)``, each of length
        ``len(self.parents)`` -- see :func:`build_alias_tables` for the
        lookup recipe and the bit-identity contract.  Built once per
        in-memory snapshot (O(n + m)) and cached; mapped snapshots return
        the precomputed on-disk columns directly, so the alias engine
        stays out-of-core.
        """
        if self._alias is not None:
            return self._alias
        alias_prob = array("d", bytes(8 * len(self.parents)))
        alias_index = array("q", bytes(8 * len(self.parents)))
        build_alias_tables(self.indptr, self.cum_weights, self.totals, alias_prob, alias_index)
        self._alias = (alias_prob, alias_index)
        return self._alias


def _write_snapshot_meta(directory: Path, meta: dict) -> None:
    """Write ``meta.json`` atomically (tmp + rename), completing a snapshot."""
    meta_path = directory / "meta.json"
    tmp_path = directory / "meta.json.tmp"
    try:
        tmp_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp_path, meta_path)
    except OSError as error:
        raise SnapshotError(f"cannot write snapshot metadata {meta_path}: {error}") from None


def compile_graph(graph: "SocialGraph | CompiledGraph") -> CompiledGraph:
    """Return the (cached) CSR snapshot of ``graph``.

    The snapshot is stored on the graph keyed by its mutation counter, so
    compiling is O(1) until the graph changes and O(n + m) after.  A
    :class:`CompiledGraph` -- including a mapped on-disk snapshot -- passes
    through unchanged (it is already frozen), so every call site that
    compiles its input accepts either representation.
    """
    if isinstance(graph, CompiledGraph):
        return graph
    cached = graph._compiled_cache
    if cached is not None and cached[0] == graph.version:
        return cached[1]
    compiled = CompiledGraph(graph)
    compiled.graph_version = graph.version
    graph._compiled_cache = (graph.version, compiled)
    return compiled


def reverse_reachable(
    compiled: CompiledGraph,
    sources: Iterable[NodeId],
    *,
    max_hops: int = 64,
    max_nodes: int = 4096,
) -> "frozenset | None":
    """Nodes whose reverse-sampling walks could visit any of ``sources``.

    BFS over ``compiled`` from the ``sources`` against the direction of a
    backward walk: a walk positioned at ``a`` steps to in-neighbour ``b``
    exactly when ``w(b, a) > 0``, so a node ``a`` is *affected* by a change
    at ``b`` when there is a chain of positive-weight walk steps from ``a``
    to ``b``.  The returned frozenset (of node *ids*, sources included)
    over-approximates the affected set: a key whose target is outside it
    provably draws byte-identical paths before and after the change, which
    is the retention contract of the sample pool (DESIGN.md §10).

    Unknown source ids are skipped: a node absent from this snapshot cannot
    have been visited by any walk drawn on it.  Returns ``None`` when the
    frontier is still growing after ``max_hops`` levels or the visited set
    exceeds ``max_nodes`` — callers must then fall back to assuming every
    node is affected (full flush).
    """
    indptr = compiled.indptr
    parents = compiled.parents
    cum_weights = compiled.cum_weights
    visited = {
        position
        for position in (compiled._position(node) for node in sources)
        if position is not None
    }
    if len(visited) > max_nodes:
        return None
    frontier = list(visited)
    for _ in range(max_hops):
        if not frontier:
            break
        next_frontier: list[int] = []
        # Walk steps follow stored in-edges, so the nodes that can step
        # *into* ``b`` are exactly the nodes ``a`` whose in-row lists ``b``
        # with positive weight.  Friendship is symmetric: those ``a`` are
        # ``b``'s own CSR parents, filtered by ``w(b, a) > 0`` read from
        # ``a``'s row (entry j weighs cum[j] - cum[j-1]).
        for b in frontier:
            for k in range(indptr[b], indptr[b + 1]):
                a = int(parents[k])
                if a in visited:
                    continue
                lo = int(indptr[a])
                hi = int(indptr[a + 1])
                previous = 0.0  # cum_weights restarts at each row
                steps_into_b = False
                for j in range(lo, hi):
                    current = float(cum_weights[j])
                    if int(parents[j]) == b:
                        steps_into_b = current - previous > 0.0
                        break
                    previous = current
                if steps_into_b:
                    visited.add(a)
                    if len(visited) > max_nodes:
                        return None
                    next_frontier.append(a)
        frontier = next_frontier
    if frontier:
        return None
    node_at = compiled.nodes
    return frozenset(node_at[i] for i in sorted(visited))
