"""Columnar (CSR-of-paths) batches of reverse-sampled target paths.

Everything the RAF pipeline does with randomness reduces to drawing
backward traces ``t(ĝ)`` (Remark 3), and every estimator above the engine
consumes *functions of* those traces: the type indicator ``y(ĝ)`` for
``pmax`` (Alg. 2 / Corollary 2), the Lemma-2 covered-trace indicator for
``f(I)``, and the type-1 node sets for the MSC instance (Alg. 3).  Holding
each trace as a Python :class:`TargetPath` (a ``frozenset`` per sample)
makes the *object materialization* the dominant cost of the vectorized
sampling backend — the per-path ``frozenset`` construction outweighs the
``searchsorted`` step that actually samples.

:class:`PathBatch` keeps a whole batch in flat columns instead:

* ``offsets``/``node_indices`` — a CSR layout of the traced node sets,
  path ``i`` owning the dense node indices
  ``node_indices[offsets[i]:offsets[i+1]]`` (the
  :class:`~repro.graph.compiled.CompiledGraph` interning; the target is
  always the first entry);
* ``is_type1`` — one flag per path (whether the walk reached ``N_s``);
* ``anchor_indices`` — the dense index of the type-1 anchor ``u* ∈ N_s``
  (``-1`` for type-0 paths).

Every engine writes batches directly
(:meth:`repro.diffusion.engine.SamplingEngine.sample_path_batch`); they
travel between worker processes as packed array buffers (pickling drops
the graph reference so only the columns cross the process boundary), are
stored per-key by the sample pool (:class:`PathStore`), and are spilled to
disk as ``.npz`` array blobs.  Indicator reductions (:meth:`PathBatch.
type1_bytes`, :meth:`PathBatch.covered_bytes`) and the counted distinct
type-1 sets of the MSC instance (:meth:`PathBatch.distinct_type1`) run
directly on the numpy columns — no per-path objects are ever created on
those paths.  The object view is kept through *lazy views*:
:meth:`PathBatch.path`, iteration and :meth:`PathBatch.to_paths`
materialize :class:`TargetPath` objects on demand.  See DESIGN.md §6 for
the layout and the draw-compatibility contract.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as _np

from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.compiled import CompiledGraph

__all__ = ["TargetPath", "PathBatch", "PathStore"]

_ONE = _np.ones(1, dtype=_np.int64)  # the count of a row alone in its length


@dataclass(frozen=True, slots=True)
class TargetPath:
    """One sampled backward trace ``t(ĝ)``.

    Attributes
    ----------
    nodes:
        The traced users (always contains the target).  For a type-0
        realization these are the users visited before the walk died; they
        are retained for diagnostics but can never be covered.
    is_type1:
        Whether the walk reached the initiator's friend circle, i.e.
        whether ℵ0 ∉ t(g) (Definition 2).  Only type-1 paths can contribute
        to the acceptance probability.
    anchor:
        For a type-1 path, the friend of the initiator that the walk
        reached (the ``u* ∈ N_s`` of Alg. 1, *not* part of ``t(g)``);
        ``None`` for type-0 paths.
    """

    nodes: frozenset
    is_type1: bool
    anchor: NodeId | None = None

    def covered_by(self, invitation: Iterable[NodeId]) -> bool:
        """Whether an invitation set covers this realization (Lemma 2).

        A type-0 path is never covered; a type-1 path is covered iff every
        traced user received an invitation.
        """
        if not self.is_type1:
            return False
        invited = invitation if isinstance(invitation, (set, frozenset)) else frozenset(invitation)
        return self.nodes <= invited

    def __len__(self) -> int:
        return len(self.nodes)


def _invitation_mask(graph, invitation: Iterable[NodeId]):
    """Dense boolean membership mask of an invitation over ``graph``'s interning."""
    invited = graph.indices_of(invitation)
    mask = _np.zeros(len(graph), dtype=bool)
    if invited:
        mask[_np.fromiter(invited, dtype=_np.int64, count=len(invited))] = True
    return mask


class PathBatch:
    """A batch of backward traces held as flat columns (see module docstring).

    The column attributes are read-only by convention; batches are
    append-never (grow a :class:`PathStore` instead).  ``graph`` is the
    :class:`~repro.graph.compiled.CompiledGraph` whose dense interning the
    ``node_indices``/``anchor_indices`` columns refer to; it is dropped
    when the batch is pickled (the columns alone cross process
    boundaries) and re-attached by the receiver via :meth:`attach`.
    """

    __slots__ = ("offsets", "node_indices", "is_type1", "anchor_indices", "graph")

    def __init__(self, offsets, node_indices, is_type1, anchor_indices, graph=None) -> None:
        self.offsets = offsets
        self.node_indices = node_indices
        self.is_type1 = is_type1
        self.anchor_indices = anchor_indices
        self.graph = graph

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, graph=None) -> "PathBatch":
        """A batch of zero paths."""
        return cls(
            _np.zeros(1, dtype=_np.int64),
            _np.empty(0, dtype=_np.int64),
            _np.empty(0, dtype=bool),
            _np.empty(0, dtype=_np.int64),
            graph,
        )

    @classmethod
    def concat(cls, batches: Sequence["PathBatch"], graph=None) -> "PathBatch":
        """Concatenate batches in order into one batch."""
        if not batches:
            return cls.empty(graph)
        if graph is None:
            graph = batches[0].graph
        lengths = _np.concatenate([_np.diff(batch.offsets) for batch in batches])
        offsets = _np.zeros(lengths.size + 1, dtype=_np.int64)
        _np.cumsum(lengths, out=offsets[1:])
        return cls(
            offsets,
            _np.concatenate([batch.node_indices for batch in batches]),
            _np.concatenate([batch.is_type1 for batch in batches]),
            _np.concatenate([batch.anchor_indices for batch in batches]),
            graph,
        )

    def split(self, sizes: Sequence[int]) -> list["PathBatch"]:
        """Consecutive sub-batches of ``sizes[k]`` paths each, in order.

        The inverse of :meth:`concat`: ``concat(batch.split(sizes))``
        has this batch's columns.  The parts view this batch's columns
        (only their offsets are rebased copies).
        """
        parts = []
        first = 0
        for size in sizes:
            last = first + size
            low, high = int(self.offsets[first]), int(self.offsets[last])
            parts.append(
                PathBatch(
                    self.offsets[first : last + 1] - low,
                    self.node_indices[low:high],
                    self.is_type1[first:last],
                    self.anchor_indices[first:last],
                    self.graph,
                )
            )
            first = last
        return parts

    # ------------------------------------------------------------------ #
    # Introspection and lazy per-path views
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_nodes(self) -> int:
        """Total traced-node entries across all paths in the batch."""
        return int(self.offsets[-1])

    def attach(self, graph: "CompiledGraph") -> "PathBatch":
        """(Re-)bind the dense indices to their compiled graph; returns self."""
        self.graph = graph
        return self

    def _ids(self) -> tuple:
        if self.graph is None:
            raise RuntimeError(
                "this PathBatch is detached from its compiled graph (it crossed a "
                "process boundary); attach() it before materializing node ids"
            )
        return self.graph.nodes

    def path(self, i: int) -> TargetPath:
        """Lazy view of path ``i`` as a :class:`TargetPath`."""
        return self.paths_slice(i, i + 1)[0]

    def __iter__(self) -> Iterator[TargetPath]:
        return iter(self.to_paths())

    def to_paths(self) -> list[TargetPath]:
        """Materialize the whole batch as :class:`TargetPath` objects."""
        return self.paths_slice(0, len(self))

    def paths_slice(self, start: int, stop: int) -> list[TargetPath]:
        """Materialize paths ``[start, stop)`` as :class:`TargetPath` objects.

        The engines' object view (``sample_paths``): same node sets, flags
        and anchors as the draws, in the same order.
        """
        if not 0 <= start <= stop <= len(self):
            raise IndexError(f"path slice [{start}, {stop}) out of range for {len(self)} paths")
        if start == stop:
            return []
        flags = self.is_type1[start:stop].tolist()
        anchor_ids = self._ids().take(self.anchor_indices[start:stop])
        return [
            TargetPath(nodes, flagged, anchor if flagged else None)
            for nodes, flagged, anchor in zip(self.node_sets(start, stop), flags, anchor_ids)
        ]

    def node_sets(self, start: int = 0, stop: int | None = None) -> list[frozenset]:
        """Each of paths ``[start, stop)`` as the frozenset of its node ids.

        Every set is built from its row's ids in walk order (one id gather
        per call), so equal rows give sets that also iterate alike.  This
        loop is every engine's object view, so per-path overhead counts.
        """
        stop = len(self) if stop is None else stop
        if start == stop:
            return []
        bounds = self.offsets[start : stop + 1]
        node_ids = self._ids().take(self.node_indices[int(bounds[0]) : int(bounds[-1])])
        ends = (bounds[1:] - bounds[0]).tolist()
        return [frozenset(node_ids[lo:hi]) for lo, hi in zip([0, *ends], ends)]

    # ------------------------------------------------------------------ #
    # Columnar reductions (no per-path objects)
    # ------------------------------------------------------------------ #

    def type1_bytes(self, start: int = 0, stop: int | None = None) -> bytes:
        """Type indicators ``y(ĝ)`` of paths ``[start, stop)``, one byte each."""
        stop = len(self) if stop is None else stop
        return self.is_type1[start:stop].tobytes()  # bool: one 0/1 byte per path

    def type1_count(self, start: int = 0, stop: int | None = None) -> int:
        """How many of paths ``[start, stop)`` are type-1."""
        stop = len(self) if stop is None else stop
        return int(self.is_type1[start:stop].sum())

    def covered_bytes(
        self, invitation: Iterable[NodeId], start: int = 0, stop: int | None = None
    ) -> bytes:
        """Lemma-2 covered-trace indicators of paths ``[start, stop)``.

        A path is covered iff it is type-1 and every traced node received
        an invitation — computed here as one gather of a node membership
        mask plus a segmented ``logical_and`` over the CSR layout.
        """
        stop = len(self) if stop is None else stop
        if stop <= start:
            return b""
        graph = self.graph
        if graph is None:
            raise RuntimeError("covered_bytes needs the compiled graph; attach() first")
        return self.covered_bytes_masked(_invitation_mask(graph, invitation), start, stop)

    def covered_bytes_masked(self, mask, start: int, stop: int) -> bytes:
        """:meth:`covered_bytes` against a precomputed membership mask.

        Lets multi-chunk readers (:class:`PathStore`) intern the invitation
        once per read instead of once per chunk.
        """
        if stop <= start:
            return b""
        offsets = self.offsets
        base = offsets[start]
        member = mask[self.node_indices[base : offsets[stop]]]
        starts = offsets[start:stop] - base
        all_invited = _np.logical_and.reduceat(member, starts)
        return (self.is_type1[start:stop] & all_invited).tobytes()

    def distinct_type1(self, start: int = 0, stop: int | None = None) -> tuple[list, list]:
        """The distinct node sets among the type-1 paths in ``[start, stop)``.

        Returns ``(members, weights)`` in order of first occurrence: what a
        ``Counter`` over the type-1 paths' node sets gives, each member
        built as :meth:`paths_slice` builds its first occurrence
        (DESIGN.md §6.5).
        """
        rows, counts = self.distinct_type1_rows(start, stop)
        return rows.node_sets(), counts.tolist()

    def distinct_type1_rows(self, start: int = 0, stop: int | None = None):
        """:meth:`distinct_type1` as columns: ``(first occurrences as a batch, counts)``.

        Two rows are one set iff their sorted node indices are equal (a walk
        never revisits a node): rows are grouped by length and compared as
        sorted byte strings, exactly.
        """
        stop = len(self) if stop is None else stop
        if not 0 <= start <= stop <= len(self):
            raise IndexError(f"path slice [{start}, {stop}) out of range for {len(self)} paths")
        offsets = self.offsets
        rows = start + _np.flatnonzero(self.is_type1[start:stop])
        if rows.size == 0:
            return self._rows(rows), _np.zeros(0, dtype=_np.int64)
        lengths = offsets[rows + 1] - offsets[rows]
        order = _np.argsort(lengths, kind="stable")  # rows stay in order within a length
        rows, lengths = rows[order], lengths[order]
        edges = [0, *(_np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(), rows.size]
        firsts, counts = [], []
        for lo, hi in zip(edges, edges[1:]):
            group = rows[lo:hi]
            if hi - lo == 1:
                firsts.append(group)
                counts.append(_ONE)
                continue
            length = int(lengths[lo])
            cells = offsets[group][:, None] + _np.arange(length)
            block = _np.sort(self.node_indices[cells], axis=1)
            keys = block.view(_np.dtype((_np.void, block.itemsize * length))).ravel()
            _, first, count = _np.unique(keys, return_index=True, return_counts=True)
            firsts.append(group[first])
            counts.append(count)
        firsts_all = _np.concatenate(firsts)
        order = _np.argsort(firsts_all)
        return self._rows(firsts_all[order]), _np.concatenate(counts)[order]

    def _rows(self, rows) -> "PathBatch":
        """The paths at positions ``rows``, in that order, as a new batch."""
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        offsets = _np.zeros(rows.size + 1, dtype=_np.int64)
        _np.cumsum(lengths, out=offsets[1:])
        cells = _np.repeat(starts - offsets[:-1], lengths) + _np.arange(offsets[-1])
        return PathBatch(
            offsets, self.node_indices[cells], self.is_type1[rows], self.anchor_indices[rows],
            self.graph,
        )

    # ------------------------------------------------------------------ #
    # Wire and disk formats
    # ------------------------------------------------------------------ #

    def __getstate__(self):
        # The graph reference never crosses a process boundary: workers and
        # parents each hold their own (forked) snapshot, so only the packed
        # columns are shipped.  Receivers re-attach() their snapshot.
        return (self.offsets, self.node_indices, self.is_type1, self.anchor_indices)

    def __setstate__(self, state) -> None:
        self.offsets, self.node_indices, self.is_type1, self.anchor_indices = state
        self.graph = None

    def save_npz(self, path) -> None:
        """Persist the columns as one ``.npz`` array blob."""
        _np.savez(
            path,
            offsets=self.offsets,
            node_indices=self.node_indices,
            is_type1=self.is_type1,
            anchor_indices=self.anchor_indices,
        )

    @classmethod
    def load_npz(cls, path, graph=None) -> "PathBatch":
        """Load columns persisted by :meth:`save_npz`."""
        with _np.load(path) as data:
            return cls(
                _np.asarray(data["offsets"], dtype=_np.int64),
                _np.asarray(data["node_indices"], dtype=_np.int64),
                _np.asarray(data["is_type1"], dtype=bool),
                _np.asarray(data["anchor_indices"], dtype=_np.int64),
                graph,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"<PathBatch paths={len(self)} nodes={self.total_nodes} "
            f"type1={self.type1_count()} attached={self.graph is not None}>"
        )


class PathStore:
    """Chunked storage of one stream's materialized prefix.

    The sample pool appends whole engine chunks (:class:`PathBatch`
    columns) and serves reads across chunk boundaries.  Chunks stay
    columnar end to end: indicator reads reduce on the arrays, and
    :class:`TargetPath` objects are built only when a caller explicitly
    asks for them.
    """

    __slots__ = ("_chunks", "_bounds")

    def __init__(self) -> None:
        self._chunks: list[PathBatch] = []
        self._bounds: list[int] = [0]

    def __len__(self) -> int:
        return self._bounds[-1]

    @property
    def num_chunks(self) -> int:
        """How many chunks the store holds."""
        return len(self._chunks)

    def chunks(self) -> tuple:
        """The stored chunks, in stream order (for spilling)."""
        return tuple(self._chunks)

    def append(self, chunk: PathBatch) -> None:
        """Append one engine chunk."""
        self._chunks.append(chunk)
        self._bounds.append(self._bounds[-1] + len(chunk))

    def _segments(self, start: int, stop: int):
        """Yield ``(chunk, local_start, local_stop)`` covering ``[start, stop)``."""
        if not 0 <= start <= stop <= len(self):
            raise IndexError(f"segment [{start}, {stop}) out of range for {len(self)} paths")
        if start == stop:
            return
        first = bisect_right(self._bounds, start) - 1
        for index in range(first, len(self._chunks)):
            lo = self._bounds[index]
            if lo >= stop:
                break
            chunk = self._chunks[index]
            yield chunk, max(start - lo, 0), min(stop - lo, len(chunk))

    def slice(self, start: int, stop: int) -> list[TargetPath]:
        """Paths ``[start, stop)`` as :class:`TargetPath` objects (a new list)."""
        out: list[TargetPath] = []
        for chunk, lo, hi in self._segments(start, stop):
            out.extend(chunk.paths_slice(lo, hi))
        return out

    def distinct_type1(self, start: int, stop: int) -> tuple[list, list]:
        """:meth:`PathBatch.distinct_type1` of paths ``[start, stop)``, chunk by chunk.

        Each chunk is reduced against its own snapshot (chunks retained
        across a re-snapshot may differ in interning), so a set drawn in
        two chunks appears once per chunk, until ``SetSystem.deduplicate``.
        """
        members: list = []
        weights: list = []
        for chunk, lo, hi in self._segments(start, stop):
            sets, counts = chunk.distinct_type1(lo, hi)
            members += sets
            weights += counts
        return members, weights

    def type1_bytes(self, start: int, stop: int) -> bytes:
        """Type indicators of paths ``[start, stop)``, one byte each."""
        return b"".join(chunk.type1_bytes(lo, hi) for chunk, lo, hi in self._segments(start, stop))

    def covered_bytes(self, start: int, stop: int, invitation: frozenset) -> bytes:
        """Covered-trace indicators (Lemma 2) of paths ``[start, stop)``."""
        parts: list[bytes] = []
        # Interned once per distinct snapshot per read.  Chunks retained
        # across graph mutations keep their original snapshot attached, so
        # one store can mix chunks whose dense index spaces differ -- a
        # single shared mask would silently misread them.
        masks: dict[int, object] = {}
        for chunk, lo, hi in self._segments(start, stop):
            if chunk.graph is None:
                raise RuntimeError("covered_bytes needs the compiled graph; attach() first")
            mask = masks.get(id(chunk.graph))
            if mask is None:
                mask = masks[id(chunk.graph)] = _invitation_mask(chunk.graph, invitation)
            parts.append(chunk.covered_bytes_masked(mask, lo, hi))
        return b"".join(parts)
