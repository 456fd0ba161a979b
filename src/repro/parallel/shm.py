"""Zero-copy shared-memory transport for columnar :class:`PathBatch` chunks.

The fork-based :class:`~repro.parallel.engine.ParallelEngine` historically
shipped finished chunks back to the parent by pickling their packed columns
through the pool's result pipe: one serialize, one pipe write, one pipe
read, one deserialize per chunk.  This module replaces that wire with POSIX
shared memory (:mod:`multiprocessing.shared_memory`): a worker copies the
four columns of a finished batch into one freshly created segment and ships
only a tiny :class:`ShmBatchRef` descriptor -- the segment name plus the
two lengths that fully determine the column layout -- over the pipe.  The
parent attaches the segment and wraps numpy *views* over its buffer
directly into a :class:`~repro.diffusion.path_batch.PathBatch`: the sampled
data crosses the process boundary exactly once (the worker's copy-in) and
is never serialized, copied or parsed again.

Lifecycle protocol (see DESIGN.md §7)
-------------------------------------

* **Naming.**  Segments are named ``repro-pb-<parent pid>-<random hex>``.
  The parent passes its prefix to the workers at fork time, so every
  segment a pool ever creates is attributable to (and sweepable by) the
  parent that owns the pool, and unrelated processes never collide.
* **Publish (worker).**  :func:`publish_batch` creates the segment, copies
  the columns in, *unregisters it from the worker's resource tracker*
  (ownership moves to the parent -- a worker exiting must not unlink data
  the parent is still reading), closes its own mapping and returns the
  descriptor.  Any failure (shared memory unavailable, ``/dev/shm`` full)
  returns ``None`` and the caller falls back to pickling the batch -- the
  transport degrades, the results do not change.
* **Adopt (parent).**  :func:`adopt` maps the segment, unlinks its name
  at once, and builds the columns with ``numpy.frombuffer`` over the
  mapping.  The mapping is the arrays' base buffer, so the pages live
  exactly as long as any column -- or any view of one, such as a
  :meth:`~repro.diffusion.path_batch.PathBatch.split` part -- and nothing
  is left to release.
* **Crash safety.**  A segment still on disk under this process's prefix
  was never adopted: its worker died between publish and delivery.
  :func:`sweep_orphans` unlinks every such segment;
  :class:`~repro.parallel.engine.ParallelEngine` sweeps on ``close()``
  and the module sweeps at exit, so no orphan outlives its owning
  process.

The transport is optional: :func:`shm_available` gates on the platform,
and every caller has a pickling fallback.
"""

from __future__ import annotations

import atexit
import mmap
import os
import uuid
from dataclasses import dataclass

import numpy as _np

from repro.diffusion.path_batch import PathBatch
from repro.exceptions import EngineError

try:  # optional: POSIX shared memory (absent on some exotic platforms)
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _shared_memory = None

__all__ = [
    "TRANSPORTS",
    "ShmBatchRef",
    "shm_available",
    "resolve_transport",
    "default_prefix",
    "segment_name",
    "publish_batch",
    "set_publish_failures",
    "adopt",
    "sweep_orphans",
    "register_exit_cleanup",
]

#: Transport names accepted by :class:`~repro.parallel.engine.ParallelEngine`.
TRANSPORTS = ("auto", "shm", "pickle")

#: Where POSIX shared memory is visible as files (the orphan sweep scans it).
_SHM_DIR = "/dev/shm"

_ATEXIT_REGISTERED = False

#: Pending injected publish failures (the chaos harness's seam): while
#: positive, :func:`publish_batch` declines -- exactly as if the segment
#: could not be created -- and the caller takes its pickling fallback.
_FORCED_PUBLISH_FAILURES = 0


def set_publish_failures(count: int) -> None:
    """Make the next ``count`` :func:`publish_batch` calls fail (per process).

    The fault-injection seam used by :mod:`repro.faults` via the worker
    directives of :class:`~repro.parallel.engine.ParallelEngine`: a forced
    failure is indistinguishable from a real segment-creation failure, so
    it exercises the graceful per-chunk pickle fallback without touching
    shared-memory internals.  Results never change -- only the wire.
    """
    global _FORCED_PUBLISH_FAILURES
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ValueError(f"count must be a non-negative int, got {count!r}")
    _FORCED_PUBLISH_FAILURES = count


def shm_available() -> bool:
    """Whether the zero-copy transport can run on this platform."""
    return _shared_memory is not None and os.path.isdir(_SHM_DIR)


def resolve_transport(transport: str) -> str:
    """Normalize a transport argument to ``"shm"`` or ``"pickle"``.

    ``"auto"`` selects shared memory when it is available, for every
    engine.  An explicit ``"shm"`` is honoured even when the runtime later
    falls back per-chunk -- the fallback is graceful, not an error.
    Unknown names raise :class:`~repro.exceptions.EngineError`.
    """
    if not isinstance(transport, str) or transport.lower() not in TRANSPORTS:
        raise EngineError(
            f"transport must be one of {', '.join(TRANSPORTS)}, got {transport!r}"
        )
    key = transport.lower()
    if key == "auto":
        return "shm" if shm_available() else "pickle"
    return key


def default_prefix() -> str:
    """This process's segment-name prefix (embeds the pid for sweepability)."""
    return f"repro-pb-{os.getpid()}-"


def segment_name(prefix: "str | None" = None) -> str:
    """A fresh collision-free segment name under ``prefix``."""
    return (prefix or default_prefix()) + uuid.uuid4().hex[:16]


@dataclass(frozen=True, slots=True)
class ShmBatchRef:
    """The wire descriptor of one published batch: everything the parent
    needs to attach and view the columns, and nothing else.

    ``num_paths``/``num_nodes`` fully determine the segment layout (see
    :func:`_layout`); the columns themselves never travel over the pipe.
    """

    name: str
    num_paths: int
    num_nodes: int


def _layout(num_paths: int, num_nodes: int):
    """Byte offsets of the four columns inside a segment.

    Fixed-width dtypes, 8-byte-aligned sections first: ``offsets`` (int64,
    ``num_paths + 1``), ``node_indices`` (int64), ``anchor_indices``
    (int64), then ``is_type1`` (one bool byte per path) last so nothing
    needs padding.  Returns ``(total_bytes, offsets_off, nodes_off,
    anchors_off, flags_off)``.
    """
    offsets_off = 0
    nodes_off = offsets_off + (num_paths + 1) * 8
    anchors_off = nodes_off + num_nodes * 8
    flags_off = anchors_off + num_paths * 8
    total = flags_off + num_paths
    return total, offsets_off, nodes_off, anchors_off, flags_off


def _unregister_from_tracker(shm) -> None:
    """Detach a worker-created segment from the worker's resource tracker.

    The tracker would otherwise unlink the segment when the *worker* exits,
    yanking the data out from under the parent; ownership of the name moves
    to the adopting parent instead.  Best-effort by design: a tracker that
    does not know the name has nothing to forget.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def publish_batch(batch: PathBatch, prefix: "str | None" = None) -> "ShmBatchRef | None":
    """Copy a columnar batch into a fresh segment; return its descriptor.

    Returns ``None`` -- meaning "fall back to pickling" -- when shared
    memory is unavailable or the segment cannot be created.  The worker's own mapping is closed before
    returning; the parent is the segment's owner from here on.
    """
    global _FORCED_PUBLISH_FAILURES
    if _FORCED_PUBLISH_FAILURES > 0:
        _FORCED_PUBLISH_FAILURES -= 1
        return None
    if not shm_available():
        return None
    num_paths = len(batch)
    num_nodes = int(batch.offsets[-1])
    total, offsets_off, nodes_off, anchors_off, flags_off = _layout(num_paths, num_nodes)
    try:
        shm = _shared_memory.SharedMemory(
            name=segment_name(prefix), create=True, size=max(total, 1)
        )
    except OSError:
        return None
    try:
        buf = shm.buf

        def column(offset, length, dtype):
            return _np.ndarray((length,), dtype=dtype, buffer=buf, offset=offset)

        column(offsets_off, num_paths + 1, _np.int64)[:] = batch.offsets
        column(nodes_off, num_nodes, _np.int64)[:] = batch.node_indices
        column(anchors_off, num_paths, _np.int64)[:] = batch.anchor_indices
        column(flags_off, num_paths, _np.bool_)[:] = batch.is_type1
        del buf
        _unregister_from_tracker(shm)
    finally:
        shm.close()
    return ShmBatchRef(name=shm.name, num_paths=num_paths, num_nodes=num_nodes)


def register_exit_cleanup() -> None:
    """Arm the at-exit orphan sweep (idempotent).

    Called when a pool with the shm transport is forked, so a parent that
    dies between a worker's publish and its own adopt still sweeps its
    segments on any non-brutal exit.
    """
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(sweep_orphans)
        _ATEXIT_REGISTERED = True


def adopt(ref: ShmBatchRef) -> PathBatch:
    """Map a published segment, unlink its name and view its columns.

    The returned batch is detached (``graph is None``) exactly like a
    pickled batch off the wire; the caller re-``attach()``-es its snapshot.
    Its columns are ``numpy.frombuffer`` arrays over the mapping, which
    stays mapped while any of them, or any view of one, is alive.
    """
    if not shm_available():
        raise EngineError("cannot adopt a shared-memory batch: shared memory unavailable")
    total, offsets_off, nodes_off, anchors_off, flags_off = _layout(ref.num_paths, ref.num_nodes)
    path = os.path.join(_SHM_DIR, ref.name)
    fd = os.open(path, os.O_RDWR)
    try:
        mapping = mmap.mmap(fd, max(total, 1))
    finally:
        os.close(fd)
        os.unlink(path)

    def column(offset, length, dtype):
        return _np.frombuffer(mapping, dtype=dtype, count=length, offset=offset)

    return PathBatch(
        column(offsets_off, ref.num_paths + 1, _np.int64),
        column(nodes_off, ref.num_nodes, _np.int64),
        column(flags_off, ref.num_paths, _np.bool_),
        column(anchors_off, ref.num_paths, _np.int64),
        None,
    )


def sweep_orphans(prefix: "str | None" = None) -> list[str]:
    """Unlink stranded segments carrying ``prefix`` (default: this process's).

    Adoption unlinks a segment's name, so any segment under the prefix
    still on disk is an orphan: its publisher died (or was torn down)
    between publish and delivery.  Call only while no request is in flight
    on the owning pool -- an in-flight descriptor's segment looks exactly
    like an orphan until the parent adopts it.  Returns the names swept;
    silently does nothing where shared memory is not file-backed.
    """
    prefix = prefix or default_prefix()
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - non-/dev/shm platforms
        return []
    swept: list[str] = []
    for entry in entries:
        if entry.startswith(prefix):
            try:
                os.unlink(os.path.join(_SHM_DIR, entry))
            except OSError:  # pragma: no cover - raced with another release
                continue
            swept.append(entry)
    return swept
