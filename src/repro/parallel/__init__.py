"""Multi-process fan-out for the sampling layer.

:class:`~repro.parallel.engine.ParallelEngine` wraps any
:class:`~repro.diffusion.engine.SamplingEngine` and drains chunked batch
requests over a worker pool with deterministic per-chunk seed derivation --
same seed, same results, for any worker count.  Columnar chunks return from
the workers as zero-copy shared-memory segments where available
(:mod:`repro.parallel.shm`), pickled packed columns otherwise.  See
:mod:`repro.parallel.engine` for the determinism contract and DESIGN.md §3
(fan-out) / §7 (transport) for the architecture notes.
"""

from repro.parallel.engine import (
    DEFAULT_CHUNK_SIZE,
    WORKERS_AUTO,
    ParallelEngine,
    close_shared_engine,
    collect_type1,
    fork_available,
    maybe_parallel,
    resolve_worker_count,
    sample_covered_indicators,
    sample_type1_indicators,
    shared_engine,
)
from repro.parallel.shm import (
    TRANSPORTS,
    ShmBatchRef,
    resolve_transport,
    shm_available,
    sweep_orphans,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "TRANSPORTS",
    "WORKERS_AUTO",
    "ParallelEngine",
    "ShmBatchRef",
    "close_shared_engine",
    "collect_type1",
    "fork_available",
    "maybe_parallel",
    "resolve_transport",
    "resolve_worker_count",
    "sample_covered_indicators",
    "sample_type1_indicators",
    "shared_engine",
    "shm_available",
    "sweep_orphans",
]
