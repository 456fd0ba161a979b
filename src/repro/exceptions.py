"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and
friends raised by misuse of the Python API itself) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "WeightError",
    "GraphFormatError",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "SnapshotIntegrityError",
    "ProblemDefinitionError",
    "EstimationError",
    "EngineError",
    "WorkerCrashError",
    "SetCoverError",
    "InfeasibleCoverError",
    "ParameterSolverError",
    "AlgorithmError",
    "ExperimentError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceRejectedError",
    "ServiceClosedError",
    "ServiceBudgetExceededError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Base class for errors related to the social graph substrate."""


class NodeNotFoundError(GraphError, KeyError):
    """A node referenced by the caller does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by the caller does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class WeightError(GraphError, ValueError):
    """A familiarity weight violates the model constraints.

    The linear-threshold friending model requires every ordered-pair weight
    ``w(u, v)`` to lie in ``(0, 1]`` and the total incoming weight of every
    node to be at most 1 (after normalization).
    """


class GraphFormatError(GraphError, ValueError):
    """An edge-list file or serialized graph could not be parsed."""


class SnapshotError(GraphError):
    """Base class for on-disk compiled-snapshot errors.

    Raised (always with the offending path in the message) when a snapshot
    directory cannot be written, opened or re-opened.  More specific
    failure modes use the subclasses below so callers can distinguish "not a snapshot" from "a snapshot from the
    future" from "a damaged snapshot".
    """


class SnapshotFormatError(SnapshotError, ValueError):
    """A snapshot directory is malformed: missing or unreadable ``meta.json``
    or column files, wrong column dtypes/shapes, or inconsistent CSR
    structure (see DESIGN.md §8 for the rejection rules)."""


class SnapshotVersionError(SnapshotError, ValueError):
    """A snapshot declares an on-disk format version this library does not
    speak.  Snapshots are never silently reinterpreted across format
    versions; recompile with ``repro compile-graph`` instead."""


class SnapshotIntegrityError(SnapshotError, ValueError):
    """A snapshot's recorded CSR digest does not match its column bytes.

    Means the columns were truncated or modified after ``meta.json`` was
    written; any sample drawn from such a snapshot would be untrustworthy,
    so verification fails loudly."""


class ProblemDefinitionError(ReproError, ValueError):
    """The active-friending problem instance is ill-formed.

    Examples: the initiator equals the target, the target is already a
    friend of the initiator, or ``alpha`` lies outside ``(0, 1]``.
    """


class EstimationError(ReproError):
    """A Monte Carlo estimation routine could not produce an estimate."""


class EngineError(ReproError, ValueError):
    """A sampling engine is unknown, misconfigured or misused.

    Raised when an engine name does not match a registered backend, when an
    engine argument is invalid, or when an engine built on one graph is
    used with another.
    """


class WorkerCrashError(EngineError):
    """A parallel sampling worker died and the retry budget ran out.

    Raised by :class:`~repro.parallel.engine.ParallelEngine` when a worker
    process disappears mid-chunk (OOM kill, segfault, injected fault) and
    the lost chunks could not be recovered within ``max_chunk_retries``
    respawn-and-retry rounds (``on_worker_failure="retry"``), or
    immediately on the first crash (``on_worker_failure="raise"``).  The
    retried chunks would have been byte-identical to the lost ones -- each
    chunk is a pure function of its derived seed -- so this error reports
    an infrastructure failure, never a results discrepancy.
    """

    def __init__(self, message: str, chunks: "tuple[int, ...]" = ()) -> None:
        super().__init__(message)
        #: Indices of the chunks that were lost when the budget ran out.
        self.chunks = tuple(chunks)


class SetCoverError(ReproError):
    """Base class for errors raised by the set-cover / MpU solvers."""


class InfeasibleCoverError(SetCoverError, ValueError):
    """The requested cover cannot be satisfied (e.g. ``p`` exceeds ``|U|``)."""


class ParameterSolverError(ReproError, ValueError):
    """Equation System 1 / Eq. (17) has no solution for the given inputs."""


class AlgorithmError(ReproError):
    """An invitation-set algorithm failed to produce a valid solution."""


class ExperimentError(ReproError):
    """An experiment configuration or run is invalid."""


class ServiceError(ReproError):
    """Base class for errors raised by the concurrent query service."""


class ServiceOverloadedError(ServiceError):
    """Admission control refused a query: too many executions in flight.

    Raised instead of queueing so callers can shed load explicitly; a query
    that *coalesces* onto an in-flight execution is always admitted (it
    costs no extra sampling).
    """


class ServiceRejectedError(ServiceError, ValueError):
    """Admission control refused a query: it exceeds the per-query budget
    (e.g. it requests more samples than ``max_query_samples`` allows)."""


class ServiceClosedError(ServiceError):
    """A query reached a service whose :meth:`~repro.service.QueryService.close`
    has begun (or finished).

    Raised *instead of* executing against an engine or executor that is
    being torn down: a submission racing ``close()`` -- including a
    would-be coalesced follower -- fails fast with this typed error rather
    than hanging on a latch nobody will set or surfacing a bare
    ``RuntimeError`` from a shut-down ``ThreadPoolExecutor``.
    """


class ServiceBudgetExceededError(ServiceError):
    """A tenant's token-bucket budget cannot cover a request's sample cost.

    Raised by the serving front end (:mod:`repro.service.server`) before the
    query reaches the service proper; the request should be retried after
    the bucket refills (HTTP clients see 429).  Distinct from
    :class:`ServiceRejectedError`, which means the single request is too
    large to *ever* admit.
    """
