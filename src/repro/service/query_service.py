"""A concurrent query service with request coalescing over one shared pool.

The library answers three kinds of per-(source, target) questions --
``pmax`` estimation (Alg. 2), invitation evaluation (Lemma 2) and budgeted
maximization -- and PR 3's :class:`~repro.pool.SamplePool` already makes
*repeated* keys cheap for a single caller.  :class:`QueryService` is the
layer that lets *many concurrent callers* share one pool, one
:class:`~repro.parallel.engine.ParallelEngine` and one warm cache:

* **Coalescing.**  Queries are small frozen dataclasses
  (:class:`PmaxQuery`, :class:`EvaluateQuery`, :class:`MaximizeQuery`) and
  two equal queries are, by the pool's determinism contract, guaranteed to
  produce byte-identical answers.  While a query is executing, any equal
  query that arrives attaches to the in-flight execution and receives the
  same result object -- duplicate traffic costs one sampling pass.  The
  coalesce key is the query itself, which subsumes the underlying
  ``(target, stop set, engine)`` pool key; *non*-equal queries for the same
  pair still share the pool's cached streams (that saving shows up as the
  pool hit rate rather than the coalesce rate).
* **Admission control.**  ``max_in_flight`` bounds concurrent *executions*
  (coalesced joins are free and always admitted); beyond it, submissions
  fail fast with :class:`~repro.exceptions.ServiceOverloadedError`.
  ``max_query_samples`` bounds the per-query sample budget; a query asking
  for more is refused with :class:`~repro.exceptions.ServiceRejectedError`.
* **Metrics.**  Per-query latency percentiles, pool hit rate, coalesce
  rate, and samples drawn (:meth:`QueryService.metrics`).  The counters
  reconcile: every submission is counted exactly once, so
  ``requests == executed + coalesced + rejected``.

Bit-identity contract (DESIGN.md §5)
------------------------------------

A query answered through the service is byte-identical to the same query
run standalone against a fresh :class:`~repro.pool.SamplePool` built with
the same ``(graph, engine, pool seed)`` -- regardless of concurrency,
coalescing, arrival order, or worker count.  This falls straight out of the
pool contract: every sample any query consumes is a pure function of
``(pool seed, key, index)``, and the service adds no randomness of its own.
Executions are serialized over the pool (a :class:`threading.Lock`), which
is what makes the shared mutable pool safe under concurrent submission;
parallelism *within* one execution still comes from the wrapped
:class:`~repro.parallel.engine.ParallelEngine`'s process fan-out, and
cross-query concurrency from coalescing and cache reuse.
"""

from __future__ import annotations

import contextvars
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.maximization import maximize_acceptance_probability
from repro.core.raf import estimate_pmax
from repro.diffusion.friending_process import estimate_acceptance_probability
from repro.estimation.stopping_rule import stopping_rule_threshold
from repro.experiments.records import to_jsonable
from repro.exceptions import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceRejectedError,
)
from repro.graph.social_graph import SocialGraph
from repro.parallel.engine import maybe_parallel
from repro.pool.sample_pool import STREAM_EVAL, STREAM_PMAX, STREAM_REALIZATIONS, SamplePool
from repro.diffusion.engine import resolve_engine
from repro.types import NodeId
from repro.utils.validation import require_positive, require_positive_int

__all__ = [
    "PmaxQuery",
    "EvaluateQuery",
    "MaximizeQuery",
    "Query",
    "QUERY_KINDS",
    "ServiceMetrics",
    "Tally",
    "charged_to",
    "QueryService",
]


def _require_node_ids(query) -> None:
    """Refuse an unhashable ``source``/``target`` (a JSON array or object):
    unrefused, it would fail inside coalescing, not as a malformed request."""
    for name in ("source", "target"):
        try:
            hash(getattr(query, name))
        except TypeError:
            kind = type(getattr(query, name)).__name__
            raise TypeError(f"{name} must be a node id (a hashable value), got {kind}") from None


@dataclass(frozen=True, slots=True)
class PmaxQuery:
    """A stopping-rule ``pmax`` estimation request (Alg. 2)."""

    source: NodeId
    target: NodeId
    epsilon: float = 0.1
    confidence_n: float = 100_000.0
    max_samples: int = 500_000

    kind = "pmax"

    def __post_init__(self) -> None:
        _require_node_ids(self)
        require_positive(self.epsilon, "epsilon")
        require_positive(self.confidence_n, "confidence_n")
        require_positive_int(self.max_samples, "max_samples")

    def sample_cost(self) -> int:
        """Worst-case samples this query may consume (its admission cost)."""
        return self.max_samples


@dataclass(frozen=True, slots=True)
class EvaluateQuery:
    """A Lemma-2 invitation evaluation request: estimate ``f(invitation)``."""

    source: NodeId
    target: NodeId
    invitation: frozenset = field(default_factory=frozenset)
    num_samples: int = 400

    kind = "evaluate"

    def __post_init__(self) -> None:
        _require_node_ids(self)
        if not isinstance(self.invitation, frozenset):
            # Only a collection of node ids: frozenset("50") or of a JSON
            # object would silently become a different invitation.
            if not isinstance(self.invitation, (list, tuple, set)):
                kind = type(self.invitation).__name__
                raise TypeError(f"invitation must be a list of node ids, got {kind}")
            object.__setattr__(self, "invitation", frozenset(self.invitation))
        require_positive_int(self.num_samples, "num_samples")

    def sample_cost(self) -> int:
        """Samples this query consumes (its admission cost)."""
        return self.num_samples


@dataclass(frozen=True, slots=True)
class MaximizeQuery:
    """A budgeted (maximum) active friending request."""

    source: NodeId
    target: NodeId
    budget: int = 4
    num_realizations: int = 2_000

    kind = "maximize"

    def __post_init__(self) -> None:
        _require_node_ids(self)
        require_positive_int(self.budget, "budget")
        require_positive_int(self.num_realizations, "num_realizations")

    def sample_cost(self) -> int:
        """Realizations this query consumes (its admission cost)."""
        return self.num_realizations


#: Any request the service accepts.
Query = PmaxQuery | EvaluateQuery | MaximizeQuery

_QUERY_TYPES = (PmaxQuery, EvaluateQuery, MaximizeQuery)

#: Wire-protocol ``op`` field -> query constructor.  Shared by every
#: process boundary speaking the JSON request shape: the ``repro serve``
#: stdin loop and the socket/HTTP front end (:mod:`repro.service.server`).
QUERY_KINDS = {cls.kind: cls for cls in _QUERY_TYPES}


def _unsupported_query(query) -> ServiceError:
    return ServiceError(
        f"unsupported query type {type(query).__name__}; expected one of "
        + ", ".join(q.__name__ for q in _QUERY_TYPES)
    )


def execute_query(graph: SocialGraph, query, pool: SamplePool):
    """Answer one query against an explicit pool -- the one true dispatch.

    Both the service's executions and the load generator's standalone
    reference calls go through here, so the bit-identity comparison always
    compares identical call shapes.  Raises
    :class:`~repro.exceptions.ServiceError` for unsupported query types.
    """
    if isinstance(query, PmaxQuery):
        return estimate_pmax(
            graph,
            query.source,
            query.target,
            epsilon=query.epsilon,
            confidence_n=query.confidence_n,
            max_samples=query.max_samples,
            pool=pool,
        )
    if isinstance(query, EvaluateQuery):
        return estimate_acceptance_probability(
            graph,
            query.source,
            query.target,
            query.invitation,
            num_samples=query.num_samples,
            pool=pool,
        )
    if isinstance(query, MaximizeQuery):
        return maximize_acceptance_probability(
            graph,
            query.source,
            query.target,
            budget=query.budget,
            num_realizations=query.num_realizations,
            pool=pool,
        )
    raise _unsupported_query(query)


#: Latency samples retained for the percentile window.  Bounds both memory
#: and the per-snapshot sort in a long-lived serve process while keeping
#: the percentiles exact over recent traffic.
LATENCY_WINDOW = 10_000


def _percentile(sorted_values: Sequence[float], fraction: float) -> float | None:
    """Nearest-rank percentile of an already-sorted sequence.

    The nearest-rank definition: the ``ceil(fraction * N)``-th smallest
    value (so p99 of 100 samples is the 99th order statistic, not the
    maximum).  An empty window has no percentiles: the result is ``None``,
    never a misleading 0.0 and never an ``IndexError``; a one-sample window
    reports that sample for every fraction.
    """
    if not sorted_values:
        return None
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass(frozen=True, slots=True)
class ServiceMetrics:
    """A consistent snapshot of the service counters.

    The population counters reconcile exactly:
    ``requests == executed + coalesced + rejected``.

    Attributes
    ----------
    requests:
        Total queries submitted (admitted or not).
    executed:
        Queries that ran an execution of their own.
    coalesced:
        Queries that attached to an equal in-flight (or same-batch)
        execution and received its result without sampling.
    rejected:
        Queries refused by admission control.
    samples_drawn:
        Paths drawn from the engine over the pool's lifetime.
    samples_served:
        Paths handed to estimators (``served - drawn`` is the reuse win).
    latency_p50, latency_p90, latency_p99:
        Nearest-rank per-query latency percentiles, in seconds, over the
        most recent :data:`LATENCY_WINDOW` admitted queries.  ``None``
        before any query completed -- an empty window has no percentiles,
        and 0.0 would read as "instant" in ``stats`` output
        (:func:`~repro.experiments.records.to_jsonable` renders the absent
        value explicitly as JSON ``null``).
    """

    requests: int
    executed: int
    coalesced: int
    rejected: int
    samples_drawn: int
    samples_served: int
    latency_p50: float | None
    latency_p90: float | None
    latency_p99: float | None

    @property
    def coalesce_rate(self) -> float:
        """Fraction of admitted queries served by an in-flight execution."""
        admitted = self.executed + self.coalesced
        return self.coalesced / admitted if admitted else 0.0

    @property
    def pool_hit_rate(self) -> float:
        """Fraction of served samples that were reused rather than drawn."""
        if self.samples_served <= 0:
            return 0.0
        return max(0.0, 1.0 - self.samples_drawn / self.samples_served)

    def as_dict(self) -> dict:
        """The ``stats`` payload: every counter plus the two rates."""
        return {
            **{k: v for k, v in to_jsonable(self).items() if k != "__type__"},
            "coalesce_rate": self.coalesce_rate,
            "pool_hit_rate": self.pool_hit_rate,
        }


@dataclass(slots=True)
class Tally:
    """One caller's share of a service's counters (a server tenant's row).

    While :func:`charged_to` names a tally, the service counts each
    submission in it as well as in its totals: the request, its admission
    outcome and latency, and the pool paths drawn and served by each
    execution it leads.  Summed over every caller, tallies give the totals.
    """

    requests: int = 0
    executed: int = 0
    coalesced: int = 0
    rejected: int = 0
    drawn: int = 0
    served: int = 0
    # Bounded window: a long-lived serve process must not grow a
    # per-request list forever, nor sort millions of floats under the
    # state lock on every `stats` op.
    latencies: deque = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW))

    def add(self, outcome: str, count: int = 1) -> None:
        """Count ``count`` requests whose outcome is ``executed``, ``coalesced`` or ``rejected``."""
        self.requests += count
        setattr(self, outcome, getattr(self, outcome) + count)


_CHARGED: contextvars.ContextVar[Tally | None] = contextvars.ContextVar("charged", default=None)


@contextmanager
def charged_to(tally: Tally):
    """Credit the service work submitted in this context to ``tally`` too.

    The context follows :meth:`QueryService.submit_async` onto its executor
    thread, so :meth:`QueryService.submit` needs no caller argument.
    """
    token = _CHARGED.set(tally)
    try:
        yield tally
    finally:
        _CHARGED.reset(token)


def _tallies(totals: Tally) -> tuple[Tally, ...]:
    """The tallies a submission in the current context counts in."""
    charged = _CHARGED.get()
    return (totals,) if charged is None else (totals, charged)


class _InFlight:
    """One execution and the latch its coalesced followers wait on."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None


class QueryService:
    """Serve pmax / evaluate / maximize queries over one shared sample pool.

    Parameters
    ----------
    graph:
        The weighted friendship graph every query runs against.
    engine:
        Reverse-sampling backend name (``"python"``, ``"numpy"``,
        ``"numpy-alias"``, ``"auto"``) or an engine instance built on
        ``graph``.  The service closes only an engine it built; a passed-in
        instance stays its caller's.
    workers:
        Optional worker-process fan-out for the sampling batches (a positive
        integer or ``"auto"``); results are identical for every worker count.
    seed:
        The shared pool's seed -- the constant that defines every answer.  A
        standalone run against a fresh ``SamplePool(engine, seed=seed)`` is
        byte-identical to the service's answer for the same query.
    pool_budget:
        Optional cap on total cached paths (LRU eviction, see the pool).
    max_in_flight:
        Admission limit on concurrent executions (``None``: unbounded).
    max_query_samples:
        Per-query sample budget (``None``: unbounded).
    coalesce:
        ``False`` disables request coalescing (every admitted query
        executes); the load benchmark's reference arm.  Results are
        identical either way -- only the cost differs.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` injected into the
        sampling engine and the pool's spill path -- the chaos harness and
        ``repro serve --fault-seed`` soak runs use this.  Never set in
        production.

    ``workers`` wrap the engine with the ``"serial"`` crash policy: if
    sampling workers keep dying past the retry budget, the service degrades
    to in-process sampling (byte-identical answers, reduced throughput)
    instead of failing queries -- the :attr:`degraded` flag records the
    downgrade for ``stats``/``healthz`` (DESIGN.md §11).
    """

    def __init__(
        self,
        graph: SocialGraph,
        *,
        engine="python",
        workers: int | str | None = None,
        seed: int = 0,
        pool_budget: int | None = None,
        max_in_flight: int | None = None,
        max_query_samples: int | None = None,
        coalesce: bool = True,
        fault_plan=None,
    ) -> None:
        if max_in_flight is not None:
            require_positive_int(max_in_flight, "max_in_flight")
        if max_query_samples is not None:
            require_positive_int(max_query_samples, "max_query_samples")
        self._graph = graph
        built = maybe_parallel(resolve_engine(graph, engine), workers, on_worker_failure="serial")
        if fault_plan is not None and hasattr(built, "inject_faults"):
            built.inject_faults(fault_plan)
        self._engine, self._owns_engine = built, built is not engine
        self._pool = SamplePool(
            self._engine, seed=seed, budget=pool_budget, fault_plan=fault_plan
        )
        self._max_in_flight = max_in_flight
        self._max_query_samples = max_query_samples
        self._coalesce = bool(coalesce)
        # _state_lock guards the counters and the in-flight map; _pool_lock
        # serializes executions over the (not thread-safe) shared pool.
        self._state_lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self._inflight: dict[object, _InFlight] = {}
        self._executing = 0
        self._totals = Tally()
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> SocialGraph:
        """The graph the service answers queries about."""
        return self._graph

    @property
    def pool(self) -> SamplePool:
        """The shared sample pool, for reading its stats and engine.

        The pool is not thread-safe and every execution mutates it under
        the service's execution lock; draw from it only through
        :meth:`submit` while other callers may be submitting queries.
        """
        return self._pool

    @property
    def coalesce(self) -> bool:
        """Whether request coalescing is enabled."""
        return self._coalesce

    @property
    def degraded(self) -> bool:
        """Whether the sampling engine has degraded to in-process serial mode.

        ``True`` once the parallel engine exhausted its crash-retry budget
        and fell back to sampling in the serving process (answers stay
        byte-identical; only throughput suffers).  Always ``False`` for
        engines without a worker pool.
        """
        return bool(getattr(self._engine, "degraded", False))

    def metrics(self, tally: Tally | None = None) -> ServiceMetrics:
        """A consistent snapshot of the counters (see :class:`ServiceMetrics`).

        With ``tally``, the snapshot is that caller's share (see
        :func:`charged_to`).

        Deliberately does *not* take the execution lock (callers poll
        metrics while queries run), so the pool is sampled through its
        lock-free counter properties rather than ``stats()``, whose entry
        iteration races with concurrent executions.
        """
        drawn = self._pool.drawn_paths
        served = self._pool.served_paths
        with self._state_lock:
            counts = self._totals if tally is None else tally
            if tally is not None:  # the executions it led
                drawn, served = tally.drawn, tally.served
            latencies = sorted(counts.latencies)
            return ServiceMetrics(
                requests=counts.requests,
                executed=counts.executed,
                coalesced=counts.coalesced,
                rejected=counts.rejected,
                samples_drawn=drawn,
                samples_served=served,
                latency_p50=_percentile(latencies, 0.50),
                latency_p90=_percentile(latencies, 0.90),
                latency_p99=_percentile(latencies, 0.99),
            )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"<QueryService engine={self._engine.name} seed={self._pool.seed} "
            f"coalesce={self._coalesce}>"
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun; closed services refuse queries."""
        return self._closed

    def close(self) -> None:
        """Release the async executor and the worker pool of a built engine.

        Marks the service closed *first* -- a submission racing ``close()``
        from another thread fails fast with a typed
        :class:`~repro.exceptions.ServiceClosedError` (see :meth:`_claim`)
        instead of hanging on a latch or hitting a dead executor -- then
        waits for async submissions.  An engine the service built is torn
        down under the execution lock, so an already-admitted ``submit``
        finishes its sampling instead of losing its worker pool mid-query;
        a passed-in engine is left to its owner.  Idempotent.
        """
        with self._state_lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        close = getattr(self._engine, "close", None)
        if self._owns_engine and close is not None:
            with self._pool_lock:
                close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The front-ends
    # ------------------------------------------------------------------ #

    def draw_free(self, query) -> bool:
        """Whether answering ``query`` now draws nothing: the pool holds its samples.

        False while an execution holds the pool or an equal query is in
        flight, since submitting then would wait.  Otherwise an evaluate or
        maximize query needs its fixed sample count cached, and a pmax query
        needs ``max_samples`` cached or, among the first ``max_samples``
        cached samples, as many type-1 samples as the stopping rule's
        threshold: the rule then halts inside the cache.  A query that
        cannot be checked (unknown node, invalid ``epsilon``) is not
        draw-free.  The answer is a snapshot: a thread that takes the pool
        or evicts the key before :meth:`submit` makes that submission wait
        or draw, never answer differently.
        """
        if not isinstance(query, _QUERY_TYPES) or query in self._inflight:
            return False
        if not self._pool_lock.acquire(blocking=False):
            return False
        try:
            pool, target = self._pool, query.target
            stop = self._graph.neighbor_set(query.source)
            if isinstance(query, EvaluateQuery):
                return pool.cached_count(target, stop, STREAM_EVAL) >= query.num_samples
            if isinstance(query, MaximizeQuery):
                cached = pool.cached_count(target, stop, STREAM_REALIZATIONS)
                return cached >= query.num_realizations
            if pool.cached_count(target, stop, STREAM_PMAX) >= query.max_samples:
                return True
            threshold = stopping_rule_threshold(query.epsilon, 1.0 / query.confidence_n)
            return pool.cached_type1(target, stop, STREAM_PMAX, query.max_samples) >= threshold
        except ReproError:
            return False
        finally:
            self._pool_lock.release()

    def submit(self, query) -> object:
        """Answer one query, blocking until the result is available.

        Equal queries submitted while this one executes coalesce onto it.
        Raises the admission-control errors synchronously and re-raises any
        library error the execution produced (followers observe the same
        error as the leader).
        """
        start = time.perf_counter()
        entry, leader = self._claim(query)
        if leader:
            try:
                entry.result = self._execute(query)
            except BaseException as error:
                entry.error = error
            finally:
                with self._state_lock:
                    self._inflight.pop(query, None)
                    self._executing -= 1
                entry.done.set()
        else:
            entry.done.wait()
        self._record_latency(time.perf_counter() - start)
        if entry.error is not None:
            raise entry.error
        return entry.result

    def submit_many(self, queries: Iterable) -> list:
        """Answer a batch, coalescing duplicates within the batch.

        The batch is answered in first-occurrence order of its distinct
        queries, so the executions -- and every counter they touch -- are
        deterministic regardless of how the batch was assembled.  This is
        the closed-loop load generator's wave primitive: duplicate requests
        in one wave coalesce *exactly* (no race decides whether the
        duplicate arrived while the leader was still in flight).  Results
        are returned in input order; an admission or execution error aborts
        the batch (per-query error handling belongs to :meth:`submit`).
        """
        batch = list(queries)
        if not self._coalesce:
            return [self.submit(query) for query in batch]
        results: list = [None] * len(batch)
        groups: dict[object, list[int]] = {}
        order: list = []
        for index, query in enumerate(batch):
            positions = groups.setdefault(query, [])
            if not positions:
                order.append(query)
            positions.append(index)
        for query in order:
            positions = groups[query]
            start = time.perf_counter()
            value = self.submit(query)
            elapsed = time.perf_counter() - start
            followers = len(positions) - 1
            if followers:
                with self._state_lock:
                    # In wave mode a follower waits exactly as long as its
                    # leader's execution, so the percentile population stays
                    # one latency sample per admitted query.
                    for tally in _tallies(self._totals):
                        tally.add("coalesced", followers)
                        tally.latencies.extend([elapsed] * followers)
            for index in positions:
                results[index] = value
        return results

    async def submit_async(self, query) -> object:
        """Asyncio front-end: awaitable :meth:`submit` on a worker thread.

        Concurrent awaits of equal queries coalesce exactly like concurrent
        :meth:`submit` calls from threads do, in the caller's context (so
        under its :func:`charged_to` tally).
        """
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._ensure_executor(), contextvars.copy_context().run, self.submit, query
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._state_lock:
            if self._closed:
                # Never resurrect an executor after close(): an async
                # submission racing shutdown gets the typed error, not a
                # RuntimeError from a dead pool (or a leaked new one).
                raise ServiceClosedError("service is closed")
            if self._executor is None:
                size = self._max_in_flight if self._max_in_flight is not None else 8
                self._executor = ThreadPoolExecutor(
                    max_workers=max(2, size), thread_name_prefix="repro-service"
                )
            return self._executor

    def _claim(self, query) -> tuple[_InFlight, bool]:
        """Admit a query: join an in-flight equal execution or lead a new one.

        Every submission is counted once, admitted or not, so the
        reconciliation invariant (requests == executed + coalesced +
        rejected) holds in the totals and in a charged tally alike.
        """
        if not isinstance(query, _QUERY_TYPES):
            raise _unsupported_query(query)
        outcome = "rejected"
        with self._state_lock:
            try:
                entry, leader = self._admission(query)
                outcome = "executed" if leader else "coalesced"
                return entry, leader
            finally:
                for tally in _tallies(self._totals):
                    tally.add(outcome)

    def _admission(self, query) -> tuple[_InFlight, bool]:
        """The admission decision; the caller holds ``_state_lock``."""
        if self._closed:
            # Checked before the coalesce lookup: a would-be follower must
            # not latch onto a leader whose service is tearing down.
            raise ServiceClosedError("service is closed; the query was not admitted")
        cost = query.sample_cost()
        if self._max_query_samples is not None and cost > self._max_query_samples:
            raise ServiceRejectedError(
                f"query requests up to {cost} samples, above the per-query "
                f"budget of {self._max_query_samples}"
            )
        if self._coalesce:
            entry = self._inflight.get(query)
            if entry is not None:
                return entry, False
        if self._max_in_flight is not None and self._executing >= self._max_in_flight:
            raise ServiceOverloadedError(
                f"{self._executing} executions already in flight "
                f"(max_in_flight={self._max_in_flight})"
            )
        entry = _InFlight()
        if self._coalesce:
            self._inflight[query] = entry
        self._executing += 1
        return entry, True

    def _execute(self, query) -> object:
        # Serialized: the SamplePool mutates shared state and is not
        # thread-safe; within the execution the ParallelEngine still fans
        # sampling over worker processes.  The pool's counters move only
        # under this lock, so their change is this execution's own draw,
        # credited to the leader's tally.
        charged, pool = _CHARGED.get(), self._pool
        with self._pool_lock:
            drawn, served = pool.drawn_paths, pool.served_paths
            try:
                return execute_query(self._graph, query, pool)
            finally:
                if charged is not None:
                    with self._state_lock:
                        charged.drawn += pool.drawn_paths - drawn
                        charged.served += pool.served_paths - served

    def _record_latency(self, seconds: float) -> None:
        with self._state_lock:
            for tally in _tallies(self._totals):
                tally.latencies.append(seconds)
