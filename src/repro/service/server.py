"""Network-grade asyncio serving front end over :class:`QueryService`.

``repro serve`` began as a single-client JSON-lines loop over stdin; this
module is the process boundary the ROADMAP's "millions of users" actually
need: one asyncio server accepting many concurrent remote clients, speaking
two wire modes sniffed per connection from the first request line:

* **JSON lines over TCP** -- the stdin protocol, networked.  One JSON
  request object per line, one JSON response line per request *in request
  order per connection*.  Requests carry the stdin ``op`` field plus
  optional envelope fields consumed by the server: ``id`` (echoed back
  verbatim), ``tenant``, ``priority`` and ``deadline_ms``.
* **Minimal HTTP/1.1** -- ``POST /query`` (body: the same JSON request
  object), ``GET /stats`` and ``GET /healthz``, with keep-alive.  Admission
  failures map onto status codes (429 budget, 503 overload/shutdown,
  504 deadline); ``/healthz`` performs no admission at all, so it answers
  even when every execution slot is saturated.

The server layers four serving-grade controls over the service's existing
coalescing + ``max_in_flight`` admission (DESIGN.md §9 is the normative
description):

* **Tenancy.**  The ``tenant`` field names an accounting domain: a token
  bucket and a stats row, created lazily on first use and capped by
  ``max_tenants``.  Everything else is the server's one ``QueryService``:
  one ``SamplePool``, one coalesce map, one executor and one engine (with
  ``workers``, one worker pool, forked in :meth:`QueryServer.start` before
  any thread runs).  A sample is a pure function of ``(seed, key, i)``,
  so tenants sharing the pool share its cost, never its answers: every
  answer is byte-identical to a standalone fresh-pool run, and equal
  queries from different tenants coalesce.
* **Token-bucket budgets.**  Per tenant: capacity ``tenant_burst`` sample
  units refilling at ``tenant_rate`` units/second (both ``None`` =
  unlimited).  A request costs its ``sample_cost()``; an uncovered cost is
  refused with ``error_type: "budget"`` *before* touching the service, and
  the bucket is only charged for requests that are actually submitted.
* **Backpressure.**  At most ``connection_window`` requests are in flight
  per connection; when the window is full the server stops *reading* that
  socket until the oldest response is written, so overload propagates to
  the client as TCP backpressure instead of unbounded server-side queueing.
* **Deadlines and priority.**  ``deadline_ms`` (or the server-wide
  ``default_deadline_ms``) bounds the *response* time: on expiry the client
  gets ``error_type: "deadline"`` and the window slot frees immediately,
  while the underlying execution -- which cannot be killed mid-sample --
  completes on its worker thread and warms the pool for the retry.  The
  shared pool lock is never poisoned: expiry detaches the waiter, it never
  interrupts the execution holding the lock.  ``priority`` ∈ ``high`` /
  ``normal`` / ``low`` layers shed-low-first admission over
  ``max_in_flight``: low-priority requests are refused once half the
  execution slots are busy, keeping headroom for the rest.

Determinism: the server adds scheduling, never randomness.  Every admitted
query is answered through ``QueryService.submit``: on the event loop when
the pool already holds its samples (``QueryService.draw_free``;
such an answer cannot be late, so it ignores deadlines), on the service's
executor otherwise.  Answers remain byte-identical to standalone runs
regardless of client count, interleaving, tenancy or transport -- the
socket arm of ``bench_service_load`` asserts exactly that.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import (
    ReproError,
    ServiceBudgetExceededError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceRejectedError,
)
from repro.experiments.records import to_jsonable
from repro.graph.social_graph import SocialGraph
from repro.service.query_service import QUERY_KINDS, QueryService, Tally, charged_to
from repro.utils.validation import require_positive, require_positive_int

__all__ = [
    "TokenBucket",
    "QueryServer",
    "PRIORITIES",
    "serve_forever",
]

#: Recognised ``priority`` envelope values, most urgent first.
PRIORITIES = ("high", "normal", "low")

#: Default in-flight request window: per connection with --listen, and the
#: stdin loop's pipelining depth when --max-in-flight is not given -- enough
#: for duplicates to meet in flight and coalesce, small enough that
#: in-order responses are not held back long behind a slow request.
DEFAULT_CONNECTION_WINDOW = 32

#: Per-connection read limit: a request line (or HTTP header block) larger
#: than this is malformed, not a reason to buffer without bound.
_READ_LIMIT = 1 << 20

_HTTP_METHOD = re.compile(rb"^(GET|HEAD|POST|PUT|DELETE|PATCH|OPTIONS) ")

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: ``error_type`` -> HTTP status code for ``POST /query`` failures.
_ERROR_STATUS = {
    "malformed": 400,
    "rejected": 400,
    "budget": 429,
    "overloaded": 503,
    "closed": 503,
    "deadline": 504,
    # Domain errors (unreachable pair, unknown node, ...) are successful
    # protocol exchanges whose *answer* is an error -- 200 + ``ok: false``,
    # mirroring the JSON-lines mode.
    "domain": 200,
}


class _Malformed(ValueError):
    """A request violating the wire protocol (connection-fatal)."""


class TokenBucket:
    """A token bucket in sample units with an injectable monotonic clock.

    ``capacity`` bounds the burst; ``rate`` tokens accrue per clock second
    up to the capacity.  :meth:`try_acquire` never blocks -- serving sheds
    load explicitly rather than queueing it invisibly.  The clock is
    injectable so budget tests advance time deterministically instead of
    sleeping.
    """

    __slots__ = ("capacity", "rate", "_tokens", "_clock", "_last")

    def __init__(
        self,
        capacity: float,
        rate: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        require_positive(capacity, "capacity")
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        self.capacity = float(capacity)
        self.rate = float(rate)
        self._tokens = float(capacity)
        self._clock = clock
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._last
        self._last = now
        if elapsed > 0 and self.rate > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)

    @property
    def tokens(self) -> float:
        """Tokens currently available (after refill accrual)."""
        self._refill()
        return self._tokens

    def try_acquire(self, cost: float) -> bool:
        """Debit ``cost`` tokens if the bucket covers them; never blocks."""
        self._refill()
        if cost > self._tokens:
            return False
        self._tokens -= cost
        return True


@dataclass(slots=True)
class _Tenant:
    """One tenant: its budget, its admission counters and its share of the service."""

    bucket: TokenBucket | None
    tally: Tally = field(default_factory=Tally)
    requests: int = 0
    budget_rejected: int = 0


@dataclass(slots=True)
class _ServerCounters:
    """Server-level counters (the service and each tenant keep their own)."""

    connections_total: int = 0
    requests_total: int = 0
    responses_total: int = 0
    malformed_total: int = 0
    budget_rejected_total: int = 0
    priority_rejected_total: int = 0
    deadline_expired_total: int = 0
    http_requests_total: int = 0


@dataclass(frozen=True, slots=True)
class _Envelope:
    """The transport-level fields stripped off a request object."""

    op: str
    id: object = None
    tenant: str = "default"
    priority: str = "normal"
    deadline_s: float | None = None
    has_id: bool = False


class QueryServer:
    """Asyncio TCP/HTTP front end multiplexing clients over one shared service.

    The leading parameters build the server's one :class:`QueryService`,
    which every tenant goes through: ``engine`` / ``workers`` /
    ``fault_plan`` its sampling engine (a passed-in engine instance stays
    its caller's: the server does not close it), and ``seed`` /
    ``pool_budget`` / ``max_in_flight`` / ``max_query_samples`` /
    ``coalesce`` its pool and admission, server-wide.  Then come the
    serving controls described in the module docstring:
    ``tenant_burst`` / ``tenant_rate`` (token bucket, sample units),
    ``max_tenants``, ``connection_window``, ``default_deadline_ms``, and an
    injectable ``clock`` for deterministic budget tests.

    Usage::

        server = QueryServer(graph, seed=7, host="127.0.0.1", port=0)
        await server.start()        # server.port is now bound
        ...
        await server.aclose()
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
        host: str = "127.0.0.1",
        port: int = 0,
        tenant_burst: int | None = None,
        tenant_rate: float | None = None,
        max_tenants: int = 64,
        connection_window: int = DEFAULT_CONNECTION_WINDOW,
        default_deadline_ms: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        fault_plan=None,
    ) -> None:
        require_positive_int(max_tenants, "max_tenants")
        require_positive_int(connection_window, "connection_window")
        if tenant_burst is not None:
            require_positive_int(tenant_burst, "tenant_burst")
        if tenant_rate is not None and tenant_rate < 0:
            raise ValueError(f"tenant_rate must be non-negative, got {tenant_rate}")
        if tenant_burst is None and tenant_rate is not None:
            raise ValueError("tenant_rate requires tenant_burst (the bucket capacity)")
        if default_deadline_ms is not None:
            require_positive(default_deadline_ms, "default_deadline_ms")
        self._service = QueryService(
            graph,
            engine=engine,
            workers=workers,
            seed=seed,
            pool_budget=pool_budget,
            max_in_flight=max_in_flight,
            max_query_samples=max_query_samples,
            coalesce=coalesce,
            fault_plan=fault_plan,
        )
        self._max_in_flight = max_in_flight
        self._host = host
        self._port = port
        self._tenant_burst = tenant_burst
        self._tenant_rate = tenant_rate if tenant_rate is not None else 0.0
        self._max_tenants = max_tenants
        self._connection_window = connection_window
        self._default_deadline_s = (
            default_deadline_ms / 1000.0 if default_deadline_ms is not None else None
        )
        self._clock = clock
        self._tenants: dict[str, _Tenant] = {}
        self._counters = _ServerCounters()
        self._inflight = 0
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._closing = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``); 0 before :meth:`start`."""
        return self._port

    @property
    def host(self) -> str:
        """The listening host."""
        return self._host

    async def start(self) -> None:
        """Fork the engine's worker pool, then bind and start accepting.

        The fork comes first: binding may resolve the host on the event
        loop's executor threads, and a process running threads must not fork.
        """
        if self._server is not None:
            raise ServiceError("server is already started")
        start = getattr(self._service.pool.engine, "start", None)
        if start is not None:
            start()
        try:
            self._server = await asyncio.start_server(
                self._accept, host=self._host, port=self._port, limit=_READ_LIMIT
            )
        except BaseException:
            await asyncio.to_thread(self._service.close)
            raise
        sockets = self._server.sockets or ()
        if sockets:
            self._port = sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop accepting, close every connection, then close the service.

        In-flight executions finish on their worker threads (the service's
        ``close()`` waits for them); their responses are not delivered --
        the sockets are already gone.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        # close() blocks on in-flight work; keep the event loop alive.
        await asyncio.to_thread(self._service.close)

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def service(self) -> QueryService:
        """The one service every tenant's queries run on."""
        return self._service

    def stats(self) -> dict:
        """The structured stats payload served by ``stats`` / ``GET /stats``.

        ``service`` holds the shared service's totals; each tenant row holds
        that tenant's share (see :class:`~repro.service.query_service.Tally`).
        """
        counters = self._counters
        service = self._service
        degraded = service.degraded
        tenants = {
            name: {
                **service.metrics(tenant.tally).as_dict(),
                "server_requests": tenant.requests,
                "budget_rejected": tenant.budget_rejected,
                "tokens": None if tenant.bucket is None else tenant.bucket.tokens,
                "degraded": degraded,
            }
            for name, tenant in sorted(self._tenants.items())
        }
        return {
            "server": {
                "connections_total": counters.connections_total,
                "active_connections": len(self._connections),
                "requests_total": counters.requests_total,
                "responses_total": counters.responses_total,
                "malformed_total": counters.malformed_total,
                "budget_rejected_total": counters.budget_rejected_total,
                "priority_rejected_total": counters.priority_rejected_total,
                "deadline_expired_total": counters.deadline_expired_total,
                "http_requests_total": counters.http_requests_total,
                "in_flight": self._inflight,
                "max_in_flight": self._max_in_flight,
                "tenant_count": len(self._tenants),
                "max_tenants": self._max_tenants,
                "connection_window": self._connection_window,
                "degraded": degraded,
            },
            "service": service.metrics().as_dict(),
            "tenants": tenants,
        }

    def health(self) -> dict:
        """The ``/healthz`` payload: alive-ness, never gated on admission.

        ``degraded`` flips to ``True`` when the server's sampling engine
        has fallen back to in-process serial mode after repeated worker
        crashes -- the server still answers (byte-identically) but at
        reduced throughput, so operators can alert on it (DESIGN.md §11).
        """
        return {
            "ok": True,
            "status": "closing" if self._closing else "serving",
            "degraded": self._service.degraded,
            "in_flight": self._inflight,
            "tenants": len(self._tenants),
        }

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is not None:
            return tenant
        if len(self._tenants) >= self._max_tenants:
            raise ServiceRejectedError(
                f"tenant limit reached ({self._max_tenants}); "
                f"tenant {name!r} was not created"
            )
        bucket = None
        if self._tenant_burst is not None:
            bucket = TokenBucket(self._tenant_burst, self._tenant_rate, clock=self._clock)
        tenant = self._tenants[name] = _Tenant(bucket)
        return tenant

    def _parse_envelope(self, request: dict) -> _Envelope:
        """Strip and validate the transport fields, mutating ``request``."""
        op = request.pop("op", None)
        if op == "stats":
            return _Envelope(op="stats")
        if op not in QUERY_KINDS:
            known = ", ".join(sorted((*QUERY_KINDS, "stats")))
            raise _Malformed(f"unknown op {op!r} (expected {known})")
        has_id = "id" in request
        request_id = request.pop("id", None)
        tenant = request.pop("tenant", "default")
        if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
            raise _Malformed("tenant must be a non-empty string of at most 64 chars")
        priority = request.pop("priority", "normal")
        if priority not in PRIORITIES:
            raise _Malformed(
                f"priority must be one of {', '.join(PRIORITIES)}, got {priority!r}"
            )
        deadline_s = self._default_deadline_s
        if "deadline_ms" in request:
            deadline_ms = request.pop("deadline_ms")
            if not isinstance(deadline_ms, (int, float)) or isinstance(deadline_ms, bool) \
                    or not math.isfinite(deadline_ms) or deadline_ms <= 0:
                raise _Malformed("deadline_ms must be a positive finite number")
            deadline_s = deadline_ms / 1000.0
        return _Envelope(
            op=op, id=request_id, tenant=tenant, priority=priority,
            deadline_s=deadline_s, has_id=has_id,
        )

    def _admit(self, envelope: _Envelope, request: dict):
        """Admission pipeline: build query, priority gate, budget charge.

        Returns ``(tenant, query)``; raises a typed ``ServiceError`` (an
        application-level response) or :class:`_Malformed` (connection-fatal).
        Order matters: a priority-shed request must not be charged tokens.
        """
        self._counters.requests_total += 1
        try:
            query = QUERY_KINDS[envelope.op](**request)
        except (TypeError, ValueError) as error:
            raise _Malformed(str(error)) from None
        if self._closing:
            raise ServiceClosedError("server is shutting down")
        tenant = self._tenant(envelope.tenant)
        tenant.requests += 1
        if envelope.priority == "low" and self._max_in_flight is not None:
            low_limit = max(1, self._max_in_flight // 2)
            if self._inflight >= low_limit:
                self._counters.priority_rejected_total += 1
                raise ServiceOverloadedError(
                    f"low-priority admission refused: {self._inflight} requests "
                    f"in flight (low-priority limit {low_limit} of "
                    f"max_in_flight={self._max_in_flight})"
                )
        if tenant.bucket is not None and not tenant.bucket.try_acquire(query.sample_cost()):
            tenant.budget_rejected += 1
            self._counters.budget_rejected_total += 1
            raise ServiceBudgetExceededError(
                f"tenant {envelope.tenant!r} budget exhausted: request costs "
                f"{query.sample_cost()} sample units, "
                f"{tenant.bucket.tokens:.0f} available "
                f"(burst {self._tenant_burst}, rate {self._tenant_rate}/s)"
            )
        return tenant, query

    def _start(self, tenant: _Tenant, query, deadline_s: float | None):
        """Begin one admitted query; the result is awaitable and needs no task.

        A draw-free query is answered here, on the event loop, into a done
        future: no executor hop, and no deadline, since nothing can be
        late.  Any other query is the :meth:`_execute` coroutine.
        """
        service = self._service
        if not service.draw_free(query):
            return self._execute(tenant, query, deadline_s)
        answer = asyncio.get_running_loop().create_future()
        with charged_to(tenant.tally):
            try:
                answer.set_result(service.submit(query))
            except Exception as error:  # noqa: BLE001 - mapped by the awaiting side
                answer.set_exception(error)
        return answer

    async def _execute(self, tenant: _Tenant, query, deadline_s: float | None):
        """Run one admitted query on the executor; the in-flight count spans the await."""
        self._inflight += 1
        try:
            async with asyncio.timeout(deadline_s):
                with charged_to(tenant.tally):
                    return await self._service.submit_async(query)
        finally:
            self._inflight -= 1

    def _error_payload(self, error: BaseException) -> tuple[str, str]:
        """Map an execution/admission failure to ``(error_type, message)``."""
        if isinstance(error, TimeoutError):
            self._counters.deadline_expired_total += 1
            return "deadline", "deadline expired before the execution finished"
        if isinstance(error, ServiceBudgetExceededError):
            return "budget", str(error)
        if isinstance(error, ServiceClosedError):
            return "closed", str(error)
        if isinstance(error, ServiceOverloadedError):
            return "overloaded", str(error)
        if isinstance(error, ServiceRejectedError):
            return "rejected", str(error)
        if isinstance(error, ReproError):
            return "domain", str(error)
        raise error

    def _response(self, envelope: _Envelope, result=None, error: BaseException | None = None):
        """The response object of an admitted (or refused) request, both wire modes."""
        if error is None:
            payload = {"ok": True, "op": envelope.op, "result": to_jsonable(result)}
        else:
            error_type, message = self._error_payload(error)
            payload = {"ok": False, "op": envelope.op, "error": message, "error_type": error_type}
        if envelope.has_id:
            payload["id"] = envelope.id
        return payload

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._counters.connections_total += 1
        task = asyncio.get_running_loop().create_task(self._handle(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                first = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                return
            if not first:
                return
            if _HTTP_METHOD.match(first):
                await self._handle_http(first, reader, writer)
            else:
                await self._handle_jsonl(first, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ----------------------------- JSON lines ------------------------- #

    async def _handle_jsonl(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """The JSON-lines session: a reader loop feeding an in-order writer.

        The reader parses, admits and *starts* each request, then hands a
        queue item to the writer coroutine, which awaits the items strictly
        in request order and writes one response line each -- so a response
        goes out as soon as it (and everything before it) is ready, while
        requests behind it keep executing concurrently.  The window
        semaphore is acquired by the reader and released by the writer:
        when ``connection_window`` responses are outstanding the reader
        stops *reading the socket*, which is the backpressure contract.
        ``stats`` rides the same queue, so it is a per-connection barrier:
        its counters cover every request answered before it.  A malformed
        line is answered after all pending responses, then the connection
        closes.  A writer that ends while the reader still reads (a dead
        client makes a write raise) cancels the session, so the reader
        never waits on a window slot that no one will release.
        """
        queue: deque[tuple[str, _Envelope | None, object]] = deque()
        arrived = asyncio.Event()  # writer wake-up: queue became non-empty
        window = asyncio.Semaphore(self._connection_window)

        async def writer_loop() -> None:
            while True:
                while not queue:
                    arrived.clear()
                    await arrived.wait()
                kind, envelope, value = queue.popleft()
                if kind == "eof":
                    return
                if kind == "stats":
                    payload = {"ok": True, "op": "stats", "result": self.stats()}
                elif kind == "query":  # value is the execution task or done future
                    try:
                        payload = self._response(envelope, await value)
                    except BaseException as error:  # noqa: BLE001 - mapped
                        payload = self._response(envelope, error=error)
                    window.release()
                else:  # kind == "line": a refusal or malformed answer, prebuilt
                    payload = value
                await self._write_line(writer, payload)

        def enqueue(kind: str, envelope: _Envelope | None, value: object) -> None:
            queue.append((kind, envelope, value))
            arrived.set()

        session = asyncio.current_task()
        reading = True
        aborted = False

        def abort(_flusher: asyncio.Future) -> None:
            nonlocal aborted
            if reading:
                aborted = True
                session.cancel()

        flusher = asyncio.ensure_future(writer_loop())
        flusher.add_done_callback(abort)
        try:
            try:
                await self._jsonl_read_loop(first, reader, window, enqueue)
            except asyncio.CancelledError:
                # Only the writer's own abort ends here; a cancel from
                # outside (aclose) must still propagate.
                if not aborted or session.uncancel():
                    raise
            finally:
                reading = False
            await flusher
        finally:
            flusher.cancel()
            # A vanished client must not leave orphaned tasks logging
            # "exception was never retrieved": detach and silence them (the
            # underlying executions still finish and warm the pool).
            tasks = [value for kind, _, value in queue if kind == "query"]
            for task in tasks:
                task.cancel()
            for task in (flusher, *tasks):
                try:
                    await task
                except BaseException:  # noqa: BLE001 - deliberately silenced
                    pass
            queue.clear()

    async def _jsonl_read_loop(self, first, reader, window, enqueue) -> None:
        def malformed(message: str) -> None:
            enqueue("line", None, self._malformed_payload(message))
            enqueue("eof", None, None)

        line = first
        while True:
            if not line:
                enqueue("eof", None, None)
                return
            text = line.decode("utf-8", errors="replace").strip()
            if text:
                try:
                    request = json.loads(text)
                except json.JSONDecodeError as error:
                    return malformed(f"invalid JSON ({error})")
                if not isinstance(request, dict):
                    return malformed("expected a JSON object")
                try:
                    envelope = self._parse_envelope(request)
                except _Malformed as error:
                    return malformed(str(error))
                if envelope.op == "stats":
                    enqueue("stats", None, None)
                else:
                    await window.acquire()  # backpressure: hold a slot first
                    try:
                        tenant, query = self._admit(envelope, request)
                    except _Malformed as error:
                        window.release()
                        return malformed(str(error))
                    except ServiceError as error:
                        window.release()
                        enqueue("line", None, self._response(envelope, error=error))
                    else:
                        execution = self._start(tenant, query, envelope.deadline_s)
                        enqueue("query", envelope, asyncio.ensure_future(execution))
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                return malformed("request line too long")

    async def _write_line(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(json.dumps(payload, sort_keys=True).encode() + b"\n")
        await writer.drain()
        self._counters.responses_total += 1

    def _malformed_payload(self, message: str) -> dict:
        self._counters.malformed_total += 1
        return {"ok": False, "error": f"malformed request: {message}",
                "error_type": "malformed"}

    # ------------------------------- HTTP ----------------------------- #

    async def _handle_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP/1.1: POST /query, GET /stats, GET /healthz."""
        request_line: bytes | None = first
        while True:
            if request_line is None:
                try:
                    request_line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    return
            if not request_line or not request_line.strip():
                return
            self._counters.http_requests_total += 1
            parts = request_line.decode("latin-1").split()
            request_line = None
            if len(parts) != 3:
                await self._http_reply(writer, 400, {
                    "ok": False, "error": "malformed request line",
                    "error_type": "malformed",
                })
                return
            method, path, _version = parts
            headers: dict[str, str] = {}
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            keep_alive = headers.get("connection", "keep-alive").lower() != "close"
            body = b""
            length = headers.get("content-length")
            if length is not None:
                try:
                    size = int(length)
                except ValueError:
                    await self._http_reply(writer, 400, {
                        "ok": False, "error": "invalid Content-Length",
                        "error_type": "malformed",
                    })
                    return
                if size > _READ_LIMIT:
                    await self._http_reply(writer, 413, {
                        "ok": False, "error": "request body too large",
                        "error_type": "malformed",
                    })
                    return
                if size:
                    try:
                        body = await reader.readexactly(size)
                    except asyncio.IncompleteReadError:
                        return
            status, payload = await self._http_route(method, path, body)
            await self._http_reply(writer, status, payload, keep_alive=keep_alive)
            if not keep_alive:
                return

    async def _http_route(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"ok": False, "error": "use GET /healthz",
                             "error_type": "malformed"}
            return 200, self.health()
        if path == "/stats":
            if method != "GET":
                return 405, {"ok": False, "error": "use GET /stats",
                             "error_type": "malformed"}
            return 200, {"ok": True, "result": self.stats()}
        if path == "/query":
            if method != "POST":
                return 405, {"ok": False, "error": "use POST /query",
                             "error_type": "malformed"}
            return await self._http_query(body)
        return 404, {"ok": False, "error": f"unknown path {path!r}",
                     "error_type": "malformed"}

    async def _http_query(self, body: bytes) -> tuple[int, dict]:
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, self._malformed_payload(f"invalid JSON body ({error})")
        if not isinstance(request, dict):
            return 400, self._malformed_payload("expected a JSON object body")
        try:
            envelope = self._parse_envelope(request)
        except _Malformed as error:
            return 400, self._malformed_payload(str(error))
        if envelope.op == "stats":
            return 200, {"ok": True, "op": "stats", "result": self.stats()}
        try:
            tenant, query = self._admit(envelope, request)
            result = await self._start(tenant, query, envelope.deadline_s)
        except _Malformed as error:
            return 400, self._malformed_payload(str(error))
        except BaseException as error:  # noqa: BLE001 - mapped below
            payload = self._response(envelope, error=error)
            return _ERROR_STATUS[payload["error_type"]], payload
        return 200, self._response(envelope, result)

    async def _http_reply(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool = False,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        head = (
            f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        self._counters.responses_total += 1


async def serve_forever(graph: SocialGraph, *, echo=print, on_shutdown=None, **kwargs) -> None:
    """Run a :class:`QueryServer` until cancelled (the CLI's --listen loop).

    ``on_shutdown``, when given, receives the final :meth:`QueryServer.stats`
    payload (captured before the service is torn down) instead of
    the default one-line summary through ``echo``.
    """
    async with QueryServer(graph, **kwargs) as server:
        echo(f"listening on {server.host}:{server.port} "
             "(JSON lines or HTTP/1.1; POST /query, GET /stats, GET /healthz)")
        try:
            await asyncio.Event().wait()
        finally:
            stats = server.stats()
            if on_shutdown is not None:
                on_shutdown(stats)
            else:
                echo(f"shutting down: {stats['server']['responses_total']} "
                     "responses served")
