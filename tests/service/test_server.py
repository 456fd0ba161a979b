"""Tests for the asyncio socket/HTTP front end (repro.service.server).

Everything here is deterministic: concurrency facts are constructed with
the gate-blocked engine (a request is *provably* in flight because its
sampling call is blocked inside the engine), budgets run on an injected
fake clock, and byte-identity is asserted against standalone fresh-pool
runs -- never against another timing-dependent arm.  The only real time
used is the deadline tests' timer, whose *outcome* is forced (the gate
never releases before expiry), not raced, and the watchdogs that turn a
hang into a failure.
"""

from __future__ import annotations

import asyncio
import gc
import json
import socket
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diffusion.engine import create_engine
from repro.exceptions import ServiceClosedError, ServiceError
from repro.parallel.engine import ParallelEngine, fork_available
from repro.pool.sample_pool import DEFAULT_POOL_CHUNK
from repro.service.loadgen import query_to_wire, run_standalone
from repro.service.query_service import EvaluateQuery, MaximizeQuery, PmaxQuery
from repro.service.server import PRIORITIES, QueryServer, TokenBucket, serve_forever

POOL_SEED = 91


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def run(coro, timeout: float = 60.0):
    """Run a test coroutine with a global watchdog (hangs fail, not block)."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _connect(server: QueryServer):
    return await asyncio.open_connection(server.host, server.port)


async def _rpc(streams, payload: dict) -> dict:
    """One JSON-lines request/response on an open connection."""
    reader, writer = streams
    writer.write(json.dumps(payload).encode("utf-8") + b"\n")
    await writer.drain()
    line = await reader.readline()
    assert line, "server closed the connection instead of answering"
    return json.loads(line)


async def _close(streams) -> None:
    _, writer = streams
    writer.close()


async def _http(server: QueryServer, method: str, path: str, body: dict | None = None):
    """One HTTP/1.1 exchange; returns (status, parsed JSON body)."""
    reader, writer = await _connect(server)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n".encode("latin-1")
        + payload
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    document = json.loads(await reader.readexactly(length)) if length else {}
    writer.close()
    return status, document


@pytest.fixture(scope="module")
def wire_queries(hot_pair):
    """Three cheap hot queries (one per kind) over the screened pair."""
    source, target = hot_pair
    return (
        PmaxQuery(source=source, target=target, epsilon=0.5,
                  confidence_n=50.0, max_samples=2_000),
        EvaluateQuery(source=source, target=target,
                      invitation=frozenset({target}), num_samples=48),
        MaximizeQuery(source=source, target=target, budget=2, num_realizations=200),
    )


@pytest.fixture(scope="module")
def standalone_answers(service_graph, wire_queries):
    """The fresh-pool reference answer for every hot query."""
    return {
        query: run_standalone(service_graph, query, POOL_SEED)
        for query in wire_queries
    }


class TestTokenBucket:
    def test_starts_full_and_never_blocks(self):
        clock = FakeClock()
        bucket = TokenBucket(100, 0.0, clock=clock)
        assert bucket.try_acquire(100)
        assert not bucket.try_acquire(1)

    def test_refills_at_rate_capped_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(100, 50.0, clock=clock)
        assert bucket.try_acquire(80)
        assert bucket.tokens == pytest.approx(20.0)
        clock.advance(1.0)
        assert bucket.tokens == pytest.approx(70.0)
        clock.advance(10.0)
        assert bucket.tokens == pytest.approx(100.0)  # capped, not 570
        assert bucket.try_acquire(100)

    def test_zero_rate_never_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(10, 0.0, clock=clock)
        assert bucket.try_acquire(10)
        clock.advance(1e6)
        assert not bucket.try_acquire(1)

    def test_cost_beyond_capacity_is_always_refused(self):
        bucket = TokenBucket(10, 5.0, clock=FakeClock())
        assert not bucket.try_acquire(11)
        assert bucket.tokens == pytest.approx(10.0)  # refusal does not charge


class TestJsonlProtocol:
    def test_roundtrip_echoes_id_and_matches_standalone(
        self, service_graph, wire_queries, standalone_answers
    ):
        query = wire_queries[1]

        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                streams = await _connect(server)
                response = await _rpc(
                    streams, {**query_to_wire(query), "id": "req-1", "tenant": "acme"}
                )
                await _close(streams)
                return response

        response = run(main())
        assert response["ok"] is True
        assert response["op"] == "evaluate"
        assert response["id"] == "req-1"
        assert json.dumps(response["result"], sort_keys=True) == standalone_answers[query]

    def test_eight_clients_interleaved_tenants_byte_identical(
        self, service_graph, wire_queries, standalone_answers
    ):
        """The acceptance bar: >=8 concurrent sockets, two tenants, every
        answer byte-identical to a standalone fresh-pool run."""

        async def client(server, index):
            tenant = "alpha" if index % 2 == 0 else "beta"
            streams = await _connect(server)
            answers = []
            for turn in range(2):
                query = wire_queries[(index + turn) % len(wire_queries)]
                response = await _rpc(
                    streams, {**query_to_wire(query), "tenant": tenant, "id": index}
                )
                answers.append((query, response))
            await _close(streams)
            return answers

        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                results = await asyncio.gather(
                    *(client(server, index) for index in range(8))
                )
                stats = server.stats()
                return results, stats

        results, stats = run(main())
        checked = 0
        for answers in results:
            for query, response in answers:
                assert response["ok"] is True
                observed = json.dumps(response["result"], sort_keys=True)
                assert observed == standalone_answers[query]
                checked += 1
        assert checked == 16
        assert sorted(stats["tenants"]) == ["alpha", "beta"]
        assert stats["server"]["connections_total"] == 8
        # Per-tenant reconciliation still holds behind the wire.
        for row in stats["tenants"].values():
            assert row["requests"] == row["executed"] + row["coalesced"] + row["rejected"]

    def test_pipelined_responses_come_back_in_request_order(
        self, service_graph, wire_queries
    ):
        async def main():
            async with QueryServer(
                service_graph, seed=POOL_SEED, connection_window=2
            ) as server:
                reader, writer = await _connect(server)
                for index in range(4):
                    query = wire_queries[index % len(wire_queries)]
                    writer.write(
                        json.dumps({**query_to_wire(query), "id": index}).encode() + b"\n"
                    )
                await writer.drain()
                responses = [json.loads(await reader.readline()) for _ in range(4)]
                writer.close()
                return responses

        responses = run(main())
        assert [response["id"] for response in responses] == [0, 1, 2, 3]
        assert all(response["ok"] for response in responses)

    def test_stats_is_a_barrier_with_server_and_tenant_sections(
        self, service_graph, wire_queries
    ):
        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                streams = await _connect(server)
                await _rpc(streams, query_to_wire(wire_queries[1]))
                stats = await _rpc(streams, {"op": "stats"})
                await _close(streams)
                return stats

        stats = run(main())
        assert stats["ok"] is True and stats["op"] == "stats"
        assert stats["result"]["server"]["requests_total"] == 1
        assert stats["result"]["tenants"]["default"]["requests"] == 1

    @pytest.mark.parametrize(
        "line",
        [
            b"this is not json\n",
            b"[1, 2, 3]\n",
            b'{"op": "frobnicate"}\n',
            b'{"op": "evaluate", "source": 1, "target": 2, "tenant": ""}\n',
            b'{"op": "evaluate", "source": 1, "target": 2, "priority": "urgent"}\n',
            b'{"op": "evaluate", "source": 1, "target": 2, "deadline_ms": -5}\n',
            b'{"op": "evaluate", "source": 1, "target": 2, "deadline_ms": true}\n',
            b'{"op": "evaluate", "source": 1, "target": 2, "deadline_ms": NaN}\n',
            b'{"op": "evaluate", "source": 1, "target": 2, "deadline_ms": Infinity}\n',
            b'{"op": "evaluate", "source": 1, "target": 2, "deadline_ms": 1e400}\n',
            b'{"op": "evaluate", "source": 1, "num_samples": 48}\n',
            b'{"op": "pmax", "source": [1], "target": 2}\n',
            b'{"op": "pmax", "source": 1, "target": {"id": 2}}\n',
            b'{"op": "evaluate", "source": {}, "target": 2}\n',
            b'{"op": "maximize", "source": 1, "target": [2, 3]}\n',
            b'{"op": "evaluate", "source": 1, "target": 2, "invitation": [[3]]}\n',
            b'{"op": "evaluate", "source": 0, "target": 50, "invitation": "50"}\n',
            b'{"op": "evaluate", "source": 0, "target": 50, "invitation": {"50": 1}}\n',
            b'{"op": "evaluate", "source": 0, "target": 50, "invitation": 50}\n',
        ],
    )
    def test_malformed_requests_answer_then_close(self, service_graph, line):
        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                reader, writer = await _connect(server)
                writer.write(line)
                await writer.drain()
                response = json.loads(await reader.readline())
                trailing = await reader.readline()  # connection-fatal: EOF
                writer.close()
                stats = server.stats()
                return response, trailing, stats

        response, trailing, stats = run(main())
        assert response["ok"] is False
        assert response["error_type"] == "malformed"
        assert trailing == b""
        assert stats["server"]["malformed_total"] == 1

    def test_blank_lines_are_skipped(self, service_graph, wire_queries):
        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                reader, writer = await _connect(server)
                writer.write(b"\n\n" + json.dumps(query_to_wire(wire_queries[1])).encode() + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                return response

        assert run(main())["ok"] is True

    def test_unknown_tenant_limit_is_a_refusal_not_a_close(self, service_graph, wire_queries):
        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED, max_tenants=1) as server:
                streams = await _connect(server)
                first = await _rpc(streams, {**query_to_wire(wire_queries[1]), "tenant": "a"})
                second = await _rpc(streams, {**query_to_wire(wire_queries[1]), "tenant": "b"})
                third = await _rpc(streams, {**query_to_wire(wire_queries[1]), "tenant": "a"})
                await _close(streams)
                return first, second, third

        first, second, third = run(main())
        assert first["ok"] is True
        assert second["ok"] is False and second["error_type"] == "rejected"
        assert third["ok"] is True  # the session survives the refusal


class TestHttp:
    def test_post_query_matches_standalone(
        self, service_graph, wire_queries, standalone_answers
    ):
        query = wire_queries[1]

        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                return await _http(server, "POST", "/query", query_to_wire(query))

        status, document = run(main())
        assert status == 200
        assert document["ok"] is True
        assert json.dumps(document["result"], sort_keys=True) == standalone_answers[query]

    def test_healthz_and_stats(self, service_graph):
        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                health = await _http(server, "GET", "/healthz")
                stats = await _http(server, "GET", "/stats")
                return health, stats

        (health_status, health), (stats_status, stats) = run(main())
        assert health_status == 200 and health["ok"] is True
        assert health["status"] == "serving"
        assert stats_status == 200 and "server" in stats["result"]

    def test_unknown_path_and_method(self, service_graph):
        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                missing = await _http(server, "GET", "/nope")
                wrong = await _http(server, "POST", "/healthz")
                return missing, wrong

        (missing_status, _), (wrong_status, _) = run(main())
        assert missing_status == 404
        assert wrong_status == 405

    @pytest.mark.parametrize(
        "body",
        [
            {"op": "pmax", "source": [1], "target": 2},
            {"op": "maximize", "source": 1, "target": {"id": 2}},
        ],
    )
    def test_unhashable_node_fields_answer_400(self, service_graph, wire_queries, body):
        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                refused = await _http(server, "POST", "/query", body)
                served = await _http(server, "POST", "/query", query_to_wire(wire_queries[1]))
                return refused, served, server.stats()

        (status, document), (served_status, _), stats = run(main())
        assert status == 400
        assert document["ok"] is False and document["error_type"] == "malformed"
        assert served_status == 200  # the server keeps answering
        assert stats["server"]["malformed_total"] == 1

    def test_non_list_invitation_answers_400(self, service_graph):
        """A string invitation is not iterated into characters and answered."""
        body = {"op": "evaluate", "source": 0, "target": 50, "invitation": "50"}

        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                return await _http(server, "POST", "/query", body), server.stats()

        (status, document), stats = run(main())
        assert status == 400
        assert document["ok"] is False and document["error_type"] == "malformed"
        assert "invitation must be a list" in document["error"]
        assert stats["server"]["malformed_total"] == 1

    def test_budget_exhaustion_maps_to_429(self, service_graph, wire_queries):
        query = wire_queries[1]  # costs 48 sample units

        async def main():
            clock = FakeClock()
            async with QueryServer(
                service_graph, seed=POOL_SEED, tenant_burst=50, clock=clock
            ) as server:
                first = await _http(server, "POST", "/query", query_to_wire(query))
                second = await _http(server, "POST", "/query", query_to_wire(query))
                return first, second

        (first_status, first), (second_status, second) = run(main())
        assert first_status == 200 and first["ok"] is True
        assert second_status == 429
        assert second["error_type"] == "budget"


class TestBudgets:
    def test_token_bucket_refuses_then_refills_on_the_injected_clock(
        self, service_graph, wire_queries, standalone_answers
    ):
        query = wire_queries[1]  # sample_cost 48

        async def main():
            clock = FakeClock()
            async with QueryServer(
                service_graph, seed=POOL_SEED, tenant_burst=50, tenant_rate=25.0,
                clock=clock,
            ) as server:
                streams = await _connect(server)
                first = await _rpc(streams, query_to_wire(query))
                refused = await _rpc(streams, query_to_wire(query))  # 2 tokens left
                clock.advance(2.0)  # +50 tokens -> capped at 50 >= 48
                refilled = await _rpc(streams, query_to_wire(query))
                stats = await _rpc(streams, {"op": "stats"})
                await _close(streams)
                return first, refused, refilled, stats["result"]

        first, refused, refilled, stats = run(main())
        assert first["ok"] is True
        assert refused["ok"] is False and refused["error_type"] == "budget"
        assert refilled["ok"] is True
        # A budget refusal changes cost and availability, never answers:
        for response in (first, refilled):
            assert json.dumps(response["result"], sort_keys=True) == standalone_answers[query]
        assert stats["server"]["budget_rejected_total"] == 1
        assert stats["tenants"]["default"]["budget_rejected"] == 1
        assert stats["tenants"]["default"]["tokens"] == pytest.approx(2.0)

    def test_budgets_are_per_tenant(self, service_graph, wire_queries):
        query = wire_queries[1]

        async def main():
            async with QueryServer(
                service_graph, seed=POOL_SEED, tenant_burst=50, clock=FakeClock()
            ) as server:
                streams = await _connect(server)
                await _rpc(streams, {**query_to_wire(query), "tenant": "a"})
                refused = await _rpc(streams, {**query_to_wire(query), "tenant": "a"})
                other = await _rpc(streams, {**query_to_wire(query), "tenant": "b"})
                await _close(streams)
                return refused, other

        refused, other = run(main())
        assert refused["error_type"] == "budget"
        assert other["ok"] is True  # tenant b has its own full bucket


class TestDeadlinesAndPriority:
    def test_deadline_expiry_cancels_cleanly_and_pool_survives(
        self, service_graph, gated_engine, wire_queries, standalone_answers
    ):
        query = wire_queries[1]

        async def main():
            async with QueryServer(
                service_graph, engine=gated_engine, seed=POOL_SEED
            ) as server:
                streams = await _connect(server)
                # The gate guarantees the execution cannot finish before the
                # deadline: the expiry outcome is forced, not raced.
                expired = await _rpc(
                    streams, {**query_to_wire(query), "deadline_ms": 100}
                )
                gated_engine.release.set()
                # The detached execution finishes on its worker thread and
                # warms the pool; the pool lock is provably not poisoned
                # because the retry answers -- byte-identically.
                retry = await _rpc(streams, query_to_wire(query))
                stats = await _rpc(streams, {"op": "stats"})
                await _close(streams)
                return expired, retry, stats["result"]

        expired, retry, stats = run(main())
        assert expired["ok"] is False
        assert expired["error_type"] == "deadline"
        assert retry["ok"] is True
        assert json.dumps(retry["result"], sort_keys=True) == standalone_answers[query]
        assert stats["server"]["deadline_expired_total"] == 1

    def test_default_deadline_applies_when_request_has_none(
        self, service_graph, gated_engine, wire_queries
    ):
        async def main():
            async with QueryServer(
                service_graph, engine=gated_engine, seed=POOL_SEED,
                default_deadline_ms=100,
            ) as server:
                streams = await _connect(server)
                expired = await _rpc(streams, query_to_wire(wire_queries[1]))
                gated_engine.release.set()
                await _close(streams)
                return expired

        expired = run(main())
        assert expired["error_type"] == "deadline"

    def test_low_priority_is_shed_under_load_and_healthz_still_answers(
        self, service_graph, gated_engine, wire_queries
    ):
        async def main():
            async with QueryServer(
                service_graph, engine=gated_engine, seed=POOL_SEED, max_in_flight=2
            ) as server:
                blocked = await _connect(server)
                _, blocked_writer = blocked
                blocked_writer.write(
                    json.dumps(query_to_wire(wire_queries[1])).encode() + b"\n"
                )
                await blocked_writer.drain()
                # The request is provably in flight: its sampling call has
                # entered the gated engine and is blocked there.
                assert await asyncio.to_thread(gated_engine.entered.wait, 30.0)

                low = await _connect(server)
                shed = await _rpc(
                    low, {**query_to_wire(wire_queries[2]), "priority": "low"}
                )
                await _close(low)

                health_status, health = await _http(server, "GET", "/healthz")

                gated_engine.release.set()
                blocked_response = json.loads(await blocked[0].readline())
                stats = server.stats()
                blocked_writer.close()
                return shed, health_status, health, blocked_response, stats

        shed, health_status, health, blocked_response, stats = run(main())
        assert shed["ok"] is False
        assert shed["error_type"] == "overloaded"
        assert health_status == 200 and health["ok"] is True
        assert health["in_flight"] >= 1
        assert blocked_response["ok"] is True
        assert stats["server"]["priority_rejected_total"] == 1

    def test_low_priority_admitted_when_idle(self, service_graph, wire_queries):
        async def main():
            async with QueryServer(
                service_graph, seed=POOL_SEED, max_in_flight=2
            ) as server:
                streams = await _connect(server)
                response = await _rpc(
                    streams, {**query_to_wire(wire_queries[1]), "priority": "low"}
                )
                await _close(streams)
                return response

        assert run(main())["ok"] is True


class TestLifecycle:
    def test_server_refuses_double_start(self, service_graph):
        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                with pytest.raises(ServiceError):
                    await server.start()

        run(main())

    def test_constructor_validation(self, service_graph):
        with pytest.raises(ValueError):
            QueryServer(service_graph, tenant_rate=5.0)  # rate without burst
        with pytest.raises(ValueError):
            QueryServer(service_graph, connection_window=0)
        with pytest.raises(ValueError):
            QueryServer(service_graph, max_tenants=0)

    @pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
    def test_passed_in_engine_outlives_the_server(self, service_graph):
        engine = ParallelEngine(create_engine(service_graph, "python"), workers=2)

        async def main():
            async with QueryServer(service_graph, engine=engine, seed=POOL_SEED) as server:
                assert server.service.pool.engine is engine
                return engine._worker_pids()  # forked by start()

        try:
            forked = run(main())
            assert len(forked) == 2 and engine._worker_pids() == forked
        finally:
            engine.close()

    @pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
    def test_failed_bind_closes_the_pool_start_forked(self, service_graph):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            server = QueryServer(service_graph, seed=POOL_SEED, workers=2, port=port)
            with pytest.raises(OSError):
                run(server.start())
        assert server.service.pool.engine._worker_pids() == frozenset()

    def test_serve_forever_announces_and_reports_on_cancel(self, service_graph):
        async def main():
            messages: list[str] = []
            seen: list[dict] = []
            task = asyncio.ensure_future(serve_forever(
                service_graph, seed=POOL_SEED, echo=messages.append,
                on_shutdown=seen.append,
            ))
            for _ in range(10_000):
                if messages:
                    break
                await asyncio.sleep(0)
            assert messages and messages[0].startswith("listening on ")
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return seen

        seen = run(main())
        assert len(seen) == 1 and "server" in seen[0]


class TestShutdownRace:
    def test_submission_racing_aclose_gets_typed_closed_error(
        self, service_graph, gated_engine, wire_queries
    ):
        """A request arriving while the server drains must get error_type
        'closed' (typed), not hang on a torn-down executor."""

        async def main():
            server = QueryServer(
                service_graph, engine=gated_engine, seed=POOL_SEED
            )
            await server.start()
            streams = await _connect(server)
            reader, writer = streams
            writer.write(json.dumps(query_to_wire(wire_queries[1])).encode() + b"\n")
            await writer.drain()
            assert await asyncio.to_thread(gated_engine.entered.wait, 30.0)
            # Drain starts: _closing flips synchronously, then aclose blocks
            # on the gated execution -- release it so teardown completes.
            closing = asyncio.ensure_future(server.aclose())
            await asyncio.sleep(0)
            assert server.health()["status"] == "closing"
            wire = query_to_wire(wire_queries[2])
            envelope = server._parse_envelope(wire)  # noqa: SLF001 - gate under test
            with pytest.raises(ServiceClosedError):
                server._admit(envelope, wire)  # noqa: SLF001
            gated_engine.release.set()
            await closing
            writer.close()

        run(main())


class TestDegradedMode:
    """Degraded-to-serial engines surface through /healthz and /stats."""

    def test_health_and_stats_surface_engine_degradation(self, service_graph, hot_pair):
        from repro.faults import FaultPlan

        source, target = hot_pair

        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED, workers=2) as server:
                _, before = await _http(server, "GET", "/healthz")
                server._tenant("default")  # noqa: SLF001 - a tenant row for /stats
                service = server.service
                engine = service.pool.engine
                assert service.degraded is False
                # Exhaust the retry budget for real: every dispatched walk
                # kills its worker until the engine gives up and goes serial.
                engine.inject_faults(FaultPlan(kill_rate=1.0))
                stop = service_graph.neighbor_set(source)
                await asyncio.to_thread(
                    engine.sample_paths, target, stop, 2 * engine.walk_size
                )
                engine.inject_faults(None)
                _, after = await _http(server, "GET", "/healthz")
                _, stats = await _http(server, "GET", "/stats")
                return before, after, stats

        before, after, stats = run(main(), timeout=120.0)
        assert before["degraded"] is False
        assert after["degraded"] is True
        assert after["ok"] is True  # degraded is an alert, not an outage
        assert stats["result"]["server"]["degraded"] is True
        assert stats["result"]["tenants"]["default"]["degraded"] is True

    def test_shared_engine_degradation_shows_on_every_tenant(self, service_graph, hot_pair):
        """Tenants share one engine, so its downgrade is every tenant's --
        including one created afterwards -- and the server's even before
        any tenant exists."""
        from repro.faults import FaultPlan

        source, target = hot_pair

        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED, workers=2) as server:
                engine = server._service.pool.engine  # noqa: SLF001 - no tenant exists yet
                engine.inject_faults(FaultPlan(kill_rate=1.0))
                stop = service_graph.neighbor_set(source)
                await asyncio.to_thread(
                    engine.sample_paths, target, stop, 2 * engine.walk_size
                )
                engine.inject_faults(None)
                untenanted = server.health()
                assert server.service.pool.engine is engine
                server._tenant("a")  # noqa: SLF001 - tenants created after the downgrade
                server._tenant("b")  # noqa: SLF001
                _, stats = await _http(server, "GET", "/stats")
                return untenanted, stats

        untenanted, stats = run(main(), timeout=120.0)
        assert untenanted["tenants"] == 0 and untenanted["degraded"] is True
        assert stats["result"]["server"]["degraded"] is True
        assert {name: row["degraded"] for name, row in stats["result"]["tenants"].items()} == {
            "a": True, "b": True,
        }

    @pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
    def test_fault_plan_reaches_the_shared_engine(self, service_graph):
        from repro.faults import FaultPlan

        plan = FaultPlan(5, slow_rate=0.5)

        async def main():
            async with QueryServer(
                service_graph, seed=POOL_SEED, workers=2, fault_plan=plan
            ) as server:
                return server.service.pool.engine

        engine = run(main())
        assert engine._fault_plan is plan

    def test_fault_plan_threads_through_to_tenant_services(self, service_graph):
        from repro.faults import SITE_SPILL_IO, FaultPlan

        plan = FaultPlan(5, spill_fail_rate=1.0)

        async def main():
            async with QueryServer(
                service_graph, seed=POOL_SEED, fault_plan=plan
            ) as server:
                return server.service.pool

        pool = run(main())
        assert pool._fault_plan is plan
        assert plan.injected(SITE_SPILL_IO) == 0  # nothing spilled yet


#: Every line the fuzz below writes is one of these shapes: arbitrary bytes
#: (invalid UTF-8 included), a JSON non-object, an unknown op, or a hot
#: query whose envelope fields are replaced by hostile values.
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
_ENVELOPES = st.fixed_dictionaries(
    {},
    optional={
        "id": st.one_of(_JSON_SCALARS, st.lists(st.integers(), max_size=2)),
        "tenant": st.one_of(_JSON_SCALARS, st.text(min_size=60, max_size=70)),
        "priority": st.one_of(st.sampled_from(PRIORITIES), _JSON_SCALARS),
        "deadline_ms": st.one_of(_JSON_SCALARS, st.floats(min_value=1e3, max_value=6e4)),
        "extra": _JSON_SCALARS,
    },
)


def _wire_lines(queries):
    requests = [query_to_wire(query) for query in queries] + [{"op": "stats"}]
    known = {request["op"] for request in requests}
    return st.one_of(
        st.binary(max_size=24).map(lambda raw: raw.replace(b"\n", b"")),
        st.one_of(_JSON_SCALARS, st.lists(st.integers(), max_size=3)).map(
            lambda value: json.dumps(value).encode()
        ),
        st.text(max_size=10)
        .filter(lambda op: op not in known)
        .map(lambda op: json.dumps({"op": op}).encode()),
        st.builds(
            lambda request, envelope: json.dumps({**request, **envelope}).encode(),
            st.sampled_from(requests),
            _ENVELOPES,
        ),
    )


class CountingExecutor(ThreadPoolExecutor):
    """A service executor that counts the calls handed to it."""

    def __init__(self) -> None:
        super().__init__(max_workers=2)
        self.submissions = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submissions += 1
        return super().submit(fn, *args, **kwargs)


def _count_executions(server: QueryServer) -> CountingExecutor:
    """Install a counting executor on the server's one service."""
    executor = CountingExecutor()
    server.service._executor = executor
    return executor


class TestDrawFreeAnswers:
    """A request whose samples are pooled is answered on the event loop."""

    def test_pipelined_hits_skip_the_executor_and_keep_request_order(
        self, service_graph, wire_queries, standalone_answers
    ):
        pmax, evaluate, maximize = wire_queries
        wider = EvaluateQuery(source=evaluate.source, target=evaluate.target,
                              invitation=evaluate.invitation,
                              num_samples=DEFAULT_POOL_CHUNK + 1)  # past the warm chunk
        # Misses and hits on different tenants of the one pool.  The four
        # lines go out in one write, and the reader admits every line of a
        # read before any execution task runs, so no miss holds the pool
        # while a hit is checked: which request is a hit is a constructed fact.
        order = [("cold", wider), ("warm", pmax), ("cold", maximize), ("warm", evaluate)]
        expected = {**standalone_answers, wider: run_standalone(service_graph, wider, POOL_SEED)}

        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                for query in (pmax, evaluate):
                    server.service.submit(query)
                executor = _count_executions(server)
                reader, writer = await _connect(server)
                writer.write(b"".join(
                    json.dumps({**query_to_wire(query), "tenant": tenant, "id": index}).encode()
                    + b"\n"
                    for index, (tenant, query) in enumerate(order)
                ))
                await writer.drain()
                responses = [json.loads(await reader.readline()) for _ in order]
                writer.close()
                return responses, executor.submissions

        responses, submissions = run(main())
        assert [response["id"] for response in responses] == [0, 1, 2, 3]
        for (_, query), response in zip(order, responses):
            assert response["ok"] is True
            assert json.dumps(response["result"], sort_keys=True) == expected[query]
        assert submissions == 2  # the two misses only

    def test_a_hit_over_http_returns_the_same_body(
        self, service_graph, wire_queries, standalone_answers
    ):
        query = wire_queries[0]

        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                executor = _count_executions(server)
                miss = await _http(server, "POST", "/query", query_to_wire(query))
                hit = await _http(server, "POST", "/query", query_to_wire(query))
                streams = await _connect(server)
                line = await _rpc(streams, query_to_wire(query))
                await _close(streams)
                return miss, hit, line, executor.submissions

        (miss_status, miss), (hit_status, hit), line, submissions = run(main())
        assert miss_status == hit_status == 200
        assert miss == hit == line
        assert json.dumps(hit["result"], sort_keys=True) == standalone_answers[query]
        assert submissions == 1  # the miss only

    def test_a_hit_ignores_its_deadline(self, service_graph, wire_queries):
        query = wire_queries[1]

        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                server.service.submit(query)
                streams = await _connect(server)
                # A deadline no executor hop could meet: a hit has no hop.
                response = await _rpc(streams, {**query_to_wire(query), "deadline_ms": 1e-9})
                await _close(streams)
                return response, server.stats()["server"]["deadline_expired_total"]

        response, expired = run(main())
        assert response["ok"] is True
        assert expired == 0


class TestSession:
    """The JSON-lines session's lifecycle: abort, task budget, hostile lines."""

    def test_dead_client_aborts_the_session(self, service_graph, wire_queries, monkeypatch):
        """A writer that cannot deliver must end the session even while the
        reader waits on a full window, or the connection hangs forever."""

        async def dead_client(self, writer, payload):
            raise ConnectionResetError("client stopped reading")

        monkeypatch.setattr(QueryServer, "_write_line", dead_client)

        async def main():
            async with QueryServer(
                service_graph, seed=POOL_SEED, connection_window=2
            ) as server:
                reader, writer = await _connect(server)
                line = json.dumps(query_to_wire(wire_queries[0])).encode() + b"\n"
                writer.write(line * 5)
                await writer.drain()
                trailing = await asyncio.wait_for(reader.read(), 10.0)
                writer.close()
                while server.stats()["server"]["active_connections"]:
                    await asyncio.sleep(0.01)
                return trailing

        assert run(main(), timeout=30.0) == b""

    def test_one_task_per_admitted_request(self, service_graph, wire_queries):
        """Reading, windowing and deadlines cost no task of their own."""
        requests = 64
        created = 0

        def counting_factory(loop, coro, **kwargs):
            nonlocal created
            created += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                warm = await _connect(server)
                await _rpc(warm, query_to_wire(wire_queries[0]))
                await _close(warm)
                asyncio.get_running_loop().set_task_factory(counting_factory)
                reader, writer = await _connect(server)
                for index in range(requests):
                    deadline = {"deadline_ms": 60_000} if index % 2 else {}
                    wire = {**query_to_wire(wire_queries[0]), "id": index, **deadline}
                    writer.write(json.dumps(wire).encode() + b"\n")
                await writer.drain()
                responses = [json.loads(await reader.readline()) for _ in range(requests)]
                writer.close()
                return responses, created

        responses, tasks = run(main())
        assert [response["id"] for response in responses] == list(range(requests))
        assert all(response["ok"] for response in responses)
        # One execution task per request, plus the connection's accept,
        # session and writer tasks.
        assert tasks <= requests + 3

    @settings(
        max_examples=50,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_hostile_lines_are_answered_or_close_once(
        self, service_graph, wire_queries, data
    ):
        lines = data.draw(st.lists(_wire_lines(wire_queries), min_size=1, max_size=4))
        errors = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, context: errors.append(context))
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                reader, writer = await _connect(server)
                writer.write(b"".join(line + b"\n" for line in lines))
                writer.write_eof()
                responses = [json.loads(line) async for line in reader]
                writer.close()
                while server.stats()["server"]["active_connections"]:
                    await asyncio.sleep(0.01)
                gc.collect()  # surfaces a never-retrieved task exception
                status, health = await _http(server, "GET", "/healthz")
                return responses, status, health

        responses, status, health = run(main(), timeout=30.0)
        assert not errors
        assert status == 200 and health["ok"] is True
        requests = [
            line for line in lines if line.decode("utf-8", errors="replace").strip()
        ]
        kinds = [response.get("error_type") == "malformed" for response in responses]
        if any(kinds):
            # Exactly one malformed answer, after the ones before it.
            assert kinds.index(True) == len(kinds) - 1
            assert len(responses) <= len(requests)
        else:
            assert len(responses) == len(requests)
