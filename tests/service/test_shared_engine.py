"""One query service per server, shared by every tenant.

A tenant keeps only its token bucket, its admission counters and its
stats row; the pool, the coalescing map, the executor and the engine --
and, with ``workers``, the single worker pool :meth:`QueryServer.start`
forks before any request -- belong to the server's one service.  These
tests pin the sharing itself (one object, one set of worker processes,
one draw per distinct query whatever the tenant count), its accounting
(each row holds its tenant's share, and the rows sum to the service's
totals) and its safety (tenants sampling at once still answer
byte-identically to standalone runs).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import sys
import threading

import pytest

from repro.diffusion.engine import create_engine
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel.engine import fork_available
from repro.service.loadgen import candidate_pairs, query_to_wire, run_standalone
from repro.service.query_service import (
    EvaluateQuery,
    MaximizeQuery,
    PmaxQuery,
    QueryService,
    Tally,
    charged_to,
)
from repro.service.server import QueryServer

POOL_SEED = 91


def _children() -> frozenset:
    """Pids of this process's live child processes."""
    return frozenset(process.pid for process in multiprocessing.active_children())


def run(coro, timeout: float = 120.0):
    """Run a test coroutine with a global watchdog (hangs fail, not block)."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _rpc(server: QueryServer, payload: dict) -> dict:
    """One JSON-lines request/response on a fresh connection."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()
        line = await reader.readline()
    finally:
        writer.close()
    assert line, "server closed the connection instead of answering"
    return json.loads(line)


@pytest.fixture(scope="module")
def alias_graph():
    return apply_degree_normalized_weights(barabasi_albert_graph(3000, 4, rng=23))


class TestSharedInstance:
    def test_concurrent_tenants_answer_like_standalone(self, alias_graph):
        """Eight tenants on eight connections run distinct pmax queries over
        one numpy-alias instance at once; every answer must equal a fresh
        standalone run (a race on the engine's batch state breaks this)."""
        pairs = candidate_pairs(alias_graph, 8, rng=11)
        queries = [
            PmaxQuery(source=source, target=target, epsilon=0.2,
                      confidence_n=1000.0, max_samples=20_000)
            for source, target in pairs
        ]
        engine = create_engine(alias_graph, "numpy-alias")

        async def main():
            async with QueryServer(alias_graph, engine=engine, seed=POOL_SEED) as server:
                responses = await asyncio.gather(*(
                    _rpc(server, {**query_to_wire(query), "tenant": f"t{index}"})
                    for index, query in enumerate(queries)
                ))
                services = {server.tenant_service(f"t{index}") for index in range(8)}
                return responses, services

        responses, services = run(main())
        assert len(services) == 1  # one service, one pool ...
        assert {service.pool.engine for service in services} == {engine}  # ... one engine
        assert all(response["ok"] for response in responses), responses
        differing = [
            query for query, response in zip(queries, responses)
            if json.dumps(response["result"], sort_keys=True)
            != run_standalone(alias_graph, query, POOL_SEED, "numpy-alias")
        ]
        assert not differing, f"{len(differing)} of {len(queries)} answers differ"


def _reconciles(row: dict) -> bool:
    return row["requests"] == row["executed"] + row["coalesced"] + row["rejected"]


class TestOnePool:
    TENANTS = ("t0", "t1", "t2", "t3")

    def test_interleaved_tenants_draw_each_query_once(self, service_graph):
        """Four tenants replay an interleaved hot schedule, one request at a
        time: every answer equals a fresh standalone run, the shared pool
        draws exactly what one caller asking only the distinct queries
        draws, and the tenant rows sum to the pool's draws."""
        queries = []
        for source, target in candidate_pairs(service_graph, 2, rng=5):
            queries += [
                PmaxQuery(source=source, target=target, epsilon=0.5,
                          confidence_n=50.0, max_samples=2_000),
                EvaluateQuery(source=source, target=target,
                              invitation=frozenset({target}), num_samples=300),
                MaximizeQuery(source=source, target=target, budget=2, num_realizations=200),
            ]
        # Round r sends tenant k query r + k: each query reaches every tenant.
        schedule = [
            (tenant, queries[(turn + index) % len(queries)])
            for turn in range(len(queries))
            for index, tenant in enumerate(self.TENANTS)
        ]

        async def main():
            async with QueryServer(service_graph, seed=POOL_SEED) as server:
                responses = []
                for tenant, query in schedule:
                    responses.append(await _rpc(server, {**query_to_wire(query),
                                                         "tenant": tenant}))
                return responses, server.stats(), server.tenant_service().pool.drawn_paths

        responses, stats, drawn = run(main())
        expected = {query: run_standalone(service_graph, query, POOL_SEED) for query in queries}
        assert all(response["ok"] for response in responses), responses
        assert [json.dumps(response["result"], sort_keys=True) for response in responses] == [
            expected[query] for _, query in schedule
        ]
        with QueryService(service_graph, seed=POOL_SEED) as alone:
            for query in dict.fromkeys(query for _, query in schedule):
                alone.submit(query)
            assert drawn == alone.pool.drawn_paths
        rows = stats["tenants"]
        assert sorted(rows) == list(self.TENANTS)
        assert all(_reconciles(row) for row in rows.values())
        assert all(row["latency_p50"] is not None for row in rows.values())
        assert all(row["requests"] == len(queries) for row in rows.values())
        assert sum(row["samples_drawn"] for row in rows.values()) == drawn
        assert stats["service"]["samples_drawn"] == drawn
        for key in ("requests", "executed", "coalesced", "rejected", "samples_served"):
            assert sum(row[key] for row in rows.values()) == stats["service"][key]

    def test_equal_queries_from_two_tenants_share_one_execution(
        self, service_graph, gated_engine, hot_pair
    ):
        source, target = hot_pair
        query = EvaluateQuery(source=source, target=target, num_samples=64)

        async def main():
            async with QueryServer(service_graph, engine=gated_engine, seed=POOL_SEED) as server:
                first = asyncio.ensure_future(
                    _rpc(server, {**query_to_wire(query), "tenant": "a"}))
                # The leader is provably in flight: its draw is blocked in the gate.
                assert await asyncio.to_thread(gated_engine.entered.wait, 30.0)
                second = asyncio.ensure_future(
                    _rpc(server, {**query_to_wire(query), "tenant": "b"}))
                while "b" not in server.stats()["tenants"] \
                        or server.stats()["tenants"]["b"]["coalesced"] < 1:
                    await asyncio.sleep(0.001)  # the follower has not attached yet
                gated_engine.release.set()
                return await first, await second, server.stats()

        first, second, stats = run(main())
        standalone = run_standalone(service_graph, query, POOL_SEED)
        for response in (first, second):
            assert response["ok"] is True
            assert json.dumps(response["result"], sort_keys=True) == standalone
        a, b = stats["tenants"]["a"], stats["tenants"]["b"]
        assert (a["requests"], a["executed"], a["coalesced"]) == (1, 1, 0)
        assert (b["requests"], b["executed"], b["coalesced"]) == (1, 0, 1)
        assert a["server_requests"] == b["server_requests"] == 1
        assert a["samples_drawn"] == stats["service"]["samples_drawn"] > 0
        assert b["samples_drawn"] == b["samples_served"] == 0
        assert (stats["service"]["executed"], stats["service"]["coalesced"]) == (1, 1)

    def test_tallies_reconcile_under_thread_contention(self, service_graph):
        """More submitting threads than cores, a short switch interval and
        equal queries racing to coalesce: a lost update to any tally would
        break a row's reconciliation or the rows' sum."""
        queries = [
            EvaluateQuery(source=source, target=target, num_samples=count)
            for source, target in candidate_pairs(service_graph, 3, rng=11)
            for count in (40, 80)
        ]
        tallies = [Tally() for _ in range(8)]

        def submit_all(service, tally, shift):
            with charged_to(tally):
                for round_ in range(3):
                    for index in range(len(queries)):
                        service.submit(queries[(index + shift + round_) % len(queries)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(service_graph, seed=POOL_SEED) as service:
                threads = [
                    threading.Thread(target=submit_all, args=(service, tally, shift))
                    for shift, tally in enumerate(tallies)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                totals = service.metrics().as_dict()
                rows = [service.metrics(tally).as_dict() for tally in tallies]
                drawn = service.pool.drawn_paths
        finally:
            sys.setswitchinterval(interval)
        assert all(_reconciles(row) for row in rows)
        # One latency sample per admitted query, in the tally that asked.
        assert all(len(tally.latencies) == tally.executed + tally.coalesced for tally in tallies)
        assert all(row["requests"] == 3 * len(queries) for row in rows)
        for key in ("requests", "executed", "coalesced", "rejected",
                    "samples_drawn", "samples_served"):
            assert sum(row[key] for row in rows) == totals[key], key
        assert totals["samples_drawn"] == drawn > 0


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestOneWorkerPool:
    def test_every_tenant_shares_the_pool_forked_in_start(self, service_graph, hot_pair):
        source, target = hot_pair
        # Two pool chunks, so each tenant's first answer dispatches to workers.
        query = EvaluateQuery(source=source, target=target, num_samples=2048)
        tenants = [f"t{index}" for index in range(16)]

        async def main():
            # Children left by earlier tests (collected lazily) are not ours.
            earlier = _children()
            server = QueryServer(service_graph, seed=POOL_SEED, workers=2)
            await server.start()
            try:
                forked = _children() - earlier  # before any request
                await _rpc(server, {**query_to_wire(query), "tenant": tenants[0]})
                after_one = _children() - earlier
                answers = [
                    await _rpc(server, {**query_to_wire(query), "tenant": name})
                    for name in tenants[1:]
                ]
                after_sixteen = _children() - earlier
                engines = {server.tenant_service(name).pool.engine for name in tenants}
            finally:
                await server.aclose()
            return forked, after_one, after_sixteen, answers, engines, _children() - earlier

        forked, after_one, after_sixteen, answers, engines, after_close = run(main())
        assert len(engines) == 1
        assert len(forked) == 2
        assert after_one == after_sixteen == forked
        assert all(answer["ok"] for answer in answers)
        assert not after_close  # aclose() closed the shared pool
