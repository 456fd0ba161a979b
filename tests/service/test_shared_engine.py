"""One sampling engine per server, shared by every tenant.

Tenants keep their own pools, budgets and counters, but all of them draw
from the server's single engine -- and, with ``workers``, from its single
worker pool, which :meth:`QueryServer.start` forks before any request.
These tests pin both halves: the sharing itself (one object, one set of
worker processes whatever the tenant count) and its safety (tenants
sampling the shared engine concurrently still answer byte-identically to
standalone runs).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing

import pytest

from repro.diffusion.engine import create_engine
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel.engine import fork_available
from repro.service.loadgen import candidate_pairs, query_to_wire, run_standalone
from repro.service.query_service import EvaluateQuery, PmaxQuery
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
        assert len(services) == 8  # eight pools ...
        assert {service.pool.engine for service in services} == {engine}  # ... one engine
        assert all(response["ok"] for response in responses), responses
        differing = [
            query for query, response in zip(queries, responses)
            if json.dumps(response["result"], sort_keys=True)
            != run_standalone(alias_graph, query, POOL_SEED, "numpy-alias")
        ]
        assert not differing, f"{len(differing)} of {len(queries)} answers differ"


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
