"""Deterministic seeded load generation for the query service.

The ROADMAP's target workload is heavy multi-user traffic repeating a small
set of hot (source, target) questions.  This module reproduces that shape
*deterministically* so throughput and coalesce-rate numbers are
reproducible and CI-gateable:

* the hot query set is derived from the graph with labeled seed derivation
  (:func:`hot_queries`), so the same seed always yields the same queries;
* the schedule is closed-loop: ``num_clients`` clients each issue one
  request per round and wait for the whole wave to complete before the next
  round begins (:func:`generate_schedule` / :meth:`QueryService.submit_many`).
  Which hot query a client issues in a round is a pure function of
  ``derive_seed(seed, "load-round-<r>-client-<c>")`` -- never of timing --
  so the per-wave duplication (and with it the coalesce counters) is exact,
  not a race outcome;
* every per-query result is serialized to canonical JSON
  (:func:`canonical_result`), so two arms -- or a service run and a
  standalone run -- can be compared for *byte* identity, which is the
  pool's bit-identity contract surfaced end to end.

:func:`run_load_benchmark` wires it together: the same schedule is replayed
against a coalescing service and a no-coalescing reference service (fresh
pools, same pool seed), transcripts are asserted byte-identical (optionally
also against standalone library calls), and the wall-clock ratio is
reported as ``coalesce_speedup`` in the ``compare_bench.py`` schema.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields

from repro.diffusion.engine import create_engine
from repro.exceptions import ServiceError
from repro.experiments.pair_selection import screen_pmax
from repro.experiments.records import to_jsonable
from repro.graph.social_graph import SocialGraph
from repro.pool.sample_pool import SamplePool
from repro.service.query_service import (
    EvaluateQuery,
    MaximizeQuery,
    PmaxQuery,
    QueryService,
    _percentile,
    execute_query,
)
from repro.utils.rng import RandomSource, derive_rng, ensure_rng
from repro.utils.validation import require_positive_int

__all__ = [
    "LoadResult",
    "candidate_pairs",
    "hot_queries",
    "generate_schedule",
    "canonical_result",
    "query_to_wire",
    "run_load",
    "run_socket_load",
    "run_standalone",
    "run_load_benchmark",
    "emit_load_report",
    "streaming_edge_arrivals",
    "run_streaming_load",
]


def candidate_pairs(
    graph: SocialGraph,
    count: int,
    rng: RandomSource = None,
    min_pmax: float = 0.02,
    screen_samples: int = 200,
    max_attempts: int | None = None,
) -> list[tuple]:
    """Deterministically pick ``count`` hot (source, target) pairs.

    Pairs are distinct, non-friend (the Lemma-2 requirement of the evaluate
    query) and screened to ``pmax >= min_pmax`` so none of the hot queries
    is hopeless.  Selection and screening both consume streams derived from
    ``rng``, so a seed pins the pair set exactly.
    """
    require_positive_int(count, "count")
    generator = ensure_rng(rng)
    engine = create_engine(graph, "python")
    nodes = graph.node_list()
    pairs: list[tuple] = []
    seen: set[tuple] = set()
    attempts_allowed = max_attempts if max_attempts is not None else 500 * count
    attempts = 0
    while len(pairs) < count and attempts < attempts_allowed:
        attempts += 1
        source, target = generator.sample(nodes, 2)
        key = (source, target)
        if key in seen:
            continue
        seen.add(key)
        if graph.has_edge(source, target):
            continue
        if graph.degree(source) == 0 or graph.degree(target) == 0:
            continue
        pmax = screen_pmax(
            graph,
            source,
            target,
            num_samples=screen_samples,
            rng=derive_rng(generator, f"screen-{attempts}"),
            engine=engine,
        )
        if pmax < min_pmax:
            continue
        pairs.append(key)
    if len(pairs) < count:
        raise ServiceError(
            f"only {len(pairs)} of {count} requested hot pairs passed the "
            f"pmax >= {min_pmax} screen after {attempts} attempts; enlarge the "
            "graph or relax min_pmax"
        )
    return pairs


def hot_queries(
    graph: SocialGraph,
    pairs: list[tuple],
    rng: RandomSource = None,
    *,
    eval_samples: int = 800,
    pmax_epsilon: float = 0.25,
    pmax_confidence_n: float = 200.0,
    pmax_max_samples: int = 50_000,
    budget: int = 4,
    maximize_realizations: int = 1_500,
) -> list:
    """The hot query set: one pmax, evaluate and maximize query per pair.

    The evaluate query's invitation is a seeded sample of the graph's users
    plus the target (a plausible "is this invitation good enough?" probe);
    everything is a pure function of ``(graph, pairs, rng)``.
    """
    queries: list = []
    nodes = graph.node_list()
    for index, (source, target) in enumerate(pairs):
        picker = derive_rng(rng, f"hot-eval-{index}")
        width = min(len(nodes), max(8, len(nodes) // 10))
        invitation = frozenset(picker.sample(nodes, width)) | {target}
        queries.append(
            PmaxQuery(
                source=source,
                target=target,
                epsilon=pmax_epsilon,
                confidence_n=pmax_confidence_n,
                max_samples=pmax_max_samples,
            )
        )
        queries.append(
            EvaluateQuery(
                source=source,
                target=target,
                invitation=invitation,
                num_samples=eval_samples,
            )
        )
        queries.append(
            MaximizeQuery(
                source=source,
                target=target,
                budget=budget,
                num_realizations=maximize_realizations,
            )
        )
    return queries


def generate_schedule(hot: list, num_clients: int, rounds: int, seed: int) -> list[list]:
    """The closed-loop schedule: ``rounds`` waves of ``num_clients`` requests.

    Client ``c``'s request in round ``r`` is ``hot[i]`` with ``i`` drawn from
    a generator derived as ``derive_rng(seed, "load-round-<r>-client-<c>")``
    -- a pure function of the labels, independent of execution timing.
    """
    require_positive_int(num_clients, "num_clients")
    require_positive_int(rounds, "rounds")
    if not hot:
        raise ServiceError("the hot query set is empty")
    return [
        [
            hot[derive_rng(seed, f"load-round-{round_}-client-{client}").randrange(len(hot))]
            for client in range(num_clients)
        ]
        for round_ in range(rounds)
    ]


def canonical_result(result: object) -> str:
    """Canonical JSON of a query result (the byte-identity currency)."""
    return json.dumps(to_jsonable(result), sort_keys=True)


@dataclass(frozen=True, slots=True)
class LoadResult:
    """One arm's replay: canonical per-request transcript plus timings."""

    transcript: tuple
    seconds: float
    requests: int
    executed: int
    coalesced: int
    samples_drawn: int
    coalesce_rate: float
    pool_hit_rate: float
    latency_p50: float | None
    latency_p99: float | None


def run_load(service: QueryService, schedule: list[list]) -> LoadResult:
    """Replay a schedule against a service, wave by wave (closed loop)."""
    start = time.perf_counter()
    transcript = tuple(
        tuple(canonical_result(result) for result in service.submit_many(wave))
        for wave in schedule
    )
    seconds = time.perf_counter() - start
    metrics = service.metrics()
    return LoadResult(
        transcript=transcript,
        seconds=seconds,
        requests=metrics.requests,
        executed=metrics.executed,
        coalesced=metrics.coalesced,
        samples_drawn=metrics.samples_drawn,
        coalesce_rate=metrics.coalesce_rate,
        pool_hit_rate=metrics.pool_hit_rate,
        latency_p50=metrics.latency_p50,
        latency_p99=metrics.latency_p99,
    )


def query_to_wire(query) -> dict:
    """The JSON-lines request object for ``query`` (the socket envelope).

    Inverse of the server's ``QUERY_KINDS[op](**fields)`` construction:
    frozensets become sorted lists (JSON has no sets; the query coerces
    them back in ``__post_init__``), everything else ships as-is.
    """
    payload: dict = {"op": query.kind}
    for spec in fields(query):
        value = getattr(query, spec.name)
        if isinstance(value, frozenset):
            value = sorted(value)
        payload[spec.name] = value
    return payload


def run_socket_load(
    graph: SocialGraph,
    schedule: list[list],
    *,
    pool_seed: int,
    engine: str = "python",
    workers: int | str | None = None,
    coalesce: bool = True,
) -> LoadResult:
    """Replay a schedule over real TCP connections, wave by wave.

    Starts an in-process :class:`~repro.service.server.QueryServer`, opens
    one socket per schedule column (client) and replays the waves closed
    loop: every client writes its round-``r`` request as one JSON line and
    the wave completes when all responses have arrived.  The transcript
    re-canonicalizes the ``result`` object from each response line, so it
    compares byte-for-byte against the in-process arms and the standalone
    reference -- the bit-identity contract across a process-boundary
    transport.  ``latency_p50``/``latency_p99`` are *client-side* seconds
    (write-to-response, including wire and event-loop time), unlike the
    in-process arms' service-side execution latencies.
    """
    import asyncio

    from repro.service.server import QueryServer

    if not schedule:
        raise ServiceError("the schedule is empty")
    num_clients = len(schedule[0])
    latencies: list[float] = []

    async def _request(streams, query) -> str:
        reader, writer = streams
        line = json.dumps(query_to_wire(query), sort_keys=True).encode("utf-8") + b"\n"
        start = time.perf_counter()
        writer.write(line)
        await writer.drain()
        raw = await reader.readline()
        latencies.append(time.perf_counter() - start)
        if not raw:
            raise ServiceError("server closed the connection mid-schedule")
        response = json.loads(raw)
        if not response.get("ok"):
            raise ServiceError(f"socket request refused: {response!r}")
        return json.dumps(response["result"], sort_keys=True)

    async def _run() -> tuple:
        async with QueryServer(
            graph, engine=engine, workers=workers, seed=pool_seed, coalesce=coalesce
        ) as server:
            clients = [
                await asyncio.open_connection(server.host, server.port)
                for _ in range(num_clients)
            ]
            try:
                start = time.perf_counter()
                waves = []
                for wave in schedule:
                    answers = await asyncio.gather(*(
                        _request(clients[index], query)
                        for index, query in enumerate(wave)
                    ))
                    waves.append(tuple(answers))
                transcript = tuple(waves)
                seconds = time.perf_counter() - start
                # Metrics must be read before aclose() closes the service.
                metrics = server.service.metrics()
                return transcript, seconds, metrics
            finally:
                for _, writer in clients:
                    writer.close()

    transcript, seconds, metrics = asyncio.run(_run())
    ordered = sorted(latencies)
    return LoadResult(
        transcript=transcript,
        seconds=seconds,
        requests=metrics.requests,
        executed=metrics.executed,
        coalesced=metrics.coalesced,
        samples_drawn=metrics.samples_drawn,
        coalesce_rate=metrics.coalesce_rate,
        pool_hit_rate=metrics.pool_hit_rate,
        latency_p50=_percentile(ordered, 0.50),
        latency_p99=_percentile(ordered, 0.99),
    )


def run_standalone(graph: SocialGraph, query, pool_seed: int, engine: str = "python") -> str:
    """One query answered without any service: a fresh pool, same seed.

    This is the reference side of the bit-identity contract: the same
    dispatch the service executes (:func:`~repro.service.query_service.execute_query`)
    against a private fresh pool -- no shared cache, no coalescing, no
    concurrency -- must equal the service's answer for the same query.
    """
    pool = SamplePool(create_engine(graph, engine), seed=pool_seed)
    return canonical_result(execute_query(graph, query, pool))


def run_load_benchmark(
    graph: SocialGraph,
    *,
    hot_pairs: int = 2,
    num_clients: int = 48,
    rounds: int = 16,
    seed: int = 2019,
    pool_seed: int = 77,
    engine: str = "python",
    workers: int | str | None = None,
    verify_standalone: bool = True,
    socket_transport: bool = False,
) -> dict:
    """Replay one deterministic workload through both service arms.

    Returns a report in the ``compare_bench.py`` schema whose ``coalesce``
    row carries ``coalesce_speedup`` (wall-clock of the no-coalescing arm
    over the coalescing arm, both on fresh pools with the same seed).
    With ``socket_transport``, the same schedule is additionally replayed
    over real TCP connections (:func:`run_socket_load`, one socket per
    client) in both coalescing flavours; the ``socket`` row carries its own
    ``coalesce_speedup`` (socket arm over socket arm, so the wire overhead
    cancels) plus ``socket_p50_ms``/``socket_p99_ms`` client-side
    latencies.  Raises :class:`~repro.exceptions.ServiceError` if any two
    arms -- or, with ``verify_standalone``, the service and standalone
    calls -- are not byte-identical.
    """
    pairs = candidate_pairs(graph, hot_pairs, rng=derive_rng(seed, "load-pairs"))
    hot = hot_queries(graph, pairs, rng=derive_rng(seed, "load-hot"))
    schedule = generate_schedule(hot, num_clients=num_clients, rounds=rounds, seed=seed)

    arms: dict[str, LoadResult] = {}
    for name, coalesce in (("no-coalesce", False), ("coalesce", True)):
        with QueryService(
            graph, engine=engine, workers=workers, seed=pool_seed, coalesce=coalesce
        ) as service:
            arms[name] = run_load(service, schedule)

    if arms["coalesce"].transcript != arms["no-coalesce"].transcript:
        raise ServiceError("coalesced results diverged from independent execution")
    if socket_transport:
        for name, coalesce in (("socket-no-coalesce", False), ("socket", True)):
            arms[name] = run_socket_load(
                graph, schedule, pool_seed=pool_seed, engine=engine,
                workers=workers, coalesce=coalesce,
            )
        for socket_name, inproc_name in (
            ("socket", "coalesce"), ("socket-no-coalesce", "no-coalesce"),
        ):
            if arms[socket_name].transcript != arms[inproc_name].transcript:
                raise ServiceError(
                    f"the {socket_name} transcript diverged from the "
                    f"in-process {inproc_name} arm"
                )
    if verify_standalone:
        for query in {query for wave in schedule for query in wave}:
            expected = run_standalone(graph, query, pool_seed, engine=engine)
            observed = _transcript_lookup(schedule, arms["coalesce"].transcript, query)
            if expected != observed:
                raise ServiceError(
                    f"service answer for {query!r} diverged from the standalone call"
                )

    speedups = {
        "no-coalesce": 1.0,
        "coalesce": round(arms["no-coalesce"].seconds / arms["coalesce"].seconds, 2),
    }
    if socket_transport:
        speedups["socket-no-coalesce"] = 1.0
        speedups["socket"] = round(
            arms["socket-no-coalesce"].seconds / arms["socket"].seconds, 2
        )
    results = {}
    for name, arm in arms.items():
        results[name] = {
            "seconds": round(arm.seconds, 4),
            "requests": arm.requests,
            "executed": arm.executed,
            "coalesced": arm.coalesced,
            "paths_drawn": arm.samples_drawn,
            "coalesce_rate": round(arm.coalesce_rate, 4),
            "pool_hit_rate": round(arm.pool_hit_rate, 4),
            "latency_p50": None if arm.latency_p50 is None else round(arm.latency_p50, 6),
            "latency_p99": None if arm.latency_p99 is None else round(arm.latency_p99, 6),
            "coalesce_speedup": speedups[name],
        }
    if socket_transport:
        # Only the coalescing socket row carries the CI-gated wire latency
        # (one gated row keeps the drift gate's flake surface minimal).
        results["socket"]["socket_p50_ms"] = round(arms["socket"].latency_p50 * 1000.0, 3)
        results["socket"]["socket_p99_ms"] = round(arms["socket"].latency_p99 * 1000.0, 3)
    return {
        "benchmark": "service_load",
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "workload": {
            "hot_pairs": hot_pairs,
            "hot_queries": len(hot),
            "num_clients": num_clients,
            "rounds": rounds,
            "seed": seed,
            "pool_seed": pool_seed,
            "engine": engine,
            "workers": workers if workers is None else str(workers),
            "socket_transport": socket_transport,
        },
        "bit_identical": True,
        "results": results,
    }


def emit_load_report(
    report: dict,
    output=None,
    min_speedup: float | None = None,
    min_socket_speedup: float | None = None,
    max_socket_p99_ms: float | None = None,
) -> int:
    """Write, print and (optionally) gate a load-benchmark report.

    The shared tail of ``repro bench-load`` and
    ``benchmarks/bench_service_load.py``: writes the canonical JSON to
    ``output`` (if given), prints the report and the speedup summary, and
    returns a process exit code -- 1 with a stderr diagnostic when the
    coalescing arm falls short of ``min_speedup``, the socket arm falls
    short of ``min_socket_speedup``, or the socket arm's client-side p99
    exceeds the ``max_socket_p99_ms`` absolute ceiling; 0 otherwise.
    The socket arm has its own (lower) speedup bar because the wire and
    event-loop overhead is paid per *request*, coalesced or not, which
    dilutes the execution savings the in-process arms see undiluted.
    Asking for a socket gate without a socket arm in the report fails
    rather than passing vacuously.
    """
    import sys
    from pathlib import Path

    if output is not None:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    failed = False
    speedup = report["results"]["coalesce"]["coalesce_speedup"]
    print(f"\ncoalesce speedup: {speedup}x over the no-coalescing arm "
          "(bit-identical results, standalone-verified)")
    socket_row = report["results"].get("socket")
    if socket_row is not None:
        print(f"socket transport: {socket_row['coalesce_speedup']}x coalesce speedup, "
              f"client-side p99 {socket_row['socket_p99_ms']} ms "
              "(byte-identical to the in-process arms)")
    if min_speedup is not None and speedup < min_speedup:
        print(f"FAIL: speedup {speedup}x below required {min_speedup}x", file=sys.stderr)
        failed = True
    if min_socket_speedup is not None:
        if socket_row is None:
            print("FAIL: --min-socket-speedup given but the report has no socket arm",
                  file=sys.stderr)
            failed = True
        elif socket_row["coalesce_speedup"] < min_socket_speedup:
            print(f"FAIL: socket speedup {socket_row['coalesce_speedup']}x below "
                  f"required {min_socket_speedup}x", file=sys.stderr)
            failed = True
    if max_socket_p99_ms is not None:
        if socket_row is None:
            print("FAIL: --max-socket-p99-ms given but the report has no socket arm",
                  file=sys.stderr)
            failed = True
        elif socket_row["socket_p99_ms"] > max_socket_p99_ms:
            print(f"FAIL: socket p99 {socket_row['socket_p99_ms']} ms above the "
                  f"{max_socket_p99_ms} ms ceiling", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def streaming_edge_arrivals(
    graph: SocialGraph,
    round_index: int,
    count: int,
    seed: int,
    nodes: list | None = None,
) -> list[tuple]:
    """Deterministic edge arrivals for one round of a streaming workload.

    Returns up to ``count`` concrete ``(u, v, w_uv, w_vu)`` tuples -- new
    friendships between currently non-adjacent members of ``nodes``
    (default: all users), with each directional familiarity set to half the
    receiving node's remaining incoming-weight headroom (capped at 0.2), so
    applying them never violates the model's ``sum_u w(u, v) <= 1``
    normalization.  A node pair drawn with no headroom arrives with weight
    0.0 -- a brand-new friendship with no familiarity yet.  The tuples are
    a pure function of ``(graph state, round_index, seed, nodes)``;
    recording them lets a verification arm replay the exact same topology
    evolution on a fresh copy of the graph.
    """
    require_positive_int(count, "count")
    picker = derive_rng(seed, f"stream-round-{round_index}")
    population = list(nodes) if nodes is not None else graph.node_list()
    if len(population) < 2:
        raise ServiceError("streaming arrivals need at least two candidate nodes")
    arrivals: list[tuple] = []
    taken: set[tuple] = set()
    for _ in range(50 * count):
        if len(arrivals) >= count:
            break
        u, v = picker.sample(population, 2)
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        if key in taken or graph.has_edge(u, v):
            continue
        taken.add(key)
        w_uv = min(0.2, 0.5 * max(0.0, 1.0 - graph.total_in_weight(v)))
        w_vu = min(0.2, 0.5 * max(0.0, 1.0 - graph.total_in_weight(u)))
        arrivals.append((u, v, w_uv, w_vu))
    return arrivals


def run_streaming_load(
    graph: SocialGraph,
    *,
    hot_pairs: int = 2,
    num_clients: int = 8,
    rounds: int = 4,
    mutations_per_round: int = 1,
    seed: int = 2019,
    pool_seed: int = 77,
    engine: str = "python",
    mutation_nodes: list | None = None,
    verify: bool = True,
) -> dict:
    """A streaming-updates workload: edge arrivals interleaved with queries.

    Each round first applies a deterministic batch of edge arrivals
    (:func:`streaming_edge_arrivals`, optionally restricted to
    ``mutation_nodes``) to the *live* graph, then replays one query wave
    through a long-lived :class:`~repro.service.query_service.QueryService`
    -- so the service's shared sample pool sees the mutations exactly the
    way a production deployment would: mid-traffic, between waves.  The
    pool's delta-scoped invalidation (DESIGN.md §10) decides per key
    whether the cached stream survives; the report's ``streaming`` row
    carries the cumulative ``retained_hit_rate`` (retained / touched keys
    across all re-snapshots) next to the usual load counters.

    With ``verify`` (the default), every wave's answers are re-derived
    standalone -- a fresh pool on a fresh graph copy that replayed the same
    arrivals -- and compared byte-for-byte: retention must be
    indistinguishable from cold re-draws on the mutated topology.
    """
    pairs = candidate_pairs(graph, hot_pairs, rng=derive_rng(seed, "load-pairs"))
    hot = hot_queries(graph, pairs, rng=derive_rng(seed, "load-hot"))
    schedule = generate_schedule(hot, num_clients=num_clients, rounds=rounds, seed=seed)
    base_graph = graph.copy() if verify else None

    applied: list[list[tuple]] = []
    start = time.perf_counter()
    with QueryService(graph, engine=engine, seed=pool_seed) as service:
        transcript = []
        for round_index, wave in enumerate(schedule):
            arrivals = streaming_edge_arrivals(
                graph, round_index, mutations_per_round, seed, mutation_nodes
            )
            for u, v, w_uv, w_vu in arrivals:
                graph.add_edge(u, v, w_uv, w_vu)
            applied.append(arrivals)
            transcript.append(
                tuple(canonical_result(result) for result in service.submit_many(wave))
            )
        seconds = time.perf_counter() - start
        stats = service.pool.stats()
        metrics = service.metrics()

    bit_identical = True
    if verify:
        replay = base_graph
        for round_index, wave in enumerate(schedule):
            for u, v, w_uv, w_vu in applied[round_index]:
                replay.add_edge(u, v, w_uv, w_vu)
            for query, answer in zip(wave, transcript[round_index]):
                expected = run_standalone(replay, query, pool_seed, engine=engine)
                if expected != answer:
                    raise ServiceError(
                        f"streaming answer for {query!r} in round {round_index} "
                        "diverged from a cold re-draw on the same topology"
                    )

    touched = stats.retained_keys + stats.flushed_keys
    retained_hit_rate = stats.retained_keys / touched if touched else 1.0
    return {
        "benchmark": "service_streaming_load",
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "workload": {
            "hot_pairs": hot_pairs,
            "hot_queries": len(hot),
            "num_clients": num_clients,
            "rounds": rounds,
            "mutations_per_round": mutations_per_round,
            "seed": seed,
            "pool_seed": pool_seed,
            "engine": engine,
        },
        "bit_identical": bit_identical,
        "results": {
            "streaming": {
                "seconds": round(seconds, 4),
                "requests": metrics.requests,
                "paths_drawn": metrics.samples_drawn,
                "pool_hit_rate": round(metrics.pool_hit_rate, 4),
                "invalidations": stats.invalidations,
                "retained_keys": stats.retained_keys,
                "flushed_keys": stats.flushed_keys,
                "retained_hit_rate": round(retained_hit_rate, 4),
            },
        },
    }


def _transcript_lookup(schedule: list[list], transcript: tuple, query) -> str:
    """The recorded canonical answer of ``query`` (first occurrence)."""
    for wave, answers in zip(schedule, transcript):
        for request, answer in zip(wave, answers):
            if request == query:
                return answer
    raise ServiceError(f"query {query!r} does not appear in the schedule")
