"""The three closed-loop workloads.

Each workload builds its inputs from the run seed, sets up several times
(the median is ``setup_s``), replays a fixed, seeded schedule of
operations whose length is ``rate * seconds``, and checks its outputs
after the timed phase.  Every function returns a :class:`Pass`: raw
latencies, the work done, and the layer counters the traced pass adds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import graphs
import spans

#: No single operation may take longer than this; a timed-out op counts
#: as failed and the run goes on.
OP_TIMEOUT_S = 20.0

#: Set-up repetitions per run (``setup_s`` is their median).
SETUP_REPEATS = 5

ALPHA = 0.2
SNAPSHOT_BAND = (0.12, 0.4)
MUTATE_BAND = (0.09, 0.25)

#: serve-snapshot's pmax queries stop after about 249/pmax samples (the
#: stopping rule at epsilon 0.3, N = 200).  Pairs in this band need
#: 1130-1780 of them: every pmax miss draws exactly two 1024-path chunks,
#: so p99 (a pmax miss) does not depend on which pairs a seed drew.
SERVE_BAND = (0.14, 0.22)
SERVE_PMAX_EPSILON = 0.3

#: The set-up's untimed RAF run uses one fixed pair on every seed.
WARM_PAIR = (0, 11)
TENANTS = ("t0", "t1", "t2", "t3")

#: serve-snapshot's op rotation per pair: indices into (pmax, evaluate, maximize).
OP_CYCLE = (0, 1, 2, 0, 1)


@dataclass(frozen=True)
class Size:
    """Graph sizes and op rates of one benchmark scale."""

    snapshot_nodes: int
    hepth_scale: float
    raf_rate: float  # RAF runs scheduled per --seconds second
    serve_rate: float  # socket requests per second
    mutate_rate: float  # in-process queries per second
    serve_pairs: int
    mutate_pairs: int


FULL = Size(200_000, 0.5, 5.0, 75.0, 20.0, serve_pairs=15, mutate_pairs=15)
SMOKE = Size(20_000, 0.05, 4.0, 20.0, 20.0, serve_pairs=4, mutate_pairs=3)


class OpTimeout(Exception):
    """An in-process operation ran past :data:`OP_TIMEOUT_S`."""


@dataclass
class Pass:
    """What one pass over a workload's schedule measured."""

    setup_s: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)  # successful ops, schedule order
    cold_ms: list = field(default_factory=list)  # the ops that start on a cold key
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    invitations: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    work: dict = field(default_factory=dict)  # exact work counts and result digests
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)  # failed output checks
    notes: list = field(default_factory=list)


def _reset(tracer) -> None:
    """Count only set-up and the timed phase, not input preparation."""
    if tracer is not None:
        tracer.reset()


def _capture(tracer, result: "Pass") -> None:
    if tracer is not None:
        result.layers.update(spans.layer_metrics(tracer))
        result.work["diffusion.steps"] = result.layers["diffusion.steps"]


def by_typical_pmax(pairs: list) -> list:
    """Pairs ordered by closeness to their median screened pmax.

    Zipf rank 0 goes to the most typical pair, so the hottest keys cost
    about the same on every seed (a pmax hit replays ~1/pmax samples).
    """
    middle = statistics.median(pmax for _, _, pmax in pairs)
    return sorted(pairs, key=lambda pair: abs(pair[2] - middle))


def per_pair(values: list, summary) -> list:
    """``summary`` of each pair's values: every pair weighs the same."""
    groups: dict = {}
    for pair, value in values:
        groups.setdefault(pair, []).append(value)
    return [summary(group) for group in groups.values()]


def _digest(items) -> str:
    text = json.dumps(items, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS (input preparation
    before this point does not count toward ``peak_rss_mb``)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def _tree_pids(pid: int) -> list:
    pids = [pid]
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                for child in handle.read().split():
                    pids.extend(_tree_pids(int(child)))
        except OSError:
            continue
    return pids


class _Deadline:
    """SIGALRM-based op timeout for in-process operations (main thread only)."""

    def __enter__(self):
        def expire(signum, frame):
            raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")

        self._previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


# --------------------------------------------------------------------------- #
# raf-snapshot: Algorithm 4 on the mapped snapshot
# --------------------------------------------------------------------------- #


def raf_snapshot(seed: int, seconds: float, size: Size, cache: Path, tracer=None) -> Pass:
    from repro import ActiveFriendingProblem, RAFConfig, run_raf
    from repro.diffusion.engine import create_engine
    from repro.diffusion.friending_process import estimate_acceptance_probability
    from repro.graph.compiled import CompiledGraph

    result = Pass()
    directory = graphs.ensure_snapshot(cache, size.snapshot_nodes)
    graph = CompiledGraph.open(directory)
    screen_engine = create_engine(graph, "numpy-alias")
    ops = max(2, round(size.raf_rate * seconds))
    pairs = graphs.screened_pairs(graph, screen_engine, ops, seed, SNAPSHOT_BAND,
                                  graphs.ring_candidate, hops=3)
    schedule = [(pair, seed * 1_000_003 + i) for i, pair in enumerate(pairs)]
    config = RAFConfig(engine="numpy-alias", workers=2, sample_policy="fixed",
                       fixed_realizations=2000, pmax_epsilon=0.2)

    warm_source, warm_target = WARM_PAIR
    _reset(tracer)
    reset_peak_rss()
    for _ in range(SETUP_REPEATS):
        # Open the snapshot, build the engine, and make one untimed RAF run
        # (it faults in the columns and forks the workers once).
        start = time.perf_counter()
        graph = CompiledGraph.open(directory)
        engine = create_engine(graph, "numpy-alias")
        run_raf(ActiveFriendingProblem(graph, warm_source, warm_target, alpha=ALPHA),
                config, rng=seed)
        result.setup_s.append(time.perf_counter() - start)

    outcomes = []
    begin = time.perf_counter()
    for (source, target, _), op_seed in schedule:
        result.attempted += 1
        start = time.perf_counter()
        try:
            with _Deadline():
                raf = run_raf(ActiveFriendingProblem(graph, source, target, alpha=ALPHA),
                              config, rng=op_seed)
        except Exception as error:  # noqa: BLE001 - an op failure is counted, not fatal
            result.failed += 1
            result.notes.append(f"raf ({source}, {target}) failed: {error!r}")
            continue
        elapsed = (time.perf_counter() - start) * 1000.0
        result.latencies_ms.append(elapsed)
        result.cold_ms.append(elapsed)  # every RAF run draws all its samples fresh
        outcomes.append((source, target, op_seed, raf))
    result.wall_s = time.perf_counter() - begin
    result.peak_rss_mb = vm_hwm_mb()
    _capture(tracer, result)

    # Untimed checks: the cover target, and the acceptance bound through the
    # reverse estimator (Lemma 2).  l is fixed far below Eq. 16's l*, so
    # Theorem 1's slack does not apply: the bound allows half of alpha, the
    # stopping rule's relative error on pmax, and 3 sigma.  It catches broken
    # answers; acceptance_ratio tracks their quality.
    records = []
    for source, target, op_seed, raf in outcomes:
        if raf.covered_weight < raf.cover_target:
            result.problems.append(f"({source}, {target}): covered {raf.covered_weight} "
                                   f"< target {raf.cover_target}")
        estimate = estimate_acceptance_probability(
            graph, source, target, raf.invitation, num_samples=2000,
            rng=op_seed + 7, engine=engine,
        )
        bound = (ALPHA / 2 * raf.pmax_estimate / (1 + config.pmax_epsilon)
                 - 3 * estimate.std_error)
        if estimate.probability < bound:
            result.problems.append(f"({source}, {target}): f(I)={estimate.probability:.4f} "
                                   f"below the acceptance bound {bound:.4f}")
        result.invitations.append(raf.size)
        result.ratios.append(estimate.probability / raf.pmax_estimate)
        records.append([source, target, sorted(raf.invitation), raf.pmax_estimate,
                        raf.pmax_samples, raf.num_type1, raf.covered_weight])
    result.work.update({
        "estimation.pmax_samples": sum(raf.pmax_samples for *_, raf in outcomes),
        "results": _digest(records),
    })
    return result


# --------------------------------------------------------------------------- #
# serve-snapshot: repro serve --listen over the mapped snapshot
# --------------------------------------------------------------------------- #


def _hot_queries(pairs: list) -> list:
    """One pmax, evaluate and maximize query per pair (small wire payloads)."""
    from repro.service.query_service import EvaluateQuery, MaximizeQuery, PmaxQuery

    queries = []
    for source, target, _ in pairs:
        step = 1 if target > source else -1
        # Invite everyone on the ring between the pair (plus the target).
        invitation = frozenset(range(source + step, target + step, step))
        queries += [
            PmaxQuery(source, target, epsilon=SERVE_PMAX_EPSILON, confidence_n=200.0,
                      max_samples=50_000),
            EvaluateQuery(source, target, invitation=invitation, num_samples=800),
            MaximizeQuery(source, target, budget=4, num_realizations=1500),
        ]
    return queries


def zipf_schedule(count: int, keys: int, seed: int, exponent: float = 1.1) -> list:
    """``count`` key ranks in Zipf proportions, in a seeded order.

    Rank ``r`` appears in proportion to ``1 / (r + 1) ** exponent``,
    rounded by largest remainder, so every seed sends each rank the same
    number of times; only the order depends on the seed.
    """
    weights = [1.0 / (rank + 1) ** exponent for rank in range(keys)]
    exact = [count * weight / sum(weights) for weight in weights]
    quota = [int(value) for value in exact]
    by_remainder = sorted(range(keys), key=lambda rank: quota[rank] - exact[rank])
    for rank in by_remainder[: count - sum(quota)]:
        quota[rank] += 1
    ranks = [rank for rank in range(keys) for _ in range(quota[rank])]
    random.Random(f"{seed}-zipf").shuffle(ranks)
    return ranks


def _maximize_quality(result: Pass, answered: list) -> None:
    """Invitation size and covered share of the maximize answers, per pair."""
    sizes, shares = [], []
    for query, text in answered:
        if query.kind == "maximize":
            answer = json.loads(text)
            pair = (query.source, query.target)
            sizes.append((pair, len(answer["invitation"])))
            shares.append((pair, answer["covered_weight"] / answer["num_type1"]))
    result.invitations = per_pair(sizes, statistics.mean)
    result.ratios = per_pair(shares, statistics.median)


class _Server:
    """A serve process in its own session, so its whole tree can be killed."""

    def __init__(self, argv: list, env: dict) -> None:
        self.process = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True, text=True,
        )
        self.port = None
        deadline = time.monotonic() + 120
        while self.port is None:
            line = self.process.stderr.readline()
            if not line or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start (exit {self.process.poll()})")
            if line.startswith("listening on "):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
        # Drain the rest of stderr so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self.process.stderr.read, daemon=True)
        self._drain.start()

    def http(self, method: str, path: str, body: bytes = b"") -> dict:
        with socket.create_connection(("127.0.0.1", self.port), timeout=OP_TIMEOUT_S) as conn:
            head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode()
            conn.sendall(head + body)
            data = b""
            while chunk := conn.recv(65536):
                data += chunk
        return json.loads(data.split(b"\r\n\r\n", 1)[1])

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + 60
        while True:
            try:
                if self.http("GET", "/healthz").get("ok"):
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in _tree_pids(self.process.pid))

    def stop(self) -> None:
        """Interrupt, then kill the process group; sweep its shm segments."""
        from repro.parallel import shm

        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=30)
        shm.sweep_orphans(prefix=f"repro-pb-{self.process.pid}-")


def _server_argv(directory: Path, pool_seed: int, trace_out: Path | None) -> list:
    """``repro serve --listen``; the traced pass runs the same CLI under spans."""
    cli = ["--seed", str(pool_seed), "serve", "--snapshot", str(directory),
           "--engine", "numpy-alias", "--listen", "127.0.0.1:0"]
    if trace_out is None:
        return [sys.executable, "-m", "repro", *cli]
    return [sys.executable, str(Path(__file__).with_name("serve_launcher.py")),
            str(trace_out), *cli]


class _Connection:
    """One JSON-lines client socket with a per-request timeout."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._open()

    def _open(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=OP_TIMEOUT_S)
        self.reader = self.sock.makefile("rb")

    def request(self, payload: dict) -> dict:
        try:
            self.sock.sendall(json.dumps(payload, sort_keys=True).encode() + b"\n")
            line = self.reader.readline()
        except OSError:
            self.reset()
            raise
        if not line:
            self.reset()
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def reset(self) -> None:
        """A timed-out answer may still arrive: start over on a fresh socket."""
        self.close()
        self._open()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def serve_snapshot(seed: int, seconds: float, size: Size, cache: Path,
                   trace_out: Path | None = None) -> Pass:
    from repro.diffusion.engine import create_engine
    from repro.graph.compiled import CompiledGraph
    from repro.service.loadgen import query_to_wire, run_standalone

    result = Pass()
    directory = graphs.ensure_snapshot(cache, size.snapshot_nodes)
    graph = CompiledGraph.open(directory)
    pairs = graphs.screened_pairs(graph, create_engine(graph, "numpy-alias"),
                                  size.serve_pairs + 1, seed, SERVE_BAND,
                                  graphs.ring_candidate, hops=3)
    warm_pair, pairs = pairs[0], by_typical_pmax(pairs[1:])
    queries = _hot_queries(pairs)
    # Zipf over pairs; a pair's k-th request goes to tenant k mod 4 and asks
    # op OP_CYCLE[(k div 4) mod 5].  The quotas are the same on every seed,
    # so is the share of each (op, hit/miss) latency class, and p50 (pmax
    # hits), p90 (evaluate misses) and p99 (pmax misses) fall mid-class.
    served = [0] * len(pairs)
    schedule = []
    for rank in zipf_schedule(round(size.serve_rate * seconds), len(pairs), seed):
        k = served[rank]
        served[rank] += 1
        op = OP_CYCLE[(k // len(TENANTS)) % len(OP_CYCLE)]
        schedule.append((TENANTS[k % len(TENANTS)], queries[3 * rank + op]))
    seen: set = set()
    cold = []
    for tenant, query in schedule:
        cold.append((tenant, query) not in seen)
        seen.add((tenant, query))
    pool_seed = seed % 100_000
    warm = {**query_to_wire(_hot_queries([warm_pair])[1]), "num_samples": 64}

    env = graphs.child_env()
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = _Server(_server_argv(directory, pool_seed, trace_out), env)
            server.wait_healthy()
            connection = _Connection(server.port)
            for tenant in TENANTS:
                connection.request({**warm, "tenant": tenant})
            connection.close()
            result.setup_s.append(time.perf_counter() - start)

        # One closed-loop connection: with two, every latency depended on how
        # one connection's misses overlapped the other's hits (see README).
        answers: list = [None] * len(schedule)
        latencies: list = [None] * len(schedule)
        connection = _Connection(server.port)
        begin = time.perf_counter()
        for index, (tenant, query) in enumerate(schedule):
            start = time.perf_counter()
            try:
                answers[index] = connection.request({**query_to_wire(query),
                                                     "tenant": tenant, "id": index})
            except (OSError, ValueError) as error:
                answers[index] = {"ok": False, "error": repr(error)}
            latencies[index] = (time.perf_counter() - start) * 1000.0
        result.wall_s = time.perf_counter() - begin
        connection.close()
        result.peak_rss_mb = server.peak_rss_mb()
        stats = server.http("GET", "/stats")["result"]
    finally:
        if server is not None:
            server.stop()

    by_key: dict = {}
    for index, (tenant, query) in enumerate(schedule):
        result.attempted += 1
        answer = answers[index]
        if not answer or not answer.get("ok") or answer.get("id") != index:
            result.failed += 1
            result.notes.append(f"request {index} failed: {answer}")
            continue
        result.latencies_ms.append(latencies[index])
        if cold[index]:
            result.cold_ms.append(latencies[index])
        text = json.dumps(answer["result"], sort_keys=True)
        if by_key.setdefault(query, text) != text:
            result.problems.append(f"tenants disagree on {query}")
    # Byte identity with a fresh pool, on a seeded sample of distinct queries.
    answered = sorted(by_key, key=repr)
    for query in random.Random(f"{seed}-check").sample(answered, min(5, len(answered))):
        if run_standalone(graph, query, pool_seed, engine="numpy-alias") != by_key[query]:
            result.problems.append(f"served answer differs from a fresh pool for {query}")
    _maximize_quality(result, [(query, text) for query, text in by_key.items()])
    tenants = stats["tenants"].values()
    drawn = sum(tenant["samples_drawn"] for tenant in tenants)
    served = sum(tenant["samples_served"] for tenant in tenants)
    executed = sum(tenant["executed"] for tenant in tenants)
    coalesced = sum(tenant["coalesced"] for tenant in tenants)
    result.work = {
        "pool.drawn_paths": drawn,
        "answers": _digest(sorted([repr(query), text] for query, text in by_key.items())),
    }
    hit_share = 1.0 - sum(cold) / len(cold)
    for cliff in (0.5, 0.99):
        if abs(hit_share - cliff) < 0.03:
            result.notes.append(f"warning: hit share {hit_share:.3f} sits near {cliff:.0%}; "
                                "p50/p99 straddle the hit/miss cliff")
    result.layers = {
        "pool.hit_rate": max(0.0, 1.0 - drawn / served) if served else 0.0,
        "pool.drawn_paths": drawn,
        "pool.invalidations": 0,
        "pool.retained_keys": 0,
        "pool.flushed_keys": 0,
        "service.coalesce_rate": coalesced / (executed + coalesced) if executed else 0.0,
        "service.rejected": sum(tenant["rejected"] for tenant in tenants),
        "server.malformed": stats["server"]["malformed_total"],
        "schedule.hit_share": hit_share,
    }
    if trace_out is not None:
        traced = json.loads(trace_out.read_text())
        result.layers.update(traced["layers"])
        result.work["diffusion.steps"] = traced["layers"]["diffusion.steps"]
        result.layers["server.overhead_p50_ms"] = (
            statistics.median(result.latencies_ms) - traced["layers"]["service.exec_p50_ms"]
        )
    return result


# --------------------------------------------------------------------------- #
# serve-mutate: QueryService over a live graph under edge arrivals
# --------------------------------------------------------------------------- #

#: Each round applies one edge arrival, then asks about one pair: evaluate
#: twice, pmax twice, maximize once.  Rounds pick their pair by quota Zipf
#: from a small fixed set, so most rounds re-ask a pair an earlier round
#: warmed, and any key the pool keeps across a write turns that round's
#: misses into hits.  Today every arrival flushes the pool on this
#: connected graph, so each round position has one latency class: the
#: after-write evaluate (CSR and alias rebuild plus a fixed 800 paths,
#: whatever the pair's pmax), evaluate hit, pmax miss, pmax hit, maximize
#: miss.  p50 falls among the read misses and p90 in the middle of the
#: after-write class on every seed.
ROUND = ("evaluate", "evaluate", "pmax", "pmax", "maximize")
MUTATE_GRAPH_SEED = 2019


def serve_mutate(seed: int, seconds: float, size: Size, cache: Path, tracer=None) -> Pass:
    from repro.diffusion.engine import create_engine
    from repro.graph.datasets import load_dataset
    from repro.service.loadgen import (
        canonical_result, hot_queries, run_standalone, streaming_edge_arrivals,
    )
    from repro.service.query_service import EvaluateQuery, QueryService

    result = Pass()
    base = load_dataset("hepth", scale=size.hepth_scale, rng=MUTATE_GRAPH_SEED)
    rounds = max(1, round(size.mutate_rate * seconds / len(ROUND)))
    screened = graphs.screened_pairs(base, create_engine(base, "numpy-alias"),
                                     size.mutate_pairs + 1, seed, MUTATE_BAND,
                                     lambda graph, picker: graphs.hop_candidate(graph, picker, 2),
                                     hops=2)
    (warm_source, warm_target, _), pairs = screened[0], by_typical_pmax(screened[1:])
    queries = hot_queries(base, [(source, target) for source, target, _ in pairs],
                          rng=random.Random(f"{seed}-hot"))
    by_kind = [{query.kind: query for query in queries[3 * i:3 * i + 3]}
               for i in range(len(pairs))]
    schedule = [by_kind[rank][kind] for rank in zipf_schedule(rounds, len(pairs), seed)
                for kind in ROUND]
    pool_seed = seed % 100_000
    warm = EvaluateQuery(warm_source, warm_target, num_samples=64)

    service = None
    _reset(tracer)
    reset_peak_rss()
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        graph = base.copy()
        start = time.perf_counter()
        service = QueryService(graph, engine="numpy-alias", seed=pool_seed)
        service.submit(warm)
        result.setup_s.append(time.perf_counter() - start)

    arrivals: list = []
    answers: list = []
    begin = time.perf_counter()
    with service:
        for index, query in enumerate(schedule):
            if index % len(ROUND) == 0:
                edges = streaming_edge_arrivals(graph, index // len(ROUND), 1, seed)
                for u, v, w_uv, w_vu in edges:
                    graph.add_edge(u, v, w_uv, w_vu)
                arrivals.append(edges)
            result.attempted += 1
            start = time.perf_counter()
            try:
                with _Deadline():
                    answer = service.submit(query)
            except Exception as error:  # noqa: BLE001 - an op failure is counted, not fatal
                result.failed += 1
                answers.append(None)
                result.notes.append(f"query {index} failed: {error!r}")
                continue
            elapsed = (time.perf_counter() - start) * 1000.0
            result.latencies_ms.append(elapsed)
            if index % len(ROUND) == 0:
                result.cold_ms.append(elapsed)
            answers.append(canonical_result(answer))
        result.wall_s = time.perf_counter() - begin
        result.peak_rss_mb = vm_hwm_mb()
        _capture(tracer, result)
        stats = service.pool.stats()
        metrics = service.metrics()

    # Untimed: a seeded sample of answers must equal cold re-draws on a
    # copy of the graph that replayed the same arrivals.
    replay = base.copy()
    applied = 0
    positions = sorted(random.Random(f"{seed}-check").sample(range(len(schedule)), 4))
    for index in positions:
        while applied <= index // len(ROUND):
            for u, v, w_uv, w_vu in arrivals[applied]:
                replay.add_edge(u, v, w_uv, w_vu)
            applied += 1
        if answers[index] is not None and answers[index] != run_standalone(
                replay, schedule[index], pool_seed, engine="numpy-alias"):
            result.problems.append(f"answer {index} differs from a cold re-draw")
    _maximize_quality(result, [(query, text) for query, text in zip(schedule, answers)
                               if text is not None])
    result.work.update({
        "pool.drawn_paths": stats.drawn_paths,
        "pool.invalidations": stats.invalidations,
        "pool.retained_keys": stats.retained_keys,
        "pool.flushed_keys": stats.flushed_keys,
        "answers": _digest(answers),
        "arrivals": _digest(arrivals),
    })
    result.layers.update({
        "pool.hit_rate": max(0.0, 1.0 - stats.drawn_paths / stats.served_paths)
        if stats.served_paths else 0.0,
        "pool.drawn_paths": stats.drawn_paths,
        "pool.invalidations": stats.invalidations,
        "pool.retained_keys": stats.retained_keys,
        "pool.flushed_keys": stats.flushed_keys,
        "service.coalesce_rate": metrics.coalesce_rate,
        "service.rejected": metrics.rejected,
        "server.malformed": 0,
    })
    return result


WORKLOADS = {
    "raf-snapshot": raf_snapshot,
    "serve-snapshot": serve_snapshot,
    "serve-mutate": serve_mutate,
}
