"""Deterministic concurrency tests for :class:`repro.service.QueryService`.

The load-bearing properties:

* coalesced and independent execution return *bit-identical* results (the
  pool's determinism contract surfaced through the service);
* admission-control limits are honored (in-flight executions, per-query
  sample budgets) while coalesced joins are always admitted;
* the metrics counters reconcile exactly:
  ``requests == executed + coalesced + rejected``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.maximization as maximization_module
import repro.core.raf as raf_module
import repro.diffusion.friending_process as friending_module
from repro.core.raf import estimate_pmax
from repro.diffusion.engine import create_engine
from repro.exceptions import (
    AlgorithmError,
    EngineError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceRejectedError,
)
from repro.faults import FaultPlan
from repro.graph.generators import barabasi_albert_graph
from repro.parallel.engine import ParallelEngine, fork_available
from repro.pool.sample_pool import STREAM_EVAL, STREAM_PMAX, STREAM_REALIZATIONS, SamplePool
from repro.service import (
    EvaluateQuery,
    MaximizeQuery,
    PmaxQuery,
    QueryService,
    canonical_result,
    run_standalone,
)
from repro.service.query_service import execute_query

POOL_SEED = 55


@pytest.fixture(scope="module")
def numpy_engine(service_graph):
    return create_engine(service_graph, "numpy")


def _queries(pair):
    source, target = pair
    return [
        PmaxQuery(source, target, epsilon=0.3, confidence_n=100.0, max_samples=30_000),
        EvaluateQuery(source, target, invitation=frozenset(range(40)) | {target}),
        MaximizeQuery(source, target, budget=3, num_realizations=800),
    ]


class TestBitIdentity:
    def test_service_answers_match_standalone_calls(self, service_graph, hot_pair):
        """Every query kind, answered through a busy shared service, is
        byte-identical to the same query run standalone on a fresh pool."""
        with QueryService(service_graph, seed=POOL_SEED) as service:
            for query in _queries(hot_pair) * 2:  # repeats hit the warm cache
                observed = canonical_result(service.submit(query))
                expected = run_standalone(service_graph, query, POOL_SEED)
                assert observed == expected

    def test_arrival_order_is_irrelevant(self, service_graph, hot_pair):
        queries = _queries(hot_pair)
        with QueryService(service_graph, seed=POOL_SEED) as forward:
            first = [canonical_result(r) for r in forward.submit_many(queries)]
        with QueryService(service_graph, seed=POOL_SEED) as backward:
            second = [canonical_result(r) for r in backward.submit_many(queries[::-1])]
        assert first == second[::-1]

    def test_coalescing_off_is_identical(self, service_graph, hot_pair):
        queries = _queries(hot_pair) * 3
        with QueryService(service_graph, seed=POOL_SEED, coalesce=True) as on:
            coalesced = [canonical_result(r) for r in on.submit_many(queries)]
        with QueryService(service_graph, seed=POOL_SEED, coalesce=False) as off:
            independent = [canonical_result(r) for r in off.submit_many(queries)]
        assert coalesced == independent
        assert on.metrics().executed < off.metrics().executed

    def test_pmax_matches_direct_library_call(self, service_graph, hot_pair):
        source, target = hot_pair
        with QueryService(service_graph, seed=POOL_SEED) as service:
            served = service.submit(
                PmaxQuery(source, target, epsilon=0.3, confidence_n=100.0, max_samples=30_000)
            )
        pool = SamplePool(create_engine(service_graph, "python"), seed=POOL_SEED)
        direct = estimate_pmax(
            service_graph, source, target, epsilon=0.3, confidence_n=100.0,
            max_samples=30_000, pool=pool,
        )
        assert served == direct


class TestInFlightCoalescing:
    def test_concurrent_duplicates_coalesce_onto_one_execution(
        self, service_graph, hot_pair, gated_engine
    ):
        source, target = hot_pair
        query = EvaluateQuery(source, target, invitation=frozenset({1, 2, target}))
        with QueryService(service_graph, engine=gated_engine, seed=POOL_SEED) as service:
            results: dict[str, object] = {}
            leader = threading.Thread(target=lambda: results.update(a=service.submit(query)))
            leader.start()
            assert gated_engine.entered.wait(timeout=30.0)
            # The leader is now provably blocked inside its sampling call.
            follower = threading.Thread(target=lambda: results.update(b=service.submit(query)))
            follower.start()
            while service.metrics().requests < 2:  # the follower has not attached yet
                pass
            metrics = service.metrics()
            assert (metrics.executed, metrics.coalesced) == (1, 1)
            gated_engine.release.set()
            leader.join(timeout=30.0)
            follower.join(timeout=30.0)
            assert canonical_result(results["a"]) == canonical_result(results["b"])
            assert canonical_result(results["a"]) == run_standalone(
                service_graph, query, POOL_SEED
            )

    def test_followers_observe_the_leaders_error(self, unreachable_graph, gate_engine):
        query = MaximizeQuery("s", "t", budget=2, num_realizations=50)
        gated = gate_engine(unreachable_graph)
        with QueryService(unreachable_graph, engine=gated, seed=POOL_SEED) as service:
            errors: list[BaseException] = []

            def run():
                try:
                    service.submit(query)
                except BaseException as error:
                    errors.append(error)

            leader = threading.Thread(target=run)
            leader.start()
            assert gated.entered.wait(timeout=30.0)
            follower = threading.Thread(target=run)
            follower.start()
            while service.metrics().requests < 2:
                pass
            gated.release.set()
            leader.join(timeout=30.0)
            follower.join(timeout=30.0)
            assert len(errors) == 2
            assert all(isinstance(error, AlgorithmError) for error in errors)
            assert errors[0] is errors[1]  # one execution, one error object

    def test_batch_duplicates_coalesce_exactly(self, service_graph, hot_pair):
        queries = _queries(hot_pair)
        wave = [queries[0], queries[1], queries[0], queries[0], queries[2], queries[1]]
        with QueryService(service_graph, seed=POOL_SEED) as service:
            results = service.submit_many(wave)
            metrics = service.metrics()
            assert metrics.requests == len(wave)
            assert metrics.executed == 3  # distinct queries
            assert metrics.coalesced == 3  # duplicates
            assert canonical_result(results[0]) == canonical_result(results[2])
            assert canonical_result(results[0]) == canonical_result(results[3])
            assert canonical_result(results[1]) == canonical_result(results[5])


class TestAdmissionControl:
    def test_in_flight_limit_rejects_new_executions(
        self, service_graph, hot_pair, gated_engine
    ):
        source, target = hot_pair
        hot = EvaluateQuery(source, target, invitation=frozenset({1, 2, target}))
        other = EvaluateQuery(source, target, invitation=frozenset({3, 4, target}))
        with QueryService(
            service_graph, engine=gated_engine, seed=POOL_SEED, max_in_flight=1
        ) as service:
            holder = threading.Thread(target=lambda: service.submit(hot))
            holder.start()
            assert gated_engine.entered.wait(timeout=30.0)
            # A different query would need a second execution: refused.
            with pytest.raises(ServiceOverloadedError):
                service.submit(other)
            # A duplicate coalesces onto the in-flight execution: admitted.
            joined: list = []
            follower = threading.Thread(target=lambda: joined.append(service.submit(hot)))
            follower.start()
            while service.metrics().coalesced < 1:
                pass
            gated_engine.release.set()
            holder.join(timeout=30.0)
            follower.join(timeout=30.0)
            metrics = service.metrics()
            assert metrics.rejected == 1
            assert metrics.requests == metrics.executed + metrics.coalesced + metrics.rejected
            # The limit frees up once the execution finishes.
            assert service.submit(other) is not None

    def test_per_query_sample_budget(self, service_graph, hot_pair):
        source, target = hot_pair
        with QueryService(service_graph, seed=POOL_SEED, max_query_samples=500) as service:
            with pytest.raises(ServiceRejectedError):
                service.submit(EvaluateQuery(source, target, num_samples=501))
            with pytest.raises(ServiceRejectedError):
                service.submit(PmaxQuery(source, target, max_samples=100_000))
            with pytest.raises(ServiceRejectedError):
                service.submit(MaximizeQuery(source, target, budget=2, num_realizations=600))
            admitted = service.submit(
                EvaluateQuery(source, target, invitation={target}, num_samples=500)
            )
            assert admitted.num_samples == 500
            metrics = service.metrics()
            assert metrics.rejected == 3
            assert metrics.requests == metrics.executed + metrics.coalesced + metrics.rejected

    def test_unsupported_query_type_rejected(self, service_graph):
        with QueryService(service_graph, seed=POOL_SEED) as service:
            with pytest.raises(ServiceError):
                service.submit("not a query")

    def test_invalid_limits_rejected(self, service_graph):
        with pytest.raises(ValueError):
            QueryService(service_graph, max_in_flight=0)
        with pytest.raises(ValueError):
            QueryService(service_graph, max_query_samples=0)

    def test_foreign_engine_rejected(self, service_graph, unreachable_graph):
        foreign = create_engine(unreachable_graph, "python")
        with pytest.raises(EngineError):
            QueryService(service_graph, engine=foreign)


class TestMetrics:
    def test_counters_reconcile_and_rates_are_consistent(self, service_graph, hot_pair):
        queries = _queries(hot_pair)
        with QueryService(service_graph, seed=POOL_SEED) as service:
            service.submit_many(queries * 4)
            metrics = service.metrics()
            assert metrics.requests == metrics.executed + metrics.coalesced + metrics.rejected
            assert metrics.requests == len(queries) * 4
            assert metrics.coalesce_rate == metrics.coalesced / (
                metrics.executed + metrics.coalesced
            )
            assert 0.0 <= metrics.pool_hit_rate <= 1.0
            assert metrics.samples_served > 0
            assert metrics.latency_p50 > 0.0
            assert metrics.latency_p50 <= metrics.latency_p90 <= metrics.latency_p99

    def test_fresh_service_reports_zeroes(self, service_graph):
        with QueryService(service_graph, seed=POOL_SEED) as service:
            metrics = service.metrics()
            assert metrics.requests == 0
            assert metrics.coalesce_rate == 0.0
            assert metrics.pool_hit_rate == 0.0
            assert metrics.latency_p50 is None
            assert metrics.latency_p90 is None
            assert metrics.latency_p99 is None


class TestAsyncFrontend:
    def test_concurrent_awaits_coalesce(self, service_graph, hot_pair, gated_engine):
        source, target = hot_pair
        query = EvaluateQuery(source, target, invitation=frozenset({1, 2, target}))

        async def drive(service):
            first = asyncio.create_task(service.submit_async(query))
            second = asyncio.create_task(service.submit_async(query))
            # Wait until both submissions have registered (leader in flight,
            # follower attached), then release the gate.
            while service.metrics().requests < 2:
                await asyncio.sleep(0.001)
            metrics = service.metrics()
            assert (metrics.executed, metrics.coalesced) == (1, 1)
            gated_engine.release.set()
            return await asyncio.gather(first, second)

        with QueryService(service_graph, engine=gated_engine, seed=POOL_SEED) as service:
            first, second = asyncio.run(drive(service))
            assert canonical_result(first) == canonical_result(second)
            assert canonical_result(first) == run_standalone(service_graph, query, POOL_SEED)

    def test_async_answers_match_sync(self, service_graph, hot_pair):
        queries = _queries(hot_pair)

        async def drive(service):
            return await asyncio.gather(*(service.submit_async(q) for q in queries))

        with QueryService(service_graph, seed=POOL_SEED) as async_service:
            async_results = [canonical_result(r) for r in asyncio.run(drive(async_service))]
        with QueryService(service_graph, seed=POOL_SEED) as sync_service:
            sync_results = [canonical_result(sync_service.submit(q)) for q in queries]
        assert async_results == sync_results


class TestPercentiles:
    def test_nearest_rank_definition(self):
        from repro.service.query_service import _percentile

        hundred = [float(n) for n in range(1, 101)]
        assert _percentile(hundred, 0.50) == 50.0
        assert _percentile(hundred, 0.90) == 90.0
        assert _percentile(hundred, 0.99) == 99.0  # not the maximum
        assert _percentile([1.0, 2.0], 0.50) == 1.0
        assert _percentile([7.0], 0.99) == 7.0

    def test_empty_window_has_no_percentiles(self, service_graph):
        """Zero requests: percentiles are None (not 0.0, not IndexError),
        and the stats rendering makes the absence explicit as JSON null."""
        import json

        from repro.experiments.records import to_jsonable
        from repro.service.query_service import _percentile

        assert _percentile([], 0.50) is None
        with QueryService(service_graph, seed=POOL_SEED) as service:
            metrics = service.metrics()
        assert metrics.requests == 0
        assert metrics.latency_p50 is None
        assert metrics.latency_p90 is None
        assert metrics.latency_p99 is None
        rendered = json.loads(json.dumps(to_jsonable(metrics)))
        assert rendered["latency_p50"] is None  # explicit null on the wire

    def test_single_request_window_reports_that_sample_everywhere(
        self, service_graph, hot_pair
    ):
        source, target = hot_pair
        query = EvaluateQuery(source, target, num_samples=64)
        with QueryService(service_graph, seed=POOL_SEED) as service:
            service.submit(query)
            metrics = service.metrics()
        assert metrics.latency_p50 is not None
        assert metrics.latency_p50 == metrics.latency_p90 == metrics.latency_p99


@pytest.mark.skipif(not fork_available(), reason="platform lacks the fork start method")
class TestEngineOwnership:
    def test_close_tears_down_the_pool_of_a_built_engine(self, service_graph, hot_pair):
        source, target = hot_pair
        service = QueryService(service_graph, seed=POOL_SEED, workers=2)
        engine = service.pool.engine
        service.submit(EvaluateQuery(source, target, num_samples=2 * engine.walk_size))
        assert len(engine._worker_pids()) == 2
        service.close()
        assert engine._worker_pids() == frozenset()

    def test_close_leaves_a_passed_in_engine_to_its_owner(self, service_graph, hot_pair):
        source, target = hot_pair
        engine = ParallelEngine(create_engine(service_graph, "python"), workers=2)
        try:
            with QueryService(service_graph, engine=engine, seed=POOL_SEED) as service:
                assert service.pool.engine is engine
                service.submit(EvaluateQuery(source, target, num_samples=2 * engine.walk_size))
                forked = engine._worker_pids()
            assert len(forked) == 2 and engine._worker_pids() == forked
        finally:
            engine.close()


class TestServingEngine:
    """How a service builds (or adopts) the engine it samples with."""

    def test_name_builds_an_engine_on_the_graph(self, service_graph):
        with QueryService(service_graph, engine="python") as service:
            engine = service.pool.engine
            assert engine.name == "python"
            assert engine.compiled is create_engine(service_graph, "python").compiled

    def test_instance_needing_no_wrapper_comes_back_as_itself(self, service_graph):
        engine = create_engine(service_graph, "python")
        with QueryService(service_graph, engine=engine) as service:
            assert service.pool.engine is engine

    def test_workers_wrap_with_the_serial_crash_policy(self, service_graph):
        plan = FaultPlan(3, slow_rate=0.5)
        with QueryService(service_graph, engine="python", workers=2, fault_plan=plan) as service:
            engine = service.pool.engine
            assert isinstance(engine, ParallelEngine)
            assert engine.workers == 2
            assert engine.on_worker_failure == "serial"
            assert engine._fault_plan is plan

    def test_parallel_instance_keeps_its_own_policy(self, service_graph):
        engine = ParallelEngine(create_engine(service_graph, "python"), workers=3)
        try:
            with QueryService(service_graph, engine=engine, workers=2) as service:
                assert service.pool.engine is engine
            assert engine.workers == 3 and engine.on_worker_failure == "retry"
        finally:
            engine.close()

    def test_engine_of_another_graph_is_refused(self, service_graph):
        other = barabasi_albert_graph(50, 2, rng=4)
        with pytest.raises(EngineError):
            QueryService(service_graph, engine=create_engine(other, "python"))


class TestShutdownRace:
    def test_submission_racing_close_gets_typed_error(
        self, service_graph, hot_pair, gated_engine
    ):
        """A submission arriving while ``close()`` drains must fail fast with
        ``ServiceClosedError`` -- never hang on the torn-down executor.

        The race is constructed, not timed: the leader is gate-blocked inside
        the engine, ``close()`` runs on another thread (it marks the service
        closed immediately, then blocks waiting for the leader), and the
        racing submission is issued only once ``service.closed`` is observed.
        """
        source, target = hot_pair
        query = EvaluateQuery(source, target, num_samples=64)
        service = QueryService(service_graph, engine=gated_engine, seed=POOL_SEED)

        leader_result: dict = {}

        def leader():
            leader_result["value"] = canonical_result(service.submit(query))

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        assert gated_engine.entered.wait(timeout=30.0)

        closer = threading.Thread(target=service.close)
        closer.start()
        deadline = time.monotonic() + 30.0
        while not service.closed and time.monotonic() < deadline:
            time.sleep(0.001)
        assert service.closed  # close() marks the flag before blocking

        with pytest.raises(ServiceClosedError):
            service.submit(EvaluateQuery(source, target, num_samples=32))

        gated_engine.release.set()
        leader_thread.join(timeout=30.0)
        closer.join(timeout=30.0)
        assert not leader_thread.is_alive() and not closer.is_alive()
        # The already-admitted leader finished its sampling and answered
        # byte-identically; the refused racer is counted as rejected.
        assert leader_result["value"] == run_standalone(service_graph, query, POOL_SEED)
        metrics = service.metrics()
        assert metrics.requests == metrics.executed + metrics.coalesced + metrics.rejected
        assert metrics.rejected == 1

    def test_close_is_idempotent_and_submissions_stay_refused(self, service_graph, hot_pair):
        source, target = hot_pair
        service = QueryService(service_graph, seed=POOL_SEED)
        service.close()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(EvaluateQuery(source, target, num_samples=32))

    def test_async_submission_after_close_fails_fast(self, service_graph, hot_pair):
        source, target = hot_pair
        service = QueryService(service_graph, seed=POOL_SEED)
        service.close()

        async def drive():
            await service.submit_async(EvaluateQuery(source, target, num_samples=32))

        with pytest.raises(ServiceClosedError):
            asyncio.run(drive())


class TestQueryValidation:
    def test_bad_parameters_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PmaxQuery(0, 1, epsilon=-0.1)
        with pytest.raises(ValueError):
            EvaluateQuery(0, 1, num_samples=0)
        with pytest.raises(ValueError):
            MaximizeQuery(0, 1, budget=0)

    @pytest.mark.parametrize("cls", [PmaxQuery, EvaluateQuery, MaximizeQuery])
    def test_unhashable_node_fields_rejected_at_construction(self, cls):
        # A JSON array or object off the wire must be refused here, before
        # coalescing hashes the query.
        with pytest.raises(TypeError, match="source must be a node id"):
            cls([0], 1)
        with pytest.raises(TypeError, match="target must be a node id"):
            cls(0, {"id": 1})
        assert hash(cls((0, 1), 2))  # any hashable id is left to the graph

    def test_invitation_iterables_are_canonicalized(self):
        assert EvaluateQuery(0, 1, invitation=[3, 2, 3]) == EvaluateQuery(
            0, 1, invitation=frozenset({2, 3})
        )
        assert EvaluateQuery(0, 1, invitation=(3, 2)).invitation == frozenset({2, 3})
        assert EvaluateQuery(0, 1, invitation={3}).invitation == frozenset({3})

    @pytest.mark.parametrize("invitation", ["50", {"50": 1}, 50, None, iter([50])])
    def test_non_collection_invitation_rejected(self, invitation):
        with pytest.raises(TypeError, match="invitation must be a list of node ids"):
            EvaluateQuery(0, 50, invitation=invitation)


_STREAMS = {"pmax": STREAM_PMAX, "evaluate": STREAM_EVAL, "maximize": STREAM_REALIZATIONS}


@st.composite
def _draw_free_cases(draw):
    """A query of any kind, plus how many samples of which stream to warm first."""
    kind = draw(st.sampled_from(sorted(_STREAMS)))
    if kind == "pmax":
        query = PmaxQuery(
            0, 0,
            epsilon=draw(st.sampled_from([0.3, 0.5, 1.0])),
            confidence_n=draw(st.sampled_from([20.0, 50.0, 1000.0])),
            # Small caps are met by any warm chunk (cached >= max_samples).
            max_samples=draw(st.one_of(st.integers(1, 64), st.integers(65, 5_000))),
        )
    elif kind == "evaluate":
        query = EvaluateQuery(0, 0, num_samples=draw(st.integers(1, 3_000)))
    else:
        query = MaximizeQuery(0, 0, budget=2, num_realizations=draw(st.integers(1, 3_000)))
    warm = draw(st.sampled_from([0, 1, 1_000, 1_025, 2_048, 3_000]))
    # Mostly the query's own stream; sometimes another kind's, which is cold.
    stream = _STREAMS[draw(st.sampled_from([kind, kind, kind, *sorted(_STREAMS)]))]
    return query, warm, stream


class TestDrawFree:
    """``draw_free`` is exact: True iff executing the query draws nothing."""

    @settings(
        max_examples=80,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_draw_free_cases())
    def test_true_exactly_when_execution_draws_nothing(
        self, service_graph, hot_pair, numpy_engine, case
    ):
        blank, warm, stream = case
        source, target = hot_pair
        query = replace(blank, source=source, target=target)
        service = QueryService(service_graph, engine=numpy_engine, seed=POOL_SEED)
        if warm:
            service.pool.paths(target, service_graph.neighbor_set(source), warm, stream=stream)
        predicted = service.draw_free(query)
        drawn = service.pool.drawn_paths
        try:
            service.submit(query)
        except ReproError:
            pass  # e.g. a capped pmax that saw no type-1 sample
        assert predicted == (service.pool.drawn_paths == drawn)

    @pytest.mark.parametrize("kind", [0, 1, 2])
    def test_a_served_hit_hashes_its_key_once(
        self, service_graph, hot_pair, numpy_engine, monkeypatch, kind
    ):
        # The predicate (cached_count, and cached_type1 for pmax) and the
        # execution's reader all ask for the key's digest; one hashes it.
        from repro.pool import sample_pool

        query = _queries(hot_pair)[kind]
        service = QueryService(service_graph, engine=numpy_engine, seed=POOL_SEED)
        cold = canonical_result(service.submit(query))
        sample_pool._memoized_key_digest.cache_clear()
        calls = []
        key_digest = sample_pool._key_digest

        def counting_digest(*args):
            calls.append(args)
            return key_digest(*args)

        monkeypatch.setattr(sample_pool, "_key_digest", counting_digest)
        drawn = service.pool.drawn_paths
        assert service.draw_free(query)
        assert canonical_result(service.submit(query)) == cold
        assert service.pool.drawn_paths == drawn
        assert len(calls) == 1

    def test_an_evicted_key_is_not_draw_free(self, service_graph, hot_pair, numpy_engine):
        source, target = hot_pair
        query = EvaluateQuery(source, target, num_samples=500)
        other = MaximizeQuery(source, target, budget=2, num_realizations=500)
        service = QueryService(
            service_graph, engine=numpy_engine, seed=POOL_SEED, pool_budget=1_024
        )
        service.submit(query)
        assert service.draw_free(query)
        service.submit(other)  # over the budget: the evaluate key is evicted
        assert not service.draw_free(query)
        drawn = service.pool.drawn_paths
        service.submit(query)
        assert service.pool.drawn_paths > drawn

    def test_false_while_the_pool_lock_is_held(self, service_graph, hot_pair, numpy_engine):
        source, target = hot_pair
        query = EvaluateQuery(source, target, num_samples=100)
        service = QueryService(service_graph, engine=numpy_engine, seed=POOL_SEED)
        service.submit(query)
        with service._pool_lock:
            assert not service.draw_free(query)
        assert service.draw_free(query)

    def test_false_while_an_equal_query_is_in_flight(
        self, service_graph, hot_pair, gated_engine
    ):
        source, target = hot_pair
        query = EvaluateQuery(source, target, num_samples=100)
        warm = MaximizeQuery(source, target, budget=2, num_realizations=100)
        with QueryService(service_graph, engine=gated_engine, seed=POOL_SEED) as service:
            gated_engine.release.set()
            service.submit(query)
            gated_engine.release.clear()
            leader = threading.Thread(target=service.submit, args=(warm,))
            leader.start()
            assert gated_engine.entered.wait(timeout=30.0)
            # The blocked execution holds the pool lock, and `warm` is also
            # in flight: either makes submitting wait.
            assert not service.draw_free(query)
            assert not service.draw_free(warm)
            gated_engine.release.set()
            leader.join(timeout=30.0)
            assert not leader.is_alive()
            assert service.draw_free(query) and service.draw_free(warm)
            # Admitted but not yet at the pool: in flight with the lock free.
            _, leading = service._claim(query)
            assert leading and not service.draw_free(query)
            with service._state_lock:  # retire the claim unexecuted
                del service._inflight[query]
                service._executing -= 1
            assert service.draw_free(query)

    def test_unsupported_and_unknown_queries_are_not_draw_free(self, service_graph):
        with QueryService(service_graph, seed=POOL_SEED) as service:
            assert not service.draw_free(object())
            assert not service.draw_free(EvaluateQuery(-1, 0))


class TestPooledEstimatorsNeedNoGenerator:
    def test_pool_mode_never_builds_a_generator(
        self, service_graph, hot_pair, numpy_engine, monkeypatch
    ):
        def refuse(rng=None):
            raise AssertionError("pool mode must not coerce rng")

        for module in (raf_module, friending_module, maximization_module):
            monkeypatch.setattr(module, "ensure_rng", refuse)
        pool = SamplePool(numpy_engine, seed=POOL_SEED)
        for query in _queries(hot_pair):
            execute_query(service_graph, query, pool)
