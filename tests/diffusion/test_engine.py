"""Equivalence and property tests for the batch sampling engines.

The shared suite runs against every named engine stream.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.parameters import SamplePolicy
from repro.core.problem import ActiveFriendingProblem
from repro.core.raf import RAFConfig, run_raf
from repro.diffusion.engine import (
    DEFAULT_CHUNK_SIZE,
    ENGINE_NAMES,
    PythonEngine,
    create_engine,
    default_engine,
)
from repro.diffusion.friending_process import estimate_acceptance_probability
from repro.diffusion.realization import forward_process, sample_realization
from repro.exceptions import EngineError, EstimationError, NodeNotFoundError
from repro.graph.compiled import compile_graph
from repro.parallel.engine import collect_type1
from repro.setcover.hypergraph import SetSystem

ENGINES = [name for name in ENGINE_NAMES if name != "auto"]


def _legacy_sample_target_path(graph, target, stop_set, generator):
    """The historical dict-based sampler, kept as the bit-compat reference."""
    traced = {target}
    current = target
    while True:
        draw = generator.random()
        cumulative = 0.0
        parent = None
        for friend, weight in dict(graph.in_weights(current)).items():
            cumulative += weight
            if draw < cumulative:
                parent = friend
                break
        if parent is None or parent in traced:
            return frozenset(traced), False, None
        if parent in stop_set:
            return frozenset(traced), True, parent
        traced.add(parent)
        current = parent


@pytest.mark.parametrize("engine_name", ENGINES)
class TestEngineProperties:
    def test_count_and_target_membership(self, small_ba_graph, engine_name):
        engine = create_engine(small_ba_graph, engine_name)
        stop = small_ba_graph.neighbor_set(0)
        paths = engine.sample_paths(50, stop, 40, rng=1)
        assert len(paths) == 40
        for path in paths:
            assert 50 in path.nodes
            assert not (path.nodes & stop)

    def test_type1_anchor_is_a_stop_node(self, small_ba_graph, engine_name):
        engine = create_engine(small_ba_graph, engine_name)
        stop = small_ba_graph.neighbor_set(0)
        paths = engine.sample_paths(50, stop, 200, rng=2)
        type1 = [path for path in paths if path.is_type1]
        assert type1, "expected at least one type-1 path"
        for path in type1:
            assert path.anchor in stop
        for path in paths:
            if not path.is_type1:
                assert path.anchor is None

    def test_deterministic_per_seed(self, small_ba_graph, engine_name):
        engine = create_engine(small_ba_graph, engine_name)
        stop = small_ba_graph.neighbor_set(0)
        first = engine.sample_paths(30, stop, 25, rng=7)
        second = engine.sample_paths(30, stop, 25, rng=7)
        assert [(p.nodes, p.is_type1, p.anchor) for p in first] == [
            (p.nodes, p.is_type1, p.anchor) for p in second
        ]

    def test_chain_type1_rate_matches_theory(self, chain_graph, engine_name):
        # Backward walk from t: t picks b (probability 1), b picks a with
        # probability 1/2 (type-1) or t with probability 1/2 (cycle, type-0).
        engine = create_engine(chain_graph, engine_name)
        paths = engine.sample_paths("t", {"a"}, 3000, rng=11)
        rate = sum(path.is_type1 for path in paths) / 3000
        assert rate == pytest.approx(0.5, abs=0.03)

    def test_matches_full_realization_marginal(self, diamond_graph, engine_name):
        """Engine type-1 frequency equals the full-realization one (Remark 3)."""
        engine = create_engine(diamond_graph, engine_name)
        stop = diamond_graph.neighbor_set("s")
        trials = 3000
        engine_rate = sum(
            path.is_type1 for path in engine.sample_paths("t", stop, trials, rng=13)
        ) / trials
        full_hits = 0
        for seed in range(trials):
            realization = sample_realization(diamond_graph, rng=20_000 + seed)
            outcome = forward_process(
                diamond_graph, "s", realization, frozenset(diamond_graph.nodes()), target="t"
            )
            full_hits += outcome.success
        assert engine_rate == pytest.approx(full_hits / trials, abs=0.04)

    def test_lemma1_covered_rate_equals_forward_process(self, medium_ba_graph, engine_name):
        """Lemma 1/2 on the compiled backend: covered-trace rate == f(I)."""
        graph = medium_ba_graph
        source, target = 0, 150
        candidates = [node for node in graph.nodes() if node != source]
        invitation = frozenset(random.Random(3).sample(candidates, 120)) | {target}
        reverse = estimate_acceptance_probability(
            graph, source, target, invitation, num_samples=4000, rng=21,
            engine=create_engine(graph, engine_name),
        ).probability
        forward = estimate_acceptance_probability(
            graph, source, target, invitation, num_samples=4000, rng=22,
        ).probability
        assert reverse == pytest.approx(forward, abs=0.045)

    def test_unknown_target_rejected(self, triangle_graph, engine_name):
        engine = create_engine(triangle_graph, engine_name)
        with pytest.raises(NodeNotFoundError):
            engine.sample_paths("ghost", {"a"}, 1)

    def test_zero_count(self, triangle_graph, engine_name):
        engine = create_engine(triangle_graph, engine_name)
        assert engine.sample_paths("a", {"b"}, 0, rng=1) == []

    def test_negative_count_rejected(self, triangle_graph, engine_name):
        engine = create_engine(triangle_graph, engine_name)
        with pytest.raises(ValueError):
            engine.sample_paths("a", {"b"}, -1)

    def test_stop_set_with_unknown_nodes(self, chain_graph, engine_name):
        engine = create_engine(chain_graph, engine_name)
        paths = engine.sample_paths("t", {"a", "ghost"}, 50, rng=5)
        assert len(paths) == 50

    def test_collect_type1_counts_the_walk_chunked_stream(self, small_ba_graph, engine_name):
        engine = create_engine(small_ba_graph, engine_name)
        stop = small_ba_graph.neighbor_set(0)
        count = DEFAULT_CHUNK_SIZE + 500
        members, weights = collect_type1(engine, 50, stop, count, rng=9)
        # A plain engine draws walks of DEFAULT_CHUNK_SIZE paths on the
        # caller's generator; the counted sets are that stream's type-1 paths.
        generator = random.Random(9)
        paths = engine.sample_paths(50, stop, DEFAULT_CHUNK_SIZE, rng=generator)
        paths += engine.sample_paths(50, stop, 500, rng=generator)
        counted = Counter(path.nodes for path in paths if path.is_type1)
        assert sum(weights) == sum(counted.values())
        deduped = SetSystem(members, weights).deduplicate()
        assert deduped.sets() == tuple(counted)
        assert deduped.weights() == tuple(counted.values())
        if engine_name == "python":
            # The python engine's stream does not depend on how it is cut.
            whole = engine.sample_paths(50, stop, count, rng=9)
            assert [p.nodes for p in whole if p.is_type1] == [
                p.nodes for p in paths if p.is_type1
            ]


class TestPythonEngineBitCompat:
    """The python engine reproduces the historical dict sampler exactly."""

    def test_matches_legacy_reference(self, small_ba_graph):
        engine = PythonEngine(small_ba_graph)
        stop = small_ba_graph.neighbor_set(0)
        for seed in range(30):
            expected = _legacy_sample_target_path(
                small_ba_graph, 50, stop, random.Random(seed)
            )
            path = engine.sample_path(50, stop, rng=seed)
            assert (path.nodes, path.is_type1, path.anchor) == expected

    def test_generator_draws_one_path_per_next(self, small_ba_graph):
        """Partial consumption of sample_target_paths leaves the shared rng
        exactly where one-at-a-time sampling would (the historical stream
        contract)."""
        from repro.diffusion.reverse_sampling import sample_target_path, sample_target_paths

        stop = small_ba_graph.neighbor_set(0)
        shared = random.Random(17)
        first = next(iter(sample_target_paths(small_ba_graph, 30, stop, 100, rng=shared)))
        after_generator = shared.random()
        reference = random.Random(17)
        expected = sample_target_path(small_ba_graph, 30, stop, rng=reference)
        assert first.nodes == expected.nodes
        assert after_generator == reference.random()

    def test_batch_consumes_stream_like_sequential(self, small_ba_graph):
        stop = small_ba_graph.neighbor_set(0)
        engine = PythonEngine(small_ba_graph)
        batched = engine.sample_paths(30, stop, 20, rng=5)
        generator = random.Random(5)
        sequential = [engine.sample_path(30, stop, rng=generator) for _ in range(20)]
        assert [p.nodes for p in batched] == [p.nodes for p in sequential]


class TestCrossEngineConsistency:
    """python and numpy engines are distributionally interchangeable."""

    def test_type1_rates_agree(self, medium_ba_graph):
        stop = medium_ba_graph.neighbor_set(0)
        trials = 4000
        rates = {}
        for name in ("python", "numpy"):
            engine = create_engine(medium_ba_graph, name)
            paths = engine.sample_paths(150, stop, trials, rng=31)
            rates[name] = sum(path.is_type1 for path in paths) / trials
        assert rates["python"] == pytest.approx(rates["numpy"], abs=0.04)

    def test_mean_trace_lengths_agree(self, medium_ba_graph):
        stop = medium_ba_graph.neighbor_set(0)
        trials = 4000
        means = {}
        for name in ("python", "numpy"):
            engine = create_engine(medium_ba_graph, name)
            paths = engine.sample_paths(150, stop, trials, rng=33)
            means[name] = sum(len(path) for path in paths) / trials
        assert means["python"] == pytest.approx(means["numpy"], rel=0.1)

    def test_run_raf_numpy_engine_deterministic_and_valid(self, medium_ba_graph, rng):
        from tests.conftest import find_test_pair

        source, target = find_test_pair(medium_ba_graph, rng, min_distance=3)
        problem = ActiveFriendingProblem(medium_ba_graph, source, target, alpha=0.2)
        config = RAFConfig(
            sample_policy=SamplePolicy.FIXED, fixed_realizations=2000,
            pmax_max_samples=30_000, epsilon=0.05, engine="numpy",
        )
        first = run_raf(problem, config, rng=41)
        second = run_raf(problem, config, rng=41)
        assert first.invitation == second.invitation
        assert first.pmax_estimate == second.pmax_estimate
        assert problem.target in first.invitation


class TestEngineSelection:
    def test_unknown_engine_rejected(self, triangle_graph):
        with pytest.raises(EngineError):
            create_engine(triangle_graph, "fortran")

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            RAFConfig(engine="fortran")

    def test_engine_names_cover_available(self, triangle_graph):
        for name in ENGINES:
            assert create_engine(triangle_graph, name).name == name

    def test_auto_selects_an_available_backend(self, triangle_graph):
        engine = create_engine(triangle_graph, "auto")
        assert engine.name == "numpy"

    def test_default_engine_reuses_compiled_snapshot(self, triangle_graph):
        compiled = compile_graph(triangle_graph)
        engine = default_engine(triangle_graph)
        assert engine.compiled is compiled

    def test_problem_sampling_engine(self, chain_graph):
        problem = ActiveFriendingProblem(chain_graph, "s", "t", alpha=0.5)
        engine = problem.sampling_engine()
        assert engine.compiled is problem.compiled
        assert engine.name == "python"

    def test_engine_instance_for_wrong_graph_rejected(self, chain_graph, diamond_graph):
        """An engine built on graph A must not silently sample graph B."""
        foreign = create_engine(diamond_graph, "python")
        with pytest.raises(EngineError):
            estimate_acceptance_probability(
                chain_graph, "s", "t", {"b", "t"}, num_samples=10, rng=1, engine=foreign
            )

    def test_stale_engine_after_mutation_resnapshots(self, chain_graph):
        """Mutating the graph between construction and use refreshes the engine.

        The engine tracks its source graph's mutation counter, so a mutation
        in the construction-to-first-batch window re-snapshots instead of
        leaving the engine bound to the dead CSR (and resolve_engine accepts
        the refreshed engine as current).
        """
        engine = create_engine(chain_graph, "python")
        chain_graph.add_edge("a", "t", weight_uv=0.01, weight_vu=0.01)
        from repro.diffusion.engine import resolve_engine

        assert resolve_engine(chain_graph, engine) is engine
        assert engine.compiled is compile_graph(chain_graph)

    def test_engine_pinned_to_explicit_snapshot_stays_pinned(self, chain_graph):
        """An engine built on a CompiledGraph keeps that exact frozen view."""
        snapshot = compile_graph(chain_graph)
        engine = create_engine(snapshot, "python")
        chain_graph.add_edge("a", "t", weight_uv=0.01, weight_vu=0.01)
        assert engine.compiled is snapshot
        from repro.diffusion.engine import resolve_engine

        with pytest.raises(EngineError):
            resolve_engine(chain_graph, engine)


class TestReverseAcceptanceEstimator:
    def test_friend_pair_rejected(self, triangle_graph):
        with pytest.raises(EstimationError):
            estimate_acceptance_probability(
                triangle_graph, "a", "b", {"b"}, num_samples=10, rng=1, engine="python"
            )

    def test_engine_accepts_name(self, chain_graph):
        estimate = estimate_acceptance_probability(
            chain_graph, "s", "t", {"b", "t"}, num_samples=2000, rng=3, engine="python"
        )
        # Covered iff the walk is type-1 (probability 1/2) since {b, t}
        # contains every possible type-1 trace of the chain.
        assert estimate.probability == pytest.approx(0.5, abs=0.04)
        assert estimate.successes == round(estimate.probability * estimate.num_samples)


class TestStaleSnapshotRegression:
    """Regression suite for the construction-to-first-batch stale window.

    Historically an engine froze its CSR snapshot at construction time, so a
    graph mutated *between* constructing the engine and drawing its first
    batch kept sampling the dead CSR.  The engine now re-checks the graph's
    mutation counter on every batch and re-snapshots.
    """

    @pytest.mark.parametrize("name", ENGINES)
    def test_first_batch_after_mutation_uses_fresh_csr(self, name, chain_graph):
        engine = create_engine(chain_graph, name)
        # Mutate in the stale window: a strong shortcut edge b-s changes the
        # reachable topology (walks from t can now hit N_s = {a} via fewer
        # hops and b gains an extra in-neighbour, shifting every selection).
        chain_graph.add_edge("s", "b", weight_uv=0.4, weight_vu=0.4)
        stale = engine.sample_paths("t", chain_graph.neighbor_set("s"), 200, rng=99)
        fresh = create_engine(chain_graph, name).sample_paths(
            "t", chain_graph.neighbor_set("s"), 200, rng=99
        )
        assert stale == fresh
        assert engine.compiled is compile_graph(chain_graph)

    @pytest.mark.parametrize("name", ENGINES)
    def test_node_added_in_stale_window_is_sampleable(self, name, chain_graph):
        engine = create_engine(chain_graph, name)
        chain_graph.add_edge("t", "u", weight_uv=0.3, weight_vu=0.3)
        # The dead CSR does not even contain "u"; the refreshed one must.
        paths = engine.sample_paths("u", {"a"}, 50, rng=5)
        assert len(paths) == 50

    def test_unchanged_graph_keeps_the_cached_snapshot(self, chain_graph):
        engine = create_engine(chain_graph, "python")
        before = engine.compiled
        engine.sample_paths("t", {"a"}, 10, rng=1)
        assert engine.compiled is before
