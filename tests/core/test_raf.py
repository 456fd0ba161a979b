"""Tests for repro.core.raf (Algorithms 2-4)."""

from __future__ import annotations

import pytest

from repro.core.parameters import SamplePolicy
from repro.core.problem import ActiveFriendingProblem
from repro.core.raf import RAFConfig, estimate_pmax, run_raf, run_sampling_framework
from repro.core.vmax import compute_vmax
from repro.diffusion.friending_process import estimate_acceptance_probability
from repro.exceptions import AlgorithmError
from repro.graph.social_graph import SocialGraph
from repro.graph.weights import apply_degree_normalized_weights

from tests.conftest import find_test_pair


@pytest.fixture
def ba_problem(medium_ba_graph, rng):
    source, target = find_test_pair(medium_ba_graph, rng, min_distance=3)
    return ActiveFriendingProblem(medium_ba_graph, source, target, alpha=0.2)


FAST_CONFIG = RAFConfig(
    sample_policy=SamplePolicy.FIXED,
    fixed_realizations=2500,
    pmax_max_samples=30_000,
    epsilon=0.05,
)


class TestRAFConfig:
    def test_defaults_are_valid(self):
        RAFConfig()

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            RAFConfig(epsilon=0.0)

    def test_invalid_pmax_epsilon(self):
        with pytest.raises(ValueError):
            RAFConfig(pmax_epsilon=1.5)

    def test_invalid_fixed_realizations(self):
        with pytest.raises(ValueError):
            RAFConfig(fixed_realizations=0)


class TestEstimatePmax:
    def test_chain_pmax(self, chain_graph):
        estimate = estimate_pmax(chain_graph, "s", "t", epsilon=0.1, confidence_n=100.0, rng=1)
        assert estimate.value == pytest.approx(0.5, abs=0.06)
        assert estimate.method == "stopping-rule"

    def test_diamond_pmax(self, diamond_graph):
        estimate = estimate_pmax(diamond_graph, "s", "t", epsilon=0.1, confidence_n=100.0, rng=2)
        assert estimate.value == pytest.approx(0.5, abs=0.06)

    def test_unreachable_target_raises(self):
        graph = apply_degree_normalized_weights(
            SocialGraph(edges=[("s", "a"), ("t", "x")])
        )
        with pytest.raises(AlgorithmError):
            estimate_pmax(graph, "s", "t", max_samples=2000, rng=3)

    def test_capped_run_falls_back_to_sample_mean(self, medium_ba_graph, rng):
        source, target = find_test_pair(medium_ba_graph, rng)
        estimate = estimate_pmax(
            medium_ba_graph, source, target, epsilon=0.01, confidence_n=1e6,
            max_samples=2000, rng=4,
        )
        assert estimate.method == "sample-mean"
        assert estimate.num_samples == 2000
        assert 0.0 < estimate.value <= 1.0

    def test_capped_warm_pool_matches_cold_pool(self, medium_ba_graph, rng):
        # The cache holds more than max_samples samples of the key, and they
        # reach the rule as one warm batch: the sample mean must still cover
        # exactly max_samples samples.
        from repro.diffusion.engine import create_engine
        from repro.pool import STREAM_PMAX, SamplePool

        source, target = find_test_pair(medium_ba_graph, rng)
        capped = {"epsilon": 0.01, "confidence_n": 1e6, "max_samples": 2000}
        warm_pool = SamplePool(create_engine(medium_ba_graph, "python"), seed=17)
        estimate_pmax(medium_ba_graph, source, target, **{**capped, "max_samples": 6000},
                      pool=warm_pool)
        stop_set = medium_ba_graph.neighbor_set(source)
        assert warm_pool.reader(target, stop_set, stream=STREAM_PMAX).cached_remaining() > 2000
        cold_pool = SamplePool(create_engine(medium_ba_graph, "python"), seed=17)
        warm = estimate_pmax(medium_ba_graph, source, target, **capped, pool=warm_pool)
        cold = estimate_pmax(medium_ba_graph, source, target, **capped, pool=cold_pool)
        assert warm == cold
        assert warm.method == "sample-mean"
        assert warm.num_samples == 2000

    @pytest.mark.parametrize("call", ["cold", "warm", "capped"])
    def test_pool_serves_exactly_the_consumed_samples(self, medium_ba_graph, rng, call):
        # The rule reads whole batches (the cached prefix, a geometric
        # draw) and halts inside them: the pool's served tally must count
        # only the samples the estimate consumed.
        from repro.diffusion.engine import create_engine
        from repro.pool import SamplePool

        source, target = find_test_pair(medium_ba_graph, rng)
        pool = SamplePool(create_engine(medium_ba_graph, "numpy-alias"), seed=3)
        if call != "cold":
            estimate_pmax(medium_ba_graph, source, target, epsilon=0.2, pool=pool)
        before = pool.served_paths
        estimate = estimate_pmax(
            medium_ba_graph, source, target, epsilon=0.2,
            max_samples=1000 if call == "capped" else 500_000, pool=pool,
        )
        assert estimate.method == ("sample-mean" if call == "capped" else "stopping-rule")
        assert pool.served_paths - before == estimate.num_samples

    def test_sample_count_reported(self, chain_graph):
        estimate = estimate_pmax(chain_graph, "s", "t", epsilon=0.2, confidence_n=50.0, rng=5)
        assert estimate.num_samples > 0


class TestSamplingFramework:
    def test_chain_returns_the_only_useful_invitation(self, chain_graph):
        problem = ActiveFriendingProblem(chain_graph, "s", "t", alpha=0.5)
        invitation, diagnostics = run_sampling_framework(
            problem, beta=0.4, num_realizations=2000, rng=1
        )
        assert invitation == frozenset({"b", "t"})
        assert diagnostics["num_type1"] > 0
        assert diagnostics["covered_weight"] >= diagnostics["cover_target"]

    def test_invitation_always_contains_target(self, ba_problem):
        invitation, _ = run_sampling_framework(ba_problem, beta=0.3, num_realizations=2000, rng=2)
        assert ba_problem.target in invitation

    def test_invitation_within_vmax(self, ba_problem):
        """Every invited node lies on some N_s -> t path (subset of Vmax)."""
        invitation, _ = run_sampling_framework(ba_problem, beta=0.3, num_realizations=3000, rng=3)
        vmax = compute_vmax(ba_problem.graph, ba_problem.source, ba_problem.target)
        assert invitation <= vmax

    def test_unreachable_pair_raises(self):
        graph = apply_degree_normalized_weights(SocialGraph(edges=[("s", "a"), ("t", "x")]))
        problem = ActiveFriendingProblem(graph, "s", "t")
        with pytest.raises(AlgorithmError):
            run_sampling_framework(problem, beta=0.3, num_realizations=200, rng=4)

    def test_invalid_beta(self, ba_problem):
        with pytest.raises(ValueError):
            run_sampling_framework(ba_problem, beta=0.0, num_realizations=100)
        with pytest.raises(ValueError):
            run_sampling_framework(ba_problem, beta=1.2, num_realizations=100)

    def test_larger_beta_needs_no_smaller_invitation(self, ba_problem):
        small, _ = run_sampling_framework(ba_problem, beta=0.1, num_realizations=3000, rng=5)
        large, _ = run_sampling_framework(ba_problem, beta=0.9, num_realizations=3000, rng=5)
        assert len(large) >= len(small)


class TestRunRaf:
    def test_result_fields_consistent(self, ba_problem):
        result = run_raf(ba_problem, FAST_CONFIG, rng=7)
        assert result.size == len(result.invitation)
        assert result.num_type1 <= result.num_realizations
        assert result.cover_target <= result.covered_weight
        assert result.covered_weight <= result.num_type1
        assert result.pmax_estimate > 0
        assert result.elapsed_seconds > 0
        assert result.algorithm == "RAF"
        assert 0.0 < result.coverage_fraction <= 1.0

    def test_invitation_contains_target(self, ba_problem):
        result = run_raf(ba_problem, FAST_CONFIG, rng=8)
        assert ba_problem.target in result.invitation

    def test_reproducible_given_seed(self, ba_problem):
        first = run_raf(ba_problem, FAST_CONFIG, rng=9)
        second = run_raf(ba_problem, FAST_CONFIG, rng=9)
        assert first.invitation == second.invitation
        assert first.pmax_estimate == second.pmax_estimate

    def test_acceptance_probability_meets_target_fraction(self, ba_problem):
        """The headline guarantee: f(I*) >= (alpha - eps) * pmax, checked empirically."""
        result = run_raf(ba_problem, FAST_CONFIG, rng=10)
        graph = ba_problem.graph
        achieved = estimate_acceptance_probability(
            graph, ba_problem.source, ba_problem.target, result.invitation,
            num_samples=4000, rng=11,
        ).probability
        pmax = estimate_acceptance_probability(
            graph, ba_problem.source, ba_problem.target, graph.node_list(),
            num_samples=4000, rng=12,
        ).probability
        target_fraction = (ba_problem.alpha - FAST_CONFIG.epsilon) * pmax
        # Allow Monte Carlo slack: three standard deviations of the estimate.
        assert achieved >= target_fraction - 0.03

    def test_higher_alpha_gives_no_smaller_invitation(self, medium_ba_graph, rng):
        source, target = find_test_pair(medium_ba_graph, rng, min_distance=3)
        low = run_raf(
            ActiveFriendingProblem(medium_ba_graph, source, target, alpha=0.1),
            FAST_CONFIG, rng=13,
        )
        high = run_raf(
            ActiveFriendingProblem(medium_ba_graph, source, target, alpha=0.9),
            FAST_CONFIG, rng=13,
        )
        assert high.size >= low.size

    def test_size_bound_reported(self, ba_problem):
        result = run_raf(ba_problem, FAST_CONFIG, rng=14)
        assert result.approx_ratio_bound == pytest.approx(2.0 * result.num_type1**0.5)

    def test_default_config_used_when_none(self, chain_graph):
        problem = ActiveFriendingProblem(chain_graph, "s", "t", alpha=0.5)
        result = run_raf(problem, config=None, rng=15)
        assert result.invitation == frozenset({"b", "t"})

    def test_as_invitation_result(self, ba_problem):
        result = run_raf(ba_problem, FAST_CONFIG, rng=16)
        generic = result.as_invitation_result()
        assert generic.invitation == result.invitation
        assert generic.algorithm == "RAF"
        assert generic.metadata["num_type1"] == result.num_type1


class TestEstimatePmaxValidation:
    """max_samples/num_samples misuse raises instead of silently degrading,
    consistently with evaluate_invitation's require_positive_int guard."""

    def test_zero_max_samples_rejected(self, chain_graph):
        with pytest.raises(ValueError):
            estimate_pmax(chain_graph, "s", "t", max_samples=0, rng=1)

    def test_non_integer_max_samples_rejected(self, chain_graph):
        with pytest.raises(TypeError):
            estimate_pmax(chain_graph, "s", "t", max_samples=100.5, rng=1)

    def test_fixed_sample_estimator_rejects_zero_samples(self, chain_graph):
        from repro.diffusion.friending_process import estimate_pmax_fixed_samples
        from repro.experiments.harness import evaluate_invitation

        with pytest.raises(ValueError):
            estimate_pmax_fixed_samples(chain_graph, "s", "t", num_samples=0, rng=1)
        with pytest.raises(ValueError):
            evaluate_invitation(chain_graph, "s", "t", ["a"], num_samples=0, rng=1)


class TestRunRafPool:
    def test_pooled_run_is_deterministic_and_warm_equals_cold(self, ba_problem):
        from repro.diffusion.engine import create_engine
        from repro.pool import SamplePool

        # An external pool: the second identical query draws nothing new,
        # and returns exactly what the cold query returned.
        engine = create_engine(ba_problem.compiled, "python")
        shared = SamplePool(engine, seed=123)
        config = RAFConfig(
            sample_policy=SamplePolicy.FIXED, fixed_realizations=800,
            pmax_max_samples=30_000, epsilon=0.05,
        )
        cold = run_raf(ba_problem, config, rng=5, pool=shared)
        drawn = shared.stats().drawn_paths
        warm = run_raf(ba_problem, config, rng=5, pool=shared)
        assert warm.invitation == cold.invitation
        assert warm.pmax_estimate == cold.pmax_estimate
        assert shared.stats().drawn_paths == drawn
        # Pooled runs follow the pool's streams, not the caller's rng.
        other_seed = run_raf(ba_problem, config, rng=6, pool=shared)
        assert other_seed.invitation == cold.invitation
        assert other_seed.pmax_samples == cold.pmax_samples
        assert shared.stats().drawn_paths == drawn
        # A fresh pool with the same seed answers exactly as the warm one.
        fresh = run_raf(ba_problem, config, rng=5, pool=SamplePool(engine, seed=123))
        assert fresh.invitation == cold.invitation
        assert fresh.pmax_estimate == cold.pmax_estimate
