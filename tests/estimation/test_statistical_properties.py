"""Property-based statistical tests of the stopping-rule pmax estimator.

These tests guard the estimator's *accuracy contract* -- Lemma 3's (ε, δ)
guarantee -- rather than its plumbing: on graph families whose ``pmax`` is
known in closed form, the estimate must land within relative error ε of
the analytic value, for every available engine and with the sample pool on
and off (and the pooled estimate must be bit-identical to the pool-free
one, since both consume the same canonical stream).

Two analytic families are used (degree-normalized weights, so reverse
walks never die in a stop-probability tail):

* **chain** ``s - v1 - ... - vk - t``: the walk from ``t`` must take the
  "toward s" branch at each of ``v_k .. v_2`` (probability 1/2 each, the
  other branch closes a cycle), so ``pmax = 2^-(k-1)``.
* **decoy star** ``s - v1 - hub - t`` with ``d`` leaf decoys on the hub:
  from the hub the walk picks ``v1`` (type-1), ``t`` (cycle) or a decoy
  (dead end: the decoy's only friend is the hub, already traced), all
  uniformly, so ``pmax = 1/(d+2)``.

Everything is seeded and hypothesis runs derandomized, so the δ failure
probability cannot flake CI: a passing example stays passing.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.raf import estimate_pmax
from repro.diffusion.engine import ENGINE_NAMES, create_engine
from repro.graph.social_graph import SocialGraph
from repro.graph.weights import apply_degree_normalized_weights
from repro.pool import SamplePool

#: Accuracy / confidence requested from the stopping rule in every example.
EPSILON = 0.25
CONFIDENCE_N = 1_000.0  # delta = 1e-3
MAX_SAMPLES = 200_000

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def chain_instance(length: int) -> tuple[SocialGraph, int, int, float]:
    """``s - v1 - ... - v_length - t`` with analytic ``pmax = 2^-(length-1)``."""
    nodes = list(range(length + 2))  # 0 = s, 1..length = v1..vk, length+1 = t
    graph = SocialGraph.from_edges(zip(nodes, nodes[1:]))
    apply_degree_normalized_weights(graph)
    return graph, 0, length + 1, 0.5 ** (length - 1)


def decoy_star_instance(decoys: int) -> tuple[SocialGraph, int, int, float]:
    """``s - v1 - hub - t`` plus ``decoys`` leaves on the hub; ``pmax = 1/(decoys+2)``."""
    source, v1, hub, target = 0, 1, 2, 3
    edges = [(source, v1), (v1, hub), (hub, target)]
    edges += [(hub, 4 + index) for index in range(decoys)]
    graph = SocialGraph.from_edges(edges)
    apply_degree_normalized_weights(graph)
    return graph, source, target, 1.0 / (decoys + 2)


def assert_guarantee(graph, source, target, pmax, seed, engine_name):
    engine = create_engine(graph, engine_name)
    plain = estimate_pmax(
        graph,
        source,
        target,
        epsilon=EPSILON,
        confidence_n=CONFIDENCE_N,
        max_samples=MAX_SAMPLES,
        pool=SamplePool(engine, seed=seed, reuse=False),
    )
    pooled = estimate_pmax(
        graph,
        source,
        target,
        epsilon=EPSILON,
        confidence_n=CONFIDENCE_N,
        max_samples=MAX_SAMPLES,
        pool=SamplePool(engine, seed=seed),
    )
    # Pool on/off consume the same canonical stream: bit-identical output.
    assert pooled == plain
    assert plain.method == "stopping-rule"
    # The Lemma 3 (ε, δ) guarantee against the analytic pmax.
    assert abs(plain.value - pmax) <= EPSILON * pmax, (
        f"estimate {plain.value} misses pmax {pmax} by more than {EPSILON:.0%} "
        f"(seed {seed}, engine {engine_name})"
    )


@pytest.mark.parametrize("engine_name", [name for name in ENGINE_NAMES if name != "auto"])
class TestStoppingRuleGuarantee:
    @SETTINGS
    @given(length=st.integers(min_value=2, max_value=5), seed=st.integers(0, 2**32 - 1))
    def test_chain_pmax_within_epsilon(self, engine_name, length, seed):
        graph, source, target, pmax = chain_instance(length)
        assert_guarantee(graph, source, target, pmax, seed, engine_name)

    @SETTINGS
    @given(decoys=st.integers(min_value=0, max_value=8), seed=st.integers(0, 2**32 - 1))
    def test_decoy_star_pmax_within_epsilon(self, engine_name, decoys, seed):
        graph, source, target, pmax = decoy_star_instance(decoys)
        assert_guarantee(graph, source, target, pmax, seed, engine_name)

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_caller_rng_stream_agrees_with_pool_mode_accuracy(self, engine_name, seed):
        """The historical (pool-free, caller-rng) path meets the guarantee too."""
        graph, source, target, pmax = chain_instance(3)
        estimate = estimate_pmax(
            graph,
            source,
            target,
            epsilon=EPSILON,
            confidence_n=CONFIDENCE_N,
            max_samples=MAX_SAMPLES,
            rng=seed,
            engine=engine_name,
        )
        assert abs(estimate.value - pmax) <= EPSILON * pmax


class TestWarmStartEquivalence:
    """A warm pool must not change what the stopping rule returns."""

    @SETTINGS
    @given(
        warm=st.integers(min_value=0, max_value=5000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_warm_prefix_is_bit_identical_to_cold(self, warm, seed):
        graph, source, target, _ = decoy_star_instance(3)
        engine = create_engine(graph, "python")
        cold = estimate_pmax(
            graph, source, target, epsilon=EPSILON, confidence_n=CONFIDENCE_N,
            max_samples=MAX_SAMPLES, pool=SamplePool(engine, seed=seed),
        )
        pool = SamplePool(engine, seed=seed)
        pool.paths(target, graph.neighbor_set(source), warm, stream="pmax")
        warm_result = estimate_pmax(
            graph, source, target, epsilon=EPSILON, confidence_n=CONFIDENCE_N,
            max_samples=MAX_SAMPLES, pool=pool,
        )
        assert warm_result == cold
