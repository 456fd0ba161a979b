"""Monte Carlo estimation of the acceptance probability ``f(I)``.

Computing ``f(I)`` exactly is #P-hard (Sec. I of the paper), so the
evaluation pipeline estimates it by repeated simulation of Process 1.  The
estimator here is the straightforward fixed-sample-count mean; the
confidence-controlled stopping-rule estimator used inside the RAF algorithm
lives in :mod:`repro.estimation.stopping_rule`.

Both estimators additionally accept a reverse-sampling ``engine``: by
Lemmas 1-2, ``f(I)`` equals the probability that a random backward trace is
type-1 and covered by ``I``, so the same batched
:class:`~repro.diffusion.engine.SamplingEngine` that powers RAF can replace
the forward Process-1 simulation.  The reverse estimator costs a traced
path per sample instead of a full cascade, which is dramatically cheaper on
large graphs; it requires the (source, target) pair to be non-friends
(the Problem 1 setting under which Lemma 2 holds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.estimation.monte_carlo import monte_carlo_mean_batched
from repro.exceptions import EstimationError
from repro.graph.social_graph import SocialGraph
from repro.parallel.engine import sample_covered_indicators, shared_engine
from repro.types import NodeId
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import require_positive_int
from repro.diffusion.engine import SamplingEngine, resolve_engine
from repro.diffusion.threshold_model import simulate_friending

__all__ = [
    "AcceptanceEstimate",
    "estimate_acceptance_probability",
    "estimate_pmax_fixed_samples",
]


@dataclass(frozen=True, slots=True)
class AcceptanceEstimate:
    """A Monte Carlo estimate of an acceptance probability.

    Attributes
    ----------
    probability:
        The sample mean (fraction of successful simulations).
    num_samples:
        How many simulations were run.
    successes:
        How many of them ended with the target accepting.
    std_error:
        The standard error of the mean under the binomial model.
    """

    probability: float
    num_samples: int
    successes: int

    @property
    def std_error(self) -> float:
        """Standard error of the estimate (binomial)."""
        if self.num_samples == 0:
            return float("inf")
        p = self.probability
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.num_samples)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """A normal-approximation confidence interval clipped to [0, 1]."""
        half_width = z * self.std_error
        return (max(0.0, self.probability - half_width), min(1.0, self.probability + half_width))


def estimate_acceptance_probability(
    graph: SocialGraph,
    source: NodeId,
    target: NodeId,
    invitation: Iterable[NodeId],
    num_samples: int = 1000,
    rng: RandomSource = None,
    engine: "SamplingEngine | str | None" = None,
    workers: int | str | None = None,
    pool: "SamplePool | None" = None,
) -> AcceptanceEstimate:
    """Estimate ``f(I)`` over ``num_samples`` independent samples.

    With ``engine=None`` (the default) each sample is one forward simulation
    of Process 1.  With an engine (an instance or a name accepted by
    :func:`repro.diffusion.engine.create_engine`) each sample is one
    reverse-sampled backward trace and a success is a trace covered by the
    invitation (Lemma 2); the two estimators have the same mean (Lemma 1)
    but the reverse one only costs a traced path per sample.  ``workers``
    fans the reverse-sampled batches over a worker pool without changing
    the seeded result (see :mod:`repro.parallel.engine`); the forward
    Process-1 simulation is inherently sequential per sample and ignores it.

    With a ``pool`` (:class:`~repro.pool.SamplePool`), the traces are the
    first ``num_samples`` of the pool's evaluation stream for this
    (target, N_s) key: scoring many candidate invitations against one pool
    samples the paths once and re-applies only the (cheap) ``covered_by``
    check per candidate.  Pool mode implies the reverse estimator
    (``engine``/``workers``/``rng`` are ignored) and is bit-identical
    whether the pool is warm or cold.
    """
    require_positive_int(num_samples, "num_samples")
    invited = frozenset(invitation)
    if pool is not None:
        return _estimate_acceptance_pooled(graph, source, target, invited, num_samples, pool)
    generator = ensure_rng(rng)
    if engine is not None:
        return _estimate_acceptance_reverse(
            graph, source, target, invited, num_samples, generator, engine, workers
        )
    successes = 0
    for _ in range(num_samples):
        outcome = simulate_friending(graph, source, invited, target=target, rng=generator)
        if outcome.success:
            successes += 1
    return AcceptanceEstimate(
        probability=successes / num_samples,
        num_samples=num_samples,
        successes=successes,
    )


def _require_reverse_estimable(graph: SocialGraph, source: NodeId, target: NodeId) -> None:
    if graph.has_edge(source, target):
        raise EstimationError(
            "the reverse-sampling estimator of f(I) requires a non-friend "
            "(source, target) pair (Lemma 2 / Problem 1); use the forward "
            "Process-1 estimator (engine=None) for friend pairs"
        )


def _estimate_acceptance_pooled(
    graph: SocialGraph,
    source: NodeId,
    target: NodeId,
    invited: frozenset,
    num_samples: int,
    pool: "SamplePool",
) -> AcceptanceEstimate:
    """``f(I)`` as the covered-trace rate of the pool's evaluation stream."""
    # Imported here, not at module scope: repro.pool consumes the engine
    # protocol from this package, so a top-level import would be circular.
    from repro.pool.sample_pool import STREAM_EVAL

    _require_reverse_estimable(graph, source, target)
    resolve_engine(graph, pool.engine)
    indicators = pool.covered_indicators(
        target, graph.neighbor_set(source), num_samples, invited, stream=STREAM_EVAL
    )
    successes = sum(indicators)
    return AcceptanceEstimate(
        probability=successes / num_samples,
        num_samples=num_samples,
        successes=successes,
    )


def _estimate_acceptance_reverse(
    graph: SocialGraph,
    source: NodeId,
    target: NodeId,
    invited: frozenset,
    num_samples: int,
    generator,
    engine: "SamplingEngine | str",
    workers: int | str | None = None,
) -> AcceptanceEstimate:
    """``f(I)`` as the covered-trace rate of engine-batched reverse samples."""
    _require_reverse_estimable(graph, source, target)
    resolved = shared_engine(graph, engine, workers)
    source_friends = graph.neighbor_set(source)

    def draw_batch(size: int) -> bytes:
        # One 0/1 byte per trace; a parallel engine evaluates covered_by
        # worker-side so only the indicators cross the process boundary.
        return sample_covered_indicators(
            resolved, target, source_friends, size, invited, rng=generator
        )

    result = monte_carlo_mean_batched(draw_batch, num_samples)
    return AcceptanceEstimate(
        probability=result.mean,
        num_samples=result.num_samples,
        successes=round(result.mean * result.num_samples),
    )


def estimate_pmax_fixed_samples(
    graph: SocialGraph,
    source: NodeId,
    target: NodeId,
    num_samples: int = 1000,
    rng: RandomSource = None,
    engine: "SamplingEngine | str | None" = None,
    workers: int | str | None = None,
    pool: "SamplePool | None" = None,
) -> AcceptanceEstimate:
    """Estimate ``pmax = f(V)`` with a fixed sample count.

    This is the estimator the experiment harness uses for pair selection
    (pairs with ``pmax < 0.01`` are discarded, Sec. IV); the RAF algorithm
    itself uses the Dagum et al. stopping rule instead.  With an ``engine``
    the estimate is the type-1 rate of reverse samples (every type-1 trace
    is covered by the full invitation ``V``, Corollary 2).
    """
    invitation = frozenset(graph.nodes())
    return estimate_acceptance_probability(
        graph,
        source,
        target,
        invitation,
        num_samples=num_samples,
        rng=rng,
        engine=engine,
        workers=workers,
        pool=pool,
    )
