"""Shared helpers for the experiment runners."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.problem import ActiveFriendingProblem
from repro.diffusion.engine import SamplingEngine
from repro.diffusion.friending_process import estimate_acceptance_probability
from repro.graph.social_graph import SocialGraph
from repro.pool.sample_pool import SamplePool
from repro.types import NodeId
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import require_positive_int

__all__ = ["evaluate_invitation", "growth_curve"]


def evaluate_invitation(
    graph: SocialGraph,
    source: NodeId,
    target: NodeId,
    invitation: Iterable[NodeId],
    num_samples: int = 400,
    rng: RandomSource = None,
    engine: "SamplingEngine | str | None" = None,
    workers: int | str | None = None,
    pool: "SamplePool | None" = None,
) -> float:
    """Monte Carlo estimate of ``f(invitation)`` used throughout the harness.

    ``engine=None`` evaluates by forward Process-1 simulation (the paper's
    protocol, independent of the sampler being evaluated); passing a
    sampling engine (instance or backend name) switches to the covered-trace
    estimator of Lemma 2, whose batches ``workers`` optionally fans over a
    worker pool.  A ``pool`` (:class:`~repro.pool.SamplePool`) serves the
    Lemma-2 traces from its cached evaluation stream, so scoring many
    candidate invitations for one pair samples the paths once.
    """
    require_positive_int(num_samples, "num_samples")
    estimate = estimate_acceptance_probability(
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
    return estimate.probability


def growth_curve(
    problem: ActiveFriendingProblem,
    ranking: Sequence[NodeId],
    target_probability: float,
    num_samples: int = 400,
    size_step: int | None = None,
    max_size: int | None = None,
    rng: RandomSource = None,
    engine: "SamplingEngine | str | None" = None,
    workers: int | str | None = None,
    pool: "SamplePool | None" = None,
) -> list[tuple[int, float]]:
    """Grow a ranked invitation set until it matches a target probability.

    Used by the Fig. 4 / Fig. 5 comparisons: the baseline's ranking is
    consumed prefix by prefix, estimating ``f(prefix)`` at each step, until
    the estimated probability reaches ``target_probability`` or the ranking
    is exhausted.  Returns the ``(size, probability)`` trajectory, including
    the final point.

    ``size_step`` controls the growth granularity (default: roughly 20
    evaluation points across the full ranking, at least 1), which keeps the
    number of expensive Monte Carlo evaluations bounded on large rankings.

    A ``pool`` makes the whole trajectory reuse one cached evaluation
    stream: every prefix is scored against the *same* traces (common random
    numbers -- the curve is monotone in the prefix by construction), and
    only the first evaluation pays the sampling cost.
    """
    require_positive_int(num_samples, "num_samples")
    generator = ensure_rng(rng)
    limit = len(ranking) if max_size is None else min(max_size, len(ranking))
    if limit == 0:
        return []
    if size_step is None:
        size_step = max(1, limit // 20)
    require_positive_int(size_step, "size_step")

    trajectory: list[tuple[int, float]] = []
    size = 0
    while size < limit:
        size = min(size + size_step, limit)
        prefix = frozenset(ranking[:size])
        probability = evaluate_invitation(
            problem.graph,
            problem.source,
            problem.target,
            prefix,
            num_samples=num_samples,
            rng=generator,
            engine=engine,
            workers=workers,
            pool=pool,
        )
        trajectory.append((size, probability))
        if probability >= target_probability:
            break
    return trajectory
