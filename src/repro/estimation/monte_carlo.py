"""Plain fixed-budget Monte Carlo estimation.

Used by the experiment harness wherever a simple mean over a fixed number
of simulations suffices (estimating ``f(I)`` of a candidate invitation set,
screening (s, t) pairs, ...).  The adaptive, accuracy-guaranteed estimator
used inside RAF is in :mod:`repro.estimation.stopping_rule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import require_positive_int

__all__ = [
    "MonteCarloResult",
    "indicator_batch_sum",
    "monte_carlo_mean",
    "monte_carlo_mean_batched",
]


def indicator_batch_sum(values) -> int | None:
    """Exact integer sum of a 0/1 indicator byte batch, else ``None``.

    The engines' columnar reductions hand :func:`monte_carlo_mean_batched`
    ``bytes`` of 0/1 type/coverage indicators; for those, integer summation
    is exact, so a whole batch can be folded at once with a result
    identical to per-element float folding.  Returns ``None`` for anything
    that is not such a batch (non-bytes, or bytes with values outside
    {0, 1}), which the caller then folds per element.  (The stopping rule
    folds every batch with its own vectorized step and does not use this.)
    """
    if isinstance(values, (bytes, bytearray)) and (not values or max(values) <= 1):
        return sum(values)
    return None


@dataclass(frozen=True, slots=True)
class MonteCarloResult:
    """The outcome of a fixed-budget Monte Carlo estimation.

    Attributes
    ----------
    mean:
        The sample mean.
    num_samples:
        Number of draws used.
    variance:
        The (biased, population-style) sample variance; 0 for a single draw.
    """

    mean: float
    num_samples: int
    variance: float

    @property
    def std_error(self) -> float:
        """Standard error of the mean."""
        if self.num_samples == 0:
            return float("inf")
        return math.sqrt(self.variance / self.num_samples)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation confidence interval around the mean."""
        half = z * self.std_error
        return (self.mean - half, self.mean + half)


def monte_carlo_mean(
    sampler: Callable[[], float],
    num_samples: int,
    rng: RandomSource = None,
) -> MonteCarloResult:
    """Estimate ``E[X]`` by averaging ``num_samples`` calls to ``sampler``.

    The ``rng`` argument is accepted for interface symmetry with the other
    estimators; samplers that need randomness should close over their own
    generator (typically derived from the same seed), since the sampler
    signature takes no arguments.
    """
    require_positive_int(num_samples, "num_samples")
    ensure_rng(rng)  # validates the argument even though it is unused here
    total = 0.0
    total_sq = 0.0
    for _ in range(num_samples):
        value = float(sampler())
        total += value
        total_sq += value * value
    mean = total / num_samples
    variance = max(total_sq / num_samples - mean * mean, 0.0)
    return MonteCarloResult(mean=mean, num_samples=num_samples, variance=variance)


def monte_carlo_mean_batched(
    batch_sampler: Callable[[int], Sequence[float]],
    num_samples: int,
    batch_size: int = 8192,
) -> MonteCarloResult:
    """Estimate ``E[X]`` from a batched sampler, drawing in bounded chunks.

    The batched counterpart of :func:`monte_carlo_mean` for samplers that
    amortize per-call overhead over whole batches (the reverse-sampling
    engines).  Exactly ``num_samples`` draws are requested in total.
    """
    require_positive_int(num_samples, "num_samples")
    require_positive_int(batch_size, "batch_size")
    total = 0.0
    total_sq = 0.0
    remaining = num_samples
    while remaining > 0:
        size = min(batch_size, remaining)
        values = batch_sampler(size)
        batch_sum = indicator_batch_sum(values)
        if batch_sum is not None:
            # Indicator batch: v² == v, so both sums are the same integer.
            total += batch_sum
            total_sq += batch_sum
        else:
            for value in values:
                value = float(value)
                total += value
                total_sq += value * value
        remaining -= size
    mean = total / num_samples
    variance = max(total_sq / num_samples - mean * mean, 0.0)
    return MonteCarloResult(mean=mean, num_samples=num_samples, variance=variance)
