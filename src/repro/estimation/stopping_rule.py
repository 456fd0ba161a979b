"""The Dagum–Karp–Luby–Ross stopping-rule estimator (Alg. 2 / Lemma 3).

The paper estimates ``pmax = E[y(ĝ)]`` -- the probability that a random
realization is type-1 -- with the *stopping rule* of Dagum et al. (2000):
keep drawing i.i.d. samples ``X_i ∈ [0, 1]`` until their running sum
reaches the threshold

    Υ = 1 + 4 (e − 2) (1 + ε) ln(2/δ) / ε²,

then output ``Υ / i`` where ``i`` is the number of samples consumed.  The
output is within relative error ``ε`` of the true mean with probability at
least ``1 − δ``, using ``O(Υ / μ)`` samples in expectation.

Note on the paper's Alg. 2: it writes ``ln(2/N)`` where ``N`` is the
confidence parameter with failure probability ``1/N``; that expression is
negative for ``N > 2`` and is a typo for ``ln(2N) = ln(2/δ)``, which is
what Dagum et al. prescribe and what is implemented here (recorded in
DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import EstimationError
from repro.utils.validation import require, require_positive, require_positive_int

__all__ = [
    "StoppingRuleExhausted",
    "StoppingRuleResult",
    "stopping_rule_threshold",
    "stopping_rule_estimate",
    "stopping_rule_estimate_batched",
    "expected_sample_bound",
]

#: Euler's number minus 2, the constant appearing in the stopping rule.
_E_MINUS_2 = math.e - 2.0


@dataclass(frozen=True, slots=True)
class StoppingRuleResult:
    """Output of the stopping-rule estimator.

    Attributes
    ----------
    estimate:
        The ``(ε, δ)``-approximation of the mean.
    num_samples:
        How many samples the rule consumed.
    threshold:
        The stopping threshold Υ that was used.
    epsilon, delta:
        The requested accuracy and failure probability.
    """

    estimate: float
    num_samples: int
    threshold: float
    epsilon: float
    delta: float


class StoppingRuleExhausted(EstimationError):
    """The rule hit its ``max_samples`` cap before the threshold.

    ``num_samples`` is the number of samples consumed (the cap) and
    ``total`` their sum, so a caller can fall back to the plain sample
    mean ``total / num_samples`` without tallying the samples itself.
    """

    def __init__(self, num_samples: int, total: float, threshold: float) -> None:
        super().__init__(
            f"stopping rule did not terminate within {num_samples} samples "
            f"(accumulated {total:.2f} of threshold {threshold:.2f}); the mean being "
            "estimated is likely (near) zero"
        )
        self.num_samples = num_samples
        self.total = total


def stopping_rule_threshold(epsilon: float, delta: float) -> float:
    """Compute the stopping threshold Υ(ε, δ) = 1 + 4(e−2)(1+ε)ln(2/δ)/ε²."""
    require_positive(epsilon, "epsilon")
    require(epsilon <= 1.0, "epsilon must be at most 1")
    require(0.0 < delta < 1.0, "delta must lie in (0, 1)")
    return 1.0 + 4.0 * _E_MINUS_2 * (1.0 + epsilon) * math.log(2.0 / delta) / (epsilon**2)


def expected_sample_bound(epsilon: float, delta: float, mean: float) -> float:
    """The asymptotic sample-count bound ``l0`` of Lemma 3 (Eq. 6).

    ``l0 = (2 + ...)·ln(2/δ)... / (ε² · μ)`` -- written here exactly as the
    paper states it, with ``N = 1/δ``: the number of simulations is
    asymptotically ``(ε² + 4(e−2)(1+ε) ln(N/2)) / (ε² · pmax)``.
    """
    require_positive(epsilon, "epsilon")
    require(0.0 < delta < 1.0, "delta must lie in (0, 1)")
    require_positive(mean, "mean")
    capital_n = 1.0 / delta
    numerator = epsilon**2 + 4.0 * _E_MINUS_2 * (1.0 + epsilon) * math.log(max(capital_n / 2.0, 1.0 + 1e-12))
    return numerator / (epsilon**2 * mean)


def stopping_rule_estimate(
    sampler: Callable[[], float],
    epsilon: float,
    delta: float,
    max_samples: int | None = None,
) -> StoppingRuleResult:
    """Run the stopping rule on an i.i.d. ``[0, 1]``-valued sampler.

    Parameters
    ----------
    sampler:
        A zero-argument callable returning one sample in ``[0, 1]``.  For
        the paper's Alg. 2 this draws a random realization and returns its
        type indicator ``y(ĝ)``.
    epsilon:
        Target relative error (``0 < ε ≤ 1``).
    delta:
        Failure probability (the paper's ``1/N``).
    max_samples:
        Optional hard cap.  The stopping rule needs ``Θ(Υ/μ)`` samples, so
        a vanishing mean makes it run arbitrarily long; a cap turns that
        into a :class:`StoppingRuleExhausted` instead of a hang.  ``None``
        means no cap.

    Raises
    ------
    StoppingRuleExhausted
        If ``max_samples`` draws were consumed before the threshold was
        reached.
    EstimationError
        If a sample falls outside ``[0, 1]``.
    """
    threshold = stopping_rule_threshold(epsilon, delta)
    if max_samples is not None:
        require_positive_int(max_samples, "max_samples")
    total = 0.0
    count = 0
    while total < threshold:
        if max_samples is not None and count >= max_samples:
            raise StoppingRuleExhausted(count, total, threshold)
        value = float(sampler())
        if value < 0.0 or value > 1.0:
            raise EstimationError(f"stopping-rule samples must lie in [0, 1], got {value}")
        total += value
        count += 1
    return StoppingRuleResult(
        estimate=threshold / count,
        num_samples=count,
        threshold=threshold,
        epsilon=epsilon,
        delta=delta,
    )


#: Geometric draw schedule of :func:`stopping_rule_estimate_batched`: the
#: first batch size, its growth factor, and the largest batch.
_INITIAL_BATCH = 64
_BATCH_GROWTH = 2
_MAX_BATCH = 65536


def stopping_rule_estimate_batched(
    batch_sampler: Callable[[tuple[int, ...]], Sequence[float] | bytes],
    epsilon: float,
    delta: float,
    max_samples: int | None = None,
    warm_start: Sequence[float] | bytes | None = None,
) -> StoppingRuleResult:
    """Run the stopping rule on a *batched* sampler.

    Identical in output to :func:`stopping_rule_estimate` when the batched
    sampler draws from the same i.i.d. stream: samples are consumed in
    order and the rule stops at exactly the same sample index, so the
    estimate and ``num_samples`` match the one-at-a-time rule.  Batching
    exists so engine-backed samplers (which amortize per-call overhead over
    whole batches of reverse-sampled realizations) can drive Alg. 2: batch
    sizes grow geometrically from 64 up to 65536, and are clipped so no
    more than ``max_samples`` draws are requested in total.

    The rule owns the schedule and asks for several batches per request.
    Every sample is at most 1, so a batch cannot halt the rule while the
    batches before it sum to less than ``Υ − total``: a request holds all
    the batches it is certain to draw -- those that cannot reach
    ``Υ − total``, plus the next one.  Once the rule has samples it adds
    at most one more batch, when the running mean predicts that the
    certain ones fall short of ``Υ``.  So the rule halts in one of a
    request's last two batches and never draws more than one batch past
    the batch it halts in.

    Every request is folded in one vectorized step: ``np.add.accumulate``
    runs from the running total through the samples, which is the same
    left-to-right float sum as per-sample folding, and the rule halts at
    the first index whose running sum reaches the threshold.  Samples are
    checked against ``[0, 1]`` only up to and including that index;
    samples after the halt are never inspected.

    Parameters
    ----------
    batch_sampler:
        Callable mapping a tuple of batch sizes to their samples in
        ``[0, 1]``, concatenated in order: a float sequence or ``bytes``
        of 0/1 indicators.  An engine-backed sampler draws batch ``k``
        as the ``k``-th of successive draws from its stream (the batch
        boundaries may fix its seeds); a plain stream may ignore them.
    epsilon, delta, max_samples:
        As in :func:`stopping_rule_estimate`.
    warm_start:
        One already-materialized batch of leading samples of the *same*
        stream the batched sampler continues (e.g. the cached prefix of a
        :class:`~repro.pool.SamplePool` key).  It is folded first, clipped
        at ``max_samples``, and a warm-started run returns the same result
        as a cold run over the same stream: the rule stops at the same
        sample index either way; only the number of *fresh* draws differs.
        ``batch_sampler`` must yield the samples *after* the warm batch.

    Raises
    ------
    StoppingRuleExhausted
        If ``max_samples`` draws were consumed before the threshold was
        reached.
    EstimationError
        If a sample falls outside ``[0, 1]``.
    """
    threshold = stopping_rule_threshold(epsilon, delta)
    if max_samples is not None:
        require_positive_int(max_samples, "max_samples")
    total = 0.0
    count = 0

    def consume(values) -> bool:
        """Fold samples into the running sum; True when the rule halts."""
        nonlocal total, count
        if isinstance(values, (bytes, bytearray)):
            values = np.frombuffer(values, dtype=np.uint8)
        samples = np.asarray(values, dtype=np.float64)
        if not samples.size:
            return False
        sums = np.empty(samples.size + 1)
        sums[0] = total
        sums[1:] = samples
        np.add.accumulate(sums, out=sums)
        reached = sums[1:] >= threshold
        halt = int(reached.argmax())
        halted = bool(reached[halt])
        used = halt + 1 if halted else samples.size
        invalid = (samples[:used] < 0.0) | (samples[:used] > 1.0)
        if invalid.any():
            value = float(samples[int(invalid.argmax())])
            raise EstimationError(f"stopping-rule samples must lie in [0, 1], got {value}")
        total = float(sums[used])
        count += used
        return halted

    stopped = False
    if warm_start is not None:
        stopped = consume(warm_start if max_samples is None else warm_start[:max_samples])

    batch = _INITIAL_BATCH
    while not stopped:
        if max_samples is not None and count >= max_samples:
            raise StoppingRuleExhausted(count, total, threshold)
        room = math.inf if max_samples is None else max_samples - count
        sizes: list[int] = []
        planned = 0

        def plan_next() -> None:
            nonlocal batch, planned
            size = int(min(batch, room - planned))
            sizes.append(size)
            planned += size
            batch = min(batch * _BATCH_GROWTH, _MAX_BATCH)

        plan_next()
        while total + planned < threshold and planned < room:
            plan_next()  # the batches so far cannot halt the rule: this one is drawn
        if count and planned < room and total + total / count * planned < threshold:
            plan_next()  # the running mean predicts the certain batches fall short
        stopped = consume(batch_sampler(tuple(sizes)))
    return StoppingRuleResult(
        estimate=threshold / count,
        num_samples=count,
        threshold=threshold,
        epsilon=epsilon,
        delta=delta,
    )
