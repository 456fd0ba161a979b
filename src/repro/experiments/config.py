"""Configuration shared by the experiment runners.

The paper's full protocol (500 pairs per dataset, graphs up to 1.1M nodes,
ε = 0.01, N = 100000) takes hours on a server; the defaults here are scaled
down so the complete benchmark suite reproduces every figure's *shape* on a
laptop in minutes.  Every knob is exposed, so the full-scale protocol is a
configuration change, not a code change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.parameters import SamplePolicy
from repro.core.raf import RAFConfig
from repro.diffusion.engine import require_engine_name
from repro.exceptions import ExperimentError
from repro.parallel.engine import resolve_worker_count
from repro.utils.validation import require, require_positive, require_positive_int

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the Sec. IV experiment protocol.

    Attributes
    ----------
    num_pairs:
        Number of (initiator, target) pairs per dataset (paper: 500).
    pmax_threshold:
        Pairs whose estimated ``pmax`` is below this are discarded
        (paper: 0.01).
    pmax_ceiling:
        Pairs above this ``pmax`` are also discarded.  The paper's large
        sparse graphs rarely produce near-certain pairs; on the scaled-down
        stand-ins a ceiling keeps the selected pairs in the same regime as
        the paper (distant, genuinely hard pairs) instead of neighbours-of-
        neighbours with ``pmax`` close to 1.
    min_distance:
        Minimum graph distance between initiator and target (2 means "not
        already friends"; 3 reproduces the paper's regime better).
    pair_screen_samples:
        Realizations used to screen each candidate pair's ``pmax``.
    eval_samples:
        Process-1 simulations used to estimate ``f(I)`` of a produced
        invitation set.
    alphas:
        The α sweep of the basic experiment (Fig. 3).
    raf_epsilon, confidence_n:
        The ``ε`` and ``N`` of the RAF guarantee (paper: 0.01 and 100000).
    realizations:
        Realization count ``l`` used by the RAF sampling framework (the
        FIXED policy; Sec. IV-E shows performance saturates well below the
        theoretical prescription).
    engine:
        Reverse-sampling backend name used by the RAF runs and the pair
        screens (``"python"``, ``"numpy"``, ``"numpy-alias"`` or ``"auto"``).
    workers:
        Sampling worker processes used by the RAF runs (a positive integer
        or ``"auto"``; ``None`` keeps the single-stream path).  Seeded
        results are identical for every explicit worker count.
    pool:
        When true, RAF runs draw their reverse samples through a shared
        :class:`~repro.pool.SamplePool` (see :class:`repro.core.raf.RAFConfig`),
        reusing cached samples across the runs of one experiment.
    pool_budget:
        Optional cap on the total paths such a pool keeps cached.
    seed:
        Base seed controlling the whole experiment.
    """

    num_pairs: int = 10
    pmax_threshold: float = 0.01
    pmax_ceiling: float = 0.5
    min_distance: int = 3
    pair_screen_samples: int = 400
    eval_samples: int = 400
    alphas: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    raf_epsilon: float = 0.01
    confidence_n: float = 100_000.0
    realizations: int = 4_000
    engine: str = "python"
    workers: int | str | None = None
    pool: bool = False
    pool_budget: int | None = None
    seed: int = 2019

    def __post_init__(self) -> None:
        require_positive_int(self.num_pairs, "num_pairs")
        require_positive(self.pmax_threshold, "pmax_threshold")
        require_positive(self.pmax_ceiling, "pmax_ceiling")
        require(
            self.pmax_threshold < self.pmax_ceiling,
            "pmax_threshold must be below pmax_ceiling",
        )
        require_positive_int(self.min_distance, "min_distance")
        require_positive_int(self.pair_screen_samples, "pair_screen_samples")
        require_positive_int(self.eval_samples, "eval_samples")
        require_positive_int(self.realizations, "realizations")
        if not self.alphas:
            raise ExperimentError("at least one alpha value is required")
        for alpha in self.alphas:
            if not 0.0 < alpha <= 1.0:
                raise ExperimentError(f"alpha values must lie in (0, 1], got {alpha}")
        require_positive(self.raf_epsilon, "raf_epsilon")
        require_positive(self.confidence_n, "confidence_n")
        require_engine_name(self.engine)
        resolve_worker_count(self.workers)
        if self.pool_budget is not None:
            require_positive_int(self.pool_budget, "pool_budget")

    def raf_config(self, alpha: float | None = None) -> RAFConfig:
        """Build the :class:`RAFConfig` used for one RAF run.

        ``alpha`` is only needed to cap ``ε`` (which must stay below α).
        """
        smallest_alpha = min(self.alphas) if alpha is None else alpha
        epsilon = min(self.raf_epsilon, smallest_alpha / 2.0)
        return RAFConfig(
            epsilon=epsilon,
            confidence_n=self.confidence_n,
            sample_policy=SamplePolicy.FIXED,
            fixed_realizations=self.realizations,
            pmax_epsilon=0.1,
            pmax_max_samples=max(10 * self.realizations, 50_000),
            engine=self.engine,
            workers=self.workers,
            pool=self.pool,
            pool_budget=self.pool_budget,
        )
