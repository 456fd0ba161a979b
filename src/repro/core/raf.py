"""The Realization-based Active Friending (RAF) algorithm (Algorithms 2-4).

The end-to-end pipeline of :func:`run_raf`:

1. Solve Equation System 1 for ``(ε0, ε1, β)``
   (:func:`repro.core.parameters.solve_parameters`).
2. Estimate ``pmax`` with the Dagum et al. stopping rule over the type
   indicator of reverse-sampled realizations (Alg. 2,
   :func:`estimate_pmax`).
3. Choose the realization count ``l`` according to the configured policy
   (Eq. 16 or a practical substitute).
4. Sample ``l`` backward traces, keep the type-1 ones, and solve the MSC
   instance with target ``⌈β·|B¹|⌉`` using the Chlamtáč subroutine
   (Alg. 3, :func:`run_sampling_framework`).

The defaults in :class:`RAFConfig` favour the practical settings justified
in Sec. IV-E of the paper (and discussed in DESIGN.md); the theory-faithful
settings remain available through the config knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.parameters import (
    ParameterCoupling,
    SamplePolicy,
    realization_count,
    solve_parameters,
)
from repro.core.problem import ActiveFriendingProblem
from repro.core.result import RAFResult
from repro.diffusion.engine import DrawPlan, SamplingEngine, require_engine_name, resolve_engine
from repro.estimation.stopping_rule import StoppingRuleExhausted, stopping_rule_estimate_batched
from repro.exceptions import AlgorithmError
from repro.graph.social_graph import SocialGraph
from repro.parallel.engine import (
    collect_type1,
    resolve_worker_count,
    sample_type1_indicators,
    shared_engine,
)
from repro.pool.sample_pool import STREAM_PMAX, STREAM_REALIZATIONS, SamplePool
from repro.setcover.hypergraph import SetSystem
from repro.setcover.msc import minimum_subset_cover
from repro.setcover.mpu import chlamtac_ratio_bound
from repro.types import NodeId
from repro.utils.rng import RandomSource, derive_rng, derive_seed, ensure_rng
from repro.utils.timing import Stopwatch
from repro.utils.validation import require, require_positive, require_positive_int

__all__ = ["RAFConfig", "PmaxEstimate", "estimate_pmax", "run_sampling_framework", "run_raf"]


@dataclass(frozen=True, slots=True)
class RAFConfig:
    """Tunable knobs of the RAF algorithm.

    Attributes
    ----------
    epsilon:
        The slack ``ε`` of Theorem 1 (must satisfy ``0 < ε < α``).
    confidence_n:
        The confidence parameter ``N``; the failure probability of the
        guarantees is ``2/N``.  The paper's experiments use ``N = 100000``.
    coupling:
        How the accuracy budget splits between ``ε0`` and ``ε1``
        (:class:`ParameterCoupling`); defaults to the numerically sensible
        BALANCED rule.
    sample_policy:
        How the realization count ``l`` is chosen (:class:`SamplePolicy`).
    fixed_realizations:
        The realization count used when ``sample_policy`` is FIXED.
    min_realizations, max_realizations:
        Clamp range for the PRACTICAL policy.
    pmax_epsilon:
        Relative error requested from the stopping-rule ``pmax`` estimate.
        ``None`` uses the solved ``ε0`` (theory-faithful but typically far
        too expensive); the default of 0.1 matches what the evaluation
        needs.
    pmax_max_samples:
        Cap on realizations spent estimating ``pmax``.  If the stopping
        rule does not terminate within the cap the estimate falls back to
        the plain sample mean over the consumed realizations (recorded in
        the result), and the run fails only if not a single type-1
        realization was seen.
    msc_solver:
        Which MSC solver to use (see :data:`repro.setcover.msc.MSC_SOLVERS`).
    engine:
        Name of the reverse-sampling backend used for every randomized step
        (``"python"``, ``"numpy"``, ``"numpy-alias"`` or ``"auto"``; see
        :mod:`repro.diffusion.engine`).  The default ``"python"`` engine is
        bit-compatible with pre-engine releases for a fixed seed.
    workers:
        Sampling worker processes (a positive integer or ``"auto"`` for the
        CPU count; see :mod:`repro.parallel.engine`).  ``None`` (default)
        keeps the historical single-stream path.  Any explicit count --
        including 1 -- selects the chunked deterministic fan-out, whose
        results are identical for every worker count under a fixed seed.
        The worker pool is the process's shared one
        (:func:`~repro.parallel.engine.shared_engine`): it is forked by the
        first run, reused by later runs on the same snapshot with the same
        engine and count, closed when a run needs another key, and torn
        down at exit.  A forked child never uses its parent's pool; it
        forks its own.
    pool:
        When true, the run draws every reverse sample through a shared
        :class:`~repro.pool.SamplePool` (seeded from the run's base
        generator via ``derive_seed(rng, "raf-pool")``), so repeated runs
        against the same pool -- e.g. query traffic for one (source,
        target) pair -- reuse cached samples instead of re-drawing them.
        Pooled runs are deterministic per seed and identical whether the
        pool is warm or cold, but follow the pool's labeled streams rather
        than the historical caller-rng stream (DESIGN.md §4).
    pool_budget:
        Optional cap on the total paths the pool keeps cached (least
        recently used keys are evicted first).
    """

    epsilon: float = 0.01
    confidence_n: float = 100_000.0
    coupling: ParameterCoupling | str = ParameterCoupling.BALANCED
    sample_policy: SamplePolicy | str = SamplePolicy.PRACTICAL
    fixed_realizations: int | None = None
    min_realizations: int = 1_000
    max_realizations: int = 50_000
    pmax_epsilon: float | None = 0.1
    pmax_max_samples: int = 500_000
    msc_solver: str = "chlamtac"
    engine: str = "python"
    workers: int | str | None = None
    pool: bool = False
    pool_budget: int | None = None

    def __post_init__(self) -> None:
        require_positive(self.epsilon, "epsilon")
        require_positive(self.confidence_n, "confidence_n")
        require_positive_int(self.pmax_max_samples, "pmax_max_samples")
        if self.pmax_epsilon is not None:
            require_positive(self.pmax_epsilon, "pmax_epsilon")
            require(self.pmax_epsilon <= 1.0, "pmax_epsilon must be at most 1")
        if self.fixed_realizations is not None:
            require_positive_int(self.fixed_realizations, "fixed_realizations")
        if self.pool_budget is not None:
            require_positive_int(self.pool_budget, "pool_budget")
        require_engine_name(self.engine)
        resolve_worker_count(self.workers)


@dataclass(frozen=True, slots=True)
class PmaxEstimate:
    """Outcome of the ``pmax`` estimation step (Alg. 2).

    ``method`` is ``"stopping-rule"`` when the Dagum et al. rule terminated
    within its sample cap and ``"sample-mean"`` when the capped fallback was
    used instead.
    """

    value: float
    num_samples: int
    method: str


def estimate_pmax(
    graph: SocialGraph,
    source: NodeId,
    target: NodeId,
    epsilon: float = 0.1,
    confidence_n: float = 100_000.0,
    max_samples: int = 500_000,
    rng: RandomSource = None,
    engine: "SamplingEngine | str | None" = None,
    workers: int | str | None = None,
    pool: "SamplePool | None" = None,
) -> PmaxEstimate:
    """Estimate ``pmax`` as the probability that a random realization is type-1.

    Runs the stopping rule of Alg. 2 over the type indicator ``y(ĝ)`` of
    reverse-sampled realizations, drawn from the sampling ``engine`` in
    geometrically growing batches (the rule still stops at exactly the same
    sample as a one-at-a-time run over the same stream).  Each of the
    rule's requests draws its batches with one :class:`DrawPlan`, so they
    share kernel walks while every batch keeps its own stream.  A request
    may hold one batch past the one the rule halts in (the running mean
    predicted it was needed), so a generator passed as ``rng`` can advance
    past the samples the estimate consumed: a caller that keeps drawing
    from it afterwards should pass a derived generator instead, as
    :func:`run_raf` does.  ``workers``
    optionally fans the batches out over a worker pool
    (:func:`repro.parallel.engine.shared_engine`); the merged stream -- and
    so the estimate and the consumed sample count -- is identical for every
    worker count under a fixed seed.  If the rule does not terminate within
    ``max_samples`` (which happens when ``pmax`` is very small), the plain
    sample mean over the consumed realizations is returned instead; an
    :class:`AlgorithmError` is raised only if no type-1 realization was
    observed at all, since then there is no evidence the pair can ever be
    connected.

    With a ``pool`` (:class:`~repro.pool.SamplePool`), samples come from the
    pool's canonical per-key stream instead of the caller's ``rng``: the
    cached prefix *warm-starts* the stopping rule as one indicator batch (no
    re-draw for samples an earlier query -- a screen, a previous estimate --
    already paid for) and only the missing tail is drawn fresh.  In the
    capped case the sample mean covers exactly ``max_samples`` samples,
    however long the cache is.  Warm and cold pools return
    bit-identical estimates; the ``engine``/``workers``/``rng`` arguments
    are ignored in pool mode (the pool owns both engine and streams).
    """
    require_positive_int(max_samples, "max_samples")
    source_friends = graph.neighbor_set(source)

    if pool is not None:
        resolve_engine(graph, pool.engine)  # fail loudly on a foreign-graph pool
        reader = pool.reader(target, source_friends, stream=STREAM_PMAX)
        # The whole cached prefix as one indicator batch, read straight off
        # the pool's columns; the reader's cursor then sits at its end, so
        # take_type1_bytes continues the same stream with fresh draws.
        warm = reader.take_type1_bytes(reader.cached_remaining())

        def draw_batches(sizes: tuple) -> bytes:
            return reader.take_type1_bytes(sum(sizes))

    else:
        warm = None
        generator = ensure_rng(rng)
        resolved = shared_engine(graph, engine, workers)

        def draw_batches(sizes: tuple) -> bytes:
            # The rule's batches as one request: each batch keeps the stream
            # a call of its own would draw, and they share one kernel walk.
            # One 0/1 byte per realization: with a parallel engine the type
            # indicators are computed worker-side and only these bytes cross
            # the process boundary.
            plan = DrawPlan(tuple((size, generator) for size in sizes))
            return sample_type1_indicators(resolved, target, source_friends, plan.count, rng=plan)

    try:
        result = stopping_rule_estimate_batched(
            draw_batches,
            epsilon=epsilon,
            delta=1.0 / confidence_n,
            max_samples=max_samples,
            warm_start=warm,
        )
        estimate = PmaxEstimate(result.estimate, result.num_samples, "stopping-rule")
    except StoppingRuleExhausted as exhausted:
        if exhausted.total == 0:
            raise AlgorithmError(
                f"no type-1 realization observed in {exhausted.num_samples} samples; "
                "pmax for this (source, target) pair appears to be (near) zero"
            ) from None
        estimate = PmaxEstimate(
            exhausted.total / exhausted.num_samples, exhausted.num_samples, "sample-mean"
        )
    if pool is not None:
        # The rule read whole batches (the cached prefix, the last draw) but
        # consumed only num_samples: the rest stays unserved.
        reader.rewind(estimate.num_samples)
    return estimate


def run_sampling_framework(
    problem: ActiveFriendingProblem,
    beta: float,
    num_realizations: int,
    msc_solver: str = "chlamtac",
    rng: RandomSource = None,
    engine: "SamplingEngine | str | None" = None,
    workers: int | str | None = None,
    pool: "SamplePool | None" = None,
) -> tuple[frozenset, dict]:
    """Algorithm 3: sample realizations and cover a ``β`` fraction of them.

    The ``l`` backward traces are drawn from the sampling ``engine`` in
    bounded batches over the problem's compiled graph (``workers`` fans the
    batches over a worker pool without changing the sampled realizations);
    only the type-1 traces are retained for the MSC instance.  Returns the
    invitation set together with a diagnostics dict holding the sampled
    counts (``num_type1``, ``cover_target``, ``covered_weight``).

    With a ``pool``, the ``l`` traces are the first ``l`` samples of the
    pool's realization stream for this (target, N_s) key -- cached traces
    are reused, only the missing tail is drawn, and the sampled set is the
    same whether the pool is warm or cold (``engine``/``workers``/``rng``
    are ignored in pool mode).

    Raises
    ------
    AlgorithmError
        If no type-1 realization was sampled (the MSC instance would be
        empty); increase ``num_realizations`` or check that the pair is
        connectable at all.
    """
    require_positive(beta, "beta")
    require(beta <= 1.0, "beta must be at most 1")
    require_positive_int(num_realizations, "num_realizations")
    generator = ensure_rng(rng)
    source_friends = problem.source_friends

    # The type-1 traces arrive as counted distinct node sets (DESIGN.md
    # §6.5): the multiset B¹ without one object per trace.
    if pool is not None:
        resolve_engine(problem.compiled, pool.engine)
        members, weights = pool.distinct_type1(
            problem.target, source_friends, num_realizations, stream=STREAM_REALIZATIONS
        )
    else:
        resolved = shared_engine(problem.compiled, engine, workers)
        members, weights = collect_type1(
            resolved, problem.target, source_friends, num_realizations, rng=generator
        )
    num_type1 = sum(weights)
    if num_type1 == 0:
        raise AlgorithmError(
            f"none of the {num_realizations} sampled realizations was type-1; "
            "the target appears unreachable from the initiator's circle"
        )

    system = SetSystem(members, weights)
    cover_target = max(1, math.ceil(beta * num_type1))  # ⌈β·|B¹_l|⌉
    cover = minimum_subset_cover(system, cover_target, solver=msc_solver)
    diagnostics = {
        "num_realizations": num_realizations,
        "num_type1": num_type1,
        "cover_target": cover_target,
        "covered_weight": cover.covered_weight,
        "msc_solver": cover.solver,
    }
    return cover.cover, diagnostics


def run_raf(
    problem: ActiveFriendingProblem,
    config: RAFConfig | None = None,
    rng: RandomSource = None,
    pool: "SamplePool | None" = None,
    service=None,
) -> RAFResult:
    """Algorithm 4: the full RAF pipeline.

    Parameters
    ----------
    problem:
        The Minimum Active Friending instance (graph, initiator, target,
        ``α``).
    config:
        Algorithm knobs; ``None`` uses the practical defaults.
    rng:
        Seed or generator; the pmax-estimation and sampling steps receive
        independent streams derived from it.
    pool:
        Optional shared :class:`~repro.pool.SamplePool` serving this run's
        reverse samples.  Passing a long-lived pool across calls is how a
        query server amortizes sampling over repeated (source, target)
        traffic; with ``pool=None`` and ``config.pool`` set, a run-private
        pool is created (seeded via ``derive_seed(rng, "raf-pool")``).
    service:
        Optional :class:`~repro.service.QueryService` execution backend
        (mutually exclusive with ``pool``).  The run draws every reverse
        sample from the service's shared pool, and the pmax step is
        submitted *through* the service, so concurrent runs for the same
        pair coalesce onto one stopping-rule execution.  Results are
        byte-identical to a run against a standalone pool with the
        service's seed; ``config.engine``/``config.workers``/``config.pool``
        are ignored (the service owns the engine).

    Returns
    -------
    RAFResult
        The invitation set together with all intermediate quantities needed
        by the evaluation (``p*max``, ``l``, ``|B¹|``, coverage, the solved
        parameters and the ``2√|B¹|`` bound of Lemma 5).
    """
    config = config or RAFConfig()
    if service is not None and pool is not None:
        raise AlgorithmError(
            "pass either a pool or a service, not both: a service brings its own pool"
        )
    if service is not None and service.graph is not problem.graph:
        raise AlgorithmError(
            "the service was built on a different graph than this problem; "
            "every query a service answers runs against its own graph"
        )
    base_rng = ensure_rng(rng)
    pmax_rng = derive_rng(base_rng, "raf-pmax")
    sampling_rng = derive_rng(base_rng, "raf-sampling")

    stopwatch = Stopwatch().start()

    # One engine over one compiled snapshot drives every randomized step;
    # with config.workers set, the process's shared worker pool drains all
    # of them and stays warm for the next run on this snapshot.  A service
    # supplies (and keeps owning) both the engine and the pool.
    if service is not None:
        pool = service.pool
        engine = pool.engine
    else:
        engine = shared_engine(problem.compiled, config.engine, config.workers)
        if pool is None and config.pool:
            pool = SamplePool(
                engine, seed=derive_seed(base_rng, "raf-pool"), budget=config.pool_budget
            )

    # Step 1: parameters (Eq. 17 / Equation System 1).
    parameters = solve_parameters(
        alpha=problem.alpha,
        epsilon=config.epsilon,
        num_nodes=problem.num_nodes,
        coupling=config.coupling,
    )

    # Step 2: estimate pmax (Alg. 2).  Submitted through the service
    # when one is given, so identical concurrent runs coalesce.
    pmax_epsilon = (
        config.pmax_epsilon if config.pmax_epsilon is not None else parameters.epsilon_zero
    )
    if service is not None:
        pmax = service.estimate_pmax(
            problem.source,
            problem.target,
            epsilon=pmax_epsilon,
            confidence_n=config.confidence_n,
            max_samples=config.pmax_max_samples,
        )
    else:
        pmax = estimate_pmax(
            problem.graph,
            problem.source,
            problem.target,
            epsilon=pmax_epsilon,
            confidence_n=config.confidence_n,
            max_samples=config.pmax_max_samples,
            rng=pmax_rng,
            engine=engine,
            pool=pool,
        )

    # Step 3: choose the realization count l.
    num_realizations = realization_count(
        parameters,
        pmax_estimate=pmax.value,
        confidence_n=config.confidence_n,
        policy=config.sample_policy,
        fixed=config.fixed_realizations,
        min_realizations=config.min_realizations,
        max_realizations=config.max_realizations,
    )

    # Step 4: sampling framework + MSC (Alg. 3).  A service's pool is
    # shared with concurrent query executions, so it is consumed under
    # the service's execution lock.
    if service is not None:
        with service.locked_pool() as locked:
            invitation, diagnostics = run_sampling_framework(
                problem,
                beta=parameters.beta,
                num_realizations=num_realizations,
                msc_solver=config.msc_solver,
                rng=sampling_rng,
                engine=engine,
                pool=locked,
            )
    else:
        invitation, diagnostics = run_sampling_framework(
            problem,
            beta=parameters.beta,
            num_realizations=num_realizations,
            msc_solver=config.msc_solver,
            rng=sampling_rng,
            engine=engine,
            pool=pool,
        )

    elapsed = stopwatch.stop()
    return RAFResult(
        invitation=invitation,
        pmax_estimate=pmax.value,
        pmax_samples=pmax.num_samples,
        num_realizations=diagnostics["num_realizations"],
        num_type1=diagnostics["num_type1"],
        cover_target=diagnostics["cover_target"],
        covered_weight=diagnostics["covered_weight"],
        parameters=parameters,
        approx_ratio_bound=chlamtac_ratio_bound(max(diagnostics["num_type1"], 1)),
        msc_solver=diagnostics["msc_solver"],
        elapsed_seconds=elapsed,
    )
