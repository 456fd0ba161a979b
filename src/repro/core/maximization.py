"""The maximum active friending variant (extension).

The paper studies the *minimization* problem (smallest invitation set
reaching ``α·pmax``).  The prior line of work (Yang et al. KDD'13, Yuan et
al.) studies the dual *maximization* problem: given an invitation budget
``k``, maximize the acceptance probability.  The realization machinery built
for RAF solves this variant almost for free -- sample backward traces,
then choose at most ``k`` nodes covering as much trace weight as possible
(:mod:`repro.setcover.budgeted`) -- so the library ships it as an
extension.  It is used by the extension benchmark and provides a RIS-style
counterpart to the simulation-greedy baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.result import InvitationResult
from repro.diffusion.engine import SamplingEngine, resolve_engine
from repro.exceptions import AlgorithmError, ProblemDefinitionError
from repro.graph.social_graph import SocialGraph
from repro.parallel.engine import collect_type1, shared_engine
from repro.pool.sample_pool import STREAM_REALIZATIONS, SamplePool
from repro.setcover.budgeted import budgeted_trace_cover
from repro.setcover.hypergraph import SetSystem
from repro.types import NodeId
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import require_positive_int

__all__ = ["MaxFriendingResult", "maximize_acceptance_probability"]


@dataclass(frozen=True, slots=True)
class MaxFriendingResult:
    """Output of the budgeted (maximum) active friending solver.

    Attributes
    ----------
    invitation:
        The recommended invitation set (at most ``budget`` users).
    budget:
        The invitation budget that was given.
    num_realizations, num_type1:
        Sampling statistics of the run.
    covered_weight:
        How many sampled type-1 traces the invitation covers; the ratio
        ``covered_weight / num_type1`` estimates ``f(I)/pmax``.
    """

    invitation: frozenset
    budget: int
    num_realizations: int
    num_type1: int
    covered_weight: int

    @property
    def size(self) -> int:
        """Number of invited users."""
        return len(self.invitation)

    @property
    def estimated_fraction_of_pmax(self) -> float:
        """Sample estimate of the achieved fraction of ``pmax``."""
        if self.num_type1 == 0:
            return 0.0
        return self.covered_weight / self.num_type1

    def as_invitation_result(self) -> InvitationResult:
        """Downcast to the generic result shape used by the baselines."""
        return InvitationResult(
            invitation=self.invitation,
            algorithm="MaxRAF",
            metadata={
                "budget": self.budget,
                "num_realizations": self.num_realizations,
                "num_type1": self.num_type1,
                "covered_weight": self.covered_weight,
                "estimated_fraction_of_pmax": self.estimated_fraction_of_pmax,
            },
        )


def maximize_acceptance_probability(
    graph: SocialGraph,
    source: NodeId,
    target: NodeId,
    budget: int,
    num_realizations: int = 5000,
    rng: RandomSource = None,
    engine: "SamplingEngine | str | None" = None,
    workers: int | str | None = None,
    pool: "SamplePool | None" = None,
) -> MaxFriendingResult:
    """Choose at most ``budget`` users to invite so the target is most likely to accept.

    Samples ``num_realizations`` backward traces (exactly as RAF does --
    ``workers`` fans them over a pool without changing the seeded result)
    and greedily covers as much trace weight as the budget allows.  With a
    ``pool`` (:class:`~repro.pool.SamplePool`) the traces are the pool's
    canonical realization stream for this (target, N_s) key: evaluating
    several budgets against one pool re-draws nothing, and the result is
    identical whether the pool is warm or cold
    (``engine``/``workers``/``rng`` are ignored in pool mode).

    Raises
    ------
    ProblemDefinitionError
        If the pair is invalid (same user, already friends, unknown users,
        or unnormalized weights).
    AlgorithmError
        If no type-1 trace was sampled (the pair looks unreachable).
    """
    require_positive_int(budget, "budget")
    require_positive_int(num_realizations, "num_realizations")
    if not graph.has_node(source) or not graph.has_node(target):
        raise ProblemDefinitionError("both users must be members of the network")
    if source == target:
        raise ProblemDefinitionError("the initiator and the target must be distinct users")
    if graph.has_edge(source, target):
        raise ProblemDefinitionError("the users are already friends")
    if not graph.is_normalized():
        raise ProblemDefinitionError(
            "the graph's familiarity weights are not normalized; apply a weight scheme first"
        )

    source_friends = graph.neighbor_set(source)
    if pool is not None:
        resolve_engine(graph, pool.engine)
        members, weights = pool.distinct_type1(
            target, source_friends, num_realizations, stream=STREAM_REALIZATIONS
        )
    else:
        resolved = shared_engine(graph, engine, workers)
        members, weights = collect_type1(
            resolved, target, source_friends, num_realizations, rng=ensure_rng(rng)
        )
    num_type1 = sum(weights)
    if num_type1 == 0:
        raise AlgorithmError(
            f"none of the {num_realizations} sampled realizations was type-1; "
            "the target appears unreachable from the initiator's circle"
        )

    system = SetSystem(members, weights)
    cover = budgeted_trace_cover(system, budget)
    return MaxFriendingResult(
        invitation=cover.cover,
        budget=budget,
        num_realizations=num_realizations,
        num_type1=num_type1,
        covered_weight=cover.covered_weight,
    )
