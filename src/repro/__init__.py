"""repro -- a reproduction of "An Approximation Algorithm for Active Friending
in Online Social Networks" (Tong, Wang, Li, Wu, Du; ICDCS 2019).

The library implements the full pipeline of the paper:

* a familiarity-weighted friendship-graph substrate (:mod:`repro.graph`),
* the linear-threshold friending process, its realization-based
  derandomization and reverse sampling (:mod:`repro.diffusion`),
* Monte Carlo estimation with the Dagum et al. stopping rule
  (:mod:`repro.estimation`),
* Minimum p-Union / Minimum Subset Cover solvers (:mod:`repro.setcover`),
* deterministic multi-process sampling fan-out (:mod:`repro.parallel`),
* shared reverse-sample pools with warm-start reuse (:mod:`repro.pool`),
* a concurrent query service with request coalescing over one shared pool
  (:mod:`repro.service`),
* the RAF algorithm and the ``Vmax`` special case (:mod:`repro.core`),
* the HD / SP / random / PageRank / greedy baselines
  (:mod:`repro.baselines`), and
* the experiment harness reproducing every table and figure of Sec. IV
  (:mod:`repro.experiments`).

Quickstart
----------

>>> from repro import (
...     load_dataset, ActiveFriendingProblem, RAFConfig, run_raf,
...     estimate_acceptance_probability,
... )
>>> graph = load_dataset("wiki", scale=0.05, rng=7)
>>> problem = ActiveFriendingProblem(graph, source=3, target=200, alpha=0.2)
>>> result = run_raf(problem, RAFConfig(max_realizations=5000), rng=7)
>>> 0 < result.size <= graph.num_nodes
True
"""

from repro.exceptions import (
    AlgorithmError,
    EstimationError,
    GraphError,
    ProblemDefinitionError,
    ReproError,
    SetCoverError,
)
from repro.graph import (
    CompiledGraph,
    SocialGraph,
    compile_graph,
    apply_degree_normalized_weights,
    apply_random_weights,
    apply_uniform_weights,
    barabasi_albert_graph,
    compute_stats,
    erdos_renyi_graph,
    load_dataset,
    read_snap_graph,
)
from repro.diffusion import (
    NumpyAliasEngine,
    NumpyEngine,
    PythonEngine,
    SamplingEngine,
    create_engine,
    estimate_acceptance_probability,
    sample_realization,
    sample_target_path,
    simulate_friending,
)
from repro.parallel import ParallelEngine, maybe_parallel
from repro.pool import PoolReader, PoolStats, SamplePool
from repro.service import (
    EvaluateQuery,
    MaximizeQuery,
    PmaxQuery,
    QueryService,
    ServiceMetrics,
)
from repro.core import (
    ActiveFriendingProblem,
    GuaranteeReport,
    InvitationResult,
    MaxFriendingResult,
    evaluate_guarantees,
    ParameterCoupling,
    RAFConfig,
    RAFParameters,
    RAFResult,
    SamplePolicy,
    compute_vmax,
    estimate_pmax,
    maximize_acceptance_probability,
    run_raf,
    solve_parameters,
)
from repro.baselines import (
    greedy_marginal_invitation,
    high_degree_invitation,
    pagerank_invitation,
    random_invitation,
    shortest_path_invitation,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "GraphError",
    "ProblemDefinitionError",
    "EstimationError",
    "SetCoverError",
    "AlgorithmError",
    # graph substrate
    "SocialGraph",
    "CompiledGraph",
    "compile_graph",
    "apply_degree_normalized_weights",
    "apply_uniform_weights",
    "apply_random_weights",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "load_dataset",
    "read_snap_graph",
    "compute_stats",
    # friending process
    "simulate_friending",
    "estimate_acceptance_probability",
    "sample_realization",
    "sample_target_path",
    "SamplingEngine",
    "PythonEngine",
    "NumpyAliasEngine",
    "NumpyEngine",
    "create_engine",
    "ParallelEngine",
    "maybe_parallel",
    "SamplePool",
    "PoolReader",
    "PoolStats",
    # query service
    "QueryService",
    "ServiceMetrics",
    "PmaxQuery",
    "EvaluateQuery",
    "MaximizeQuery",
    # core algorithm
    "ActiveFriendingProblem",
    "RAFConfig",
    "RAFResult",
    "RAFParameters",
    "ParameterCoupling",
    "SamplePolicy",
    "run_raf",
    "estimate_pmax",
    "solve_parameters",
    "compute_vmax",
    "maximize_acceptance_probability",
    "MaxFriendingResult",
    "evaluate_guarantees",
    "GuaranteeReport",
    "InvitationResult",
    # baselines
    "high_degree_invitation",
    "shortest_path_invitation",
    "random_invitation",
    "pagerank_invitation",
    "greedy_marginal_invitation",
]
