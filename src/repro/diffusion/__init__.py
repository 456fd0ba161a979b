"""Friending-process machinery: the LT model, realizations, reverse sampling.

This package implements the stochastic substrate of the paper:

* Process 1 -- the linear-threshold friending process driven by random
  thresholds (:mod:`repro.diffusion.threshold_model`), plus Monte Carlo
  estimation of the acceptance probability ``f(I)``
  (:mod:`repro.diffusion.friending_process`).
* Definition 1 / Process 2 -- realizations, the live-edge derandomization of
  the process (:mod:`repro.diffusion.realization`).
* Algorithm 1 -- the backward trace ``t(g)`` and its lazy, reverse-sampling
  implementation (:mod:`repro.diffusion.reverse_sampling`), the workhorse of
  the RAF algorithm.
* The batch sampling engines (:mod:`repro.diffusion.engine`) that run the
  reverse walks on the compiled CSR snapshot -- a stdlib bisect-walk
  backend plus numpy-vectorized ones, selected by name -- and the columnar
  :class:`~repro.diffusion.path_batch.PathBatch` representation
  (:mod:`repro.diffusion.path_batch`) every backend emits.
* An independent-cascade variant (:mod:`repro.diffusion.cascade_model`) used
  for the discussion of the Yang et al. line of work (extension; not needed
  by RAF itself).
"""

from repro.diffusion.path_batch import PathBatch, PathStore
from repro.diffusion.engine import (
    ENGINE_NAMES,
    NumpyAliasEngine,
    NumpyEngine,
    PythonEngine,
    SamplingEngine,
    create_engine,
    default_engine,
)
from repro.diffusion.threshold_model import (
    FriendingOutcome,
    run_threshold_process,
    sample_thresholds,
    simulate_friending,
)
from repro.diffusion.friending_process import (
    AcceptanceEstimate,
    estimate_acceptance_probability,
    estimate_pmax_fixed_samples,
)
from repro.diffusion.realization import (
    Realization,
    forward_process,
    sample_realization,
    trace_target_path,
)
from repro.diffusion.reverse_sampling import TargetPath, sample_target_path, sample_target_paths
from repro.diffusion.cascade_model import simulate_cascade_friending, estimate_cascade_probability

__all__ = [
    "FriendingOutcome",
    "simulate_friending",
    "run_threshold_process",
    "sample_thresholds",
    "AcceptanceEstimate",
    "estimate_acceptance_probability",
    "estimate_pmax_fixed_samples",
    "Realization",
    "sample_realization",
    "forward_process",
    "trace_target_path",
    "TargetPath",
    "PathBatch",
    "PathStore",
    "sample_target_path",
    "sample_target_paths",
    "SamplingEngine",
    "PythonEngine",
    "NumpyAliasEngine",
    "NumpyEngine",
    "ENGINE_NAMES",
    "create_engine",
    "default_engine",
    "simulate_cascade_friending",
    "estimate_cascade_probability",
]
