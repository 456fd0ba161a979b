"""Selecting (initiator, target) pairs for the experiments.

The paper randomly selects 500 pairs per dataset with ``pmax ≥ 0.01`` so
that the friending process is not hopeless.  The selection here follows the
same protocol, screening ``pmax`` with cheap reverse-sampling realizations,
and adds two practical filters (documented in DESIGN.md): a minimum graph
distance and a ``pmax`` ceiling, which keep the selected pairs in the same
"distant but reachable" regime as the paper when the stand-in graphs are
much smaller than the originals.
"""

from __future__ import annotations

from repro.diffusion.engine import SamplingEngine, resolve_engine
from repro.exceptions import ExperimentError
from repro.parallel.engine import sample_type1_indicators, shared_engine
from repro.pool.sample_pool import STREAM_PMAX, SamplePool
from repro.graph.social_graph import SocialGraph
from repro.graph.traversal import bfs_distances
from repro.types import PairSpec
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import require_positive, require_positive_int

__all__ = ["screen_pmax", "select_pairs"]


def screen_pmax(
    graph: SocialGraph,
    source,
    target,
    num_samples: int = 400,
    rng: RandomSource = None,
    engine: "SamplingEngine | str | None" = None,
    workers: int | str | None = None,
    pool: "SamplePool | None" = None,
) -> float:
    """Cheap ``pmax`` estimate: the fraction of type-1 reverse samples.

    By Corollary 2 the type indicator of a random realization is an
    unbiased estimator of ``pmax``, and a reverse sample costs only the
    traced path length, so this screen is far cheaper than simulating
    Process 1.  The samples are drawn as one engine batch, optionally
    fanned over ``workers`` processes (deterministic per seed for any
    worker count; see :mod:`repro.parallel.engine`).

    With a ``pool`` (:class:`~repro.pool.SamplePool`), the samples are the
    first ``num_samples`` of the pool's pmax stream for this (target, N_s)
    key: re-screening a pair -- or estimating its ``pmax`` properly later
    with :func:`repro.core.raf.estimate_pmax`, which shares the stream --
    reuses them instead of re-drawing (``engine``/``workers``/``rng`` are
    ignored in pool mode).
    """
    require_positive_int(num_samples, "num_samples")
    generator = ensure_rng(rng)
    source_friends = graph.neighbor_set(source)
    if pool is not None:
        resolve_engine(graph, pool.engine)
        hits = sum(pool.type1_indicators(target, source_friends, num_samples, stream=STREAM_PMAX))
        return hits / num_samples
    resolved = shared_engine(graph, engine, workers)
    hits = sum(sample_type1_indicators(resolved, target, source_friends, num_samples, rng=generator))
    return hits / num_samples


def select_pairs(
    graph: SocialGraph,
    num_pairs: int,
    pmax_threshold: float = 0.01,
    pmax_ceiling: float = 1.0,
    min_distance: int = 2,
    screen_samples: int = 400,
    rng: RandomSource = None,
    max_attempts: int | None = None,
    engine: "SamplingEngine | str | None" = None,
    workers: int | str | None = None,
    pool: "SamplePool | None" = None,
) -> list[PairSpec]:
    """Randomly select experiment pairs satisfying the screening criteria.

    Parameters
    ----------
    graph:
        The weighted friendship graph.
    num_pairs:
        How many pairs to return.
    pmax_threshold, pmax_ceiling:
        Accepted range of the screened ``pmax`` (inclusive lower bound,
        inclusive upper bound).
    min_distance:
        Minimum unweighted graph distance between the two users; at least 2
        (the pair must not already be friends).
    screen_samples:
        Reverse samples used for the ``pmax`` screen.
    max_attempts:
        Candidate pairs examined before giving up (default
        ``200 * num_pairs``).
    engine:
        Reverse-sampling backend (instance or name) used for the screens;
        ``None`` selects the default pure-Python engine.
    workers:
        Optional worker-process count fanning each screen's samples over a
        pool (screened pmax values are identical for any worker count
        under a fixed seed).
    pool:
        Optional :class:`~repro.pool.SamplePool` serving the screens from
        its canonical cached streams (see :func:`screen_pmax`); the pool's
        engine takes precedence over ``engine``/``workers`` for the
        screening draws, while candidate *selection* still consumes ``rng``.

    Raises
    ------
    ExperimentError
        If not enough qualifying pairs were found within ``max_attempts``.
    """
    require_positive_int(num_pairs, "num_pairs")
    require_positive(pmax_threshold, "pmax_threshold")
    require_positive_int(min_distance, "min_distance")
    if min_distance < 2:
        raise ExperimentError("min_distance must be at least 2 (non-friend pairs)")
    generator = ensure_rng(rng)
    resolved = shared_engine(graph, engine, workers)
    nodes = graph.node_list()
    if len(nodes) < 2:
        raise ExperimentError("the graph has fewer than two users")
    attempts_allowed = max_attempts if max_attempts is not None else 200 * num_pairs

    pairs: list[PairSpec] = []
    seen: set[tuple] = set()
    attempts = 0
    while len(pairs) < num_pairs and attempts < attempts_allowed:
        attempts += 1
        source, target = generator.sample(nodes, 2)
        key = (source, target)
        if key in seen:
            continue
        seen.add(key)
        if graph.has_edge(source, target):
            continue
        if graph.degree(source) == 0 or graph.degree(target) == 0:
            continue
        if min_distance > 2:
            distances = bfs_distances(graph, source)
            distance = distances.get(target)
            if distance is None or distance < min_distance:
                continue
        pmax = screen_pmax(
            graph, source, target, num_samples=screen_samples, rng=generator, engine=resolved,
            pool=pool,
        )
        if pmax < pmax_threshold or pmax > pmax_ceiling:
            continue
        pairs.append(PairSpec(source=source, target=target, pmax=pmax))

    if len(pairs) < num_pairs:
        raise ExperimentError(
            f"only {len(pairs)} of the requested {num_pairs} pairs satisfied the screening "
            f"criteria after {attempts} attempts; relax the thresholds or enlarge the graph"
        )
    return pairs
