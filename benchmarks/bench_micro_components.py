"""Micro-benchmarks of the pipeline's building blocks.

These are conventional pytest-benchmark timings (multiple rounds) of the
operations whose cost dominates RAF runs: reverse-sampling a backward trace,
simulating one LT friending process, computing Vmax, and one full RAF run.
They make performance regressions visible independently of the figure-level
experiments.
"""

from __future__ import annotations

import random

import pytest

from repro.core.problem import ActiveFriendingProblem
from repro.core.raf import RAFConfig, SamplePolicy, run_raf
from repro.core.vmax import compute_vmax
from repro.diffusion.engine import ENGINE_NAMES, create_engine
from repro.diffusion.reverse_sampling import sample_target_path
from repro.diffusion.threshold_model import simulate_friending
from repro.baselines.pagerank import pagerank_scores


@pytest.fixture(scope="module")
def wiki(dataset_graphs):
    return dataset_graphs["wiki"]


@pytest.fixture(scope="module")
def wiki_pair(dataset_pairs):
    return dataset_pairs["wiki"][0]


def test_micro_reverse_sampling(benchmark, wiki, wiki_pair):
    friends = wiki.neighbor_set(wiki_pair.source)
    generator = random.Random(1)
    benchmark(lambda: sample_target_path(wiki, wiki_pair.target, friends, rng=generator))


@pytest.mark.parametrize("engine_name", [name for name in ENGINE_NAMES if name != "auto"])
def test_micro_engine_batch_sampling(benchmark, wiki, wiki_pair, engine_name):
    """One 512-path engine batch (the shape RAF actually requests)."""
    friends = wiki.neighbor_set(wiki_pair.source)
    engine = create_engine(wiki, engine_name)
    generator = random.Random(1)
    paths = benchmark(
        lambda: engine.sample_paths(wiki_pair.target, friends, 512, rng=generator)
    )
    assert len(paths) == 512


def test_micro_threshold_simulation(benchmark, wiki, wiki_pair):
    invitation = frozenset(wiki.node_list()[: wiki.num_nodes // 4])
    generator = random.Random(2)
    benchmark(
        lambda: simulate_friending(
            wiki, wiki_pair.source, invitation, target=wiki_pair.target, rng=generator
        )
    )


def test_micro_vmax(benchmark, wiki, wiki_pair):
    result = benchmark(lambda: compute_vmax(wiki, wiki_pair.source, wiki_pair.target))
    assert wiki_pair.target in result


def test_micro_pagerank(benchmark, wiki):
    scores = benchmark.pedantic(lambda: pagerank_scores(wiki), rounds=3, iterations=1)
    assert len(scores) == wiki.num_nodes


def test_micro_full_raf_run(benchmark, wiki, wiki_pair):
    problem = ActiveFriendingProblem(wiki, wiki_pair.source, wiki_pair.target, alpha=0.1)
    config = RAFConfig(sample_policy=SamplePolicy.FIXED, fixed_realizations=2000)

    result = benchmark.pedantic(
        lambda: run_raf(problem, config, rng=3), rounds=3, iterations=1
    )
    assert wiki_pair.target in result.invitation
