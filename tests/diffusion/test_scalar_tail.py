"""The lockstep kernel's scalar tail and its cheaper rounds change no stream.

Below :data:`~repro.diffusion.engine.SCALAR_TAIL` live walkers the
vectorized kernel finishes a walk one walker at a time in Python, drawing
and computing exactly as a vectorized round would.  Whatever the cutoff
(never, from the first round, or in between) and whatever the history
window, both numpy engines must return the per-walker reference kernel's
paths, and a fused :class:`DrawPlan` must equal one lone call per group --
on in-memory and memory-mapped snapshots, with and without a stop set, and
on graphs whose zero-weight and isolated nodes leave dead walkers on
degree-0 or zero-total nodes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.diffusion.engine as engine_module
from repro.diffusion.engine import DrawPlan, create_engine
from repro.diffusion.path_batch import PathBatch
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.social_graph import SocialGraph

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

ISOLATED = 60  # no friends at all
SILENT = 61  # friends whose weights are all zero: degree 2, total in-weight 0


def _mixed_graph() -> SocialGraph:
    """Heterogeneous in-weights (alias and search streams differ), some of
    them zero, plus an isolated node and a zero-total node."""
    base = barabasi_albert_graph(60, 3, rng=21)
    picker = random.Random(5)
    graph = SocialGraph(name="mixed")
    for u, v in base.edges():
        # w(u, v) is v's familiarity with u: at most 0.8/degree keeps every
        # node's in-weights summing below 1.
        weights = [
            0.0 if picker.random() < 0.2 else 0.8 * picker.random() / base.degree(node)
            for node in (v, u)
        ]
        graph.add_edge(u, v, *weights)
    graph.add_node(ISOLATED)
    graph.add_edge(SILENT, 0, 0.2, 0.0)  # node 0 may pick SILENT; SILENT picks no one
    graph.add_edge(SILENT, 1, 0.0, 0.0)
    return graph


def _ring() -> SocialGraph:
    # Weighted one way only: walks from node 0 run up to 90 steps, past a
    # 64-step window, so the tail must read spilled history.
    ring = SocialGraph(name="ring")
    for node in range(90):
        ring.add_edge(node, (node + 1) % 90, 0.99, 0.0)
    return ring


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    """``(graph, stop set)`` per (topology, layout)."""
    out = {}
    for name, graph, stop in (
        ("mixed", _mixed_graph(), frozenset({3, 7, 11, SILENT})),
        ("ring", _ring(), frozenset({45})),
    ):
        directory = tmp_path_factory.mktemp(f"snapshot-{name}")
        compile_graph(graph).save(directory)
        out[(name, "memory")] = (graph, stop)
        out[(name, "mapped")] = (CompiledGraph.open(directory), stop)
    return out


@st.composite
def _cases(draw):
    topology = draw(st.sampled_from(["mixed", "ring"]))
    targets = [50, 0, ISOLATED, SILENT] if topology == "mixed" else [0]
    return {
        "key": (topology, draw(st.sampled_from(["memory", "mapped"]))),
        "engine": draw(st.sampled_from(["numpy", "numpy-alias"])),
        "tail": draw(st.sampled_from([0, 1, 3, 10**9])),
        "window": draw(st.sampled_from([1, 2, 64])),
        "target": draw(st.sampled_from(targets)),
        "with_stop": draw(st.booleans()),
        "sizes": draw(st.lists(st.integers(0, 40), min_size=1, max_size=4)),
        "shared": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def _rngs(sizes, seed, shared):
    """One generator per group, or one generator shared by every group."""
    if shared:
        generator = random.Random(seed)
        return [generator] * len(sizes)
    return [random.Random(seed + k) for k in range(len(sizes))]


@SETTINGS
@given(case=_cases())
def test_every_cutoff_and_window_draws_the_reference_paths(graphs, monkeypatch, case):
    graph, stop = graphs[case["key"]]
    stop = stop if case["with_stop"] else frozenset()
    engine = create_engine(graph, case["engine"])
    target, sizes, seed, shared = case["target"], case["sizes"], case["seed"], case["shared"]
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "SCALAR_TAIL", case["tail"])
        patch.setattr(engine_module, "HISTORY_WINDOW", case["window"])
        plan = DrawPlan(tuple(zip(sizes, _rngs(sizes, seed, shared))))
        fused = engine.sample_path_batch(target, stop, plan.count, rng=plan)
        lone = PathBatch.concat(
            [
                engine.sample_path_batch(target, stop, size, rng=rng)
                for size, rng in zip(sizes, _rngs(sizes, seed, shared))
            ],
            engine.compiled,
        )
    reference = []
    for size, rng in zip(sizes, _rngs(sizes, seed, shared)):
        reference += engine.sample_paths_reference(target, stop, size, rng=rng)
    assert fused.to_paths() == reference
    assert _columns(lone) == _columns(fused)
    _assert_no_repeats(fused)


def _columns(batch: PathBatch) -> tuple:
    return tuple(
        column.tolist()
        for column in (batch.offsets, batch.node_indices, batch.is_type1, batch.anchor_indices)
    )


def _assert_no_repeats(batch: PathBatch) -> None:
    # The reference's paths are node *sets*; a trace that walked past a
    # revisit would still match one, but would list some node twice.
    assert batch.total_nodes == sum(len(path.nodes) for path in batch.to_paths())


@pytest.mark.parametrize("tail", [0, 3, 10**9])
@pytest.mark.parametrize("name", ["numpy", "numpy-alias"])
def test_dead_walkers_on_empty_nodes_never_index_out_of_range(monkeypatch, name, tail):
    # Walkers that start on, or step onto, a degree-0 or zero-total node
    # die in their next round; their masked-out choices must still gather
    # in range, in the vectorized rounds and in the tail.
    graph = _mixed_graph()
    graph.add_node(62)  # isolated, and the last node: its slice starts at m
    engine = create_engine(graph, name)
    monkeypatch.setattr(engine_module, "SCALAR_TAIL", tail)
    for target in (ISOLATED, SILENT, 62, 0):
        batch = engine.sample_path_batch(target, frozenset({5}), 300, rng=13)
        assert batch.to_paths() == engine.sample_paths_reference(
            target, frozenset({5}), 300, rng=13
        )
        _assert_no_repeats(batch)
    for target in (ISOLATED, SILENT, 62):
        batch = engine.sample_path_batch(target, frozenset({5}), 40, rng=2)
        assert batch.total_nodes == 40 and not batch.is_type1.any()


@pytest.mark.parametrize("window", [1, 2, 64])
@pytest.mark.parametrize("name", ["numpy", "numpy-alias"])
def test_the_tail_sees_each_walkers_spilled_history(monkeypatch, name, window):
    # A walk that circles the 90-node ring returns to the target long after
    # the target spilled out of the window; walkers that die on the way
    # leave the last few to the tail, which must still see that revisit.
    ring = SocialGraph()
    for node in range(90):
        ring.add_edge(node, (node + 1) % 90, 0.99, 0.0)
    engine = create_engine(ring, name)
    monkeypatch.setattr(engine_module, "HISTORY_WINDOW", window)
    monkeypatch.setattr(engine_module, "SCALAR_TAIL", 3)
    for seed in range(10):
        batch = engine.sample_path_batch(0, frozenset(), 8, rng=seed)
        assert batch.to_paths() == engine.sample_paths_reference(0, frozenset(), 8, rng=seed)
        _assert_no_repeats(batch)


@pytest.mark.parametrize("name", ["numpy", "numpy-alias"])
def test_a_scalar_step_selects_what_a_round_selects(name):
    # Edge draws on every node: 0, the last float below the node's total
    # in-weight, the total itself (the stop tail) and the largest uniform.
    engine = create_engine(_mixed_graph(), name)
    totals = np.asarray(engine.compiled.totals)
    nodes, draws = [], []
    for node, total in enumerate(totals.tolist()):
        for value in (0.0, total / 3, np.nextafter(total, 0.0), total, np.nextafter(1.0, 0.0)):
            nodes.append(node)
            draws.append(float(value))
    alive, chosen = engine._select_parents(np.array(nodes), np.array(draws))
    step = engine._scalar_step()
    assert [step(node, value) for node, value in zip(nodes, draws)] == np.where(
        alive, chosen, -1
    ).tolist()
