"""Shared fixtures for the query-service suite.

The concurrency tests never rely on sleeps or timing: a :class:`GatedEngine`
blocks the leader *inside* its sampling call until the test releases it, so
"a duplicate arrived while the original was in flight" is a constructed
fact, not a race that usually happens.
"""

from __future__ import annotations

import threading

import pytest

from repro.diffusion.engine import create_engine
from repro.graph.generators import barabasi_albert_graph
from repro.graph.social_graph import SocialGraph
from repro.graph.weights import apply_degree_normalized_weights
from repro.service.loadgen import candidate_pairs


class GatedEngine:
    """A sampling engine whose draws block until the test releases them.

    ``entered`` is set when a sampling call reaches the engine (the leader
    is now provably in flight); ``release`` lets it proceed.  Results are
    exactly the wrapped engine's, so bit-identity assertions still hold.
    """

    name = "gated"

    def __init__(self, base):
        self.base = base
        self.entered = threading.Event()
        self.release = threading.Event()

    @property
    def compiled(self):
        return self.base.compiled

    def sample_path(self, target, stop_set, rng=None):
        return self.sample_paths(target, stop_set, 1, rng=rng)[0]

    def sample_paths(self, target, stop_set, count, rng=None):
        return self.sample_path_batch(target, stop_set, count, rng=rng).to_paths()

    def sample_path_batch(self, target, stop_set, count, rng=None):
        self.entered.set()
        assert self.release.wait(timeout=30.0), "test never released the gated engine"
        return self.base.sample_path_batch(target, stop_set, count, rng=rng)


@pytest.fixture(scope="module")
def service_graph():
    return apply_degree_normalized_weights(barabasi_albert_graph(300, 4, rng=17))


@pytest.fixture(scope="module")
def hot_pair(service_graph):
    (pair,) = candidate_pairs(service_graph, 1, rng=3)
    return pair


@pytest.fixture
def gate_engine():
    """Factory building a gated engine over any graph."""

    def make(graph):
        return GatedEngine(create_engine(graph, "python"))

    return make


@pytest.fixture
def gated_engine(gate_engine, service_graph):
    return gate_engine(service_graph)


@pytest.fixture
def unreachable_graph():
    """Two components: the target's island is unreachable from the source's."""
    graph = SocialGraph.from_edges(
        [("s", "a"), ("a", "b"), ("t", "x"), ("x", "y"), ("y", "t")]
    )
    return apply_degree_normalized_weights(graph)
