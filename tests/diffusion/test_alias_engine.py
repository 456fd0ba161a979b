"""Tests for the alias-mode engine (O(1) walk steps, a new named stream).

:class:`NumpyAliasEngine` consumes exactly the same uniform draw sequence
as :class:`NumpyEngine` but maps each draw to a parent through the
precomputed Vose alias tables (:meth:`CompiledGraph.alias_tables`) instead
of a binary search over the cumulative weights.  That makes it a *distinct
named RNG stream* ("numpy-alias"): distributionally interchangeable with
every other engine, bit-reproducible for a fixed seed, and never
byte-compatible with the "numpy" stream -- which in turn must stay
byte-identical to earlier releases (the golden matrix suite under
``tests/golden/`` enforces that independently).
"""

from __future__ import annotations

import pytest

from repro.diffusion.engine import ENGINE_NAMES, create_engine
from repro.graph.social_graph import SocialGraph


class TestRegistry:
    def test_alias_engine_is_registered(self):
        assert "numpy-alias" in ENGINE_NAMES

    def test_name_is_the_stream_tag(self, medium_ba_graph):
        engine = create_engine(medium_ba_graph, "numpy-alias")
        assert engine.name == "numpy-alias"
        assert engine.mode == "alias"

    def test_alias_engine_is_a_numpy_engine(self, medium_ba_graph):
        from repro.diffusion.engine import NumpyAliasEngine, NumpyEngine

        engine = create_engine(medium_ba_graph, "numpy-alias")
        assert isinstance(engine, NumpyAliasEngine)
        assert isinstance(engine, NumpyEngine)

    def test_auto_never_selects_the_alias_stream(self, medium_ba_graph):
        # "auto" must keep resolving to the default streams so existing
        # seeded runs stay bit-identical release over release.
        assert create_engine(medium_ba_graph, "auto").name == "numpy"


class TestAliasStreamContract:
    def test_deterministic_per_seed(self, medium_ba_graph):
        engine = create_engine(medium_ba_graph, "numpy-alias")
        stop = medium_ba_graph.neighbor_set(0)
        first = engine.sample_paths(150, stop, 60, rng=7)
        second = engine.sample_paths(150, stop, 60, rng=7)
        assert first == second

    def test_alias_stream_differs_from_search_stream(self):
        """Same seed, same draws -- different parent mapping, so the alias
        stream is a genuinely distinct realization (never silently mixable
        with "numpy" pools, spills or goldens).  Heterogeneous weights are
        required to observe the split: with per-node *uniform* in-weights
        (e.g. degree-normalized graphs) the alias table degenerates to the
        identity and both modes map each draw to the same parent.
        """
        weights = {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.05}
        graph = SocialGraph(
            edges=[("t", leaf, weight, weight) for leaf, weight in weights.items()]
        )
        search = create_engine(graph, "numpy").sample_paths("t", {"a"}, 500, rng=3)
        alias = create_engine(graph, "numpy-alias").sample_paths("t", {"a"}, 500, rng=3)
        assert search != alias

    def test_alias_matches_search_on_uniform_weights(self, medium_ba_graph):
        """The flip side: on degree-normalized weights the two modes agree
        exactly (identity alias table), a strong end-to-end correctness
        cross-check of the table construction and the O(1) lookup."""
        stop = medium_ba_graph.neighbor_set(0)
        search = create_engine(medium_ba_graph, "numpy").sample_paths(150, stop, 200, rng=3)
        alias = create_engine(medium_ba_graph, "numpy-alias").sample_paths(150, stop, 200, rng=3)
        assert search == alias

    def test_columnar_matches_reference_kernel(self, medium_ba_graph):
        """Alias-mode lockstep kernel is bit-identical to the alias-mode
        per-walker reference kernel (same guard the search mode carries)."""
        engine = create_engine(medium_ba_graph, "numpy-alias")
        stop = medium_ba_graph.neighbor_set(0)
        batch = engine.sample_path_batch(150, stop, 500, rng=19)
        reference = engine.sample_paths_reference(150, stop, 500, rng=19)
        assert batch.to_paths() == reference

    def test_default_numpy_stream_unchanged_by_alias_tables(self, medium_ba_graph):
        """Building the alias tables must not perturb the search stream."""
        stop = medium_ba_graph.neighbor_set(0)
        before = create_engine(medium_ba_graph, "numpy").sample_paths(150, stop, 100, rng=11)
        alias_engine = create_engine(medium_ba_graph, "numpy-alias")
        alias_engine.sample_paths(150, stop, 100, rng=11)  # forces table build
        after = create_engine(medium_ba_graph, "numpy").sample_paths(150, stop, 100, rng=11)
        assert before == after


class TestAliasDistribution:
    def test_chain_type1_rate_matches_theory(self, chain_graph):
        # Same hand-computed rate the shared engine suite checks: the walk
        # from t reaches a (type-1) with probability exactly 1/2.
        engine = create_engine(chain_graph, "numpy-alias")
        paths = engine.sample_paths("t", {"a"}, 3000, rng=11)
        rate = sum(path.is_type1 for path in paths) / 3000
        assert rate == pytest.approx(0.5, abs=0.03)

    def test_type1_rate_agrees_with_search_mode(self, medium_ba_graph):
        stop = medium_ba_graph.neighbor_set(0)
        trials = 4000
        rates = {}
        for name in ("numpy", "numpy-alias"):
            paths = create_engine(medium_ba_graph, name).sample_paths(150, stop, trials, rng=31)
            rates[name] = sum(path.is_type1 for path in paths) / trials
        assert rates["numpy"] == pytest.approx(rates["numpy-alias"], abs=0.04)

    def test_empirical_frequencies_match_the_weights(self):
        """One-step anchor frequencies on a star reproduce the in-weights.

        Every in-neighbour of ``t`` is a stop node, so each sampled path is
        a single alias-table lookup: anchor ``x`` with probability ``w_x``,
        type-0 with the stop-tail probability ``1 - sum(w)``.  This is the
        end-to-end check that the table encodes the exact edge weights.
        """
        weights = {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.05}
        graph = SocialGraph(
            edges=[("t", leaf, weight, weight) for leaf, weight in weights.items()]
        )
        engine = create_engine(graph, "numpy-alias")
        trials = 20_000
        paths = engine.sample_paths("t", set(weights), trials, rng=5)
        counts: dict = {}
        for path in paths:
            counts[path.anchor] = counts.get(path.anchor, 0) + 1
        for leaf, weight in weights.items():
            assert counts[leaf] / trials == pytest.approx(weight, abs=0.02)
        assert counts.get(None, 0) / trials == pytest.approx(
            1.0 - sum(weights.values()), abs=0.02
        )


class TestStreamThreading:
    """The engine name tags every derived identity (pool spills, wrappers)."""

    def test_pool_spill_tags_separate_the_streams(self, medium_ba_graph):
        from repro.pool.sample_pool import SamplePool, pool_key_digest

        digest = pool_key_digest(150, medium_ba_graph.neighbor_set(0), stream="estimate")
        tags = {
            name: SamplePool(create_engine(medium_ba_graph, name), seed=99)._spill_tag(digest)
            for name in ("numpy", "numpy-alias")
        }
        assert tags["numpy"] != tags["numpy-alias"]

    def test_pool_stream_name_sees_through_parallel_wrapper(self, medium_ba_graph):
        from repro.parallel import ParallelEngine
        from repro.pool.sample_pool import SamplePool

        wrapped = ParallelEngine(create_engine(medium_ba_graph, "numpy-alias"), workers=2)
        pool = SamplePool(wrapped, seed=99)
        assert pool._stream_engine_name() == "numpy-alias"

    def test_parallel_wrapper_name_carries_the_stream(self, medium_ba_graph):
        from repro.parallel import ParallelEngine

        wrapped = ParallelEngine(create_engine(medium_ba_graph, "numpy-alias"), workers=2)
        assert wrapped.name == "parallel[numpy-aliasx2]"
