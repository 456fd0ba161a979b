"""Tests for repro.graph.compiled (the frozen CSR snapshot)."""

from __future__ import annotations

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.social_graph import SocialGraph
from repro.graph.weights import apply_degree_normalized_weights


class TestRoundTrip:
    def test_nodes_and_counts(self, small_ba_graph):
        compiled = CompiledGraph(small_ba_graph)
        assert compiled.num_nodes == small_ba_graph.num_nodes
        assert compiled.num_edges == small_ba_graph.num_edges
        assert tuple(compiled.nodes) == tuple(small_ba_graph.nodes())
        assert len(compiled) == small_ba_graph.num_nodes

    def test_degrees(self, small_ba_graph):
        compiled = CompiledGraph(small_ba_graph)
        for node in small_ba_graph.nodes():
            assert compiled.degree(node) == small_ba_graph.degree(node)

    def test_in_weights(self, small_ba_graph):
        compiled = CompiledGraph(small_ba_graph)
        for node in small_ba_graph.nodes():
            expected = dict(small_ba_graph.in_weights(node))
            actual = compiled.in_weights(node)
            assert set(actual) == set(expected)
            for friend, weight in expected.items():
                assert actual[friend] == pytest.approx(weight, abs=1e-12)

    def test_pairwise_weights(self, triangle_graph):
        compiled = CompiledGraph(triangle_graph)
        for u in triangle_graph.nodes():
            for v in triangle_graph.nodes():
                if u != v:
                    assert compiled.weight(u, v) == pytest.approx(triangle_graph.weight(u, v))

    def test_normalization_totals(self, small_ba_graph):
        compiled = CompiledGraph(small_ba_graph)
        for node in small_ba_graph.nodes():
            total = compiled.total_in_weight(node)
            assert total == pytest.approx(small_ba_graph.total_in_weight(node), abs=1e-12)
            assert total <= 1.0 + 1e-9
            assert compiled.stop_probability(node) == pytest.approx(max(0.0, 1.0 - total))

    def test_edges_match(self, diamond_graph):
        compiled = CompiledGraph(diamond_graph)
        expected = {frozenset(edge) for edge in diamond_graph.edges()}
        actual = {frozenset(edge) for edge in compiled.edges()}
        assert actual == expected

    def test_membership_and_interning(self, triangle_graph):
        compiled = CompiledGraph(triangle_graph)
        for i, node in enumerate(compiled.nodes):
            assert compiled.index_of(node) == i
            assert compiled.node_at(i) == node
            assert node in compiled
        assert "ghost" not in compiled
        with pytest.raises(NodeNotFoundError):
            compiled.index_of("ghost")

    def test_indices_of_skips_unknown(self, triangle_graph):
        compiled = CompiledGraph(triangle_graph)
        indices = compiled.indices_of(["a", "ghost"])
        assert indices == frozenset({compiled.index_of("a")})

    def test_empty_and_isolated(self):
        graph = SocialGraph(nodes=["x", "y"])
        compiled = CompiledGraph(graph)
        assert compiled.num_nodes == 2
        assert compiled.num_edges == 0
        assert compiled.degree("x") == 0
        assert compiled.total_in_weight("x") == 0.0
        assert compiled.select_parent(0, 0.5) == -1


class TestSelectParent:
    def test_matches_linear_scan(self, small_ba_graph):
        """The binary search selects the same friend as the dict linear scan."""
        compiled = CompiledGraph(small_ba_graph)
        for node in small_ba_graph.nodes():
            index = compiled.index_of(node)
            for step in range(21):
                draw = step / 20.0
                cumulative = 0.0
                expected = None
                for friend, weight in small_ba_graph.in_weights(node).items():
                    cumulative += weight
                    if draw < cumulative:
                        expected = friend
                        break
                selected = compiled.select_parent(index, draw)
                actual = None if selected < 0 else compiled.node_at(selected)
                assert actual == expected

    def test_tail_draw_selects_nobody(self):
        graph = SocialGraph(edges=[("a", "b", 0.3, 0.3)])
        compiled = CompiledGraph(graph)
        index = compiled.index_of("a")
        assert compiled.node_at(compiled.select_parent(index, 0.1)) == "b"
        assert compiled.select_parent(index, 0.999999) == -1


class TestAliasTables:
    """Vose alias tables: exact per-entry selection mass, CSR-aligned."""

    @staticmethod
    def _selection_mass(compiled, node_index):
        """P(entry k) under the O(1) alias lookup, computed exactly.

        A uniform cell ``k`` is hit with probability ``1/d``; it keeps its
        own entry with probability ``alias_prob[lo+k]`` and falls through
        to ``alias_index[lo+k]`` otherwise.
        """
        alias_prob, alias_index = compiled.alias_tables()
        lo, hi = compiled.indptr[node_index], compiled.indptr[node_index + 1]
        degree = hi - lo
        mass = [0.0] * degree
        for k in range(degree):
            mass[k] += alias_prob[lo + k] / degree
            mass[alias_index[lo + k]] += (1.0 - alias_prob[lo + k]) / degree
        return mass

    def test_mass_identity_on_every_node(self, small_ba_graph):
        """Alias lookup probability == w_k / total for every in-edge."""
        compiled = compile_graph(small_ba_graph)
        for v in range(compiled.num_nodes):
            lo, hi = compiled.indptr[v], compiled.indptr[v + 1]
            if lo == hi:
                continue
            total = compiled.totals[v]
            mass = self._selection_mass(compiled, v)
            previous = 0.0
            for k in range(hi - lo):
                weight = compiled.cum_weights[lo + k] - previous
                previous = compiled.cum_weights[lo + k]
                assert mass[k] == pytest.approx(weight / total, abs=1e-9)

    def test_columns_are_csr_aligned_and_local(self, small_ba_graph):
        compiled = compile_graph(small_ba_graph)
        alias_prob, alias_index = compiled.alias_tables()
        assert len(alias_prob) == len(compiled.parents)
        assert len(alias_index) == len(compiled.parents)
        for v in range(compiled.num_nodes):
            lo, hi = compiled.indptr[v], compiled.indptr[v + 1]
            for k in range(hi - lo):
                assert 0.0 <= alias_prob[lo + k] <= 1.0 + 1e-12
                assert 0 <= alias_index[lo + k] < hi - lo

    def test_built_once_per_snapshot(self, small_ba_graph):
        compiled = compile_graph(small_ba_graph)
        assert compiled.alias_tables() is compiled.alias_tables()

    def test_isolated_nodes_and_empty_graph(self):
        compiled = CompiledGraph(SocialGraph(nodes=["x", "y"]))
        alias_prob, alias_index = compiled.alias_tables()
        assert len(alias_prob) == 0
        assert len(alias_index) == 0

    def test_single_edge_table_is_identity(self):
        compiled = CompiledGraph(SocialGraph(edges=[("a", "b", 0.3, 0.3)]))
        alias_prob, alias_index = compiled.alias_tables()
        assert list(alias_prob) == [1.0, 1.0]
        assert list(alias_index) == [0, 0]


class TestCompileCache:
    def test_cached_until_mutation(self):
        graph = apply_degree_normalized_weights(
            SocialGraph(edges=[("a", "b"), ("b", "c")])
        )
        first = compile_graph(graph)
        assert compile_graph(graph) is first

    def test_invalidated_by_add_edge(self):
        graph = apply_degree_normalized_weights(
            SocialGraph(edges=[("a", "b"), ("b", "c")])
        )
        first = compile_graph(graph)
        graph.add_edge("a", "c", weight_uv=0.1, weight_vu=0.1)
        second = compile_graph(graph)
        assert second is not first
        assert second.num_edges == 3

    def test_invalidated_by_set_weight(self):
        graph = SocialGraph(edges=[("a", "b", 0.5, 0.5)])
        first = compile_graph(graph)
        graph.set_weight("a", "b", 0.25)
        second = compile_graph(graph)
        assert second is not first
        assert second.weight("a", "b") == pytest.approx(0.25)

    def test_version_counter_monotonic(self):
        graph = SocialGraph()
        version = graph.version
        graph.add_node("a")
        assert graph.version > version
        version = graph.version
        graph.add_node("a")  # duplicate: no mutation
        assert graph.version == version


class TestGraphVersion:
    def test_compile_graph_records_the_source_version(self):
        graph = SocialGraph(edges=[(1, 2, 0.3, 0.3)])
        compiled = compile_graph(graph)
        assert compiled.graph_version == graph.version
        graph.set_weight(1, 2, 0.4)
        fresh = compile_graph(graph)
        assert fresh is not compiled
        assert fresh.graph_version == graph.version > compiled.graph_version

    def test_direct_construction_has_no_version(self):
        graph = SocialGraph(edges=[(1, 2, 0.3, 0.3)])
        assert CompiledGraph(graph).graph_version is None


class TestReverseReachable:
    """The conservative affected-set BFS behind delta-scoped invalidation."""

    @staticmethod
    def _chain_plus_pair():
        # 0-1-2-3 chain, disjoint 8-9 pair, all positive weights.
        graph = SocialGraph(
            edges=[(0, 1, 0.3, 0.3), (1, 2, 0.3, 0.3), (2, 3, 0.3, 0.3), (8, 9, 0.4, 0.4)]
        )
        return compile_graph(graph)

    def test_component_closure(self):
        from repro.graph.compiled import reverse_reachable

        compiled = self._chain_plus_pair()
        assert reverse_reachable(compiled, [8]) == frozenset({8, 9})
        assert reverse_reachable(compiled, [1]) == frozenset({0, 1, 2, 3})
        assert reverse_reachable(compiled, [1, 8]) == frozenset({0, 1, 2, 3, 8, 9})

    def test_zero_weight_edges_block_walk_steps(self):
        from repro.graph.compiled import reverse_reachable

        # w(1, 2) == 0: node 2 can never step into 1, so a change at 0 or 1
        # cannot affect 2's streams -- but 1 *can* step into 2 (w(2,1) > 0),
        # so a change at 2 does affect 1.
        graph = SocialGraph(edges=[(0, 1, 0.3, 0.3), (1, 2, 0.0, 0.3)])
        compiled = compile_graph(graph)
        assert reverse_reachable(compiled, [0]) == frozenset({0, 1})
        assert reverse_reachable(compiled, [2]) == frozenset({0, 1, 2})

    def test_unknown_sources_are_skipped(self):
        from repro.graph.compiled import reverse_reachable

        compiled = self._chain_plus_pair()
        assert reverse_reachable(compiled, ["nope"]) == frozenset()
        assert reverse_reachable(compiled, ["nope", 8]) == frozenset({8, 9})

    def test_caps_return_none(self):
        from repro.graph.compiled import reverse_reachable

        compiled = self._chain_plus_pair()
        assert reverse_reachable(compiled, [0], max_nodes=2) is None
        assert reverse_reachable(compiled, [0], max_hops=1) is None
        # caps that the closure fits inside do not trigger the fallback
        assert reverse_reachable(compiled, [8], max_hops=2, max_nodes=2) == frozenset({8, 9})

    def test_soundness_against_brute_force(self, small_ba_graph):
        from repro.graph.compiled import reverse_reachable

        compiled = compile_graph(small_ba_graph)
        affected = reverse_reachable(compiled, [0], max_hops=10_000, max_nodes=10_000)
        # brute-force closure over "a steps into b iff w(b, a) > 0"
        expected = {0}
        grew = True
        while grew:
            grew = False
            for b in list(expected):
                for a in small_ba_graph.neighbors(b):
                    if a not in expected and small_ba_graph.weight(b, a) > 0.0:
                        expected.add(a)
                        grew = True
        assert affected == frozenset(expected)


class TestIsNormalized:
    """``is_normalized`` reduces ``totals`` once per snapshot."""

    @staticmethod
    def _reduction(compiled) -> bool:
        from repro.graph.social_graph import WEIGHT_SUM_TOLERANCE

        return max(compiled.totals, default=0.0) <= 1.0 + WEIGHT_SUM_TOLERANCE

    def test_cached_value_equals_the_reduction(self, small_ba_graph, tmp_path):
        bad = SocialGraph(edges=[(1, 2, 0.8, 0.8), (3, 2, 0.8, 0.8)])
        compiled_graphs = [compile_graph(small_ba_graph), CompiledGraph(bad)]
        compiled_graphs[0].save(tmp_path / "good")
        compiled_graphs.append(CompiledGraph.open(tmp_path / "good"))
        for compiled in compiled_graphs:
            assert compiled._normalized is None
            assert compiled.is_normalized() == self._reduction(compiled)
            assert compiled._normalized == self._reduction(compiled)
        assert [compiled.is_normalized() for compiled in compiled_graphs] == [True, False, True]

    def test_reopen_clears_the_cached_value(self, small_ba_graph, tmp_path):
        compile_graph(small_ba_graph).save(tmp_path / "snap")
        mapped = CompiledGraph.open(tmp_path / "snap")
        assert mapped.is_normalized()
        mapped.reopen()
        assert mapped._normalized is None
        assert mapped.is_normalized() == self._reduction(mapped)

    def test_a_non_normalized_snapshot_is_refused_by_both_callers(self):
        from repro.core.maximization import maximize_acceptance_probability
        from repro.core.problem import ActiveFriendingProblem
        from repro.exceptions import ProblemDefinitionError

        compiled = CompiledGraph(SocialGraph(edges=[(1, 2, 0.8, 0.8), (3, 2, 0.8, 0.8)]))
        with pytest.raises(ProblemDefinitionError, match="normalized"):
            ActiveFriendingProblem(compiled, 1, 3)
        with pytest.raises(ProblemDefinitionError, match="normalized"):
            maximize_acceptance_probability(compiled, 1, 3, budget=1)
