"""Tests for repro.setcover.hypergraph (SetSystem)."""

from __future__ import annotations

import pytest

from repro.exceptions import SetCoverError
from repro.setcover.hypergraph import SetSystem


@pytest.fixture
def simple_system() -> SetSystem:
    return SetSystem([{"a", "b"}, {"b", "c"}, {"a"}, {"c", "d", "e"}])


class TestConstruction:
    def test_basic_counts(self, simple_system):
        assert simple_system.num_sets == 4
        assert simple_system.total_weight == 4
        assert simple_system.universe == frozenset("abcde")

    def test_weights(self):
        system = SetSystem([{"a"}, {"b"}], weights=[3, 2])
        assert system.total_weight == 5
        assert system.weight(0) == 3

    def test_weight_length_mismatch(self):
        with pytest.raises(SetCoverError):
            SetSystem([{"a"}], weights=[1, 2])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(SetCoverError):
            SetSystem([{"a"}], weights=[0])

    def test_empty_system(self):
        system = SetSystem([])
        assert system.num_sets == 0
        assert system.universe == frozenset()

    def test_indexing_and_iteration(self, simple_system):
        assert simple_system[2] == frozenset({"a"})
        assert list(simple_system)[0] == frozenset({"a", "b"})
        assert len(simple_system) == 4


class TestDerivedQuantities:
    def test_union_of(self, simple_system):
        assert simple_system.union_of([0, 2]) == frozenset({"a", "b"})

    def test_weight_of(self):
        system = SetSystem([{"a"}, {"b"}, {"c"}], weights=[2, 3, 5])
        assert system.weight_of([0, 2]) == 7

    def test_covered_indices(self, simple_system):
        assert simple_system.covered_indices({"a", "b", "c"}) == (0, 1, 2)

    def test_covered_weight_counts_multiplicity(self):
        system = SetSystem([{"a"}, {"a", "b"}], weights=[4, 1])
        assert system.covered_weight({"a"}) == 4
        assert system.covered_weight({"a", "b"}) == 5

    def test_element_frequencies(self):
        system = SetSystem([{"a", "b"}, {"b"}], weights=[2, 3])
        freq = system.element_frequencies()
        assert freq == {"a": 2, "b": 5}

    def test_inverted_index(self, simple_system):
        index = simple_system.inverted_index()
        assert set(index["a"]) == {0, 2}
        assert set(index["b"]) == {0, 1}


class TestDeduplicate:
    def test_collapses_identical_sets(self):
        system = SetSystem([{"a", "b"}, {"b", "a"}, {"c"}])
        deduped = system.deduplicate()
        assert deduped.num_sets == 2
        assert deduped.total_weight == 3

    def test_preserves_covered_weight(self):
        system = SetSystem([{"a"}, {"a"}, {"a", "b"}, {"c"}])
        deduped = system.deduplicate()
        for nodes in [{"a"}, {"a", "b"}, {"a", "b", "c"}, set()]:
            assert system.covered_weight(nodes) == deduped.covered_weight(nodes)

    def test_accumulates_existing_weights(self):
        system = SetSystem([{"a"}, {"a"}], weights=[2, 5])
        deduped = system.deduplicate()
        assert deduped.num_sets == 1
        assert deduped.weight(0) == 7


class TestCountedMembers:
    def test_counted_sets_equal_their_repeats(self):
        # The sampling layers hand covers counted distinct sets, one entry
        # per walk; deduplicate merges the walks into the repeated system.
        repeated = SetSystem([{"t"}, {"t", "y"}, {"t"}, {"t"}, {"t", "y"}])
        counted = SetSystem([{"t"}, {"t", "y"}, {"t"}, {"t", "y"}], weights=[2, 1, 1, 1])
        assert counted.total_weight == repeated.total_weight == 5
        assert counted.universe == frozenset({"t", "y"})
        assert counted.deduplicate().sets() == repeated.deduplicate().sets()
        assert counted.deduplicate().weights() == repeated.deduplicate().weights() == (3, 2)
        for nodes in ({"t"}, {"t", "y"}, set()):
            assert counted.covered_weight(nodes) == repeated.covered_weight(nodes)
