"""Tests for repro.experiments.harness and repro.experiments.reporting."""

from __future__ import annotations

import pytest

from repro.core.problem import ActiveFriendingProblem
from repro.experiments.harness import evaluate_invitation, growth_curve
from repro.experiments.reporting import format_series, format_table


class TestEvaluateInvitation:
    def test_matches_direct_estimate_on_chain(self, chain_graph):
        value = evaluate_invitation(chain_graph, "s", "t", {"b", "t"}, num_samples=4000, rng=1)
        assert value == pytest.approx(0.5, abs=0.03)

    def test_empty_invitation(self, chain_graph):
        assert evaluate_invitation(chain_graph, "s", "t", set(), num_samples=200, rng=2) == 0.0


class TestGrowthCurve:
    def test_stops_once_target_reached(self, diamond_graph):
        problem = ActiveFriendingProblem(diamond_graph, "s", "t", alpha=0.5)
        ranking = ["t", "x1", "x2"]
        trajectory = growth_curve(problem, ranking, target_probability=0.2, num_samples=600,
                                  size_step=1, rng=3)
        assert trajectory[-1][1] >= 0.2
        # It should not have needed the full ranking: {t, x1} already gives 0.25.
        assert trajectory[-1][0] <= 2

    def test_exhausts_ranking_when_target_unreachable(self, diamond_graph):
        problem = ActiveFriendingProblem(diamond_graph, "s", "t", alpha=0.5)
        ranking = ["t", "x1", "x2"]
        trajectory = growth_curve(problem, ranking, target_probability=0.99, num_samples=400,
                                  size_step=1, rng=4)
        assert trajectory[-1][0] == 3

    def test_sizes_increase(self, diamond_graph):
        problem = ActiveFriendingProblem(diamond_graph, "s", "t", alpha=0.5)
        trajectory = growth_curve(problem, ["t", "x1", "x2"], 0.99, num_samples=200,
                                  size_step=1, rng=5)
        sizes = [size for size, _ in trajectory]
        assert sizes == sorted(sizes)

    def test_empty_ranking(self, diamond_graph):
        problem = ActiveFriendingProblem(diamond_graph, "s", "t", alpha=0.5)
        assert growth_curve(problem, [], 0.5, rng=6) == []

    def test_max_size_cap(self, diamond_graph):
        problem = ActiveFriendingProblem(diamond_graph, "s", "t", alpha=0.5)
        trajectory = growth_curve(problem, ["t", "x1", "x2"], 0.99, num_samples=200,
                                  size_step=1, max_size=2, rng=7)
        assert trajectory[-1][0] <= 2

    def test_pooled_curve_scores_every_prefix_on_one_stream(self, diamond_graph):
        """With a pool, every prefix is scored against the same cached traces:
        the curve equals per-prefix pooled evaluations, and only the first
        evaluation draws."""
        from repro.diffusion.engine import create_engine
        from repro.pool import SamplePool

        problem = ActiveFriendingProblem(diamond_graph, "s", "t", alpha=0.5)
        ranking = ["t", "x1", "x2"]
        pool = SamplePool(create_engine(diamond_graph, "python"), seed=11)
        trajectory = growth_curve(problem, ranking, 0.99, num_samples=300, size_step=1,
                                  rng=8, pool=pool)
        stats = pool.stats()
        reference = SamplePool(create_engine(diamond_graph, "python"), seed=11)
        assert trajectory == [
            (size, evaluate_invitation(diamond_graph, "s", "t", ranking[:size],
                                       num_samples=300, rng=9, pool=reference))
            for size in (1, 2, 3)
        ]
        # One chunk drawn, served once per prefix.
        assert stats.drawn_paths == reference.stats().drawn_paths == pool.chunk_size
        assert stats.served_paths == 3 * 300
        probabilities = [probability for _, probability in trajectory]
        assert probabilities == sorted(probabilities)


class TestReporting:
    def test_format_table_alignment_and_title(self):
        text = format_table([{"a": 1, "b": 0.5}, {"a": 20, "b": 0.25}], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5  # title + header + rule + 2 rows

    def test_format_table_handles_missing_keys(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_large_numbers_get_thousands_separator(self):
        assert "1,100,000" in format_table([{"nodes": 1_100_000}])

    def test_format_series(self):
        text = format_series([(0.1, 2.0), (0.2, 3.5)], x_label="alpha", y_label="ratio")
        assert "alpha" in text and "ratio" in text
        assert "0.1" in text
