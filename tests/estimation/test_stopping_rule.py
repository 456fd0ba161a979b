"""Tests for repro.estimation.stopping_rule (Dagum et al. / Alg. 2)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.estimation.stopping_rule import (
    StoppingRuleExhausted,
    expected_sample_bound,
    stopping_rule_estimate,
    stopping_rule_estimate_batched,
    stopping_rule_threshold,
)
from repro.exceptions import EstimationError


class TestThreshold:
    def test_matches_formula(self):
        import math

        epsilon, delta = 0.1, 0.01
        expected = 1.0 + 4.0 * (math.e - 2.0) * 1.1 * math.log(200.0) / 0.01
        assert stopping_rule_threshold(epsilon, delta) == pytest.approx(expected)

    def test_decreasing_in_epsilon(self):
        assert stopping_rule_threshold(0.05, 0.01) > stopping_rule_threshold(0.2, 0.01)

    def test_increasing_as_delta_shrinks(self):
        assert stopping_rule_threshold(0.1, 0.001) > stopping_rule_threshold(0.1, 0.1)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            stopping_rule_threshold(0.0, 0.1)
        with pytest.raises(ValueError):
            stopping_rule_threshold(1.5, 0.1)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            stopping_rule_threshold(0.1, 0.0)
        with pytest.raises(ValueError):
            stopping_rule_threshold(0.1, 1.0)


class TestExpectedSampleBound:
    def test_scales_inversely_with_mean(self):
        assert expected_sample_bound(0.1, 0.01, 0.01) > expected_sample_bound(0.1, 0.01, 0.1)

    def test_positive(self):
        assert expected_sample_bound(0.2, 0.05, 0.3) > 0

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            expected_sample_bound(0.1, 0.01, 0.0)


class TestStoppingRuleEstimate:
    def test_constant_one_sampler(self):
        result = stopping_rule_estimate(lambda: 1.0, epsilon=0.2, delta=0.05)
        # Every sample contributes 1, so the estimate is threshold/ceil(threshold),
        # i.e. essentially 1.
        assert result.estimate == pytest.approx(1.0, rel=0.02)
        assert result.num_samples == pytest.approx(result.threshold, abs=1.0)

    @pytest.mark.parametrize("true_mean", [0.1, 0.3, 0.7])
    def test_bernoulli_estimates_within_relative_error(self, true_mean):
        generator = random.Random(42)
        result = stopping_rule_estimate(
            lambda: 1.0 if generator.random() < true_mean else 0.0,
            epsilon=0.1,
            delta=0.01,
        )
        assert abs(result.estimate - true_mean) <= 0.1 * true_mean * 1.5  # slack over the 1-delta event

    def test_sample_count_roughly_threshold_over_mean(self):
        true_mean = 0.25
        generator = random.Random(7)
        result = stopping_rule_estimate(
            lambda: 1.0 if generator.random() < true_mean else 0.0,
            epsilon=0.15,
            delta=0.05,
        )
        assert result.num_samples == pytest.approx(result.threshold / true_mean, rel=0.3)

    def test_max_samples_guard(self):
        with pytest.raises(EstimationError):
            stopping_rule_estimate(lambda: 0.0, epsilon=0.2, delta=0.1, max_samples=500)

    def test_invalid_max_samples(self):
        with pytest.raises(ValueError):
            stopping_rule_estimate(lambda: 1.0, epsilon=0.2, delta=0.1, max_samples=0)

    def test_sample_out_of_range_rejected(self):
        with pytest.raises(EstimationError):
            stopping_rule_estimate(lambda: 2.0, epsilon=0.2, delta=0.1)

    def test_result_records_parameters(self):
        result = stopping_rule_estimate(lambda: 1.0, epsilon=0.3, delta=0.2)
        assert result.epsilon == 0.3
        assert result.delta == 0.2


class TestStoppingRuleBatched:
    """The batched rule is sample-for-sample identical to the sequential one."""

    @pytest.mark.parametrize("true_mean", [0.1, 0.4, 0.9])
    def test_matches_sequential_on_same_stream(self, true_mean):
        def bernoulli_stream(seed):
            generator = random.Random(seed)
            while True:
                yield 1.0 if generator.random() < true_mean else 0.0

        sequential_stream = bernoulli_stream(99)
        sequential = stopping_rule_estimate(
            lambda: next(sequential_stream), epsilon=0.15, delta=0.05
        )
        batched_stream = bernoulli_stream(99)
        batched = stopping_rule_estimate_batched(
            lambda sizes: [next(batched_stream) for _ in range(sum(sizes))],
            epsilon=0.15,
            delta=0.05,
        )
        assert batched.estimate == sequential.estimate
        assert batched.num_samples == sequential.num_samples

    def test_max_samples_consumed_exactly(self):
        drawn = {"count": 0}

        def zeros(sizes):
            drawn["count"] += sum(sizes)
            return [0.0] * sum(sizes)

        with pytest.raises(EstimationError):
            stopping_rule_estimate_batched(zeros, epsilon=0.2, delta=0.1, max_samples=500)
        assert drawn["count"] == 500  # chunks are clipped to the cap

    def test_out_of_range_sample_rejected(self):
        with pytest.raises(EstimationError):
            stopping_rule_estimate_batched(
                lambda sizes: [2.0] * sum(sizes), epsilon=0.2, delta=0.1
            )


class TestWarmStart:
    """warm_start consumes a stream prefix without changing the outcome."""

    @staticmethod
    def _stream(seed, true_mean=0.3):
        generator = random.Random(seed)
        while True:
            yield 1.0 if generator.random() < true_mean else 0.0

    @pytest.mark.parametrize("warm_size", [0, 1, 37, 500, 5000])
    def test_bit_identical_to_cold_run_over_same_stream(self, warm_size):
        cold_stream = self._stream(7)
        cold = stopping_rule_estimate_batched(
            lambda sizes: [next(cold_stream) for _ in range(sum(sizes))],
            epsilon=0.2, delta=0.05,
        )
        warm_source = self._stream(7)
        warm = [next(warm_source) for _ in range(warm_size)]
        result = stopping_rule_estimate_batched(
            lambda sizes: [next(warm_source) for _ in range(sum(sizes))],
            epsilon=0.2, delta=0.05, warm_start=warm,
        )
        assert result == cold

    @pytest.mark.parametrize("warm_size", [0, 1, 37, 500, 5000])
    def test_fractional_samples_fold_exactly(self, warm_size):
        # Fractional floats expose summation order: the vectorized fold of
        # warm and fresh batches must equal the one-at-a-time float sum.
        def uniform_stream():
            generator = random.Random(23)
            while True:
                yield generator.random() * 0.5

        sequential_stream = uniform_stream()
        sequential = stopping_rule_estimate(
            lambda: next(sequential_stream), epsilon=0.1, delta=0.05
        )
        batched_stream = uniform_stream()
        warm = [next(batched_stream) for _ in range(warm_size)]
        batched = stopping_rule_estimate_batched(
            lambda sizes: [next(batched_stream) for _ in range(sum(sizes))],
            epsilon=0.1, delta=0.05, warm_start=warm,
        )
        assert 500 < sequential.num_samples < 5000  # the halt is warm for 5000 only
        assert batched.estimate == sequential.estimate
        assert batched.num_samples == sequential.num_samples

        # The capped run exposes the running sum itself, bit for bit.
        sequential_stream = uniform_stream()
        with pytest.raises(StoppingRuleExhausted) as sequential_cap:
            stopping_rule_estimate(
                lambda: next(sequential_stream), epsilon=0.1, delta=0.05, max_samples=1000
            )
        batched_stream = uniform_stream()
        warm = [next(batched_stream) for _ in range(warm_size)]
        with pytest.raises(StoppingRuleExhausted) as batched_cap:
            stopping_rule_estimate_batched(
                lambda sizes: [next(batched_stream) for _ in range(sum(sizes))],
                epsilon=0.1, delta=0.05, max_samples=1000, warm_start=warm,
            )
        assert batched_cap.value.num_samples == sequential_cap.value.num_samples == 1000
        assert batched_cap.value.total == sequential_cap.value.total

    def test_samples_after_halt_not_inspected(self):
        sequential = stopping_rule_estimate(lambda: 1.0, epsilon=0.5, delta=0.2)
        result = stopping_rule_estimate_batched(
            lambda sizes: [1.0] * sum(sizes), epsilon=0.5, delta=0.2,
            warm_start=bytes([1]) * 100 + bytes([2]),
        )
        assert result == sequential

    def test_stops_inside_warm_prefix_without_fresh_draws(self):
        def must_not_draw(sizes):
            raise AssertionError("fresh draws requested despite sufficient warm prefix")

        result = stopping_rule_estimate_batched(
            must_not_draw, epsilon=0.5, delta=0.2, warm_start=[1.0] * 100
        )
        assert result.num_samples <= 100

    def test_warm_prefix_respects_max_samples(self):
        with pytest.raises(EstimationError):
            stopping_rule_estimate_batched(
                lambda sizes: [0.0] * sum(sizes), epsilon=0.2, delta=0.1,
                max_samples=50, warm_start=[0.0] * 500,
            )

    def test_warm_values_validated(self):
        with pytest.raises(EstimationError):
            stopping_rule_estimate_batched(
                lambda sizes: [1.0] * sum(sizes), epsilon=0.2, delta=0.1,
                warm_start=[2.0],
            )

    def test_max_samples_validated_consistently(self):
        # require_positive_int semantics: zero and non-integers are rejected
        # the same way every estimator entry point rejects bad num_samples.
        with pytest.raises(ValueError):
            stopping_rule_estimate_batched(
                lambda sizes: [1.0] * sum(sizes), epsilon=0.2, delta=0.1, max_samples=0
            )
        with pytest.raises(TypeError):
            stopping_rule_estimate_batched(
                lambda sizes: [1.0] * sum(sizes), epsilon=0.2, delta=0.1, max_samples=2.5
            )
        with pytest.raises(TypeError):
            stopping_rule_estimate(lambda: 1.0, epsilon=0.2, delta=0.1, max_samples=2.5)


class TestIndicatorByteBatches:
    """The columnar 0/1-byte fast path must equal per-element folding."""

    def _indicator_stream(self, true_mean: float, seed: int, length: int) -> bytes:
        generator = random.Random(seed)
        return bytes(1 if generator.random() < true_mean else 0 for _ in range(length))

    @pytest.mark.parametrize("true_mean", [0.9, 0.4, 0.05])
    def test_bytes_batches_match_float_batches(self, true_mean):
        stream = self._indicator_stream(true_mean, seed=13, length=400_000)

        def bytes_sampler(sizes, state={"i": 0}):
            start = state["i"]
            state["i"] = start + sum(sizes)
            return stream[start : start + sum(sizes)]

        def float_sampler(sizes, state={"i": 0}):
            start = state["i"]
            state["i"] = start + sum(sizes)
            return [float(v) for v in stream[start : start + sum(sizes)]]

        fast = stopping_rule_estimate_batched(bytes_sampler, epsilon=0.2, delta=0.05)
        slow = stopping_rule_estimate_batched(float_sampler, epsilon=0.2, delta=0.05)
        assert fast == slow  # same estimate AND same halting sample index

    def test_crossing_batch_halts_at_exact_sample(self):
        # All-ones stream with one huge batch: the rule must stop at the
        # same sample index as a one-at-a-time run, not swallow the batch.
        def must_not_draw(sizes):
            raise AssertionError("fresh draws requested despite a crossing batch")

        result = stopping_rule_estimate_batched(
            must_not_draw, epsilon=0.5, delta=0.1, warm_start=bytes([1]) * 65536
        )
        sequential = stopping_rule_estimate(lambda: 1.0, epsilon=0.5, delta=0.1)
        assert result == sequential

    def test_invalid_byte_value_rejected(self):
        with pytest.raises(EstimationError):
            stopping_rule_estimate_batched(
                lambda sizes: bytes([1, 2]) * sum(sizes), epsilon=0.5, delta=0.1
            )

    def test_bytes_warm_start_bit_identical(self):
        stream = self._indicator_stream(0.3, seed=7, length=200_000)
        warm = stream[:1000]

        def tail_sampler(sizes, state={"i": 1000}):
            start = state["i"]
            state["i"] = start + sum(sizes)
            return stream[start : start + sum(sizes)]

        def cold_sampler(sizes, state={"i": 0}):
            start = state["i"]
            state["i"] = start + sum(sizes)
            return stream[start : start + sum(sizes)]

        warmed = stopping_rule_estimate_batched(
            tail_sampler, epsilon=0.2, delta=0.05, warm_start=warm
        )
        cold = stopping_rule_estimate_batched(cold_sampler, epsilon=0.2, delta=0.05)
        assert warmed == cold


def _batch_at_a_time_schedule(room):
    """The sizes the batch-at-a-time rule asks for, one call each: 64, 128,
    ... up to 65536, clipped so they never pass ``room`` samples."""
    batch, drawn = 64, 0
    while room is None or drawn < room:
        size = batch if room is None else min(batch, room - drawn)
        yield size
        drawn += size
        batch = min(2 * batch, 65536)


class TestFusedSchedule:
    """Each request holds every batch the rule is certain to draw (plus at
    most one the running mean predicts); the answers are those of the
    batch-at-a-time rule, sample for sample."""

    @given(
        mean=st.floats(min_value=0.01, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
        epsilon=st.sampled_from([0.2, 0.3, 0.5]),
        delta=st.sampled_from([0.05, 1e-5]),
        max_samples=st.one_of(st.none(), st.integers(min_value=1, max_value=6000)),
        warm_size=st.integers(min_value=0, max_value=3000),
    )
    @settings(
        max_examples=40, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equals_batch_at_a_time_rule(self, mean, seed, epsilon, delta, max_samples, warm_size):
        stream = (np.random.default_rng(seed).random(2**19) < mean).astype(np.uint8).tobytes()
        requests: list = []
        cursor = {"at": warm_size}

        def sampler(sizes):
            requests.append(sizes)
            start = cursor["at"]
            cursor["at"] = start + sum(sizes)
            assert cursor["at"] <= len(stream)
            return stream[start : cursor["at"]]

        def outcome(run):
            try:
                result = run()
            except StoppingRuleExhausted as exhausted:
                return ("exhausted", exhausted.num_samples, exhausted.total)
            return ("halted", result.num_samples, result.estimate)

        fused = outcome(lambda: stopping_rule_estimate_batched(
            sampler, epsilon, delta, max_samples=max_samples, warm_start=stream[:warm_size]
        ))
        samples = iter(stream)
        reference = outcome(lambda: stopping_rule_estimate(
            lambda: next(samples), epsilon, delta, max_samples=max_samples
        ))
        assert fused == reference

        # The requests are the batch-at-a-time schedule, cut into requests,
        # and end at most one batch past the batch the rule halted in.
        warm_used = warm_size if max_samples is None else min(warm_size, max_samples)
        fresh_used = reference[1] - warm_used
        drawn = [size for sizes in requests for size in sizes]
        room = None if max_samples is None else max_samples - warm_used
        schedule = _batch_at_a_time_schedule(room)
        assert drawn == [next(schedule) for _ in drawn]
        if fresh_used <= 0:
            assert drawn == []  # halted inside the warm prefix
            return
        ends = np.cumsum(drawn)
        halting_batch = int(np.searchsorted(ends, fresh_used))
        assert halting_batch < len(drawn)
        assert len(drawn) <= halting_batch + 2

    def test_first_request_holds_every_certain_batch(self):
        # Υ ≈ 1053 at ε = 0.2, δ = 1e-5: 64 + ... + 512 = 960 samples cannot
        # reach it, so the 1024 batch is certain too, and nothing after it.
        requests: list = []

        def ones(sizes):
            requests.append(sizes)
            return bytes([1]) * sum(sizes)

        result = stopping_rule_estimate_batched(ones, epsilon=0.2, delta=1e-5)
        assert requests == [(64, 128, 256, 512, 1024)]
        assert result.num_samples == math.ceil(stopping_rule_threshold(0.2, 1e-5))

    def test_running_mean_adds_one_predicted_batch(self):
        # A mean of 1/4 after the first 1984 samples predicts the certain
        # 2048 batch falls short, so the second request adds the 4096 batch.
        requests: list = []

        def quarter(sizes):
            requests.append(sizes)
            return bytes([1, 0, 0, 0]) * (sum(sizes) // 4)

        stopping_rule_estimate_batched(quarter, epsilon=0.2, delta=1e-5)
        assert requests == [(64, 128, 256, 512, 1024), (2048, 4096)]
