"""Unit tests for the statistics substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.conditions import AndCondition, EqualityCondition
from repro.errors import StatisticsError
from repro.events import Event, EventType
from repro.patterns import seq
from repro.statistics import (
    BucketedSlidingCounter,
    ConstantValue,
    LinearDriftValue,
    OscillatingValue,
    RandomWalkValue,
    SlidingSelectivityEstimator,
    SlidingWindowRateEstimator,
    StatisticsCollector,
    StatisticsSnapshot,
    StepValue,
    pair_key,
)


class TestPairKey:
    def test_canonical_order(self):
        assert pair_key("b", "a") == ("a", "b")
        assert pair_key("a", "b") == ("a", "b")

    def test_self_pair(self):
        assert pair_key("a", "a") == ("a", "a")


class TestStatisticsSnapshot:
    def test_rate_lookup(self):
        snapshot = StatisticsSnapshot({"A": 5.0})
        assert snapshot.rate("A") == 5.0
        assert snapshot.has_rate("A") and not snapshot.has_rate("B")

    def test_unknown_rate_raises(self):
        with pytest.raises(StatisticsError):
            StatisticsSnapshot({}).rate("A")

    def test_rate_or_default(self):
        assert StatisticsSnapshot({}).rate_or_default("A", 3.0) == 3.0

    def test_negative_rate_rejected(self):
        with pytest.raises(StatisticsError):
            StatisticsSnapshot({"A": -1.0})

    def test_selectivity_defaults_to_one(self):
        assert StatisticsSnapshot({"A": 1.0}).selectivity("a", "b") == 1.0

    def test_selectivity_symmetric_key(self):
        snapshot = StatisticsSnapshot({"A": 1.0}, {("b", "a"): 0.3})
        assert snapshot.selectivity("a", "b") == 0.3
        assert snapshot.selectivity("b", "a") == 0.3

    def test_selectivity_out_of_range_rejected(self):
        with pytest.raises(StatisticsError):
            StatisticsSnapshot({"A": 1.0}, {("a", "b"): 1.5})

    def test_local_selectivity(self):
        snapshot = StatisticsSnapshot({"A": 1.0}, {("a", "a"): 0.4})
        assert snapshot.local_selectivity("a") == 0.4
        assert snapshot.local_selectivity("b") == 1.0

    def test_restrict(self):
        snapshot = StatisticsSnapshot({"A": 1.0, "B": 2.0})
        restricted = snapshot.restrict(["A"])
        assert restricted.has_rate("A") and not restricted.has_rate("B")

    def test_with_rate_and_with_selectivity_copy(self):
        snapshot = StatisticsSnapshot({"A": 1.0})
        updated = snapshot.with_rate("A", 9.0).with_selectivity("a", "b", 0.2)
        assert updated.rate("A") == 9.0
        assert updated.selectivity("a", "b") == 0.2
        assert snapshot.rate("A") == 1.0

    def test_max_relative_deviation(self):
        baseline = StatisticsSnapshot({"A": 10.0, "B": 5.0}, {("a", "b"): 0.5})
        current = StatisticsSnapshot({"A": 15.0, "B": 5.0}, {("a", "b"): 0.55})
        assert current.max_relative_deviation(baseline) == pytest.approx(0.5)

    def test_max_relative_deviation_ignores_unshared(self):
        baseline = StatisticsSnapshot({"A": 10.0})
        current = StatisticsSnapshot({"B": 99.0})
        assert current.max_relative_deviation(baseline) == 0.0

    def test_equality(self):
        assert StatisticsSnapshot({"A": 1.0}) == StatisticsSnapshot({"A": 1.0})
        assert StatisticsSnapshot({"A": 1.0}) != StatisticsSnapshot({"A": 2.0})


class TestBucketedSlidingCounter:
    def test_counts_within_window(self):
        counter = BucketedSlidingCounter(window=10.0, num_buckets=10)
        for t in range(5):
            counter.add(float(t))
        assert counter.count(now=4.0) == 5

    def test_expires_old_buckets(self):
        counter = BucketedSlidingCounter(window=10.0, num_buckets=10)
        counter.add(0.0)
        counter.add(20.0)
        assert counter.count(now=20.0) == 1

    def test_rate_estimate(self):
        counter = BucketedSlidingCounter(window=10.0, num_buckets=10)
        for t in np.arange(0, 10, 0.5):
            counter.add(float(t))
        assert counter.rate(now=10.0) == pytest.approx(2.0, rel=0.3)

    def test_out_of_order_clamped_and_counted(self):
        """Boundedly late updates are absorbed into the newest bucket."""
        counter = BucketedSlidingCounter(window=10.0)
        counter.add(5.0)
        counter.add(1.0)  # late by 4 < window: clamped to 5.0
        assert counter.late_samples == 1
        assert counter.count(now=5.0) == 2
        # The clamp must not rewind the clock: window expiry still works.
        counter.add(5.5)
        assert counter.late_samples == 1
        assert counter.count(now=5.5) == 3

    def test_grossly_out_of_order_still_rejected(self):
        """Beyond one window, disorder stays a loud caller bug."""
        counter = BucketedSlidingCounter(window=10.0)
        counter.add(50.0)
        with pytest.raises(StatisticsError):
            counter.add(10.0)
        assert counter.late_samples == 0

    def test_unpickle_state_without_late_samples_slot(self):
        """Counters from pre-late_samples engine checkpoints keep working."""
        from collections import deque

        old = BucketedSlidingCounter.__new__(BucketedSlidingCounter)
        # The slots state an older build would have pickled (no late_samples).
        old.__setstate__(
            (
                None,
                {
                    "window": 10.0,
                    "num_buckets": 32,
                    "_bucket_width": 10.0 / 32,
                    "_buckets": deque([(4.6875, 1.0)]),
                    "_last_time": 5.0,
                },
            )
        )
        assert old.late_samples == 0
        old.add(4.0)  # boundedly late: clamps instead of AttributeError
        assert old.late_samples == 1
        assert old.count(now=5.0) == 2

    def test_running_total_equals_the_bucket_sum(self):
        """``count`` is the running total minus the stale head, for any
        ``now`` — bit-identical to summing the live buckets."""
        import random

        rng = random.Random(3)
        counter = BucketedSlidingCounter(window=4.0, num_buckets=8)
        clock = 0.0
        for _ in range(400):
            clock += rng.choice([0.0, 0.1, 0.7, 3.0])
            if rng.random() < 0.8:
                counter.add(clock, float(rng.randint(1, 5)))
            else:
                counter.advance(clock)
            for now in (None, clock, clock + 1.3, clock + 10.0):
                reference = clock if now is None else now
                expected = sum(
                    count
                    for start, count in counter._buckets
                    if start + counter._bucket_width > reference - counter.window
                )
                assert counter.count(now) == expected
        # Querying ahead of the clock drops nothing from the counter.
        before = list(counter._buckets)
        counter.count(now=clock + 2.0)
        assert list(counter._buckets) == before

    def test_replacing_the_buckets_resets_the_total(self):
        """Delta restore swaps the bucket run wholesale (``setattr``)."""
        from collections import deque

        counter = BucketedSlidingCounter(window=10.0, num_buckets=10)
        counter.add(1.0)
        counter._buckets = deque([(2.0, 3.0), (3.0, 4.0)])
        assert counter.count(now=3.0) == 7.0
        counter.add(3.5)
        assert counter.count(now=3.5) == 8.0

    def test_empty_counter(self):
        counter = BucketedSlidingCounter(window=10.0)
        assert counter.count() == 0.0
        assert counter.rate() == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(StatisticsError):
            BucketedSlidingCounter(window=0)
        with pytest.raises(StatisticsError):
            BucketedSlidingCounter(window=1, num_buckets=0)

    def test_advance_expires_without_counting(self):
        counter = BucketedSlidingCounter(window=5.0, num_buckets=5)
        counter.add(0.0)
        counter.advance(100.0)
        assert counter.count() == 0.0


class TestRateEstimator:
    def test_steady_rate(self):
        estimator = SlidingWindowRateEstimator(window=20.0)
        for t in np.arange(0, 20, 0.25):  # 4 events per time unit
            estimator.observe(float(t))
        assert estimator.rate() == pytest.approx(4.0, rel=0.2)

    def test_rate_drops_after_burst_expires(self):
        estimator = SlidingWindowRateEstimator(window=10.0)
        for t in np.arange(0, 5, 0.1):
            estimator.observe(float(t))
        burst_rate = estimator.rate(now=5.0)
        estimator.advance(30.0)
        assert estimator.rate(now=30.0) < burst_rate / 5

    def test_count(self):
        estimator = SlidingWindowRateEstimator(window=10.0)
        for t in range(5):
            estimator.observe(float(t))
        assert estimator.count(now=4.0) == 5


class TestSelectivityEstimator:
    def test_converges_to_observed_fraction(self):
        estimator = SlidingSelectivityEstimator(window=100.0, prior_weight=1.0)
        rng = np.random.default_rng(0)
        for t in np.arange(0, 100, 0.1):
            estimator.observe(float(t), bool(rng.random() < 0.3))
        assert estimator.selectivity() == pytest.approx(0.3, abs=0.05)

    def test_prior_used_before_evidence(self):
        estimator = SlidingSelectivityEstimator(window=10.0, prior_selectivity=0.7)
        assert estimator.selectivity() == pytest.approx(0.7)

    def test_selectivity_bounded(self):
        estimator = SlidingSelectivityEstimator(window=10.0, prior_weight=0.0)
        estimator.observe(1.0, True)
        assert 0.0 <= estimator.selectivity() <= 1.0

    def test_invalid_prior_rejected(self):
        with pytest.raises(StatisticsError):
            SlidingSelectivityEstimator(window=10.0, prior_selectivity=1.5)

    def test_attempts_counter(self):
        estimator = SlidingSelectivityEstimator(window=10.0)
        estimator.observe(0.0, True)
        estimator.observe(1.0, False)
        assert estimator.attempts(now=1.0) == 2


class TestTimeVaryingValues:
    def test_constant(self):
        assert ConstantValue(3.0).value_at(100.0) == 3.0

    def test_step_value(self):
        value = StepValue(1.0, [(10.0, 5.0), (20.0, 2.0)])
        assert value.value_at(0.0) == 1.0
        assert value.value_at(10.0) == 5.0
        assert value.value_at(15.0) == 5.0
        assert value.value_at(25.0) == 2.0
        assert value.shift_times == (10.0, 20.0)

    def test_step_value_requires_increasing_times(self):
        with pytest.raises(StatisticsError):
            StepValue(1.0, [(10.0, 5.0), (5.0, 2.0)])

    def test_linear_drift(self):
        value = LinearDriftValue(0.0, 10.0, t0=0.0, t1=10.0)
        assert value.value_at(-1.0) == 0.0
        assert value.value_at(5.0) == pytest.approx(5.0)
        assert value.value_at(20.0) == 10.0

    def test_linear_drift_invalid_interval(self):
        with pytest.raises(StatisticsError):
            LinearDriftValue(0.0, 1.0, t0=5.0, t1=5.0)

    def test_oscillating_value_range(self):
        value = OscillatingValue(base=10.0, amplitude=0.5, period=10.0)
        samples = [value.value_at(t) for t in np.arange(0, 20, 0.1)]
        assert max(samples) <= 15.0 + 1e-9
        assert min(samples) >= 5.0 - 1e-9
        assert max(samples) > 12.0 and min(samples) < 8.0

    def test_oscillating_invalid_period(self):
        with pytest.raises(StatisticsError):
            OscillatingValue(1.0, 0.1, period=0.0)

    def test_random_walk_deterministic(self):
        walk1 = RandomWalkValue(10.0, 0.05, horizon=100, step=1.0, rng=np.random.default_rng(3))
        walk2 = RandomWalkValue(10.0, 0.05, horizon=100, step=1.0, rng=np.random.default_rng(3))
        assert walk1.value_at(42.0) == walk2.value_at(42.0)

    def test_random_walk_bounds(self):
        walk = RandomWalkValue(
            10.0, 0.5, horizon=100, step=1.0, rng=np.random.default_rng(1), lower=5.0, upper=15.0
        )
        samples = [walk.value_at(t) for t in range(100)]
        assert min(samples) >= 5.0 and max(samples) <= 15.0

    def test_clamp(self):
        value = ConstantValue(5.0).clamp(0.0, 1.0)
        assert value.value_at(0.0) == 1.0


def make_pattern():
    a, b, c = EventType("A"), EventType("B"), EventType("C")
    condition = AndCondition(
        [EqualityCondition("a", "b", "pid"), EqualityCondition("b", "c", "pid")]
    )
    return seq([a, b, c], condition=condition, window=10.0)


class TestStatisticsCollector:
    def test_register_pattern_tracks_types_and_pairs(self):
        collector = StatisticsCollector(window=20.0)
        collector.register_pattern(make_pattern())
        assert set(collector.tracked_types) == {"A", "B", "C"}
        assert set(collector.tracked_pairs) == {("a", "b"), ("b", "c")}

    def test_observe_events_produces_rates(self):
        collector = StatisticsCollector(window=10.0)
        collector.register_pattern(make_pattern())
        for t in np.arange(0, 10, 0.5):
            collector.observe_event(Event(EventType("A"), float(t)))
        snapshot = collector.snapshot()
        assert snapshot.rate("A") == pytest.approx(2.0, rel=0.3)
        assert snapshot.rate("B") == 0.0

    def test_unregistered_type_ignored(self):
        collector = StatisticsCollector(window=10.0)
        collector.register_pattern(make_pattern())
        collector.observe_event(Event(EventType("ZZZ"), 1.0))
        assert not collector.snapshot().has_rate("ZZZ")

    def test_observe_condition_updates_selectivity(self):
        collector = StatisticsCollector(window=50.0, prior_selectivity=0.5)
        collector.register_pattern(make_pattern())
        for t in np.arange(0, 50, 0.5):
            collector.observe_condition("a", "b", float(t), success=(int(t) % 4 == 0))
        selectivity = collector.snapshot().selectivity("a", "b")
        assert selectivity < 0.4

    def test_invalid_window_rejected(self):
        with pytest.raises(StatisticsError):
            StatisticsCollector(window=0.0)

    def test_seed_from_snapshot(self):
        collector = StatisticsCollector(window=10.0)
        collector.register_pattern(make_pattern())
        collector.advance_time(10.0)
        collector.seed_from_snapshot(
            StatisticsSnapshot({"A": 4.0, "B": 2.0, "C": 1.0}, {("a", "b"): 0.25})
        )
        snapshot = collector.snapshot()
        assert snapshot.rate("A") > snapshot.rate("C") > 0
        assert snapshot.selectivity("a", "b") == pytest.approx(0.25, abs=0.05)

