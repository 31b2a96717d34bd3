"""Unit tests for the statistics substrate."""

from __future__ import annotations

import math
import pickle
import random
from collections import Counter, deque

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.conditions import (
    AndCondition,
    AttributeComparisonCondition,
    AttributeThresholdCondition,
    EqualityCondition,
)
from repro.engine import engine_for_plan
from repro.errors import StatisticsError
from repro.events import Event, EventType
from repro.patterns import seq
from repro.plans import OrderBasedPlan, TreeBasedPlan
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
        from collections import Counter, deque

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
        from collections import Counter, deque

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


# ----------------------------------------------------------------------
# The open-bucket counter against the eager algorithm it replaced
# ----------------------------------------------------------------------
class EagerCounter:
    """The eager ``BucketedSlidingCounter``: every update appends to (or
    grows) the newest bucket of the run and expires the stale head.

    The reference the open-bucket counter must equal on every read.  It is
    the algorithm the open bucket replaced, with one intended difference:
    its clock never goes backwards (a regression within ``1e-9`` clamps to
    the clock like a late update, without counting as late).
    """

    def __init__(self, window, num_buckets=32):
        self.window = float(window)
        self.num_buckets = int(num_buckets)
        self._bucket_width = self.window / self.num_buckets
        self._run = deque()
        self._total = 0.0
        self._last_time = None
        self.late_samples = 0

    def add(self, timestamp, amount=1.0):
        if self._last_time is not None and timestamp < self._last_time:
            if timestamp < self._last_time - 1e-9:
                if timestamp < self._last_time - self.window:
                    raise StatisticsError("out-of-order update beyond one window")
                self.late_samples += 1
            timestamp = self._last_time
        self._last_time = timestamp
        bucket_start = (timestamp // self._bucket_width) * self._bucket_width
        run = self._run
        if run and run[-1][0] == bucket_start:
            run[-1] = (bucket_start, run[-1][1] + amount)
        else:
            run.append((bucket_start, amount))
        self._total += amount
        self._expire(timestamp)

    def advance(self, timestamp):
        if self._last_time is None or timestamp > self._last_time:
            self._last_time = timestamp
        self._expire(timestamp)

    def count(self, now=None):
        reference = self._last_time if now is None else now
        if reference is None:
            return 0.0
        cutoff = reference - self.window
        total = self._total
        for start, count in self._run:
            if start + self._bucket_width > cutoff:
                break
            total -= count
        return total

    def rate(self, now=None):
        reference = self._last_time if now is None else now
        if reference is None or not self._run:
            return 0.0
        elapsed = max(reference - self._run[0][0], self._bucket_width)
        return self.count(now=reference) / min(elapsed, self.window)

    def _expire(self, now):
        cutoff = now - self.window
        while self._run and self._run[0][0] + self._bucket_width <= cutoff:
            self._total -= self._run.popleft()[1]


def _drive_against_eager(seed, steps=1500):
    """Drive both counters with one seeded operation sequence; every read
    (and every error) must agree exactly."""
    rng = random.Random(seed)
    window = rng.choice([1.0, 4.0, 10.0, 0.7])
    num_buckets = rng.choice([1, 4, 8, 32])
    counter = BucketedSlidingCounter(window, num_buckets)
    eager = EagerCounter(window, num_buckets)
    width = window / num_buckets
    clock = rng.uniform(0.0, 50.0)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.72:
            kind = rng.choice(
                ["same", "same", "same", "next", "gap", "late", "late", "noise", "boundary"]
            )
            if kind == "same":
                timestamp = clock + rng.uniform(0.0, width / 4)
            elif kind == "next":
                timestamp = clock + width
            elif kind == "gap":
                timestamp = clock + rng.choice([0.5, 1.0, 1.5, 3.0]) * window
            elif kind == "late":
                timestamp = clock - rng.uniform(0.0, 1.2 * window)
            elif kind == "noise":
                timestamp = clock - rng.uniform(1e-12, 9e-10)
            else:  # the start of the next bucket, then noise just behind it
                timestamp = (clock // width + 1) * width - rng.choice([0.0, 5e-10])
            amount = float(rng.choice([1, 1, 1, 2, 7]))
            outcomes = []
            for target in (counter, eager):
                try:
                    target.add(timestamp, amount)
                    outcomes.append(None)
                except StatisticsError:
                    outcomes.append("error")
            assert outcomes[0] == outcomes[1], (kind, timestamp)
            clock = max(clock, timestamp)
        elif roll < 0.8:
            timestamp = clock + rng.choice([-0.5, 0.0, 0.1, 1.0, 2.5]) * window
            counter.advance(timestamp)
            eager.advance(timestamp)
            clock = max(clock, timestamp)
        elif roll < 0.9:
            for now in (None, clock, clock - 0.3 * window, clock + 0.6 * window, clock + 3 * window):
                assert counter.count(now) == eager.count(now), now
                assert counter.rate(now) == eager.rate(now), now
        elif roll < 0.94:
            counter = pickle.loads(pickle.dumps(counter))
        elif roll < 0.97:
            # A delta snapshot: swap the run out for a sentinel and back,
            # restored the way a replayed chain restores it.
            run = counter._buckets
            counter._buckets = object()
            counter._buckets = deque(sorted(dict(run).items()))
        else:
            assert list(counter._buckets) == list(eager._run)
        assert counter.late_samples == eager.late_samples
    assert counter.count() == eager.count()
    assert counter.rate() == eager.rate()
    assert list(counter._buckets) == list(eager._run)


@pytest.mark.parametrize("seed", range(12))
def test_open_bucket_counter_equals_the_eager_algorithm(seed):
    _drive_against_eager(seed)


def test_the_clock_never_goes_backwards():
    """A regression within the 1e-9 tolerance used to rewind the clock and,
    at a bucket boundary, append an older bucket behind a newer one."""
    counter = BucketedSlidingCounter(window=4.0, num_buckets=4)
    counter.add(5.0)
    counter.add(5.0 - 5e-10)
    assert counter._last_time == 5.0
    assert counter.late_samples == 0
    assert list(counter._buckets) == [(5.0, 2.0)]
    counter.advance(4.0)
    assert counter._last_time == 5.0


# ----------------------------------------------------------------------
# Every condition report names the canonical (sorted) pair
# ----------------------------------------------------------------------
class CanonicalPairsOnly(StatisticsCollector):
    """A collector that refuses a report under an unsorted pair: the
    report path indexes its estimators with the pair as given."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reports = Counter()

    def observe_condition(self, a, b, timestamp, success):
        if a > b:
            raise AssertionError(f"unsorted pair reported: ({a!r}, {b!r})")
        self.reports["single"] += 1
        super().observe_condition(a, b, timestamp, success)

    def observe_condition_bulk(self, a, b, timestamp, attempts, successes=0.0):
        if a > b:
            raise AssertionError(f"unsorted pair reported in bulk: ({a!r}, {b!r})")
        self.reports["bulk"] += 1
        super().observe_condition_bulk(a, b, timestamp, attempts, successes)


def _reversed_names_pattern():
    """SEQ(A z, B y, C x): declaration order is the reverse of sort order,
    with equi-joins (indexable), a comparison and a local condition."""
    a, b, c = EventType("A"), EventType("B"), EventType("C")
    condition = AndCondition(
        [
            EqualityCondition("z", "y", "pid"),
            EqualityCondition("y", "x", "pid"),
            AttributeComparisonCondition("z", "v", "<", "x", "v"),
            AttributeThresholdCondition("x", "v", ">", 0.2),
        ]
    )
    return seq([a, b, c], condition=condition, variables=["z", "y", "x"], window=3.0)


def _reversed_names_stream(count=600, seed=5):
    rng = random.Random(seed)
    types = [EventType("A"), EventType("B"), EventType("C")]
    events, clock = [], 0.0
    for number in range(count):
        clock += rng.choice([0.0, 0.05, 0.1, 0.3])
        events.append(
            Event(
                rng.choice(types),
                clock,
                {"pid": rng.randint(0, 5), "v": rng.random()},
                sequence_number=number,
            )
        )
    return events


@pytest.mark.parametrize(
    "family, compile_mode",
    [
        ("nfa", "interpreted"),
        ("nfa", "compiled"),
        ("nfa", "indexed"),
        ("tree", "interpreted"),
        ("tree", "compiled"),
        ("tree", "indexed"),
    ],
)
def test_every_condition_report_uses_the_canonical_pair(family, compile_mode):
    pattern = _reversed_names_pattern()
    collector = CanonicalPairsOnly(window=15.0)
    collector.register_pattern(pattern)
    if family == "nfa":
        plan = OrderBasedPlan(pattern, ["z", "y", "x"])
    else:
        plan = TreeBasedPlan.left_deep(pattern, ["z", "y", "x"])
    engine = engine_for_plan(plan, collector, compile_mode=compile_mode)
    matches = 0
    for event in _reversed_names_stream():
        collector.observe_event(event)
        matches += len(engine.process(event))
    assert matches > 0
    assert collector.reports["single"] > 0
    if family == "nfa" and compile_mode == "indexed":
        assert collector.reports["bulk"] > 0
    # Every tracked pair saw evidence: no report was dropped by a miss.
    for a, b in collector.tracked_pairs:
        assert collector.selectivity_estimator(a, b).attempts() > 0, (a, b)


# ----------------------------------------------------------------------
# Checkpoints taken while a bucket is open
# ----------------------------------------------------------------------
def _adaptive_engine():
    from repro.adaptive import InvariantBasedPolicy
    from repro.engine import AdaptiveCEPEngine
    from repro.optimizer import GreedyOrderPlanner

    return AdaptiveCEPEngine(
        _reversed_names_pattern(),
        GreedyOrderPlanner(),
        InvariantBasedPolicy(distance=0.05),
        monitoring_interval=1.0,
        compile_mode="indexed",
    )


def _match_digest(matches):
    return sorted(
        (
            match.detection_time,
            tuple(
                (variable, event.sequence_number)
                for variable, event in sorted(match.bindings.items())
            ),
        )
        for match in matches
    )


def _controller_counts(engine):
    stats = engine.controller.statistics
    return (
        stats.decisions_evaluated,
        stats.reoptimizations_requested,
        stats.plans_generated,
        stats.plans_replaced,
    )


def _lands_in_open_bucket(engine, event):
    """Whether ``event`` lands in the open bucket of its type's rate counter."""
    counter = engine._collector._rate_estimators[event.type_name]._counter
    return (
        counter._open_index is not None
        and event.timestamp // counter._bucket_width == counter._open_index
    )


@pytest.mark.parametrize("mode", ["full", "delta"])
def test_checkpoint_mid_bucket_resumes_like_an_uninterrupted_run(mode):
    from repro.engine.state import restore_engine, snapshot_engine
    from repro.streaming import DeltaTracker, materialize_engine_blob

    events = _reversed_names_stream(count=1500, seed=8)
    reference = _adaptive_engine()
    expected = [m for event in events for m in reference.process(event)]

    engine = _adaptive_engine()
    served = []
    for cut, event in enumerate(events):
        if cut == 200:
            base = snapshot_engine(engine)
            tracker = DeltaTracker(engine)
            tracker.prime(0)
        if cut >= 700 and _lands_in_open_bucket(engine, event):
            break
        served += engine.process(event)
    assert _lands_in_open_bucket(engine, events[cut])
    if mode == "full":
        restored = restore_engine(snapshot_engine(engine))
    else:
        restored = restore_engine(materialize_engine_blob(base, [tracker.encode_frame(0, 1)]))
    tail = events[cut:]
    live = served + [m for event in tail for m in engine.process(event)]
    resumed = served + [m for event in tail for m in restored.process(event)]

    assert _controller_counts(reference)[3] > 0  # the run adapted
    for run, name in ((live, "checkpointed"), (resumed, "restored")):
        assert _match_digest(run) == _match_digest(expected), name
    for candidate in (engine, restored):
        assert _controller_counts(candidate) == _controller_counts(reference)
        assert candidate.plan_history == reference.plan_history
        assert candidate._collector.snapshot() == reference._collector.snapshot()


# ---------------------------------------------------------------------------
# The per-tick probe D reads: the snapshot's floats, computed on demand
# ---------------------------------------------------------------------------
_PROBE_TYPES = ("A", "B", "C")
_PROBE_PAIRS = (("a", "b"), ("b", "c"), ("a", "a"))


def _probe_collector(shared, arrivals, outcomes):
    """A collector tracking A, B, C and the pairs above, fed a random state.

    The shared variant reads its rates from a hub that also tracks ``D``
    for another pattern, which this collector must still report as
    untracked.
    """
    from repro.multi.hub import SharedStatisticsCollector, SharedStatisticsHub

    if shared:
        hub = SharedStatisticsHub(window=8.0, num_buckets=4)
        hub.rate_estimator("D")
        collector = SharedStatisticsCollector(hub)
    else:
        hub = None
        collector = StatisticsCollector(window=8.0, num_buckets=4)
    for name in _PROBE_TYPES:
        collector.register_event_type(EventType(name))
    for a, b in _PROBE_PAIRS:
        collector.register_pair(a, b)
    time = 0.0
    for (type_name, step), (pair, success) in zip(arrivals, outcomes):
        time += step
        event = Event(EventType(type_name), time)
        if hub is not None:
            hub.observe(event)
        collector.observe_event(event)
        collector.observe_condition(*pair, time, success)
    return collector, time


def _probe_terms():
    from repro.optimizer.terms import LocalSelectivityTerm, RateTerm, SelectivityTerm

    terms = [RateTerm(name) for name in (*_PROBE_TYPES, "D")]
    terms += [SelectivityTerm(a, b) for a, b in (*_PROBE_PAIRS, ("b", "a"), ("c", "d"))]
    terms += [LocalSelectivityTerm(v) for v in ("a", "b", "d")]
    return terms


@given(
    shared=st.booleans(),
    arrivals=st.lists(
        st.tuples(st.sampled_from(("A", "B", "C", "D")), st.sampled_from((0.0, 0.3, 1.0, 2.5))),
        max_size=40,
    ),
    outcomes=st.lists(
        st.tuples(st.sampled_from(_PROBE_PAIRS + (("c", "d"),)), st.booleans()), max_size=40
    ),
    lag=st.sampled_from((0.0, 0.5, 4.0, 20.0)),
    order=st.randoms(use_true_random=False),
)
def test_probe_reads_the_snapshots_floats(shared, arrivals, outcomes, lag, order):
    """Every rate and selectivity term evaluates to the same float through
    a probe as through ``collector.snapshot(now)``, untracked types and
    pairs included, whatever order the probe is read in."""
    collector, last = _probe_collector(shared, arrivals, outcomes)
    now = last + lag
    terms = _probe_terms()
    order.shuffle(terms)
    probe = collector.probe(now)
    probed = [term.evaluate(probe) for term in terms]
    snapshot = collector.snapshot(now)
    for term, value in zip(terms, probed):
        expected = term.evaluate(snapshot)
        assert type(value) is type(expected) and value == expected, term.describe()
    assert probe.snapshot() == snapshot and probe.timestamp == snapshot.timestamp


@pytest.mark.parametrize("shared", [False, True])
def test_probe_raises_after_the_collector_moves_on(shared):
    collector, last = _probe_collector(shared, [("A", 1.0)], [(("a", "b"), True)])
    probe = collector.probe(last + 1.0)
    assert probe.rate_or_default("A") > 0.0
    collector.observe_event(Event(EventType("A"), last + 1.0))
    for read in (
        lambda: probe.rate_or_default("A"),
        lambda: probe.selectivity("a", "b"),
        lambda: probe.local_selectivity("a"),
        probe.snapshot,
    ):
        with pytest.raises(StatisticsError, match="after its tick"):
            read()


def test_probe_driven_run_decides_as_a_snapshot_driven_run(monkeypatch):
    """On a small stocks pattern set, deciding from probes gives the same
    adaptation counts, plan history and replacement times as handing
    ``collector.snapshot(now)`` to ``AdaptationController.update``."""
    from repro.adaptive import InvariantBasedPolicy
    from repro.engine import MultiPatternEngine
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import build_dataset, build_workload
    from repro.multi import PatternSet
    from repro.optimizer import GreedyOrderPlanner

    config = ExperimentConfig(dataset="stocks", duration=40.0, max_events=2000)
    dataset = build_dataset(config)
    patterns = build_workload(config, dataset).similar_sequence_patterns(4, size=4)
    events = dataset.generate(
        duration=config.duration, seed=config.stream_seed, max_events=config.max_events
    ).to_list()

    def run():
        engine = MultiPatternEngine(
            PatternSet(patterns),
            GreedyOrderPlanner(),
            policy_factory=lambda: InvariantBasedPolicy(distance=0.1),
            compile_mode="compiled",
        )
        engine.run(events)
        decisions = []
        for adaptive in engine.sub_engines:
            stats = adaptive.controller.statistics
            decisions.append(
                (
                    stats.decisions_evaluated,
                    stats.reoptimizations_requested,
                    stats.plans_generated,
                    stats.plans_replaced,
                    [(r.time, r.plan_description) for r in stats.replacements],
                )
            )
        return decisions, engine.plan_history

    probed = run()
    monkeypatch.setattr(StatisticsCollector, "probe", StatisticsCollector.snapshot)
    snapshotted = run()
    assert probed == snapshotted
    assert sum(counts[3] for counts in probed[0]) > 0, "no plan was replaced"
