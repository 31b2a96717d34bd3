"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.conditions import AndCondition, EqualityCondition
from repro.engine import LazyNFAEngine, TreeEvaluationEngine
from repro.events import Event, EventType, InMemoryEventStream
from repro.optimizer import GreedyOrderPlanner, ZStreamTreePlanner
from repro.adaptive import build_invariant_set
from repro.patterns import conjunction, seq
from repro.optimizer.cost import order_plan_cost
from repro.plans import OrderBasedPlan, TreeBasedPlan
from repro.statistics import BucketedSlidingCounter, StatisticsSnapshot
from repro.statistics.collector import pairs_for_pattern

A, B, C = EventType("A"), EventType("B"), EventType("C")

TYPE_NAMES = ("A", "B", "C")
TYPES = {"A": A, "B": B, "C": C}


def camera_pattern(window=10.0):
    condition = AndCondition(
        [EqualityCondition("a", "b", "pid"), EqualityCondition("b", "c", "pid")]
    )
    return seq([A, B, C], condition=condition, window=window)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
rates_strategy = st.fixed_dictionaries(
    {
        "A": st.floats(min_value=0.1, max_value=1000.0, allow_nan=False),
        "B": st.floats(min_value=0.1, max_value=1000.0, allow_nan=False),
        "C": st.floats(min_value=0.1, max_value=1000.0, allow_nan=False),
    }
)

selectivities_strategy = st.fixed_dictionaries(
    {
        ("a", "b"): st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        ("b", "c"): st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    }
)


def snapshot_strategy():
    return st.builds(
        lambda rates, sels: StatisticsSnapshot(rates, sels),
        rates_strategy,
        selectivities_strategy,
    )


TRIAL_TYPES = tuple(EventType(name) for name in "PQRSTU")


@st.composite
def adaptation_trial(draw):
    """A pattern, the snapshot it is planned from and a later snapshot.

    A SEQ or AND of 3–6 types with a chain or all-pairs equality join;
    rates from U(0.1, 100) and selectivities from U(0.01, 1), each scaled
    by a log-normal factor of spread ``sigma`` in the later snapshot
    (selectivities capped at 1).  The values come from a drawn seed, so
    they are continuous: no two statistics tie by construction.
    """
    size = draw(st.integers(min_value=3, max_value=6))
    types = list(TRIAL_TYPES[:size])
    variables = [event_type.name.lower() for event_type in types]
    if draw(st.booleans()):
        joined = list(zip(variables, variables[1:]))
    else:
        joined = [(a, b) for i, a in enumerate(variables) for b in variables[i + 1 :]]
    build = draw(st.sampled_from([seq, conjunction]))
    pattern = build(
        types,
        condition=AndCondition([EqualityCondition(a, b, "pid") for a, b in joined]),
        window=10.0,
    )
    sigma = draw(st.sampled_from([0.05, 0.3, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rates = {event_type.name: rng.uniform(0.1, 100.0) for event_type in types}
    selectivities = {pair: rng.uniform(0.01, 1.0) for pair in pairs_for_pattern(pattern)}
    later_rates = {name: rate * rng.lognormvariate(0.0, sigma) for name, rate in rates.items()}
    later_selectivities = {
        pair: min(1.0, value * rng.lognormvariate(0.0, sigma))
        for pair, value in selectivities.items()
    }
    return (
        pattern,
        StatisticsSnapshot(rates, selectivities),
        StatisticsSnapshot(later_rates, later_selectivities),
    )


events_strategy = st.lists(
    st.tuples(
        st.sampled_from(TYPE_NAMES),
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=0,
    max_size=40,
)


def build_stream(rows):
    events = [
        Event(TYPES[name], timestamp, {"pid": pid}) for name, timestamp, pid in rows
    ]
    return InMemoryEventStream(events)


def reference_match_keys(events, window):
    """Brute-force SEQ(A,B,C) equi-join matches as a set of event-id triples."""
    events = list(events)
    matches = set()
    for a in events:
        if a.type_name != "A":
            continue
        for b in events:
            if b.type_name != "B" or not a.timestamp < b.timestamp:
                continue
            if b.payload["pid"] != a.payload["pid"]:
                continue
            for c in events:
                if c.type_name != "C" or not b.timestamp < c.timestamp:
                    continue
                if c.payload["pid"] != b.payload["pid"]:
                    continue
                if c.timestamp - a.timestamp > window:
                    continue
                matches.add(
                    frozenset(
                        (e.type_name, e.timestamp, e.sequence_number) for e in (a, b, c)
                    )
                )
    return matches


# ---------------------------------------------------------------------------
# Sliding-window counter properties
# ---------------------------------------------------------------------------
class TestSlidingCounterProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=60),
        st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_never_exceeds_total_and_matches_window(self, timestamps, window):
        timestamps = sorted(timestamps)
        counter = BucketedSlidingCounter(window=window, num_buckets=16)
        for timestamp in timestamps:
            counter.add(timestamp)
        if not timestamps:
            assert counter.count() == 0
            return
        now = timestamps[-1]
        in_window = sum(1 for t in timestamps if t > now - window)
        count = counter.count(now=now)
        # Bucketed expiry may retain at most one extra bucket's worth of events
        # and never loses events that are inside the window.
        assert count >= in_window
        assert count <= len(timestamps)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=40),
        st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_rate_is_nonnegative_and_finite(self, timestamps, window):
        counter = BucketedSlidingCounter(window=window, num_buckets=8)
        for timestamp in sorted(timestamps):
            counter.add(timestamp)
        rate = counter.rate()
        assert rate >= 0.0
        assert rate < float("inf")


# ---------------------------------------------------------------------------
# Cost model and planner properties
# ---------------------------------------------------------------------------
class TestPlannerProperties:
    @given(snapshot_strategy())
    @settings(max_examples=60, deadline=None)
    def test_greedy_plan_structure_invariants(self, snapshot):
        """Structural guarantees of the greedy planner for any statistics.

        The plan is a permutation of the positive items, its first step is
        the globally cheapest single item (the greedy base case), its cost is
        finite and positive, and each block carries at most (remaining
        candidates - 1) deciding conditions.
        """
        pattern = camera_pattern()
        result = GreedyOrderPlanner().generate(pattern, snapshot)
        order = result.plan.order
        assert sorted(order) == ["a", "b", "c"]
        first_costs = {
            variable: order_plan_cost(snapshot, pattern, [variable])
            for variable in ("a", "b", "c")
        }
        assert first_costs[order[0]] == min(first_costs.values())
        total = order_plan_cost(snapshot, pattern, order)
        assert 0.0 < total < float("inf")
        for index, condition_set in enumerate(result.condition_sets):
            assert len(condition_set) <= len(order) - 1 - index

    @given(snapshot_strategy())
    @settings(max_examples=60, deadline=None)
    def test_zstream_plan_not_worse_than_canonical_trees(self, snapshot):
        pattern = camera_pattern()
        result = ZStreamTreePlanner().generate(pattern, snapshot)
        for alternative in (TreeBasedPlan.left_deep(pattern), TreeBasedPlan.right_deep(pattern)):
            assert result.plan.cost(snapshot) <= alternative.cost(snapshot) * (1.0 + 1e-9)

    @given(snapshot_strategy())
    @settings(max_examples=60, deadline=None)
    def test_planners_are_deterministic(self, snapshot):
        pattern = camera_pattern()
        assert (
            GreedyOrderPlanner().generate(pattern, snapshot).plan
            == GreedyOrderPlanner().generate(pattern, snapshot).plan
        )
        assert (
            ZStreamTreePlanner().generate(pattern, snapshot).plan
            == ZStreamTreePlanner().generate(pattern, snapshot).plan
        )

    @given(snapshot_strategy())
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_at_creation(self, snapshot):
        """Freshly built invariants are satisfied by the snapshot that built them
        (up to exact ties, which are recorded with zero slack)."""
        pattern = camera_pattern()
        result = GreedyOrderPlanner().generate(pattern, snapshot)
        invariants = build_invariant_set(result, k=0)
        for invariant in invariants:
            assert invariant.slack(snapshot) >= -1e-12

    @pytest.mark.parametrize("planner", [GreedyOrderPlanner, ZStreamTreePlanner])
    @given(case=adaptation_trial())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_no_false_positives_property(self, planner, case):
        """Theorem 1 as a property: a violated invariant implies a different
        plan, with one (``k = 1``) or every (``k = 0``) deciding condition
        per block monitored; and an invariant relaxed by a minimal distance
        ``d > 0`` is violated only where the ``d = 0`` invariant is too."""
        pattern, creation_snapshot, later_snapshot = case
        result = planner().generate(pattern, creation_snapshot)
        regenerated = planner().generate(pattern, later_snapshot).plan
        for k in (1, 0):
            if build_invariant_set(result, k=k).is_violated(later_snapshot):
                assert regenerated != result.plan
        strict = build_invariant_set(result, k=0)
        for distance in (0.1, 1.0):
            relaxed = build_invariant_set(result, k=0, distance=distance)
            for relaxed_invariant, invariant in zip(relaxed, strict):
                if relaxed_invariant.is_violated(later_snapshot):
                    assert invariant.is_violated(later_snapshot)

    @given(case=adaptation_trial())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_full_invariant_set_has_no_false_negatives(self, case):
        """Theorem 2 as a property: with all deciding conditions monitored, a
        different greedy plan implies some violated invariant.  The
        statistics are continuous, so no monitored comparison is an exact
        tie that the planner's index rule would break instead."""
        pattern, creation_snapshot, later_snapshot = case
        planner = GreedyOrderPlanner()
        result = planner.generate(pattern, creation_snapshot)
        invariants = build_invariant_set(result, k=0)
        if not invariants.is_violated(later_snapshot):
            assert planner.generate(pattern, later_snapshot).plan == result.plan


# ---------------------------------------------------------------------------
# Engine correctness properties
# ---------------------------------------------------------------------------
class TestEngineProperties:
    @given(events_strategy, st.sampled_from([("a", "b", "c"), ("c", "b", "a"), ("b", "a", "c")]))
    @settings(max_examples=40, deadline=None)
    def test_nfa_matches_reference_for_any_stream_and_order(self, rows, order):
        pattern = camera_pattern(window=10.0)
        stream = build_stream(rows)
        expected = reference_match_keys(stream, window=10.0)
        engine = LazyNFAEngine(OrderBasedPlan(pattern, order))
        found = set()
        for event in stream:
            for match in engine.process(event):
                found.add(match.event_ids())
        assert found == expected

    @given(events_strategy)
    @settings(max_examples=40, deadline=None)
    def test_tree_matches_reference_for_any_stream(self, rows):
        pattern = camera_pattern(window=10.0)
        stream = build_stream(rows)
        expected = reference_match_keys(stream, window=10.0)
        engine = TreeEvaluationEngine(TreeBasedPlan.right_deep(pattern))
        found = set()
        for event in stream:
            for match in engine.process(event):
                found.add(match.event_ids())
        assert found == expected

    @given(events_strategy)
    @settings(max_examples=30, deadline=None)
    def test_nfa_and_tree_always_agree(self, rows):
        pattern = camera_pattern(window=8.0)
        stream = build_stream(rows)
        nfa = LazyNFAEngine(OrderBasedPlan(pattern, ("c", "a", "b")))
        tree = TreeEvaluationEngine(TreeBasedPlan.left_deep(pattern))
        nfa_found = set()
        tree_found = set()
        for event in stream:
            for match in nfa.process(event):
                nfa_found.add(match.event_ids())
        for event in stream:
            for match in tree.process(event):
                tree_found.add(match.event_ids())
        assert nfa_found == tree_found
