"""Unit tests for the adaptive core (invariants, policies, controller, distances)."""

from __future__ import annotations

import pytest

from repro.adaptive import (
    AdaptationController,
    AverageRelativeDifferenceDistance,
    ConstantThresholdPolicy,
    FixedDistance,
    InvariantBasedPolicy,
    StaticPolicy,
    UnconditionalPolicy,
    average_relative_difference,
    build_invariant_set,
)
from repro.adaptive.distance import MetaAdaptiveDistance
from repro.adaptive.invariants import (
    RandomSelectionStrategy,
    TightestConditionStrategy,
    ViolationProbabilityStrategy,
)
from repro.conditions import AndCondition, EqualityCondition
from repro.errors import AdaptationError
from repro.events import EventType
from repro.optimizer import GreedyOrderPlanner, ZStreamTreePlanner
from repro.patterns import seq
from repro.statistics import StatisticsSnapshot


A, B, C = EventType("A"), EventType("B"), EventType("C")


def camera_pattern():
    condition = AndCondition(
        [EqualityCondition("a", "b", "pid"), EqualityCondition("b", "c", "pid")]
    )
    return seq([A, B, C], condition=condition, window=10.0)


def snapshot(a=100.0, b=15.0, c=10.0, sel_ab=0.3, sel_bc=0.2, t=0.0):
    return StatisticsSnapshot(
        {"A": a, "B": b, "C": c}, {("a", "b"): sel_ab, ("b", "c"): sel_bc}, timestamp=t
    )


def generate(planner=None, snap=None):
    planner = planner or GreedyOrderPlanner()
    return planner.generate(camera_pattern(), snap or snapshot())


class TestInvariantSet:
    def test_basic_method_selects_one_invariant_per_block(self):
        result = generate()
        invariants = build_invariant_set(result, k=1)
        # Blocks with non-empty DCS: positions 1 and 2 -> two invariants.
        assert len(invariants) == 2

    def test_tightest_condition_selected(self):
        result = generate()
        invariants = build_invariant_set(result, k=1)
        # The paper's example: the tightest condition of DCS1 is rateC < rateB.
        first = invariants.invariants[0]
        assert "rate(B)" in first.condition.rhs.describe()

    def test_k_invariant_method_selects_more(self):
        result = generate()
        assert len(build_invariant_set(result, k=2)) == 3
        assert len(build_invariant_set(result, k=0)) == result.total_conditions()

    def test_no_violation_when_statistics_unchanged(self):
        result = generate()
        invariants = build_invariant_set(result, k=1)
        assert invariants.first_violated(snapshot()) is None

    def test_violation_detected_when_order_flips(self):
        result = generate()
        invariants = build_invariant_set(result, k=1)
        flipped = snapshot(c=30.0)  # C's rate now exceeds B's
        violated = invariants.first_violated(flipped)
        assert violated is not None
        assert "rate(C)" in violated.condition.lhs.describe()

    def test_first_violated_respects_order(self):
        result = generate()
        invariants = build_invariant_set(result, k=1)
        # Both blocks violated; the first (position 1) must be reported.
        wild = snapshot(a=1.0, b=2.0, c=300.0)
        violated = invariants.first_violated(wild)
        assert violated is invariants.invariants[0]

    def test_violations_lists_all(self):
        result = generate()
        invariants = build_invariant_set(result, k=1)
        # C overtakes B (first invariant) and B's step expression overtakes A
        # (second invariant): both are violated.
        wild = snapshot(a=1.0, b=100.0, c=300.0)
        assert len([inv for inv in invariants if inv.is_violated(wild)]) == 2

    def test_distance_suppresses_small_changes(self):
        result = generate()
        strict = build_invariant_set(result, k=1, distance=0.0)
        relaxed = build_invariant_set(result, k=1, distance=0.5)
        slightly_flipped = snapshot(c=16.0)  # C barely exceeds B
        assert strict.is_violated(slightly_flipped)
        assert not relaxed.is_violated(slightly_flipped)
        strongly_flipped = snapshot(c=40.0)
        assert relaxed.is_violated(strongly_flipped)

    def test_negative_distance_rejected(self):
        with pytest.raises(AdaptationError):
            build_invariant_set(generate(), distance=-0.1)

    def test_describe_mentions_blocks(self):
        text = build_invariant_set(generate(), k=1).describe()
        assert "pos1" in text


class TestSelectionStrategies:
    def test_tightest_strategy(self):
        result = generate()
        strategy = TightestConditionStrategy()
        selected = strategy.select(result.condition_sets[0], result.snapshot, 1)
        assert "rate(B)" in selected[0].rhs.describe()

    def test_violation_probability_strategy_defaults_to_tight(self):
        result = generate()
        strategy = ViolationProbabilityStrategy()
        selected = strategy.select(result.condition_sets[0], result.snapshot, 1)
        assert "rate(B)" in selected[0].rhs.describe()

    def test_violation_probability_custom_scorer(self):
        result = generate()
        # Prefer the condition against A by scoring it highest.
        strategy = ViolationProbabilityStrategy(
            probability=lambda condition, snap: 1.0
            if "rate(A)" in condition.rhs.describe()
            else 0.0
        )
        selected = strategy.select(result.condition_sets[0], result.snapshot, 1)
        assert "rate(A)" in selected[0].rhs.describe()

    def test_random_strategy_deterministic_per_seed(self):
        result = generate()
        strategy = RandomSelectionStrategy(seed=1)
        first = strategy.select(result.condition_sets[0], result.snapshot, 1)
        second = strategy.select(result.condition_sets[0], result.snapshot, 1)
        assert [c.describe() for c in first] == [c.describe() for c in second]

    def test_empty_set_selects_nothing(self):
        result = generate()
        empty = result.condition_sets[-1]
        assert TightestConditionStrategy().select(empty, result.snapshot, 1) == []
        assert ViolationProbabilityStrategy().select(empty, result.snapshot, 1) == []


class TestDistanceEstimators:
    def test_average_relative_difference_formula(self):
        result = generate()
        davg = average_relative_difference(result.condition_sets, result.snapshot)
        # Conditions: C<B (rel 0.5), C<A (rel 9), B*sel(b,c)=3<A (rel 97/3)
        assert davg == pytest.approx((0.5 + 9.0 + (100.0 / 3.0 - 1.0)) / 3.0, rel=1e-6)

    def test_average_relative_difference_empty(self):
        assert average_relative_difference([], snapshot()) == 0.0

    def test_fixed_distance(self):
        assert FixedDistance(0.25).distance_for(generate()) == 0.25
        with pytest.raises(AdaptationError):
            FixedDistance(-1.0)

    def test_davg_estimator_with_cap(self):
        estimator = AverageRelativeDifferenceDistance(cap=0.5)
        assert estimator.distance_for(generate()) == 0.5

    def test_meta_adaptive_increases_on_low_gain(self):
        estimator = MetaAdaptiveDistance(initial_distance=0.1, target_gain=0.2)
        estimator.observe_adaptation(previous_cost=100.0, new_cost=99.0)
        assert estimator.current_distance > 0.1

    def test_meta_adaptive_decreases_on_high_gain(self):
        estimator = MetaAdaptiveDistance(initial_distance=0.5, target_gain=0.1)
        estimator.observe_adaptation(previous_cost=100.0, new_cost=10.0)
        assert estimator.current_distance < 0.5

    def test_meta_adaptive_invalid_parameters(self):
        with pytest.raises(AdaptationError):
            MetaAdaptiveDistance(initial_distance=-1)
        with pytest.raises(AdaptationError):
            MetaAdaptiveDistance(adjustment=0.9)


class TestPolicies:
    def test_static_policy_never_adapts(self):
        policy = StaticPolicy()
        assert not policy.should_reoptimize(snapshot()).reoptimize

    def test_unconditional_policy_always_adapts(self):
        policy = UnconditionalPolicy()
        assert policy.should_reoptimize(snapshot()).reoptimize

    def test_threshold_policy_requires_reference(self):
        policy = ConstantThresholdPolicy(0.5)
        assert policy.should_reoptimize(snapshot()).reoptimize  # no reference yet
        policy.on_plan_installed(generate(), snapshot())
        assert not policy.should_reoptimize(snapshot()).reoptimize

    def test_threshold_policy_triggers_on_large_deviation(self):
        policy = ConstantThresholdPolicy(0.5)
        policy.on_plan_installed(generate(), snapshot())
        assert not policy.should_reoptimize(snapshot(a=120.0)).reoptimize  # 20% < 50%
        assert policy.should_reoptimize(snapshot(a=200.0)).reoptimize  # 100% > 50%

    def test_threshold_policy_detects_selectivity_drift(self):
        policy = ConstantThresholdPolicy(0.5)
        policy.on_plan_installed(generate(), snapshot())
        assert policy.should_reoptimize(snapshot(sel_ab=0.9)).reoptimize

    def test_threshold_negative_rejected(self):
        with pytest.raises(AdaptationError):
            ConstantThresholdPolicy(-0.1)

    def test_invariant_policy_no_false_positive_on_unchanged_stats(self):
        policy = InvariantBasedPolicy()
        policy.on_plan_installed(generate(), snapshot())
        assert not policy.should_reoptimize(snapshot()).reoptimize

    def test_invariant_policy_detects_order_flip(self):
        policy = InvariantBasedPolicy()
        policy.on_plan_installed(generate(), snapshot())
        decision = policy.should_reoptimize(snapshot(c=30.0))
        assert decision.reoptimize
        assert decision.violated_invariant is not None

    def test_invariant_policy_before_first_plan(self):
        policy = InvariantBasedPolicy()
        assert policy.should_reoptimize(snapshot()).reoptimize

    def test_invariant_policy_distance_estimator(self):
        policy = InvariantBasedPolicy(distance=AverageRelativeDifferenceDistance(cap=0.3))
        policy.on_plan_installed(generate(), snapshot())
        assert policy.current_distance == pytest.approx(0.3)

    def test_invariant_policy_ignores_irrelevant_rate_changes(self):
        """Changing A's rate (the least sensitive type) must not trigger."""
        policy = InvariantBasedPolicy()
        policy.on_plan_installed(generate(), snapshot())
        assert not policy.should_reoptimize(snapshot(a=500.0)).reoptimize


class TestAdaptationController:
    def test_initial_plan_installed(self):
        controller = AdaptationController(
            camera_pattern(), GreedyOrderPlanner(), InvariantBasedPolicy(), snapshot()
        )
        assert controller.current_plan.order == ("c", "b", "a")
        # The initial plan is generated, but it replaces nothing.
        assert controller.statistics.plans_generated == 1
        assert controller.statistics.plans_replaced == 0
        assert controller.statistics.replacements == []

    def test_no_reoptimization_without_changes(self):
        controller = AdaptationController(
            camera_pattern(), GreedyOrderPlanner(), InvariantBasedPolicy(), snapshot()
        )
        assert controller.update(snapshot(t=1.0)) is None
        assert controller.statistics.plans_replaced == 0
        assert controller.statistics.plans_generated == 1

    def test_reoptimization_installs_better_plan(self):
        controller = AdaptationController(
            camera_pattern(), GreedyOrderPlanner(), InvariantBasedPolicy(), snapshot()
        )
        new_plan = controller.update(snapshot(c=30.0, t=5.0))
        assert new_plan is not None
        assert new_plan.order == ("b", "c", "a")
        assert controller.statistics.plans_replaced == 1
        assert controller.statistics.replacements[0].new_cost < controller.statistics.replacements[0].previous_cost
        assert controller.statistics.replacements[0].trigger_distance == 0.0

    def test_policy_without_distance_records_none(self):
        controller = AdaptationController(
            camera_pattern(), GreedyOrderPlanner(), ConstantThresholdPolicy(0.5), snapshot()
        )
        assert controller.update(snapshot(c=30.0, t=5.0)) is not None
        assert controller.statistics.replacements[0].trigger_distance is None

    def test_invariants_rebuilt_after_replacement(self):
        policy = InvariantBasedPolicy()
        controller = AdaptationController(
            camera_pattern(), GreedyOrderPlanner(), policy, snapshot()
        )
        controller.update(snapshot(c=30.0, t=5.0))
        # New invariants reflect the new plan: B is now the initiator.
        assert "rate(B)" in policy.invariants.invariants[0].condition.lhs.describe()

    def test_unconditional_policy_regenerates_but_keeps_equal_plan(self):
        controller = AdaptationController(
            camera_pattern(), GreedyOrderPlanner(), UnconditionalPolicy(), snapshot()
        )
        assert controller.update(snapshot(t=1.0)) is None
        assert controller.statistics.plans_generated == 2
        assert controller.statistics.plans_replaced == 0

    def test_overhead_fraction(self):
        controller = AdaptationController(
            camera_pattern(), GreedyOrderPlanner(), UnconditionalPolicy(), snapshot()
        )
        controller.update(snapshot(t=1.0))
        assert 0.0 <= controller.overhead_fraction(10.0) <= 1.0
        assert controller.overhead_fraction(0.0) == 0.0

    def test_works_with_zstream_planner(self):
        controller = AdaptationController(
            camera_pattern(), ZStreamTreePlanner(), InvariantBasedPolicy(k=3), snapshot()
        )
        initial_plan = controller.current_plan
        assert initial_plan is not None
        # Feed a sequence of progressively larger changes; the controller must
        # never install a plan that is worse than the one it replaces.
        for current in [
            snapshot(a=1.0, b=200.0, c=300.0, t=2.0),
            snapshot(a=2000.0, b=15.0, c=10.0, t=3.0),
            snapshot(a=100.0, b=15.0, c=10.0, sel_ab=0.9, sel_bc=0.9, t=4.0),
        ]:
            previous_cost = controller.current_plan.cost(current)
            new_plan = controller.update(current)
            if new_plan is not None:
                assert new_plan.cost(current) <= previous_cost
        assert controller.statistics.plans_generated >= 1

    def test_describe_contains_policy_and_planner(self):
        controller = AdaptationController(
            camera_pattern(), GreedyOrderPlanner(), InvariantBasedPolicy(), snapshot()
        )
        text = controller.describe()
        assert "invariant" in text and "greedy-order" in text


class TestNoFalsePositiveGuarantee:
    """Theorem 1: an invariant violation implies A would produce a different plan."""

    @pytest.mark.parametrize("planner_factory", [GreedyOrderPlanner, ZStreamTreePlanner])
    def test_violation_implies_different_plan(self, planner_factory):
        planner = planner_factory()
        result = planner.generate(camera_pattern(), snapshot())
        invariants = build_invariant_set(result, k=0)  # all deciding conditions
        scenarios = [
            snapshot(a=100, b=15, c=10),     # unchanged
            snapshot(a=100, b=15, c=30),     # C overtakes B
            snapshot(a=5, b=15, c=10),       # A becomes rare
            snapshot(a=100, b=200, c=10),    # B becomes frequent
            snapshot(sel_ab=0.9, sel_bc=0.9),
            snapshot(sel_ab=0.01),
            snapshot(a=101, b=16, c=11),     # small drift, same order
        ]
        for current in scenarios:
            new_plan = planner.generate(camera_pattern(), current).plan
            if invariants.is_violated(current):
                assert new_plan != result.plan, (
                    "violated invariant must imply a different plan "
                    f"(scenario rates={current.rates})"
                )
