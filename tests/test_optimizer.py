"""Unit tests for the instrumented plan-generation algorithms."""

from __future__ import annotations

import pytest

from repro.conditions import AndCondition, EqualityCondition
from repro.errors import OptimizerError
from repro.events import EventType
from repro.optimizer import (
    ComparisonRecorder,
    ConstantTerm,
    GreedyOrderPlanner,
    LocalSelectivityTerm,
    ProductExpression,
    RateTerm,
    SelectivityTerm,
    SumExpression,
    ZStreamTreePlanner,
)
from repro.optimizer.recorder import DecidingCondition
from repro.patterns import conjunction, seq
from repro.plans import OrderBasedPlan, TreeBasedPlan
from repro.statistics import StatisticsSnapshot


A, B, C, D, E = (EventType(name) for name in "ABCDE")


def camera_pattern():
    condition = AndCondition(
        [EqualityCondition("a", "b", "pid"), EqualityCondition("b", "c", "pid")]
    )
    return seq([A, B, C], condition=condition, window=10.0)


def camera_snapshot():
    return StatisticsSnapshot(
        {"A": 100.0, "B": 15.0, "C": 10.0}, {("a", "b"): 0.3, ("b", "c"): 0.2}
    )


class TestStatExpressions:
    def test_rate_term(self):
        assert RateTerm("A").evaluate(camera_snapshot()) == 100.0
        assert RateTerm("ZZ").evaluate(camera_snapshot()) == 0.0

    def test_selectivity_term_symmetric(self):
        snapshot = camera_snapshot()
        assert SelectivityTerm("a", "b").evaluate(snapshot) == 0.3
        assert SelectivityTerm("b", "a").evaluate(snapshot) == 0.3

    def test_local_selectivity_term(self):
        snapshot = StatisticsSnapshot({"A": 1.0}, {("a", "a"): 0.4})
        assert LocalSelectivityTerm("a").evaluate(snapshot) == 0.4

    def test_constant_term(self):
        assert ConstantTerm(7.5).evaluate(camera_snapshot()) == 7.5

    def test_product_and_sum(self):
        snapshot = camera_snapshot()
        product = ProductExpression([RateTerm("B"), SelectivityTerm("a", "b")])
        assert product.evaluate(snapshot) == pytest.approx(4.5)
        total = SumExpression([ConstantTerm(1.0), product])
        assert total.evaluate(snapshot) == pytest.approx(5.5)

    def test_operator_overloads(self):
        snapshot = camera_snapshot()
        expression = RateTerm("C") * SelectivityTerm("b", "c") + ConstantTerm(1.0)
        assert expression.evaluate(snapshot) == pytest.approx(3.0)

    def test_nested_products_flattened(self):
        product = ProductExpression(
            [ProductExpression([RateTerm("A"), RateTerm("B")]), RateTerm("C")]
        )
        assert len(product.factors) == 3

    def test_describe(self):
        assert RateTerm("A").describe() == "rate(A)"
        assert "sel(a,b)" in ProductExpression([RateTerm("A"), SelectivityTerm("a", "b")]).describe()


class TestDecidingCondition:
    def test_holds_and_slack(self):
        condition = DecidingCondition(lhs=RateTerm("C"), rhs=RateTerm("B"))
        snapshot = camera_snapshot()
        assert condition.holds(snapshot)
        assert condition.slack(snapshot) == pytest.approx(5.0)

    def test_distance_requires_reversal_by_margin(self):
        condition = DecidingCondition(lhs=RateTerm("C"), rhs=RateTerm("B"))
        # C grows slightly above B: violated with d=0 but not with d=0.5.
        snapshot = StatisticsSnapshot({"B": 10.0, "C": 12.0})
        assert not condition.holds(snapshot, distance=0.0)
        assert condition.holds(snapshot, distance=0.5)
        # C grows far above B: violated for both.
        snapshot = StatisticsSnapshot({"B": 10.0, "C": 20.0})
        assert not condition.holds(snapshot, distance=0.5)

    def test_relative_difference(self):
        condition = DecidingCondition(lhs=RateTerm("C"), rhs=RateTerm("B"))
        assert condition.relative_difference(camera_snapshot()) == pytest.approx(0.5)


class TestComparisonRecorder:
    def test_records_in_block_order(self):
        recorder = ComparisonRecorder()
        recorder.record("block1", RateTerm("C"), RateTerm("B"))
        recorder.record("block2", RateTerm("B"), RateTerm("A"))
        recorder.record("block1", RateTerm("C"), RateTerm("A"))
        sets = recorder.condition_sets()
        assert [s.block_label for s in sets] == ["block1", "block2"]
        assert len(sets[0]) == 2

    def test_tightest_selection(self):
        recorder = ComparisonRecorder()
        recorder.record("block", RateTerm("C"), RateTerm("B"))   # slack 5
        recorder.record("block", RateTerm("C"), RateTerm("A"))   # slack 90
        snapshot = camera_snapshot()
        tightest = recorder.condition_sets()[0].tightest(snapshot, k=1)
        assert len(tightest) == 1
        assert tightest[0].rhs.describe() == "rate(B)"

    def test_tightest_k_zero_selects_all(self):
        recorder = ComparisonRecorder()
        recorder.record("block", RateTerm("C"), RateTerm("B"))
        recorder.record("block", RateTerm("C"), RateTerm("A"))
        assert len(recorder.condition_sets()[0].tightest(camera_snapshot(), k=0)) == 2


class TestPlanGenerationResult:
    def _result(self):
        return GreedyOrderPlanner().generate(camera_pattern(), camera_snapshot())

    def test_bundles_plan_with_its_creation_snapshot(self):
        result = self._result()
        # The snapshot the result carries is the statistics the plan was
        # generated from -- what makes ``plan.cost(result.snapshot)`` the
        # *predicted* cost the drift monitor freezes at install time.
        assert result.snapshot.rate("A") == 100.0
        assert result.plan.cost(result.snapshot) > 0.0
        assert result.generator_name == GreedyOrderPlanner().name

    def test_block_counts_agree_with_condition_sets(self):
        result = self._result()
        assert result.num_blocks == len(result.condition_sets)
        assert result.total_conditions() == sum(
            len(s) for s in result.condition_sets
        )
        assert result.total_conditions() >= result.num_blocks - 1

    def test_describe_lists_every_deciding_condition(self):
        result = self._result()
        text = result.describe()
        assert result.plan.describe() in text
        for condition_set in result.condition_sets:
            for condition in condition_set:
                assert condition.describe() in text

    def test_open_block_registers_empty_sets_in_order(self):
        recorder = ComparisonRecorder()
        recorder.open_block("first")
        recorder.record("second", RateTerm("C"), RateTerm("B"))
        recorder.open_block("first")  # idempotent
        sets = recorder.condition_sets()
        assert [s.block_label for s in sets] == ["first", "second"]
        assert sets[0].is_empty() and not sets[1].is_empty()

    def test_count_comparison_tracks_unrecorded_comparisons(self):
        recorder = ComparisonRecorder()
        recorder.count_comparison()
        recorder.count_comparison()
        recorder.record("block", RateTerm("C"), RateTerm("B"))
        assert recorder.comparisons_performed == 2


class TestGreedyOrderPlanner:
    def test_orders_by_ascending_rate(self):
        result = GreedyOrderPlanner().generate(camera_pattern(), camera_snapshot())
        assert isinstance(result.plan, OrderBasedPlan)
        assert result.plan.order == ("c", "b", "a")

    def test_deciding_conditions_match_paper_example(self):
        result = GreedyOrderPlanner().generate(camera_pattern(), camera_snapshot())
        # DCS1 = {rateC < rateB, rateC < rateA}, DCS2 = {rateB*sel < rateA}, DCS3 = {}
        sizes = [len(s) for s in result.condition_sets]
        assert sizes == [2, 1, 0]

    def test_block_order_matches_plan_order(self):
        result = GreedyOrderPlanner().generate(camera_pattern(), camera_snapshot())
        labels = [s.block_label for s in result.condition_sets]
        assert "C" in labels[0] and "B" in labels[1] and "A" in labels[2]

    def test_selectivity_influences_order(self):
        pattern = camera_pattern()
        # B is rarer than C in raw rate, but the b-c predicate is so selective
        # that starting from C and then B is still best; make A's selectivity
        # to b extremely low so A is picked second.
        snapshot = StatisticsSnapshot(
            {"A": 100.0, "B": 15.0, "C": 10.0}, {("a", "b"): 0.001, ("b", "c"): 0.9}
        )
        result = GreedyOrderPlanner().generate(pattern, snapshot)
        assert result.plan.order[0] == "c"

    def test_deterministic_for_equal_rates(self):
        snapshot = StatisticsSnapshot({"A": 5.0, "B": 5.0, "C": 5.0})
        first = GreedyOrderPlanner().generate(camera_pattern(), snapshot)
        second = GreedyOrderPlanner().generate(camera_pattern(), snapshot)
        assert first.plan == second.plan
        # Ties are recorded so the adaptation layer can revisit the choice.
        assert first.total_conditions() > 0

    def test_missing_rates_rejected(self):
        with pytest.raises(OptimizerError):
            GreedyOrderPlanner().generate(camera_pattern(), StatisticsSnapshot({"A": 1.0}))

    def test_requires_snapshot(self):
        with pytest.raises(OptimizerError):
            GreedyOrderPlanner().generate(camera_pattern(), None)

    def test_conjunction_pattern_supported(self):
        pattern = conjunction([A, B, C], condition=EqualityCondition("a", "b", "pid"))
        result = GreedyOrderPlanner().generate(pattern, camera_snapshot())
        assert result.plan.order[0] == "c"

    def test_comparisons_counted(self):
        result = GreedyOrderPlanner().generate(camera_pattern(), camera_snapshot())
        assert result.comparisons_performed == 3  # 2 + 1 + 0


class TestZStreamTreePlanner:
    def test_produces_tree_plan(self):
        result = ZStreamTreePlanner().generate(camera_pattern(), camera_snapshot())
        assert isinstance(result.plan, TreeBasedPlan)

    def test_chooses_cheapest_tree(self):
        pattern = camera_pattern()
        snapshot = camera_snapshot()
        result = ZStreamTreePlanner().generate(pattern, snapshot)
        # With A frequent and B, C rare, joining (B, C) first is cheapest.
        alternatives = [
            TreeBasedPlan.left_deep(pattern),
            TreeBasedPlan.right_deep(pattern),
        ]
        best_alternative = min(plan.cost(snapshot) for plan in alternatives)
        assert result.plan.cost(snapshot) <= best_alternative

    def test_condition_sets_bottom_up(self):
        result = ZStreamTreePlanner().generate(camera_pattern(), camera_snapshot())
        labels = [s.block_label for s in result.condition_sets]
        assert len(labels) == 2
        # The last block is the root (covers all three variables).
        assert labels[-1].count("+") == 2

    def test_root_block_has_conditions(self):
        result = ZStreamTreePlanner().generate(camera_pattern(), camera_snapshot())
        assert len(result.condition_sets[-1]) >= 1

    def test_larger_pattern(self):
        condition = AndCondition(
            [
                EqualityCondition("a", "b", "pid"),
                EqualityCondition("b", "c", "pid"),
                EqualityCondition("c", "d", "pid"),
                EqualityCondition("d", "e", "pid"),
            ]
        )
        pattern = seq([A, B, C, D, E], condition=condition, window=10)
        snapshot = StatisticsSnapshot(
            {"A": 50.0, "B": 5.0, "C": 30.0, "D": 2.0, "E": 10.0},
            {("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "d"): 0.5, ("d", "e"): 0.5},
        )
        result = ZStreamTreePlanner().generate(pattern, snapshot)
        assert len(result.plan.leaves()) == 5
        assert len(result.condition_sets) == 4

    def test_single_item_pattern(self):
        pattern = seq([A], window=10)
        result = ZStreamTreePlanner().generate(pattern, StatisticsSnapshot({"A": 5.0}))
        assert result.plan.variables_in_plan_order() == ("a",)
        assert result.condition_sets == []

    def test_missing_rates_rejected(self):
        with pytest.raises(OptimizerError):
            ZStreamTreePlanner().generate(camera_pattern(), StatisticsSnapshot({}))

    def test_determinism(self):
        first = ZStreamTreePlanner().generate(camera_pattern(), camera_snapshot())
        second = ZStreamTreePlanner().generate(camera_pattern(), camera_snapshot())
        assert first.plan == second.plan

