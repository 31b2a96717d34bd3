"""Unit tests for evaluation plans and the cost model."""

from __future__ import annotations

import pytest

from repro.conditions import AndCondition, EqualityCondition
from repro.errors import PlanError
from repro.events import EventType
from repro.patterns import seq
from repro.optimizer.cost import CostModel, tree_plan_cost
from repro.plans import OrderBasedPlan, TreeBasedPlan, TreeInternalNode, TreeLeaf
from repro.statistics import StatisticsSnapshot


A, B, C, D = EventType("A"), EventType("B"), EventType("C"), EventType("D")


def camera_pattern():
    condition = AndCondition(
        [EqualityCondition("a", "b", "pid"), EqualityCondition("b", "c", "pid")]
    )
    return seq([A, B, C], condition=condition, window=10.0)


def camera_snapshot():
    return StatisticsSnapshot(
        {"A": 100.0, "B": 15.0, "C": 10.0}, {("a", "b"): 0.3, ("b", "c"): 0.2}
    )


class TestOrderBasedPlan:
    def test_in_pattern_order(self):
        plan = OrderBasedPlan.in_pattern_order(camera_pattern())
        assert plan.order == ("a", "b", "c")
        assert plan.initiator == "a"

    def test_custom_order(self):
        plan = OrderBasedPlan(camera_pattern(), ["c", "b", "a"])
        assert plan.initiator == "c"
        assert plan.position("b") == 1

    def test_order_must_be_permutation(self):
        pattern = camera_pattern()
        with pytest.raises(PlanError):
            OrderBasedPlan(pattern, ["a", "b"])
        with pytest.raises(PlanError):
            OrderBasedPlan(pattern, ["a", "b", "b"])
        with pytest.raises(PlanError):
            OrderBasedPlan(pattern, ["a", "b", "z"])

    def test_position_unknown_variable(self):
        plan = OrderBasedPlan.in_pattern_order(camera_pattern())
        with pytest.raises(PlanError):
            plan.position("z")

    def test_block_labels_one_per_step(self):
        plan = OrderBasedPlan(camera_pattern(), ["c", "b", "a"])
        labels = plan.block_labels()
        assert len(labels) == 3
        assert "C" in labels[0]

    def test_equality(self):
        pattern = camera_pattern()
        assert OrderBasedPlan(pattern, ["c", "b", "a"]) == OrderBasedPlan(pattern, ["c", "b", "a"])
        assert OrderBasedPlan(pattern, ["c", "b", "a"]) != OrderBasedPlan(pattern, ["a", "b", "c"])

    def test_rate_ascending_order_is_cheaper(self):
        pattern = camera_pattern()
        snapshot = camera_snapshot()
        ascending = OrderBasedPlan(pattern, ["c", "b", "a"])
        descending = OrderBasedPlan(pattern, ["a", "b", "c"])
        assert ascending.cost(snapshot) < descending.cost(snapshot)

    def test_items_in_order(self):
        plan = OrderBasedPlan(camera_pattern(), ["c", "b", "a"])
        assert [item.event_type.name for item in plan.items_in_order()] == ["C", "B", "A"]

    def test_plan_excludes_negated_items(self):
        from repro.patterns import Pattern, PatternItem, PatternOperator

        pattern = Pattern(
            PatternOperator.SEQUENCE,
            [PatternItem("a", A), PatternItem("n", B, negated=True), PatternItem("c", C)],
        )
        plan = OrderBasedPlan.in_pattern_order(pattern)
        assert plan.order == ("a", "c")


class TestCostModel:
    def test_order_step_cost_uses_rate_and_selectivities(self):
        pattern = camera_pattern()
        snapshot = camera_snapshot()
        first = CostModel(pattern).step_factor([], "c")
        assert first.describe() == "rate(C)"
        assert first.evaluate(snapshot) == pytest.approx(10.0)
        second = CostModel(pattern).step_factor(["c"], "b")
        assert second.describe() == "rate(B) * sel(c,b)"
        assert second.evaluate(snapshot) == pytest.approx(15.0 * 0.2)

    def test_order_step_cost_uncoupled_pair_has_no_selectivity(self):
        pattern = camera_pattern()
        snapshot = camera_snapshot()
        # a and c are not directly coupled by a condition, so even an
        # estimate for the pair is never read.
        snapshot = StatisticsSnapshot(
            {"A": 100.0, "B": 15.0, "C": 10.0}, {("a", "c"): 0.01}
        )
        step = CostModel(pattern).step_factor(["c"], "a")
        assert step.describe() == "rate(A)"
        assert step.evaluate(snapshot) == pytest.approx(100.0)

    def test_order_plan_cost_is_sum_of_prefix_products(self):
        pattern = camera_pattern()
        snapshot = camera_snapshot()
        cost = OrderBasedPlan(pattern, ["c", "b", "a"]).cost(snapshot)
        step1 = 10.0
        step2 = step1 * (15.0 * 0.2)
        step3 = step2 * (100.0 * 0.3)
        assert cost == pytest.approx(step1 + step2 + step3)

    def test_pair_selectivity_product(self):
        pattern = camera_pattern()
        snapshot = camera_snapshot()
        product = CostModel(pattern).join_selectivity(["a"], ["b", "c"])
        assert product.describe() == "sel(a,b)"
        assert product.evaluate(snapshot) == pytest.approx(0.3)
        assert CostModel(pattern).join_selectivity(["a"], ["c"]) is None

    def test_local_selectivity_in_cost(self):
        from repro.conditions import AttributeThresholdCondition

        pattern = seq(
            [A, B],
            condition=AttributeThresholdCondition("a", "x", "<", 5),
            window=10,
        )
        snapshot = StatisticsSnapshot({"A": 10.0, "B": 1.0}, {("a", "a"): 0.1})
        assert CostModel(pattern).step_factor([], "a").evaluate(snapshot) == pytest.approx(1.0)


class TestTreePlan:
    def test_left_deep_structure(self):
        plan = TreeBasedPlan.left_deep(camera_pattern())
        assert plan.variables_in_plan_order() == ("a", "b", "c")
        assert len(plan.internal_nodes_bottom_up()) == 2
        assert plan.root.height() == 2

    def test_right_deep_structure(self):
        plan = TreeBasedPlan.right_deep(camera_pattern())
        root = plan.root
        assert isinstance(root.left, TreeLeaf)
        assert isinstance(root.right, TreeInternalNode)

    def test_custom_order(self):
        plan = TreeBasedPlan.left_deep(camera_pattern(), order=["c", "b", "a"])
        assert plan.variables_in_plan_order() == ("c", "b", "a")

    def test_leaves(self):
        plan = TreeBasedPlan.left_deep(camera_pattern())
        assert [leaf.variable for leaf in plan.leaves()] == ["a", "b", "c"]

    def test_must_cover_all_positive_variables(self):
        pattern = camera_pattern()
        incomplete = TreeInternalNode(TreeLeaf("a", "A"), TreeLeaf("b", "B"))
        with pytest.raises(PlanError):
            TreeBasedPlan(pattern, incomplete)

    def test_overlapping_children_rejected(self):
        with pytest.raises(PlanError):
            TreeInternalNode(TreeLeaf("a", "A"), TreeLeaf("a", "A"))

    def test_structural_equality(self):
        pattern = camera_pattern()
        assert TreeBasedPlan.left_deep(pattern) == TreeBasedPlan.left_deep(pattern)
        assert TreeBasedPlan.left_deep(pattern) != TreeBasedPlan.right_deep(pattern)

    def test_block_labels_bottom_up(self):
        plan = TreeBasedPlan.left_deep(camera_pattern())
        labels = plan.block_labels()
        assert len(labels) == 2
        assert "a" in labels[0]

    def test_tree_cost_follows_zstream_recursion(self):
        pattern = camera_pattern()
        snapshot = camera_snapshot()
        plan = TreeBasedPlan.left_deep(pattern)  # ((a, b), c)
        card_ab = 100.0 * 15.0 * 0.3
        cost_ab = 100.0 + 15.0 + card_ab
        card_abc = card_ab * 10.0 * 0.2
        expected = cost_ab + 10.0 + card_abc
        assert plan.cost(snapshot) == pytest.approx(expected)
        assert tree_plan_cost(snapshot, pattern, plan.root) == pytest.approx(expected)

    def test_cheaper_tree_identified(self):
        pattern = camera_pattern()
        snapshot = camera_snapshot()
        left_deep = TreeBasedPlan.left_deep(pattern)
        right_deep = TreeBasedPlan.right_deep(pattern)
        # Joining the two rare types (B, C) first is cheaper than joining
        # the frequent A with B first.
        assert right_deep.cost(snapshot) < left_deep.cost(snapshot)

    def test_iter_nodes(self):
        plan = TreeBasedPlan.left_deep(camera_pattern())
        nodes = list(plan.iter_nodes())
        assert len(nodes) == 5  # 3 leaves + 2 internal
