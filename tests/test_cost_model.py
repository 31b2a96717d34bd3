"""The one cost model: planners, ``plan.cost`` and sharing read the same expressions."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conditions import AndCondition, AttributeThresholdCondition, EqualityCondition
from repro.events import EventType
from repro.optimizer import GreedyOrderPlanner, ZStreamTreePlanner
from repro.optimizer.cost import CostModel, sharing_score
from repro.patterns import conjunction, seq
from repro.plans import OrderBasedPlan, TreeBasedPlan, TreeLeaf
from repro.statistics import StatisticsSnapshot
from repro.statistics.collector import pairs_for_pattern


A, B, C, D, E = (EventType(name) for name in "ABCDE")
TYPES = (A, B, C, D, E)


# ----------------------------------------------------------------------
# The numeric cost functions the expression-built model replaced
# ----------------------------------------------------------------------
def _coupled_product(snapshot, group_a, group_b, pattern):
    coupled = set(map(tuple, map(sorted, pattern.conditions.variable_pairs())))
    product = 1.0
    for a in group_a:
        for b in group_b:
            if tuple(sorted((a, b))) in coupled:
                product *= snapshot.selectivity(a, b)
    return product


def _variable_rate(snapshot, pattern, variable):
    item = pattern.item_by_variable(variable)
    rate = snapshot.rate_or_default(item.event_type.name, 0.0)
    return rate * snapshot.local_selectivity(variable)


def oracle_order_plan_cost(snapshot, pattern, order):
    """Sum over prefixes of ``prod rate * sel(v, v) * prod_{prefix} sel(k, v)``.

    Reads ``sel(v, v)`` for every variable and ``sel(k, v)`` for every
    pair, coupled or not — equal to the expression model on the snapshots
    a collector produces, which hold exactly the coupled pairs and the
    ``(v, v)`` of each locally filtered variable.
    """
    total = 0.0
    prefix_product = 1.0
    for index, variable in enumerate(order):
        step = _variable_rate(snapshot, pattern, variable)
        for previous in order[:index]:
            step *= snapshot.selectivity(previous, variable)
        prefix_product *= step
        total += prefix_product
    return total


def oracle_tree_plan_cost(snapshot, pattern, root):
    """``Cost(T) = Cost(L) + Cost(R) + Card(L) * Card(R) * SEL(L, R)``."""

    def walk(node):
        if isinstance(node, TreeLeaf):
            cardinality = _variable_rate(snapshot, pattern, node.variable)
            return cardinality, cardinality
        left_cost, left_card = walk(node.left)
        right_cost, right_card = walk(node.right)
        selectivity = _coupled_product(
            snapshot, node.left.variables(), node.right.variables(), pattern
        )
        cardinality = left_card * right_card * selectivity
        return left_cost + right_cost + cardinality, cardinality

    return walk(root)[0]


# ----------------------------------------------------------------------
# Patterns and collector-shaped snapshots
# ----------------------------------------------------------------------
def camera_pattern():
    condition = AndCondition(
        [EqualityCondition("a", "b", "pid"), EqualityCondition("b", "c", "pid")]
    )
    return seq([A, B, C], condition=condition, window=10.0)


CAMERA_RATES = {"A": 100.0, "B": 15.0, "C": 10.0}
CAMERA_SELECTIVITIES = {("a", "b"): 0.3, ("b", "c"): 0.2}


@st.composite
def pattern_and_snapshot(draw):
    """A random SEQ or AND pattern and a snapshot shaped like its collector's."""
    size = draw(st.integers(min_value=2, max_value=5))
    variables = [t.name.lower() for t in TYPES[:size]]
    all_pairs = [
        (a, b) for i, a in enumerate(variables) for b in variables[i + 1 :]
    ]
    coupled = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)))
    filtered = draw(st.lists(st.sampled_from(variables), unique=True, max_size=size))
    conditions = [EqualityCondition(a, b, "pid") for a, b in coupled]
    conditions += [AttributeThresholdCondition(v, "x", "<", 5.0) for v in filtered]
    build = draw(st.sampled_from([seq, conjunction]))
    pattern = build(
        list(TYPES[:size]),
        condition=AndCondition(conditions) if conditions else None,
        window=10.0,
    )
    rate = st.floats(min_value=0.01, max_value=500.0, allow_nan=False)
    selectivity = st.floats(min_value=0.001, max_value=1.0, allow_nan=False)
    rates = {t.name: draw(rate) for t in TYPES[:size]}
    selectivities = {pair: draw(selectivity) for pair in pairs_for_pattern(pattern)}
    return pattern, StatisticsSnapshot(rates, selectivities)


class TestPlanCostAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(case=pattern_and_snapshot(), data=st.data())
    def test_order_plan_cost_equals_numeric_formula(self, case, data):
        pattern, snapshot = case
        variables = [item.variable for item in pattern.positive_items]
        order = data.draw(st.permutations(variables))
        plan = OrderBasedPlan(pattern, order)
        assert plan.cost(snapshot) == oracle_order_plan_cost(snapshot, pattern, order)

    @settings(max_examples=120, deadline=None)
    @given(case=pattern_and_snapshot(), data=st.data())
    def test_tree_plan_cost_equals_numeric_formula(self, case, data):
        pattern, snapshot = case
        variables = data.draw(
            st.permutations([item.variable for item in pattern.positive_items])
        )
        plans = [
            ZStreamTreePlanner().generate(pattern, snapshot).plan,
            TreeBasedPlan.left_deep(pattern, order=variables),
            TreeBasedPlan.right_deep(pattern, order=variables),
        ]
        for plan in plans:
            assert plan.cost(snapshot) == oracle_tree_plan_cost(
                snapshot, pattern, plan.root
            )

    @settings(max_examples=60, deadline=None)
    @given(case=pattern_and_snapshot(), members=st.integers(min_value=1, max_value=5))
    def test_sharing_score_is_the_prefix_cost_per_extra_member(self, case, members):
        pattern, snapshot = case
        prefix = [item.variable for item in pattern.positive_items][:2]
        expected = (
            (members - 1) * oracle_order_plan_cost(snapshot, pattern, prefix)
            if members > 1
            else 0.0
        )
        assert sharing_score(snapshot, pattern, prefix, members) == expected


class TestRecordedComparisonsMatchPlanCost:
    @settings(max_examples=80, deadline=None)
    @given(case=pattern_and_snapshot())
    def test_greedy_blocks_record_the_factors_plan_cost_multiplies(self, case):
        pattern, snapshot = case
        result = GreedyOrderPlanner().generate(pattern, snapshot)
        order = result.plan.order
        total, product = 0.0, 1.0
        for index, condition_set in enumerate(result.condition_sets):
            recorded = {c.lhs.evaluate(snapshot) for c in condition_set.conditions}
            if recorded:
                (factor,) = recorded
            else:  # the last position has no rival to record
                factor = (
                    CostModel(pattern).step_factor(order[:index], order[index]).evaluate(snapshot)
                )
            product *= factor
            total += product
        assert result.plan.cost(snapshot) == total

    @settings(max_examples=80, deadline=None)
    @given(case=pattern_and_snapshot())
    def test_zstream_root_block_records_the_plan_cost(self, case):
        pattern, snapshot = case
        result = ZStreamTreePlanner().generate(pattern, snapshot)
        root_conditions = result.condition_sets[-1].conditions if result.condition_sets else []
        cost = result.plan.cost(result.snapshot)
        for condition in root_conditions:
            # The recorded side is the expression plan.cost evaluates: the
            # same float, not an approximation of it.
            assert condition.lhs.evaluate(result.snapshot) == cost
        if len(pattern.positive_items) >= 3:
            assert root_conditions

    def test_zstream_root_block_records_the_plan_cost_exactly(self):
        snapshot = StatisticsSnapshot(CAMERA_RATES, CAMERA_SELECTIVITIES)
        result = ZStreamTreePlanner().generate(camera_pattern(), snapshot)
        (condition,) = result.condition_sets[-1].conditions
        assert condition.lhs.evaluate(snapshot) == result.plan.cost(snapshot) == 1055.0


class TestUnreadStatisticsDoNotMoveCosts:
    """A statistic no condition couples is read by neither planner, so it
    cannot move the cost the controller compares either."""

    @pytest.mark.parametrize(
        "stray",
        [{("a", "c"): 0.01}, {("a", "a"): 0.05}],
        ids=["uncoupled-pair", "unfiltered-variable"],
    )
    def test_camera_costs_ignore_stray_estimates(self, stray):
        pattern = camera_pattern()
        snapshot = StatisticsSnapshot(CAMERA_RATES, {**CAMERA_SELECTIVITIES, **stray})
        order = GreedyOrderPlanner().generate(pattern, snapshot).plan
        tree = ZStreamTreePlanner().generate(pattern, snapshot).plan
        assert order.order == ("c", "b", "a")
        assert order.cost(snapshot) == 940.0
        assert tree.cost(snapshot) == 1055.0


# ----------------------------------------------------------------------
# Recorded deciding conditions, pinned
# ----------------------------------------------------------------------
def _seq_case():
    condition = AndCondition(
        [
            EqualityCondition("a", "b", "pid"),
            EqualityCondition("b", "c", "pid"),
            EqualityCondition("c", "d", "pid"),
            AttributeThresholdCondition("b", "x", "<", 5),
        ]
    )
    snapshot = StatisticsSnapshot(
        {"A": 40.0, "B": 12.0, "C": 25.0, "D": 3.0},
        {("a", "b"): 0.3, ("b", "c"): 0.2, ("c", "d"): 0.5, ("b", "b"): 0.4},
    )
    return seq([A, B, C, D], condition=condition, window=10.0), snapshot


def _and_case():
    condition = AndCondition(
        [
            EqualityCondition("a", "b", "pid"),
            EqualityCondition("a", "c", "pid"),
            EqualityCondition("b", "d", "pid"),
            EqualityCondition("c", "d", "pid"),
            AttributeThresholdCondition("d", "x", ">", 1),
        ]
    )
    snapshot = StatisticsSnapshot(
        {"A": 8.0, "B": 30.0, "C": 5.0, "D": 20.0},
        {("a", "b"): 0.1, ("a", "c"): 0.6, ("b", "d"): 0.25, ("c", "d"): 0.05, ("d", "d"): 0.5},
    )
    return conjunction([A, B, C, D], condition=condition, window=10.0), snapshot


PINNED = {
    ("seq", "greedy-order"): [
        "rate(D) < rate(A)  [d preferred over a at position 1]",
        "rate(D) < rate(B) * sel(b)  [d preferred over b at position 1]",
        "rate(D) < rate(C)  [d preferred over c at position 1]",
        "rate(B) * sel(b) < rate(A)  [b preferred over a at position 2]",
        "rate(B) * sel(b) < rate(C) * sel(d,c)  [b preferred over c at position 2]",
        "rate(C) * sel(d,c) * sel(b,c) < rate(A) * sel(b,a)"
        "  [c preferred over a at position 3]",
    ],
    ("seq", "zstream-tree"): [
        "rate(B) * sel(b) + rate(C) + rate(B) * sel(b) * rate(C) * sel(b,c) + rate(D)"
        " + rate(B) * sel(b) * rate(C) * sel(b,c) * rate(D) * sel(c,d)"
        " < rate(B) * sel(b) + rate(C) + rate(D) + rate(C) * rate(D) * sel(c,d)"
        " + rate(B) * sel(b) * rate(C) * rate(D) * sel(c,d) * sel(b,c)"
        "  [split choice for [b+c+d]]",
        "rate(A) + rate(B) * sel(b) + rate(C) + rate(B) * sel(b) * rate(C) * sel(b,c)"
        " + rate(D) + rate(B) * sel(b) * rate(C) * sel(b,c) * rate(D) * sel(c,d)"
        " + rate(A) * rate(B) * sel(b) * rate(C) * sel(b,c) * rate(D) * sel(c,d) * sel(a,b)"
        " < rate(A) + rate(B) * sel(b) + rate(A) * rate(B) * sel(b) * sel(a,b)"
        " + rate(C) + rate(D) + rate(C) * rate(D) * sel(c,d)"
        " + rate(A) * rate(B) * sel(b) * sel(a,b) * rate(C) * rate(D) * sel(c,d) * sel(b,c)"
        "  [split choice for [a+b+c+d]]",
        "rate(A) + rate(B) * sel(b) + rate(C) + rate(B) * sel(b) * rate(C) * sel(b,c)"
        " + rate(D) + rate(B) * sel(b) * rate(C) * sel(b,c) * rate(D) * sel(c,d)"
        " + rate(A) * rate(B) * sel(b) * rate(C) * sel(b,c) * rate(D) * sel(c,d) * sel(a,b)"
        " < rate(A) + rate(B) * sel(b) + rate(C)"
        " + rate(B) * sel(b) * rate(C) * sel(b,c)"
        " + rate(A) * rate(B) * sel(b) * rate(C) * sel(b,c) * sel(a,b) + rate(D)"
        " + rate(A) * rate(B) * sel(b) * rate(C) * sel(b,c) * sel(a,b) * rate(D) * sel(c,d)"
        "  [split choice for [a+b+c+d]]",
    ],
    ("and", "greedy-order"): [
        "rate(C) < rate(A)  [c preferred over a at position 1]",
        "rate(C) < rate(B)  [c preferred over b at position 1]",
        "rate(C) < rate(D) * sel(d)  [c preferred over d at position 1]",
        "rate(D) * sel(d) * sel(c,d) < rate(A) * sel(c,a)  [d preferred over a at position 2]",
        "rate(D) * sel(d) * sel(c,d) < rate(B)  [d preferred over b at position 2]",
        "rate(A) * sel(c,a) < rate(B) * sel(d,b)  [a preferred over b at position 3]",
    ],
    ("and", "zstream-tree"): [
        "rate(B) + rate(C) + rate(D) * sel(d) + rate(C) * rate(D) * sel(d) * sel(c,d)"
        " + rate(B) * rate(C) * rate(D) * sel(d) * sel(c,d) * sel(b,d) < rate(B)"
        " + rate(C) + rate(B) * rate(C) + rate(D) * sel(d)"
        " + rate(B) * rate(C) * rate(D) * sel(d) * sel(b,d) * sel(c,d)"
        "  [split choice for [b+c+d]]",
        "rate(A) + rate(B) + rate(C) + rate(D) * sel(d)"
        " + rate(C) * rate(D) * sel(d) * sel(c,d)"
        " + rate(B) * rate(C) * rate(D) * sel(d) * sel(c,d) * sel(b,d)"
        " + rate(A) * rate(B) * rate(C) * rate(D) * sel(d) * sel(c,d) * sel(b,d) * sel(a,b) * sel(a,c)"
        " < rate(A) + rate(B) + rate(A) * rate(B) * sel(a,b) + rate(C)"
        " + rate(D) * sel(d) + rate(C) * rate(D) * sel(d) * sel(c,d)"
        " + rate(A) * rate(B) * sel(a,b) * rate(C) * rate(D) * sel(d) * sel(c,d) * sel(a,c) * sel(b,d)"
        "  [split choice for [a+b+c+d]]",
        "rate(A) + rate(B) + rate(C) + rate(D) * sel(d)"
        " + rate(C) * rate(D) * sel(d) * sel(c,d)"
        " + rate(B) * rate(C) * rate(D) * sel(d) * sel(c,d) * sel(b,d)"
        " + rate(A) * rate(B) * rate(C) * rate(D) * sel(d) * sel(c,d) * sel(b,d) * sel(a,b) * sel(a,c)"
        " < rate(A) + rate(B) + rate(A) * rate(B) * sel(a,b) + rate(C)"
        " + rate(A) * rate(B) * sel(a,b) * rate(C) * sel(a,c) + rate(D) * sel(d)"
        " + rate(A) * rate(B) * sel(a,b) * rate(C) * sel(a,c) * rate(D) * sel(d) * sel(b,d) * sel(c,d)"
        "  [split choice for [a+b+c+d]]",
    ],
}


@pytest.mark.parametrize("case", ["seq", "and"])
@pytest.mark.parametrize("planner", [GreedyOrderPlanner, ZStreamTreePlanner])
def test_recorded_conditions_are_pinned(case, planner):
    pattern, snapshot = _seq_case() if case == "seq" else _and_case()
    result = planner().generate(pattern, snapshot)
    described = [
        condition.describe()
        for condition_set in result.condition_sets
        for condition in condition_set.conditions
    ]
    assert described == PINNED[(case, planner.name)]
