"""The cost model, written once.

The cost of a plan approximates the number of partial matches it keeps in
memory per unit time, computed from the arrival rates of the event types
and the selectivities of the inter-event predicates (Sections 4.1 and 4.2
of the paper).  Each formula is built here, once, as a
:class:`~repro.optimizer.terms.StatExpression` — the same expressions the
planners record as deciding conditions, so the costs the adaptation
controller compares are the ones the invariants encode:

* :meth:`CostModel.leaf_factor` — a variable's cardinality,
  ``rate(type) * sel(v)``; the local selectivity is read only for a
  variable with a local filter.
* :meth:`CostModel.join_selectivity` — the product of ``sel(a, b)`` over
  the pairs a condition couples across two groups of variables; uncoupled
  pairs have selectivity 1 and are left out.
* :meth:`CostModel.step_factor` — the greedy selection expression: the
  leaf factor of a candidate times its join selectivity with the prefix.

Plan costs are numeric folds over these:

* an order-based plan ``p1, ..., pn`` costs the sum over its prefixes of
  the product of their step factors (:func:`order_plan_cost`);
* a tree plan costs the ZStream recursion
  ``Cost(T) = Cost(L) + Cost(R) + Card(T)`` with
  ``Card(T) = Card(L) * Card(R) * SEL(L, R)`` (:meth:`CostModel.leaf`,
  :meth:`CostModel.join`, :func:`tree_plan_cost`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.optimizer.base import default_block_label_for_subset
from repro.optimizer.terms import (
    ConstantTerm,
    LocalSelectivityTerm,
    ProductExpression,
    RateTerm,
    SelectivityTerm,
    StatExpression,
    SumExpression,
)
from repro.patterns import Pattern
from repro.plans import TreeInternalNode, TreeLeaf, TreePlanNode
from repro.statistics import StatisticsSnapshot
from repro.statistics.snapshot import pair_key


def _product(factors: List[StatExpression]) -> StatExpression:
    return factors[0] if len(factors) == 1 else ProductExpression(factors)


@dataclass
class SubtreeCost:
    """A subtree costed under one snapshot.

    The expressions are what a parent's deciding condition reads of this
    subtree: a leaf stays symbolic (its rate is re-read from every future
    snapshot), an internal subtree is frozen to its values, whose own
    changes the invariants of lower blocks catch first (Section 4.2).
    """

    node: TreePlanNode
    cost: float
    cardinality: float
    cost_expression: StatExpression
    cardinality_expression: StatExpression


class CostModel:
    """The cost formulas of one pattern.

    Built per planner run or cost query and never stored: it only caches
    which variable pairs a condition couples and which variables carry a
    local filter — the statistics a collector tracks for the pattern.
    """

    __slots__ = ("pattern", "_coupled", "_filtered")

    def __init__(self, pattern: Pattern):
        conditions = pattern.conditions
        self.pattern = pattern
        self._coupled = frozenset(conditions.variable_pairs())
        self._filtered = frozenset(
            item.variable
            for item in pattern.positive_items
            if conditions.single_variable_conditions(item.variable)
        )

    def leaf_factor(self, variable: str) -> StatExpression:
        """Cardinality of one variable: its type's rate times its local selectivity."""
        item = self.pattern.item_by_variable(variable)
        factors: List[StatExpression] = [RateTerm(item.event_type.name)]
        if variable in self._filtered:
            factors.append(LocalSelectivityTerm(variable))
        return _product(factors)

    def join_selectivity(
        self, left: Iterable[str], right: Sequence[str]
    ) -> Optional[StatExpression]:
        """``SEL(left, right)`` over the coupled pairs, or ``None`` when no
        condition couples the two groups."""
        coupled = self._coupled
        factors: List[StatExpression] = [
            SelectivityTerm(a, b) for a in left for b in right if pair_key(a, b) in coupled
        ]
        return _product(factors) if factors else None

    def step_factor(self, prefix: Sequence[str], candidate: str) -> StatExpression:
        """Growth factor of the partial matches when ``candidate`` follows ``prefix``:
        ``rate * sel_local * prod_{k in prefix, coupled} sel(k, candidate)``."""
        leaf = self.leaf_factor(candidate)
        selectivity = self.join_selectivity(prefix, (candidate,))
        return leaf if selectivity is None else ProductExpression((leaf, selectivity))

    def order_cost(self, snapshot: StatisticsSnapshot, order: Sequence[str]) -> float:
        """Expected partial matches of an order (or a prefix of one), summed
        over its prefixes."""
        total = 0.0
        prefix_product = 1.0
        for index, variable in enumerate(order):
            prefix_product *= self.step_factor(order[:index], variable).evaluate(snapshot)
            total += prefix_product
        return total

    def leaf(self, snapshot: StatisticsSnapshot, variable: str) -> SubtreeCost:
        """A leaf costs, and holds, its own cardinality."""
        expression = self.leaf_factor(variable)
        value = expression.evaluate(snapshot)
        item = self.pattern.item_by_variable(variable)
        return SubtreeCost(
            TreeLeaf(variable, item.event_type.name), value, value, expression, expression
        )

    def join(
        self, snapshot: StatisticsSnapshot, left: SubtreeCost, right: SubtreeCost
    ) -> Tuple[SubtreeCost, StatExpression]:
        """The tree joining ``left`` and ``right``, and its cost as an
        expression over the children's — one side of a ZStream split
        comparison."""
        selectivity = self.join_selectivity(left.node.variables(), right.node.variables())
        selectivity_value = selectivity.evaluate(snapshot) if selectivity is not None else 1.0
        cardinality = left.cardinality * right.cardinality * selectivity_value
        cost = left.cost + right.cost + cardinality

        node = TreeInternalNode(left.node, right.node)
        label = default_block_label_for_subset(node.variables())
        cardinality_factors = [left.cardinality_expression, right.cardinality_expression]
        if selectivity is not None:
            cardinality_factors.append(selectivity)
        expression = SumExpression(
            [
                left.cost_expression,
                right.cost_expression,
                ProductExpression(cardinality_factors),
            ]
        )
        joined = SubtreeCost(
            node,
            cost,
            cardinality,
            ConstantTerm(cost, label=f"cost[{label}]"),
            ConstantTerm(cardinality, label=f"card[{label}]"),
        )
        return joined, expression

    def subtree(self, snapshot: StatisticsSnapshot, node: TreePlanNode) -> SubtreeCost:
        """Cost an existing (sub)tree bottom-up."""
        if isinstance(node, TreeLeaf):
            return self.leaf(snapshot, node.variable)
        joined, _expression = self.join(
            snapshot, self.subtree(snapshot, node.left), self.subtree(snapshot, node.right)
        )
        return joined


def order_plan_cost(
    snapshot: StatisticsSnapshot, pattern: Pattern, order: Sequence[str]
) -> float:
    """Cost of an order-based plan (or of a prefix of one)."""
    return CostModel(pattern).order_cost(snapshot, order)


def tree_plan_cost(
    snapshot: StatisticsSnapshot, pattern: Pattern, root: TreePlanNode
) -> float:
    """Total ZStream cost of a tree plan."""
    return CostModel(pattern).subtree(snapshot, root).cost


def sharing_score(
    snapshot: StatisticsSnapshot,
    pattern: Pattern,
    prefix: Sequence[str],
    member_count: int,
) -> float:
    """Expected saving from materializing ``prefix`` once for ``member_count`` plans.

    Each consumer beyond the first avoids re-deriving the prefix's partial
    matches, so the saving is ``(member_count - 1)`` times the prefix's
    cost.  A score of zero (single member, or a prefix the statistics rate
    as free) means sharing buys nothing.
    """
    if member_count <= 1:
        return 0.0
    return (member_count - 1) * order_plan_cost(snapshot, pattern, prefix)
