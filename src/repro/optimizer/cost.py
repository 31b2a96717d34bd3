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

Plan costs are built from these:

* an order-based plan ``p1, ..., pn`` costs the sum over its prefixes of
  the product of their step factors (:func:`order_plan_cost`);
* a tree plan costs the ZStream recursion
  ``Cost(T) = Cost(L) + Cost(R) + Card(T)`` with
  ``Card(T) = Card(L) * Card(R) * SEL(L, R)``, written once per subtree
  as a :class:`SubtreeCost` expression (:meth:`CostModel.leaf`,
  :meth:`CostModel.join`).  The ZStream planner picks a split by
  evaluating it, records it as its split comparison, and
  ``TreeBasedPlan.cost`` evaluates it (:func:`tree_plan_cost`): all three
  read the same float from the same snapshot.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.optimizer.terms import (
    LocalSelectivityTerm,
    ProductExpression,
    RateTerm,
    SelectivityTerm,
    StatExpression,
)
from repro.patterns import Pattern
from repro.plans import TreeInternalNode, TreeLeaf, TreePlanNode
from repro.statistics import StatisticsSnapshot
from repro.statistics.snapshot import pair_key


def _product(factors: List[StatExpression]) -> StatExpression:
    return factors[0] if len(factors) == 1 else ProductExpression(factors)


class SubtreeCost(StatExpression):
    """The ZStream cost of one (sub)tree, read live from every snapshot.

    A leaf costs, and holds, its own cardinality ``factor``.  A joined
    subtree evaluates ``Cost(L) + Cost(R) + Card(L) * Card(R) * SEL`` in
    exactly that association, with ``SEL`` multiplied out on its own
    first, and renders as the flattened sum of its leaves' factors.
    """

    __slots__ = ("node", "factor", "left", "right", "selectivity")

    def __init__(
        self,
        node: TreePlanNode,
        factor: Optional[StatExpression] = None,
        left: Optional["SubtreeCost"] = None,
        right: Optional["SubtreeCost"] = None,
        selectivity: Optional[StatExpression] = None,
    ):
        self.node = node
        self.factor = factor
        self.left = left
        self.right = right
        self.selectivity = selectivity

    def _fold(self, snapshot: StatisticsSnapshot) -> Tuple[float, float]:
        """``(cost, cardinality)`` of the subtree under ``snapshot``."""
        if self.left is None:
            value = self.factor.evaluate(snapshot)
            return value, value
        left_cost, left_cardinality = self.left._fold(snapshot)
        right_cost, right_cardinality = self.right._fold(snapshot)
        cardinality = left_cardinality * right_cardinality
        if self.selectivity is not None:
            cardinality *= self.selectivity.evaluate(snapshot)
        return left_cost + right_cost + cardinality, cardinality

    def evaluate(self, snapshot: StatisticsSnapshot) -> float:
        return self._fold(snapshot)[0]

    def _describe_cardinality(self) -> str:
        if self.left is None:
            return self.factor.describe()
        factors = [self.left._describe_cardinality(), self.right._describe_cardinality()]
        if self.selectivity is not None:
            factors.append(self.selectivity.describe())
        return " * ".join(factors)

    def describe(self) -> str:
        if self.left is None:
            return self.factor.describe()
        return " + ".join(
            (self.left.describe(), self.right.describe(), self._describe_cardinality())
        )


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

    def leaf(self, variable: str) -> SubtreeCost:
        """A leaf costs, and holds, its own cardinality."""
        item = self.pattern.item_by_variable(variable)
        return SubtreeCost(
            TreeLeaf(variable, item.event_type.name), factor=self.leaf_factor(variable)
        )

    def join(self, left: SubtreeCost, right: SubtreeCost) -> SubtreeCost:
        """The tree joining ``left`` and ``right`` — one side of a ZStream
        split comparison."""
        return SubtreeCost(
            TreeInternalNode(left.node, right.node),
            left=left,
            right=right,
            selectivity=self.join_selectivity(left.node.variables(), right.node.variables()),
        )

    def subtree(self, node: TreePlanNode) -> SubtreeCost:
        """The cost expression of an existing (sub)tree."""
        if isinstance(node, TreeLeaf):
            return self.leaf(node.variable)
        return self.join(self.subtree(node.left), self.subtree(node.right))


def order_plan_cost(
    snapshot: StatisticsSnapshot, pattern: Pattern, order: Sequence[str]
) -> float:
    """Cost of an order-based plan (or of a prefix of one)."""
    return CostModel(pattern).order_cost(snapshot, order)


def tree_plan_cost(
    snapshot: StatisticsSnapshot, pattern: Pattern, root: TreePlanNode
) -> float:
    """Total ZStream cost of a tree plan."""
    return CostModel(pattern).subtree(root).evaluate(snapshot)


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
