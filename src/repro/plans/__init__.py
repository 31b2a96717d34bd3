"""Evaluation plans and their cost model.

A plan tells the runtime engine *how* to combine primitive events into
matches.  Two plan families are supported, mirroring the paper:

* :class:`OrderBasedPlan` — a processing order over the pattern's positive
  items; executed by the lazy-NFA engine.
* :class:`TreeBasedPlan` — a binary join tree over the positive items (the
  ZStream model); executed by the tree engine.

The cost model (:mod:`repro.plans.cost`) estimates, from a statistics
snapshot, the expected number of partial matches a plan materialises — the
quantity both plan-generation algorithms minimise.
"""

from repro.plans.base import EvaluationPlan
from repro.plans.order_plan import OrderBasedPlan, PlanStep
from repro.plans.tree_plan import TreeBasedPlan, TreePlanNode, TreeLeaf, TreeInternalNode
from repro.plans.cost import (
    order_plan_cost,
    order_prefix_cost,
    order_step_cost,
    sharing_score,
    tree_plan_cost,
    tree_node_cardinality,
    pair_selectivity_product,
)

__all__ = [
    "EvaluationPlan",
    "OrderBasedPlan",
    "PlanStep",
    "TreeBasedPlan",
    "TreePlanNode",
    "TreeLeaf",
    "TreeInternalNode",
    "order_plan_cost",
    "order_prefix_cost",
    "order_step_cost",
    "sharing_score",
    "tree_plan_cost",
    "tree_node_cardinality",
    "pair_selectivity_product",
]
