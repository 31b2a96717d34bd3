"""Evaluation plans and their cost model.

A plan tells the runtime engine *how* to combine primitive events into
matches.  Two plan families are supported, mirroring the paper:

* :class:`OrderBasedPlan` — a processing order over the pattern's positive
  items; executed by the lazy-NFA engine.
* :class:`TreeBasedPlan` — a binary join tree over the positive items (the
  ZStream model); executed by the tree engine.

``plan.cost(snapshot)`` estimates the expected number of partial matches
a plan materialises — the quantity both plan-generation algorithms
minimise.  It reads the one cost model, :mod:`repro.optimizer.cost`, the
planners build their deciding conditions from (imported at call time:
the optimizer imports this package).
"""

from repro.plans.base import EvaluationPlan
from repro.plans.order_plan import OrderBasedPlan, PlanStep
from repro.plans.tree_plan import TreeBasedPlan, TreePlanNode, TreeLeaf, TreeInternalNode

__all__ = [
    "EvaluationPlan",
    "OrderBasedPlan",
    "PlanStep",
    "TreeBasedPlan",
    "TreePlanNode",
    "TreeLeaf",
    "TreeInternalNode",
]
