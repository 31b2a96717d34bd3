"""Plan-generation algorithms and their instrumentation.

The algorithms here implement the two planners the paper applies the
invariant-based method to:

* :class:`GreedyOrderPlanner` — the greedy order-based algorithm
  (Algorithm 2 in the paper; the heuristic of Swami [47] adapted to CEP).
* :class:`ZStreamTreePlanner` — ZStream's dynamic-programming tree
  algorithm (Algorithm 3).

Every planner is *instrumented*: while it runs it records every
block-building comparison (BBC) into per-block deciding-condition sets,
which the adaptation layer turns into invariants.

Both planners build their comparisons from the one cost model,
:mod:`repro.optimizer.cost`, which also prices a finished plan
(``plan.cost(snapshot)``): the costs the adaptation controller compares
are the expressions the invariants encode.
"""

from repro.optimizer.terms import (
    StatExpression,
    ConstantTerm,
    RateTerm,
    SelectivityTerm,
    LocalSelectivityTerm,
    ProductExpression,
    SumExpression,
)
from repro.optimizer.recorder import (
    DecidingCondition,
    DecidingConditionSet,
    PlanGenerationResult,
    ComparisonRecorder,
)
from repro.optimizer.base import PlanGenerator
from repro.optimizer.greedy import GreedyOrderPlanner
from repro.optimizer.zstream import ZStreamTreePlanner

__all__ = [
    "StatExpression",
    "ConstantTerm",
    "RateTerm",
    "SelectivityTerm",
    "LocalSelectivityTerm",
    "ProductExpression",
    "SumExpression",
    "DecidingCondition",
    "DecidingConditionSet",
    "PlanGenerationResult",
    "ComparisonRecorder",
    "PlanGenerator",
    "GreedyOrderPlanner",
    "ZStreamTreePlanner",
]
