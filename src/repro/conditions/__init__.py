"""Predicate (condition) framework.

Conditions express the ``WHERE`` clause of a pattern: Boolean constraints
over the attributes of the primitive events participating in a match.  The
planner cares about which *pairs* of event types a condition couples (to
look up its selectivity); the runtime engines care about evaluating a
condition against concrete bound events.
"""

from repro.conditions.base import (
    ComparisonShape,
    Condition,
    TrueCondition,
    AndCondition,
    OrCondition,
    NotCondition,
)
from repro.conditions.atomic import (
    AttributeComparisonCondition,
    AttributeThresholdCondition,
    EqualityCondition,
    PredicateCondition,
)
from repro.conditions.container import ConditionSet

__all__ = [
    "ComparisonShape",
    "Condition",
    "TrueCondition",
    "AndCondition",
    "OrCondition",
    "NotCondition",
    "AttributeComparisonCondition",
    "AttributeThresholdCondition",
    "EqualityCondition",
    "PredicateCondition",
    "ConditionSet",
]
