"""Deciding conditions, deciding-condition sets, and the comparison recorder.

While a plan-generation algorithm runs, every *block-building comparison*
(BBC) it performs is reported to a :class:`ComparisonRecorder`.  A BBC is a
comparison whose positive outcome caused a specific building block to be
part of the final plan; the recorder stores it as a
:class:`DecidingCondition` in the :class:`DecidingConditionSet` of that
block.  The :class:`PlanGenerationResult` bundles the produced plan with its
ordered deciding-condition sets so that the adaptation layer can derive
invariants without knowing anything about the algorithm's internals
(Section 3.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.optimizer.terms import StatExpression
from repro.plans.base import EvaluationPlan
from repro.statistics import StatisticsSnapshot


@dataclass(frozen=True)
class DecidingCondition:
    """An inequality ``lhs < rhs`` over the monitored statistics.

    The condition held at plan-generation time (it was checked and
    satisfied by a BBC); the adaptation layer re-verifies it, possibly with
    a minimal distance ``d`` (Section 3.4): the condition counts as violated
    once ``lhs > (1 + d) * rhs``.
    """

    lhs: StatExpression
    rhs: StatExpression
    block_label: str = ""
    note: str = ""

    def holds(self, snapshot: StatisticsSnapshot, distance: float = 0.0) -> bool:
        """Whether the (distance-relaxed) condition still holds.

        The minimal distance ``d`` (Section 3.4) is the smallest relative
        difference between the two sides required for the condition to count
        as violated: the condition is violated only once
        ``lhs > (1 + d) * rhs``, so small oscillations around equality do
        not trigger reoptimization.  ``d = 0`` is the basic method; exact
        ties (which the planners break deterministically, not statistically)
        are never treated as violations.
        """
        return self.lhs.evaluate(snapshot) <= (1.0 + distance) * self.rhs.evaluate(snapshot)

    def slack(self, snapshot: StatisticsSnapshot) -> float:
        """``rhs - lhs``: how far the condition is from being violated."""
        return self.rhs.evaluate(snapshot) - self.lhs.evaluate(snapshot)

    def relative_difference(self, snapshot: StatisticsSnapshot) -> float:
        """``|rhs - lhs| / min(lhs, rhs)`` — used by the davg heuristic (Section 3.4)."""
        lhs = self.lhs.evaluate(snapshot)
        rhs = self.rhs.evaluate(snapshot)
        denominator = min(abs(lhs), abs(rhs))
        if denominator == 0.0:
            return 0.0
        return abs(rhs - lhs) / denominator

    def describe(self) -> str:
        text = f"{self.lhs.describe()} < {self.rhs.describe()}"
        if self.note:
            text += f"  [{self.note}]"
        return text

    def __repr__(self) -> str:
        return f"DecidingCondition({self.describe()})"


@dataclass
class DecidingConditionSet:
    """All deciding conditions attributed to one building block."""

    block_label: str
    conditions: List[DecidingCondition] = field(default_factory=list)

    def add(self, condition: DecidingCondition) -> None:
        self.conditions.append(condition)

    def __len__(self) -> int:
        return len(self.conditions)

    def __iter__(self):
        return iter(self.conditions)

    def is_empty(self) -> bool:
        return not self.conditions

    def tightest(
        self, snapshot: StatisticsSnapshot, k: int = 1
    ) -> List[DecidingCondition]:
        """The ``k`` conditions closest to violation (smallest slack).

        This is the paper's tightest-condition selection strategy
        (Section 3.1 / 3.5); ``k`` implements the K-invariant method
        (Section 3.3).  ``k <= 0`` selects every condition.
        """
        if self.is_empty():
            return []
        ordered = sorted(self.conditions, key=lambda c: c.slack(snapshot))
        if k <= 0 or k >= len(ordered):
            return list(ordered)
        return ordered[:k]

    def __repr__(self) -> str:
        return f"DecidingConditionSet({self.block_label!r}, {len(self.conditions)} conditions)"


class ComparisonRecorder:
    """Collects block-building comparisons during one planner run.

    The planner calls :meth:`record` each time a deciding condition is
    verified and satisfied for a block.  Blocks are identified by label; the
    order in which block labels are first seen defines the verification
    order of the resulting invariants (plan order for order-based plans,
    bottom-up for tree-based plans), because planners construct blocks in
    exactly that order.
    """

    def __init__(self) -> None:
        self._sets: Dict[str, DecidingConditionSet] = {}
        self._order: List[str] = []
        self.comparisons_performed = 0

    def open_block(self, block_label: str) -> None:
        """Ensure a (possibly empty) deciding-condition set exists for a block."""
        if block_label not in self._sets:
            self._sets[block_label] = DecidingConditionSet(block_label)
            self._order.append(block_label)

    def record(
        self,
        block_label: str,
        lhs: StatExpression,
        rhs: StatExpression,
        note: str = "",
    ) -> None:
        """Record one satisfied deciding condition for a block."""
        self.open_block(block_label)
        self._sets[block_label].add(
            DecidingCondition(lhs=lhs, rhs=rhs, block_label=block_label, note=note)
        )

    def count_comparison(self) -> None:
        """Count one comparison performed by the planner (recorded or not)."""
        self.comparisons_performed += 1

    def condition_sets(self) -> List[DecidingConditionSet]:
        """Deciding-condition sets in block-construction order."""
        return [self._sets[label] for label in self._order]


@dataclass
class PlanGenerationResult:
    """Output of an instrumented planner run."""

    plan: EvaluationPlan
    condition_sets: List[DecidingConditionSet]
    snapshot: StatisticsSnapshot
    generator_name: str
    comparisons_performed: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def num_blocks(self) -> int:
        return len(self.condition_sets)

    def total_conditions(self) -> int:
        return sum(len(s) for s in self.condition_sets)

    def describe(self) -> str:
        lines = [f"{self.generator_name}: {self.plan.describe()}"]
        for condition_set in self.condition_sets:
            lines.append(f"  block {condition_set.block_label}:")
            for condition in condition_set:
                lines.append(f"    {condition.describe()}")
        return "\n".join(lines)
