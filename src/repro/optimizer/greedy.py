"""Greedy order-based plan generation (Algorithm 2 in the paper).

The algorithm iteratively selects the event type that minimises the growth
factor of the number of partial matches (the cost model's
:meth:`~repro.optimizer.cost.CostModel.step_factor`):

* step 1 picks the item with the lowest ``rate * local_selectivity``;
* step ``i`` picks the remaining item minimising
  ``rate * local_selectivity * prod_{k < i} sel(p_k, candidate)``.

Instrumentation: each time the winning candidate of a step is compared
against a losing candidate, the (satisfied) comparison is a block-building
comparison for the block "place <winner> at position i", and is recorded as
a deciding condition ``expr(winner) < expr(loser)`` (Section 4.1).
"""

from __future__ import annotations

from typing import List, Optional

from repro.optimizer.base import (
    PlanGenerator,
    default_block_label_for_position,
    initial_snapshot_or_error,
)
from repro.optimizer.cost import CostModel
from repro.optimizer.recorder import ComparisonRecorder, PlanGenerationResult
from repro.patterns import Pattern
from repro.plans import OrderBasedPlan
from repro.statistics import StatisticsSnapshot


class GreedyOrderPlanner(PlanGenerator):
    """Instrumented greedy order-based planner."""

    name = "greedy-order"

    def generate(
        self, pattern: Pattern, snapshot: Optional[StatisticsSnapshot]
    ) -> PlanGenerationResult:
        snapshot = initial_snapshot_or_error(snapshot)
        self._require_rates(pattern, snapshot)

        model = CostModel(pattern)
        recorder = ComparisonRecorder()
        variables = [item.variable for item in pattern.positive_items]
        order: List[str] = []
        remaining = list(variables)

        for position in range(len(variables)):
            expressions = {
                candidate: model.step_factor(order, candidate)
                for candidate in remaining
            }
            values = {
                candidate: expression.evaluate(snapshot)
                for candidate, expression in expressions.items()
            }
            # Deterministic tie-break by the candidate's index in the pattern,
            # so equal-cost candidates never depend on dict iteration order.
            winner = min(
                remaining,
                key=lambda candidate: (values[candidate], pattern.positive_index(candidate)),
            )
            winner_item = pattern.item_by_variable(winner)
            block_label = default_block_label_for_position(
                position, winner, winner_item.event_type.name
            )
            recorder.open_block(block_label)
            for candidate in remaining:
                if candidate == winner:
                    continue
                recorder.count_comparison()
                # Ties (equal values, broken by the deterministic index rule)
                # are recorded too: they carry zero slack, so the adaptation
                # layer re-examines the choice as soon as the statistics
                # actually differentiate the candidates.
                note = f"{winner} preferred over {candidate} at position {position + 1}"
                if values[winner] == values[candidate]:
                    note += " (tie at creation)"
                recorder.record(
                    block_label,
                    lhs=expressions[winner],
                    rhs=expressions[candidate],
                    note=note,
                )
            order.append(winner)
            remaining.remove(winner)

        plan = OrderBasedPlan(pattern, order)
        return PlanGenerationResult(
            plan=plan,
            condition_sets=recorder.condition_sets(),
            snapshot=snapshot,
            generator_name=self.name,
            comparisons_performed=recorder.comparisons_performed,
            metadata={"order": tuple(order)},
        )
