"""ZStream dynamic-programming tree plan generation (Algorithm 3 in the paper).

The algorithm computes, for every contiguous span of the pattern's positive
items, the cheapest binary evaluation tree over that span, reusing the
memoized best subtrees of its sub-spans.  Every candidate tree is costed by
evaluating its expression from the shared cost model
(:meth:`repro.optimizer.cost.CostModel.join`), the same expression
``TreeBasedPlan.cost`` evaluates.

Instrumentation (Section 4.2): a comparison between the costs of two
candidate trees over the same span is a block-building comparison for the
root of the cheaper tree.  The recorded sides are the candidates' own
:class:`~repro.optimizer.cost.SubtreeCost` expressions — the ones the DP
evaluated to pick — so every rate and selectivity of both candidate trees
is re-read from the snapshot the invariant is verified against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.optimizer.base import (
    PlanGenerator,
    default_block_label_for_subset,
    initial_snapshot_or_error,
)
from repro.optimizer.cost import CostModel, SubtreeCost
from repro.optimizer.recorder import (
    ComparisonRecorder,
    DecidingConditionSet,
    PlanGenerationResult,
)
from repro.patterns import Pattern
from repro.plans import TreeBasedPlan
from repro.statistics import StatisticsSnapshot


class ZStreamTreePlanner(PlanGenerator):
    """Instrumented ZStream dynamic-programming tree planner."""

    name = "zstream-tree"

    def generate(
        self, pattern: Pattern, snapshot: Optional[StatisticsSnapshot]
    ) -> PlanGenerationResult:
        snapshot = initial_snapshot_or_error(snapshot)
        self._require_rates(pattern, snapshot)

        variables = [item.variable for item in pattern.positive_items]
        n = len(variables)
        recorder = ComparisonRecorder()
        model = CostModel(pattern)

        # solutions[(start, length)] -> best subtree for that span
        solutions: Dict[Tuple[int, int], SubtreeCost] = {
            (start, 1): model.leaf(variable)
            for start, variable in enumerate(variables)
        }
        for length in range(2, n + 1):
            for start in range(0, n - length + 1):
                solutions[(start, length)] = self._solve_span(
                    model, snapshot, variables, solutions, start, length, recorder
                )

        plan = TreeBasedPlan(pattern, solutions[(0, n)].node)

        # Keep only the deciding-condition sets of blocks present in the final
        # plan, ordered bottom-up to match the verification order.  Blocks the
        # DP never had to compare (single-split spans) get an empty set.
        final_labels = [
            default_block_label_for_subset(node.variables())
            for node in plan.internal_nodes_bottom_up()
        ]
        by_label = {s.block_label: s for s in recorder.condition_sets()}
        ordered_sets = [
            by_label.get(label, DecidingConditionSet(label)) for label in final_labels
        ]

        return PlanGenerationResult(
            plan=plan,
            condition_sets=ordered_sets,
            snapshot=snapshot,
            generator_name=self.name,
            comparisons_performed=recorder.comparisons_performed,
            metadata={"num_spans": len(solutions)},
        )

    def _solve_span(
        self,
        model: CostModel,
        snapshot: StatisticsSnapshot,
        variables: List[str],
        solutions: Dict[Tuple[int, int], SubtreeCost],
        start: int,
        length: int,
        recorder: ComparisonRecorder,
    ) -> SubtreeCost:
        span_variables = variables[start : start + length]
        block_label = default_block_label_for_subset(span_variables)
        recorder.open_block(block_label)

        candidates: List[SubtreeCost] = [
            model.join(solutions[(start, split)], solutions[(start + split, length - split)])
            for split in range(1, length)
        ]
        costs = [candidate.evaluate(snapshot) for candidate in candidates]

        # Pick the cheapest candidate; ties break towards the earliest split
        # so the algorithm stays deterministic.
        best_index = min(range(len(candidates)), key=lambda i: (costs[i], i))
        best = candidates[best_index]

        for index, candidate in enumerate(candidates):
            if index == best_index:
                continue
            recorder.count_comparison()
            note = f"split choice for [{'+'.join(span_variables)}]"
            if costs[best_index] == costs[index]:
                note += " (tie at creation)"
            recorder.record(block_label, lhs=best, rhs=candidate, note=note)
        return best
