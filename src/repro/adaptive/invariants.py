"""Invariants and invariant sets (Sections 3.1–3.3, 3.5 of the paper).

An *invariant* is a deciding condition selected for runtime verification,
optionally relaxed by a minimal distance ``d``: the invariant is considered
violated when ``lhs > (1 + d) * rhs``.

An :class:`InvariantSet` holds the invariants of the currently installed
plan in verification order (plan order for order-based plans, bottom-up for
tree-based plans).  The reoptimizing decision function of the
invariant-based method simply walks this list and reports the first
violation.

Invariant selection from each block's deciding-condition set is delegated
to a :class:`SelectionStrategy`; the default is the paper's
tightest-condition heuristic, and :class:`ViolationProbabilityStrategy`
implements the alternative discussed in Section 3.5 for when the expected
variance of each statistic is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.errors import AdaptationError
from repro.optimizer.recorder import (
    DecidingCondition,
    DecidingConditionSet,
    PlanGenerationResult,
)
from repro.statistics import StatisticsSnapshot


@dataclass(frozen=True)
class Invariant:
    """A deciding condition selected for runtime verification."""

    condition: DecidingCondition
    block_label: str
    distance: float = 0.0

    def holds(self, snapshot: StatisticsSnapshot) -> bool:
        """Whether the invariant (with its minimal distance) still holds."""
        return self.condition.holds(snapshot, distance=self.distance)

    def is_violated(self, snapshot: StatisticsSnapshot) -> bool:
        return not self.holds(snapshot)

    def slack(self, snapshot: StatisticsSnapshot) -> float:
        return self.condition.slack(snapshot)

    def describe(self) -> str:
        prefix = f"[{self.block_label}] "
        if self.distance > 0:
            lhs = self.condition.lhs.describe()
            rhs = self.condition.rhs.describe()
            return f"{prefix}{lhs} < (1+{self.distance:g}) * {rhs}"
        return prefix + self.condition.describe()

    def __repr__(self) -> str:
        return f"Invariant({self.describe()})"


class SelectionStrategy:
    """Selects which deciding conditions of a block become invariants."""

    def select(
        self,
        condition_set: DecidingConditionSet,
        snapshot: StatisticsSnapshot,
        k: int,
    ) -> List[DecidingCondition]:
        raise NotImplementedError


class TightestConditionStrategy(SelectionStrategy):
    """The paper's default: pick the conditions with the smallest slack."""

    def select(
        self,
        condition_set: DecidingConditionSet,
        snapshot: StatisticsSnapshot,
        k: int,
    ) -> List[DecidingCondition]:
        return condition_set.tightest(snapshot, k)


class ViolationProbabilityStrategy(SelectionStrategy):
    """Pick the conditions most likely to be violated (Section 3.5).

    Parameters
    ----------
    probability:
        Callable mapping ``(condition, snapshot)`` to an estimated violation
        probability.  Conditions with the highest probability are selected.
        When variance information is unavailable the caller can supply any
        heuristic score; the default falls back to the reciprocal of the
        relative slack, which ranks like the tightest-condition strategy.
    """

    def __init__(
        self,
        probability: Optional[
            Callable[[DecidingCondition, StatisticsSnapshot], float]
        ] = None,
    ):
        self._probability = probability or self._default_probability

    @staticmethod
    def _default_probability(
        condition: DecidingCondition, snapshot: StatisticsSnapshot
    ) -> float:
        relative = condition.relative_difference(snapshot)
        return 1.0 / (1.0 + relative)

    def select(
        self,
        condition_set: DecidingConditionSet,
        snapshot: StatisticsSnapshot,
        k: int,
    ) -> List[DecidingCondition]:
        if condition_set.is_empty():
            return []
        ordered = sorted(
            condition_set.conditions,
            key=lambda c: -self._probability(c, snapshot),
        )
        if k <= 0 or k >= len(ordered):
            return list(ordered)
        return ordered[:k]


class RandomSelectionStrategy(SelectionStrategy):
    """Pick conditions pseudo-randomly (ablation baseline for Section 3.5)."""

    def __init__(self, seed: int = 0):
        self._seed = seed

    def select(
        self,
        condition_set: DecidingConditionSet,
        snapshot: StatisticsSnapshot,
        k: int,
    ) -> List[DecidingCondition]:
        if condition_set.is_empty():
            return []
        conditions = list(condition_set.conditions)
        # Deterministic pseudo-shuffle keyed by the block label so the
        # ablation is reproducible without global RNG state.
        conditions.sort(
            key=lambda c: hash((self._seed, condition_set.block_label, c.describe()))
        )
        if k <= 0 or k >= len(conditions):
            return conditions
        return conditions[:k]


class InvariantSet:
    """The ordered invariant list of the currently installed plan."""

    def __init__(self, invariants: Sequence[Invariant]):
        self._invariants = list(invariants)

    @property
    def invariants(self) -> Sequence[Invariant]:
        return tuple(self._invariants)

    def __len__(self) -> int:
        return len(self._invariants)

    def __iter__(self):
        return iter(self._invariants)

    def first_violated(self, snapshot: StatisticsSnapshot) -> Optional[Invariant]:
        """The first violated invariant in verification order, or ``None``.

        Invariants are checked in plan order because each one implicitly
        assumes the correctness of the preceding ones (Section 3.2).
        """
        for invariant in self._invariants:
            if invariant.is_violated(snapshot):
                return invariant
        return None

    def is_violated(self, snapshot: StatisticsSnapshot) -> bool:
        return self.first_violated(snapshot) is not None

    def describe(self) -> str:
        return "\n".join(invariant.describe() for invariant in self._invariants)

    def __repr__(self) -> str:
        return f"InvariantSet({len(self._invariants)} invariants)"


def build_invariant_set(
    result: PlanGenerationResult,
    k: int = 1,
    distance: float = 0.0,
    strategy: Optional[SelectionStrategy] = None,
) -> InvariantSet:
    """Build the invariant set for a freshly generated plan.

    Parameters
    ----------
    result:
        The instrumented planner output (plan + deciding-condition sets).
    k:
        Maximal number of conditions selected per block (the K-invariant
        method).  ``k <= 0`` selects every condition, giving the
        iff guarantee of Theorem 2.
    distance:
        Minimal relative distance ``d`` applied to every invariant
        (Section 3.4).
    strategy:
        Invariant selection strategy; defaults to the tightest-condition
        heuristic.
    """
    if distance < 0:
        raise AdaptationError("invariant distance must be >= 0")
    strategy = strategy or TightestConditionStrategy()
    snapshot = result.snapshot
    invariants: List[Invariant] = []
    for condition_set in result.condition_sets:
        for condition in strategy.select(condition_set, snapshot, k):
            invariants.append(
                Invariant(
                    condition=condition,
                    block_label=condition_set.block_label,
                    distance=distance,
                )
            )
    return InvariantSet(invariants)
