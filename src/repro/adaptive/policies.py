"""Reoptimizing decision policies (implementations of the function D).

Each policy answers a single question on every monitoring period: *should
the plan-generation algorithm be re-invoked now?*  The four policies
compared in the paper's evaluation are implemented:

* :class:`InvariantBasedPolicy` — the paper's contribution.
* :class:`ConstantThresholdPolicy` — ZStream's baseline.
* :class:`UnconditionalPolicy` — the lazy-NFA baseline.
* :class:`StaticPolicy` — the non-adaptive baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.adaptive.distance import DistanceEstimator, FixedDistance
from repro.adaptive.invariants import (
    Invariant,
    InvariantSet,
    SelectionStrategy,
    build_invariant_set,
)
from repro.errors import AdaptationError
from repro.optimizer.recorder import PlanGenerationResult
from repro.statistics import StatisticsProbe, StatisticsSnapshot


@dataclass
class PolicyDecision:
    """Outcome of one invocation of a decision policy."""

    reoptimize: bool
    reason: str = ""
    violated_invariant: Optional[Invariant] = None
    details: Dict[str, float] = field(default_factory=dict)


class ReoptimizationPolicy:
    """Base class for reoptimizing decision functions."""

    #: Name used in experiment reports (matches the paper's legends).
    name: str = "policy"
    #: The minimal distance ``d`` the policy's triggers are held to, for
    #: the replacement record; ``None`` for policies without one.
    current_distance: Optional[float] = None

    def should_reoptimize(
        self, view: "StatisticsProbe | StatisticsSnapshot"
    ) -> PolicyDecision:
        """The decision function D: evaluate against current statistics.

        ``view`` is a tick's :class:`~repro.statistics.StatisticsProbe`
        or a snapshot; a policy that needs every statistic takes
        ``view.snapshot()``.
        """
        raise NotImplementedError

    def on_plan_installed(
        self, result: PlanGenerationResult, snapshot: StatisticsSnapshot
    ) -> None:
        """Notification that a (new) plan is now in effect.

        Called for the initial plan and after every replacement so policies
        can rebuild their internal state (invariants, reference snapshots).
        """

    def observe_adaptation(self, previous_cost: float, new_cost: float) -> None:
        """Feedback on a replacement: the replaced and the new plan's cost,
        both on the statistics the replacement was planned from."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class StaticPolicy(ReoptimizationPolicy):
    """Never reoptimize: the non-adaptive "static plan" baseline."""

    name = "static"

    def should_reoptimize(self, view) -> PolicyDecision:
        return PolicyDecision(reoptimize=False, reason="static policy never adapts")


class UnconditionalPolicy(ReoptimizationPolicy):
    """Always reoptimize: the baseline of the tree-based / lazy NFA paper.

    The plan-generation algorithm is re-invoked on every monitoring period
    regardless of whether anything changed; the detection–adaptation loop
    will still only *install* the new plan if it is better, but the full
    generation cost is paid every time.
    """

    name = "unconditional"

    def should_reoptimize(self, view) -> PolicyDecision:
        return PolicyDecision(reoptimize=True, reason="unconditional reoptimization")


class ConstantThresholdPolicy(ReoptimizationPolicy):
    """ZStream's baseline: reoptimize when any statistic drifts by more than ``t``.

    The reference values are the statistics observed when the current plan
    was installed.  A deviation of at least ``threshold`` (relative) in any
    monitored arrival rate or selectivity triggers reoptimization.
    """

    name = "constant-threshold"

    def __init__(self, threshold: float):
        if threshold < 0:
            raise AdaptationError("threshold must be >= 0")
        self._threshold = float(threshold)
        self._reference: Optional[StatisticsSnapshot] = None

    @property
    def threshold(self) -> float:
        return self._threshold

    def on_plan_installed(
        self, result: PlanGenerationResult, snapshot: StatisticsSnapshot
    ) -> None:
        self._reference = snapshot

    def should_reoptimize(self, view) -> PolicyDecision:
        if self._reference is None:
            return PolicyDecision(
                reoptimize=True, reason="no reference statistics yet"
            )
        # Every statistic is compared, so this policy reads a full snapshot.
        deviation = view.snapshot().max_relative_deviation(self._reference)
        if deviation >= self._threshold:
            return PolicyDecision(
                reoptimize=True,
                reason=f"max relative deviation {deviation:.3f} >= threshold {self._threshold:.3f}",
                details={"deviation": deviation},
            )
        return PolicyDecision(
            reoptimize=False,
            reason=f"max relative deviation {deviation:.3f} < threshold {self._threshold:.3f}",
            details={"deviation": deviation},
        )


class InvariantBasedPolicy(ReoptimizationPolicy):
    """The invariant-based reoptimizing decision function (Section 3).

    Parameters
    ----------
    k:
        Number of conditions selected per building block (the K-invariant
        method).  ``k = 1`` is the basic method; ``k <= 0`` selects every
        deciding condition (Theorem 2's iff variant).
    distance:
        Minimal relative distance ``d`` applied to every invariant, or a
        :class:`DistanceEstimator` computing it per plan (e.g. the average
        relative difference heuristic).
    strategy:
        Invariant selection strategy (default: tightest condition).
    """

    name = "invariant"

    def __init__(
        self,
        k: int = 1,
        distance: "float | DistanceEstimator" = 0.0,
        strategy: Optional[SelectionStrategy] = None,
    ):
        self._k = int(k)
        if isinstance(distance, DistanceEstimator):
            self._distance_estimator = distance
        else:
            self._distance_estimator = FixedDistance(float(distance))
        self._strategy = strategy
        self._invariants: Optional[InvariantSet] = None
        self._current_distance: float = 0.0

    @property
    def k(self) -> int:
        return self._k

    @property
    def invariants(self) -> Optional[InvariantSet]:
        """The invariant set currently being verified (None before the first plan)."""
        return self._invariants

    @property
    def current_distance(self) -> float:
        """The distance in effect for the current invariant set."""
        return self._current_distance

    def on_plan_installed(
        self, result: PlanGenerationResult, snapshot: StatisticsSnapshot
    ) -> None:
        self._current_distance = self._distance_estimator.distance_for(result)
        self._invariants = build_invariant_set(
            result,
            k=self._k,
            distance=self._current_distance,
            strategy=self._strategy,
        )

    def observe_adaptation(self, previous_cost: float, new_cost: float) -> None:
        """Forward adaptation feedback to the distance estimator."""
        self._distance_estimator.observe_adaptation(previous_cost, new_cost)

    def should_reoptimize(self, view) -> PolicyDecision:
        if self._invariants is None:
            return PolicyDecision(reoptimize=True, reason="no invariants built yet")
        # Only the terms the invariants name are read from the view.
        violated = self._invariants.first_violated(view)
        if violated is None:
            return PolicyDecision(
                reoptimize=False,
                reason=f"all {len(self._invariants)} invariants hold",
                details={"num_invariants": float(len(self._invariants))},
            )
        return PolicyDecision(
            reoptimize=True,
            reason=f"invariant violated: {violated.describe()}",
            violated_invariant=violated,
            details={"num_invariants": float(len(self._invariants))},
        )
