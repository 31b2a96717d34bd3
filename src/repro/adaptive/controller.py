"""The detection–adaptation loop controller (Algorithm 1 in the paper).

The :class:`AdaptationController` owns the adaptive side of an ACEP system:
it holds the current plan, periodically evaluates the reoptimizing decision
function ``D`` against fresh statistics, re-invokes the plan-generation
algorithm ``A`` when ``D`` says so, compares the new plan's cost with the
current one, and reports plan replacements to the runtime engine.

It also does the bookkeeping the experiments need: the number of times
``D`` and ``A`` ran, the number of actual plan replacements, and the time
spent inside ``D`` and ``A`` (the "computational overhead" panels of
Figures 6–9).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.adaptive.policies import PolicyDecision, ReoptimizationPolicy
from repro.obs.introspect import drift_rows
from repro.optimizer.base import PlanGenerator
from repro.optimizer.recorder import PlanGenerationResult
from repro.patterns import Pattern
from repro.plans.base import EvaluationPlan
from repro.statistics import StatisticsProbe, StatisticsSnapshot


@dataclass
class AdaptationRecord:
    """One entry in the adaptation log: a plan replacement.

    ``trigger_distance`` and ``drift`` carry the quantitative context of a
    replacement — how far past the invariant boundary the statistics moved
    (:attr:`InvariantBasedPolicy.current_distance`) and the worst-drifting
    predicted-vs-observed selectivity pairs of the plan being retired
    (:func:`~repro.obs.introspect.drift_rows`).  ``trigger_distance`` is
    ``None`` for policies without one; ``drift`` is computed only while a
    decision sink is attached, so the records a checkpoint pickles stay
    as small as they are without one.
    """

    time: float
    reason: str
    previous_cost: float
    new_cost: float
    plan_description: str
    trigger_distance: Optional[float] = None
    drift: Optional[List[dict]] = None


@dataclass
class AdaptationStatistics:
    """Counters accumulated by the controller during a run."""

    decisions_evaluated: int = 0
    reoptimizations_requested: int = 0
    plans_generated: int = 0
    plans_replaced: int = 0
    time_in_decision: float = 0.0
    time_in_generation: float = 0.0
    replacements: List[AdaptationRecord] = field(default_factory=list)

    @property
    def adaptation_time(self) -> float:
        """Total time spent in D and A (the computational-overhead numerator)."""
        return self.time_in_decision + self.time_in_generation


class AdaptationController:
    """Drives plan selection and adaptation for one pattern.

    Parameters
    ----------
    pattern:
        The pattern being evaluated.
    planner:
        The plan-generation algorithm ``A``.
    policy:
        The reoptimizing decision function ``D``.
    initial_snapshot:
        Statistics used to create the initial plan (Algorithm 1's
        ``in_stat``).
    """

    def __init__(
        self,
        pattern: Pattern,
        planner: PlanGenerator,
        policy: ReoptimizationPolicy,
        initial_snapshot: StatisticsSnapshot,
    ):
        self._pattern = pattern
        self._planner = planner
        self._policy = policy
        self.statistics = AdaptationStatistics()
        #: Optional replacement observer ``(AdaptationRecord) -> None``,
        #: called whenever a plan is actually replaced — the streaming
        #: decision log's ``replan`` hook.  Process-local: excluded from
        #: pickled state (controllers travel inside engine snapshots and
        #: to worker processes) and re-attached by the pipeline.
        self.decision_sink = None
        self._install(self._timed_generate(initial_snapshot), initial_snapshot)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["decision_sink"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Snapshots from builds that predate the sink lack the key.
        self.__dict__.setdefault("decision_sink", None)

    def _notify_replacement(self, record: AdaptationRecord) -> None:
        if self.decision_sink is not None:
            self.decision_sink(record)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def pattern(self) -> Pattern:
        return self._pattern

    @property
    def planner(self) -> PlanGenerator:
        return self._planner

    @property
    def policy(self) -> ReoptimizationPolicy:
        return self._policy

    @property
    def current_plan(self) -> EvaluationPlan:
        return self._current_result.plan

    @property
    def current_result(self) -> PlanGenerationResult:
        return self._current_result

    # ------------------------------------------------------------------
    # Plan management
    # ------------------------------------------------------------------
    def _install(self, result: PlanGenerationResult, snapshot: StatisticsSnapshot) -> None:
        """Put ``result``'s plan in effect: the initial plan and every
        replacement take this one path."""
        self._current_result = result
        self._policy.on_plan_installed(result, snapshot)

    def _timed_generate(self, snapshot: StatisticsSnapshot) -> PlanGenerationResult:
        started = time.perf_counter()
        result = self._planner.generate(self._pattern, snapshot)
        self.statistics.time_in_generation += time.perf_counter() - started
        self.statistics.plans_generated += 1
        return result

    def update(
        self, view: "StatisticsProbe | StatisticsSnapshot"
    ) -> Optional[EvaluationPlan]:
        """One iteration of the detection–adaptation loop's decision step.

        Evaluates ``D`` on the given statistics view and, when it returns
        true, invokes ``A``.  The new plan is installed only if it improves
        on the current plan's cost (Algorithm 1: "if new_plan is better
        than curr_plan").  Returns the newly installed plan, or ``None``
        when the plan did not change.

        ``view`` is a tick's :class:`~repro.statistics.StatisticsProbe` or
        a :class:`~repro.statistics.StatisticsSnapshot`.  ``D`` reads the
        view; the full snapshot (``view.snapshot()``) is taken only when a
        plan is generated, since ``A``, the cost comparison, the new
        invariants and the drift rows plan from or keep it.
        """
        started = time.perf_counter()
        decision: PolicyDecision = self._policy.should_reoptimize(view)
        self.statistics.time_in_decision += time.perf_counter() - started
        self.statistics.decisions_evaluated += 1
        if not decision.reoptimize:
            return None

        self.statistics.reoptimizations_requested += 1
        snapshot = view.snapshot()
        new_result = self._timed_generate(snapshot)
        current_cost = self._current_result.plan.cost(snapshot)
        new_cost = new_result.plan.cost(snapshot)

        if new_result.plan == self._current_result.plan or new_cost >= current_cost:
            # The freshly generated plan is not an improvement (Algorithm
            # 1's "if new_plan is better than curr_plan" check); keep the
            # current one.
            return None

        # Capture the replacement's motivation before installing the new
        # plan: the distance is the policy's view of the *old* invariants,
        # and the drift table must compare against the *old* plan's
        # predictions — after installation both describe the new plan.
        trigger_distance = self._policy.current_distance
        drift = None
        if self.decision_sink is not None:
            drift = drift_rows(self._current_result, self._pattern, snapshot)[:3]

        self._policy.observe_adaptation(current_cost, new_cost)
        self._install(new_result, snapshot)
        self.statistics.plans_replaced += 1
        record = AdaptationRecord(
            time=snapshot.timestamp,
            reason=decision.reason,
            previous_cost=current_cost,
            new_cost=new_cost,
            plan_description=new_result.plan.describe(),
            trigger_distance=trigger_distance,
            drift=drift,
        )
        self.statistics.replacements.append(record)
        self._notify_replacement(record)
        return new_result.plan

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def overhead_fraction(self, total_time: float) -> float:
        """Fraction of ``total_time`` spent inside D and A."""
        if total_time <= 0:
            return 0.0
        return min(1.0, self.statistics.adaptation_time / total_time)

    def describe(self) -> str:
        stats = self.statistics
        lines = [
            f"policy={self._policy.name}, planner={self._planner.name}",
            f"decisions={stats.decisions_evaluated}, requested={stats.reoptimizations_requested}, "
            f"replaced={stats.plans_replaced}",
            f"time: D={stats.time_in_decision:.4f}s, A={stats.time_in_generation:.4f}s",
            f"current plan: {self._current_result.plan.describe()}",
        ]
        return "\n".join(lines)
