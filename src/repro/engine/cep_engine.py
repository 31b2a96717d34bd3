"""The adaptive CEP engine facade (Algorithm 1 of the paper).

:class:`AdaptiveCEPEngine` wires together every component of the ACEP
architecture (Figure 2 in the paper):

* the runtime evaluation mechanism (lazy NFA or tree engine, chosen
  automatically from the plan type);
* the statistics estimation component (an online
  :class:`~repro.statistics.StatisticsCollector` fed from the stream, or an
  externally supplied :class:`~repro.statistics.StatisticsProvider` such as
  the dataset simulators' ground-truth models);
* the optimizer — the reoptimizing decision function ``D`` (a
  :class:`~repro.adaptive.ReoptimizationPolicy`) and the plan generator
  ``A`` (a :class:`~repro.optimizer.PlanGenerator`), orchestrated by an
  :class:`~repro.adaptive.AdaptationController`;
* plan migration via :class:`~repro.engine.PlanMigrationManager`.

The engine exposes two entry points: :meth:`process` for event-at-a-time
use (examples, interactive use) and :meth:`run` which consumes an entire
stream and returns a :class:`RunResult` with the matches and the
performance metrics the experiments report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.adaptive import AdaptationController, ReoptimizationPolicy
from repro.compile import validate_compile_mode
from repro.engine.base import EvaluationEngine
from repro.engine.match import Match
from repro.engine.migration import PlanMigrationManager
from repro.engine.nfa import LazyNFAEngine
from repro.engine.tree import TreeEvaluationEngine
from repro.errors import EngineError
from repro.events import Event, EventStream
from repro.metrics import RunMetrics
from repro.optimizer import PlanGenerator
from repro.patterns import Pattern
from repro.plans import OrderBasedPlan, TreeBasedPlan
from repro.plans.base import EvaluationPlan
from repro.statistics import (
    StatisticsCollector,
    StatisticsProvider,
    StatisticsSnapshot,
)


def engine_for_plan(
    plan: EvaluationPlan,
    collector: Optional[StatisticsCollector] = None,
    profiler=None,
    compile_mode: str = "interpreted",
) -> EvaluationEngine:
    """Instantiate the runtime engine matching a plan's family."""
    if isinstance(plan, OrderBasedPlan):
        return LazyNFAEngine(
            plan, collector, profiler=profiler, compile_mode=compile_mode
        )
    if isinstance(plan, TreeBasedPlan):
        return TreeEvaluationEngine(
            plan, collector, profiler=profiler, compile_mode=compile_mode
        )
    raise EngineError(f"no runtime engine available for plan type {type(plan).__name__}")


@dataclass
class RunResult:
    """Outcome of running the engine over a full stream."""

    matches: List[Match]
    metrics: RunMetrics
    plan_history: List[str] = field(default_factory=list)

    @property
    def match_count(self) -> int:
        return len(self.matches)


def fold_run(engine, stream: "EventStream | Iterable[Event]") -> RunResult:
    """``run(stream)`` of every engine facade: fold ``engine.process`` over
    the stream, time the fold, and report the engine's ``work_metrics()``.

    Matches come back in detection order, exactly the concatenation of the
    ``process`` calls' results.
    """
    matches: List[Match] = []
    events_processed = 0
    started = time.perf_counter()
    for event in stream:
        matches.extend(engine.process(event))
        events_processed += 1
    duration = time.perf_counter() - started
    metrics = engine.work_metrics()
    metrics.events_processed = events_processed
    metrics.matches_emitted = len(matches)
    metrics.duration_seconds = duration
    return RunResult(matches=matches, metrics=metrics, plan_history=engine.plan_history)


class AdaptiveCEPEngine:
    """Adaptive detection of one pattern over an event stream.

    Parameters
    ----------
    pattern:
        The pattern to detect (a single, non-composite pattern; see
        :class:`~repro.engine.MultiPatternEngine` for disjunctions).
    planner:
        The plan-generation algorithm ``A``.
    policy:
        The reoptimizing decision function ``D``.
    statistics_provider:
        Optional external statistics source (e.g. a dataset simulator's
        ground-truth provider).  When omitted the engine maintains its own
        sliding-window estimates from the stream it processes.
    initial_snapshot:
        Statistics used to build the initial plan.  When omitted, a uniform
        snapshot (all rates equal) is used, which yields the pattern-order
        plan — the same cold-start behaviour as the paper's systems.
    monitoring_interval:
        Stream-time between consecutive evaluations of ``D``.
    statistics_window:
        Sliding-window length of the internal collector (defaults to four
        pattern windows).
    introspect:
        Opt into engine introspection (:mod:`repro.obs.introspect`): a
        shared :class:`~repro.obs.introspect.EngineProfiler` instruments
        every evaluation engine this facade builds, and a
        :class:`~repro.obs.introspect.DriftMonitor` tracks the installed
        plan's predicted cost/selectivities against observed statistics.
        Off by default — disabled engines are built exactly as before.
    compile_mode:
        Execution mode for every evaluation engine this facade builds
        (including post-adaptation replacements, which recompile for
        free at plan-build time): ``"interpreted"`` (default),
        ``"compiled"`` (plan-build-time condition kernels) or
        ``"indexed"`` (kernels plus equality-predicate candidate
        indexes).  All modes emit byte-identical matches.
    statistics_collector:
        Externally owned collector to use instead of building one.  The
        multi-pattern evaluator passes per-pattern collectors that read
        shared per-event-type estimators, so N patterns over one stream
        count every arrival exactly once.
    engine_factory:
        Callable ``(plan, collector, profiler, compile_mode) -> engine``
        replacing :func:`engine_for_plan` for every evaluation engine this
        facade builds (initial and post-adaptation).  The multi-pattern
        evaluator uses it to route plans with shareable prefixes into
        shared-prefix groups.
    """

    def __init__(
        self,
        pattern: Pattern,
        planner: PlanGenerator,
        policy: ReoptimizationPolicy,
        statistics_provider: Optional[StatisticsProvider] = None,
        initial_snapshot: Optional[StatisticsSnapshot] = None,
        monitoring_interval: float = 1.0,
        statistics_window: Optional[float] = None,
        introspect: bool = False,
        compile_mode: str = "interpreted",
        statistics_collector: Optional[StatisticsCollector] = None,
        engine_factory=None,
    ):
        if monitoring_interval <= 0:
            raise EngineError("monitoring_interval must be positive")
        self.pattern = pattern
        self.planner = planner
        self.policy = policy
        self._provider = statistics_provider
        self._monitoring_interval = float(monitoring_interval)
        self.compile_mode = validate_compile_mode(compile_mode)
        self._engine_factory = engine_factory

        window = pattern.window if pattern.window != float("inf") else 100.0
        if statistics_collector is not None:
            self._collector = statistics_collector
        else:
            self._collector = StatisticsCollector(
                window=statistics_window or 5.0 * window
            )
        self._collector.register_pattern(pattern)

        self._profiler = None
        self._drift = None
        if introspect:
            # Imported lazily: repro.obs must stay optional for the core
            # engine layer, and repro.obs.introspect imports conditions.
            from repro.obs.introspect import DriftMonitor, EngineProfiler

            self._profiler = EngineProfiler()
            self._drift = DriftMonitor()

        if initial_snapshot is None:
            initial_snapshot = self._uniform_snapshot()
        self.controller = AdaptationController(
            pattern, planner, policy, initial_snapshot
        )
        self.controller.drift_monitor = self._drift
        if self._drift is not None:
            self._drift.record_plan(self.controller.current_result, pattern)
        initial_engine = self._build_engine(self.controller.current_plan)
        self._migration = PlanMigrationManager(initial_engine, window=window)
        self._next_monitor_time: Optional[float] = None
        self._plan_history: List[str] = [self.controller.current_plan.describe()]

    def _build_engine(self, plan: EvaluationPlan) -> EvaluationEngine:
        factory = self._engine_factory or engine_for_plan
        return factory(
            plan,
            self._collector,
            profiler=self._profiler,
            compile_mode=self.compile_mode,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_plan(self) -> EvaluationPlan:
        return self.controller.current_plan

    @property
    def collector(self) -> StatisticsCollector:
        return self._collector

    @property
    def migration_manager(self) -> PlanMigrationManager:
        return self._migration

    @property
    def plan_history(self) -> List[str]:
        return list(self._plan_history)

    def reoptimization_count(self) -> int:
        """Number of actual plan replacements performed so far."""
        return self._migration.switches_performed

    def partial_match_count(self) -> int:
        """Live partial matches across the active and draining engines."""
        return self._migration.partial_match_count()

    def evaluation_engines(self) -> List[EvaluationEngine]:
        """All live evaluation engines (active first, then draining)."""
        return self._migration.engines()

    @property
    def profiler(self):
        """The shared :class:`EngineProfiler`, or ``None`` when disabled."""
        return self._profiler

    @property
    def drift_monitor(self):
        """The :class:`DriftMonitor`, or ``None`` when disabled."""
        return self._drift

    def introspection(self) -> dict:
        """One frame of engine internals (plan, populations, profile, drift).

        Always available; the ``profile`` and ``drift`` sections are
        present only when the engine was built with ``introspect=True``.
        """
        active = self._migration.active_engine
        frame: dict = {
            "pattern": self.pattern.name,
            "plan": self.controller.current_plan.describe(),
            "reoptimizations": self.reoptimization_count(),
            "counters": vars(self._migration.total_counters()).copy(),
            "partial_matches": {
                "live": self._migration.partial_match_count(),
                "per_state": active.state_occupancy(),
                "high_water": (
                    self._profiler.partial_matches_high_water
                    if self._profiler is not None
                    else 0
                ),
            },
        }
        if self._profiler is not None:
            frame["profile"] = self._profiler.frame()
        if self._drift is not None:
            observed = (
                self._collector.snapshot()
                if self._drift.observed_snapshot is None
                else None
            )
            frame["drift"] = self._drift.summary(observed)
        return frame

    def _uniform_snapshot(self) -> StatisticsSnapshot:
        rates = {item.event_type.name: 1.0 for item in self.pattern.items}
        return StatisticsSnapshot(rates, {}, timestamp=0.0)

    # ------------------------------------------------------------------
    # State snapshot / restore (checkpointing support)
    # ------------------------------------------------------------------
    def __getstate__(self):
        # An injected engine factory (the multi-pattern share manager) is
        # a view onto shared state owned elsewhere — never serialize it
        # through a per-pattern frame.  MultiPatternEngine re-installs it
        # after restore; a standalone restore degrades gracefully to the
        # default factory.
        state = dict(self.__dict__)
        state["_engine_factory"] = None
        return state

    def snapshot_state(self) -> bytes:
        """Serialize the full engine state (partial matches, statistics,
        adaptation state) so processing can later resume exactly where it
        stopped.  See :func:`repro.engine.state.snapshot_engine`."""
        from repro.engine.state import snapshot_engine

        return snapshot_engine(self)

    @classmethod
    def restore_state(cls, blob: bytes) -> "AdaptiveCEPEngine":
        """Rebuild an engine from a :meth:`snapshot_state` blob."""
        from repro.engine.state import restore_engine

        engine = restore_engine(blob)
        if not isinstance(engine, cls):
            raise EngineError(
                f"snapshot holds a {type(engine).__name__}, not a {cls.__name__}"
            )
        return engine

    def _delta_keyed_state(self):
        """Change-tracked collections (incremental-snapshot hook).

        The evaluation engines' emitted-key sets dominate long-run state;
        statistics, partial matches and adaptation state churn every event
        and travel in the skeleton (see :mod:`repro.streaming.delta`).
        """
        slots = [
            (f"migration.{name}", holder, attr)
            for name, holder, attr in self._migration._delta_keyed_state()
        ]
        slots.extend(
            (f"stats.{name}", holder, attr)
            for name, holder, attr in self._collector._delta_keyed_state()
        )
        return slots

    def _delta_frozen_state(self):
        """Immutable roots (pattern, plans, stateless planner) whose
        references delta skeletons ship as tokens instead of re-pickling.
        The policy and controller are *not* listed: their decision state
        mutates between epochs."""
        return [self.pattern, self.planner, *self._migration._delta_frozen_state()]

    def snapshot_delta(self, since_epoch=None, epoch=None) -> bytes:
        """Framed incremental snapshot of the state changed since the
        ``since_epoch`` snapshot (partial-match/emission/statistics deltas
        only); see :func:`repro.streaming.delta.engine_snapshot_delta`."""
        from repro.streaming.delta import engine_snapshot_delta

        return engine_snapshot_delta(self, since_epoch, epoch)

    # ------------------------------------------------------------------
    # Event-at-a-time API
    # ------------------------------------------------------------------
    def process(self, event: Event) -> List[Match]:
        """Process one event: adapt if a monitoring period elapsed, then match."""
        now = event.timestamp
        if self._next_monitor_time is None:
            self._next_monitor_time = now + self._monitoring_interval
        elif now >= self._next_monitor_time:
            self._run_adaptation_step(now)
            self._next_monitor_time = now + self._monitoring_interval

        self._collector.observe_event(event)
        return self._migration.process(event)

    def process_batch(self, events: List[Event]) -> List[Match]:
        """Process a batch of events with per-event adaptation ordering.

        The batch is split into segments at monitoring boundaries, so the
        decision function sees exactly the statistics state it would see
        in event-at-a-time mode; within a segment the engines take their
        batch fast path (columnar acceptance sweeps in compiled modes).
        """
        matches: List[Match] = []
        segment: List[Event] = []
        for event in events:
            now = event.timestamp
            if self._next_monitor_time is None:
                self._next_monitor_time = now + self._monitoring_interval
            elif now >= self._next_monitor_time:
                if segment:
                    matches.extend(self._flush_segment(segment))
                    segment = []
                self._run_adaptation_step(now)
                self._next_monitor_time = now + self._monitoring_interval
            segment.append(event)
        if segment:
            matches.extend(self._flush_segment(segment))
        return matches

    def _flush_segment(self, segment: List[Event]) -> List[Match]:
        for event in segment:
            self._collector.observe_event(event)
        return self._migration.process_batch(segment)

    def _run_adaptation_step(self, now: float) -> None:
        """One iteration of the detection–adaptation loop's decision phase."""
        if self._provider is not None:
            snapshot = self._provider.snapshot(now)
        else:
            snapshot = self._collector.snapshot(now)
        if self._drift is not None:
            self._drift.observe(snapshot)
        new_plan = self.controller.update(snapshot)
        if new_plan is not None:
            new_engine = self._build_engine(new_plan)
            self._migration.switch_to(new_engine, switch_time=now)
            self._plan_history.append(new_plan.describe())
            if self._drift is not None:
                self._drift.record_plan(self.controller.current_result, self.pattern)
        elif self._engine_factory is not None:
            # The policy keeps the plan, but a sharing-aware factory (the
            # multi-pattern prefix-share manager) may have accumulated rate
            # evidence that now scores this pattern into a shared-prefix
            # group.  Rebuilding the engine for the *same* plan routes it
            # through the factory again; the ordinary migration contract
            # keeps the match set identical across the switch.
            resharing = getattr(self._engine_factory, "wants_resharing", None)
            if resharing is not None and resharing(
                self.controller.current_plan,
                self._migration.active_engine,
                self._collector,
            ):
                new_engine = self._build_engine(self.controller.current_plan)
                self._migration.switch_to(new_engine, switch_time=now)
                self._plan_history.append(
                    f"{self.controller.current_plan.describe()} [shared-prefix rewire]"
                )

    # ------------------------------------------------------------------
    # Whole-stream API
    # ------------------------------------------------------------------
    def work_metrics(self) -> RunMetrics:
        """This engine's work counters so far, as a :class:`RunMetrics`.

        The one place the adaptation statistics and the evaluation
        engines' counters are read into run metrics; the multi-pattern and
        sharded facades sum their replicas' with
        :func:`~repro.metrics.aggregate_metrics`.
        """
        counters = self._migration.total_counters()
        adaptation = self.controller.statistics
        return RunMetrics(
            reoptimizations=self._migration.switches_performed,
            decisions_evaluated=adaptation.decisions_evaluated,
            time_in_decision=adaptation.time_in_decision,
            time_in_generation=adaptation.time_in_generation,
            partial_matches_created=counters.partial_matches_created,
            extension_attempts=counters.extension_attempts,
        )

    def run(self, stream: "EventStream | Iterable[Event]") -> RunResult:
        """Process an entire stream and report matches plus run metrics."""
        return fold_run(self, stream)
