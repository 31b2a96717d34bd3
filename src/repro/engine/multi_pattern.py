"""Shared one-pass multi-pattern evaluation.

Historically this engine evaluated a :class:`CompositePattern` by feeding
every event to every sub-pattern's engine — N patterns meant reading the
stream N times.  It now serves a :class:`~repro.multi.PatternSet` (or a
plain ``list`` of patterns) in **one pass**:

* each event is routed through a per-event-type dispatch table to only
  the patterns that can consume it;
* one :class:`~repro.multi.SharedStatisticsHub` counts every arrival
  exactly once, and every pattern's collector reads its rates from the
  hub;
* plans that open with a structurally common prefix are routed by the
  :class:`~repro.multi.PrefixShareManager` into a
  :class:`~repro.multi.SharedPrefixGroup`: the prefix is materialised
  once and its completed bindings are fanned out to each pattern's
  :class:`~repro.multi.SuffixNFAEngine`;
* one monitoring tick serves every pattern: when the interval has
  elapsed, every pattern's controller decides (and re-plans) on the same
  event, from a snapshot whose rates the hub computed once for that
  tick;
* the adaptive controller still re-plans each pattern independently —
  every re-planned engine is routed through the share manager again, and
  plan-migration draining keeps per-pattern match sets byte-identical to
  N isolated pipelines.

Matches are tagged with their originating pattern's registry id
(``Match.pattern_id``), so the union output keeps provenance.

The constructor takes anything :func:`~repro.multi.registry.as_pattern_set`
coerces — a ``PatternSet``, a :class:`CompositePattern` (the paper's
disjunction experiments) or a non-empty list of patterns; a bare
:class:`Pattern` or an empty collection raises
:class:`~repro.errors.EngineError`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.adaptive import ReoptimizationPolicy
from repro.engine.cep_engine import AdaptiveCEPEngine, RunResult, fold_run
from repro.engine.match import Match
from repro.errors import EngineError
from repro.events import Event, EventStream
from repro.metrics import RunMetrics, aggregate_metrics
from repro.multi.hub import SharedStatisticsCollector, SharedStatisticsHub
from repro.multi.registry import as_pattern_set
from repro.multi.sharing import (
    PrefixShareManager,
    SharedPrefixGroup,
    SuffixNFAEngine,
    share_prefix_statistics,
)
from repro.optimizer import PlanGenerator
from repro.patterns import Pattern
from repro.statistics import StatisticsSnapshot

PolicyFactory = Callable[[], ReoptimizationPolicy]


class MultiPatternEngine:
    """Shared one-pass evaluation of many patterns over one stream.

    Parameters
    ----------
    patterns:
        A :class:`~repro.multi.PatternSet`, a :class:`CompositePattern`
        or a non-empty iterable of :class:`Pattern` objects.
    planner:
        Plan-generation algorithm shared by all patterns (planners are
        stateless, so sharing one instance is safe).
    policy_factory:
        Callable producing a fresh decision policy per pattern (policies
        are stateful: each pattern needs its own).
    initial_snapshot / compile_mode:
        Forwarded to every per-pattern engine.
    monitoring_interval:
        Stream time between two monitoring ticks.  The engine owns the
        tick: the first event at least this long after the previous tick
        (or after the first event) runs every pattern's decision step.
    statistics_window:
        Sliding window of the shared statistics hub (defaults to five of
        the longest pattern window, matching the per-pattern default).
    enable_sharing:
        Route plans through the shared-prefix manager (default).  When
        off, per-pattern engines are built standalone; event dispatch and
        the shared statistics hub still apply.
    """

    def __init__(
        self,
        patterns,
        planner: PlanGenerator,
        policy_factory: PolicyFactory,
        initial_snapshot: Optional[StatisticsSnapshot] = None,
        monitoring_interval: float = 1.0,
        compile_mode: str = "interpreted",
        statistics_window: Optional[float] = None,
        enable_sharing: bool = True,
    ):
        pattern_set = None if isinstance(patterns, Pattern) else as_pattern_set(patterns)
        if not pattern_set:  # a bare Pattern, or an empty collection
            raise EngineError(
                "MultiPatternEngine takes a PatternSet, a CompositePattern or a "
                f"non-empty list of Patterns, got {patterns!r}; serve a single "
                "Pattern with AdaptiveCEPEngine or wrap it in a list"
            )
        self.pattern = patterns if hasattr(patterns, "subpatterns") else pattern_set
        self.pattern_set = pattern_set
        if monitoring_interval <= 0:
            raise EngineError("monitoring_interval must be positive")
        self.compile_mode = compile_mode
        self._sharing_enabled = bool(enable_sharing)
        self._monitoring_interval = float(monitoring_interval)
        self._next_tick: Optional[float] = None

        window = pattern_set.window if pattern_set.window != float("inf") else 100.0
        self._hub = SharedStatisticsHub(window=statistics_window or 5.0 * window)
        self._manager = PrefixShareManager(self._hub, compile_mode=compile_mode)
        for subpattern in pattern_set:
            self._hub.register(subpattern)
            if self._sharing_enabled:
                self._manager.register(subpattern)

        self._adaptives: Dict[str, AdaptiveCEPEngine] = {}
        self._ids_by_name: Dict[str, str] = {}
        for pattern_id, subpattern in pattern_set.items():
            collector = SharedStatisticsCollector(self._hub)
            engine = AdaptiveCEPEngine(
                pattern=subpattern,
                planner=planner,
                policy=policy_factory(),
                initial_snapshot=_restrict_snapshot(initial_snapshot, subpattern),
                compile_mode=compile_mode,
                statistics_collector=collector,
                engine_factory=self._manager if self._sharing_enabled else None,
            )
            self._manager.attach(subpattern.name, engine)
            self._adaptives[pattern_id] = engine
            self._ids_by_name[subpattern.name] = pattern_id
        self._reset_routing()

    def _reset_routing(self) -> None:
        self._routes: Dict[str, List[Tuple[str, AdaptiveCEPEngine]]] = {}
        self._group_routes: Dict[str, List[SharedPrefixGroup]] = {}
        self._routing_version = -1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sub_engines(self) -> List[AdaptiveCEPEngine]:
        return list(self._adaptives.values())

    @property
    def share_manager(self) -> PrefixShareManager:
        return self._manager

    @property
    def statistics_hub(self) -> SharedStatisticsHub:
        return self._hub

    def reoptimization_count(self) -> int:
        return sum(engine.reoptimization_count() for engine in self._adaptives.values())

    def partial_match_count(self) -> int:
        total = sum(
            engine.partial_match_count() for engine in self._adaptives.values()
        )
        for group in self._manager.groups():
            total += group.engine.partial_match_count()
        return total

    @property
    def plan_history(self) -> List[str]:
        history: List[str] = []
        for engine in self._adaptives.values():
            history.extend(engine.plan_history)
        return history

    def prefix_hits_total(self) -> int:
        """Partial-match deliveries saved work across all shared prefixes."""
        return self._manager.prefix_hits_total()

    def introspection(self) -> dict:
        """Per-pattern introspection frames plus shared-evaluation totals."""
        frames = {
            pattern_id: engine.introspection()
            for pattern_id, engine in self._adaptives.items()
        }
        from repro.compile import kernels_reused_total

        return {
            "pattern": self.pattern.name,
            "reoptimizations": self.reoptimization_count(),
            "partial_matches": {"live": self.partial_match_count()},
            "sharing": {
                "enabled": self._sharing_enabled,
                "groups": self._manager.sharing_report(),
                "prefix_hits": self._manager.prefix_hits_total(),
                "kernels_reused": kernels_reused_total(),
            },
            "patterns": frames,
        }

    # ------------------------------------------------------------------
    # State snapshot / restore (checkpointing support)
    # ------------------------------------------------------------------
    def __setstate__(self, state):
        # Pickling (checkpoints, worker replicas, delta skeletons) drops
        # the group membership lists and each sub-engine's factory
        # reference; re-establish the sharing topology from the restored
        # graph.
        self.__dict__.update(state)
        self._reset_routing()
        self._rewire_sharing()

    def _rewire_sharing(self) -> None:
        """Re-attach each pattern's engine factory and suffix engines to
        the share manager and its groups after a restore.  Idempotent."""
        manager = self._manager
        for adaptive in self._adaptives.values():
            pattern = adaptive.pattern
            adaptive._engine_factory = manager if self._sharing_enabled else None
            collector = adaptive.collector
            manager.attach(pattern.name, adaptive)
            for engine in adaptive.evaluation_engines():
                if isinstance(engine, SuffixNFAEngine):
                    group = manager.group_by_signature(engine.group_signature)
                    if group is not None:
                        group.adopt_member(engine, pattern.name)
                        share_prefix_statistics(collector, group)
        manager.version += 1

    def _delta_keyed_state(self):
        """Change-tracked collections of the statistics hub, every
        sub-engine and the shared prefix groups (delta snapshots)."""
        slots = [
            (f"hub.{name}", holder, attr)
            for name, holder, attr in self._hub._delta_keyed_state()
        ]
        for pattern_id, engine in self._adaptives.items():
            slots.extend(
                (f"sub[{pattern_id}].{name}", holder, attr)
                for name, holder, attr in engine._delta_keyed_state()
            )
        for index, group in enumerate(self._manager.groups()):
            slots.extend(
                (f"group{index}.{name}", holder, attr)
                for name, holder, attr in group.engine._delta_keyed_state()
            )
            slots.extend(
                (f"group{index}.stats.{name}", holder, attr)
                for name, holder, attr in group.collector._delta_keyed_state()
            )
        return slots

    def _delta_frozen_state(self):
        """Immutable roots across the registry and its sub-engines."""
        roots = [self.pattern]
        for engine in self._adaptives.values():
            roots.extend(engine._delta_frozen_state())
        return roots

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _rebuild_routing(self) -> None:
        """Per-event-type dispatch: each type maps to the prefix groups and
        the per-pattern engines that consume it.  A pattern is *skipped*
        for a type when every one of its live engines receives that type
        through a shared prefix group instead."""
        routes: Dict[str, List[Tuple[str, AdaptiveCEPEngine]]] = {}
        for pattern_id, adaptive in self._adaptives.items():
            live = adaptive.evaluation_engines()
            for event_type in adaptive.pattern.event_types:
                name = event_type.name
                if live and all(
                    isinstance(engine, SuffixNFAEngine)
                    and name in engine.prefix_types
                    for engine in live
                ):
                    continue
                entries = routes.setdefault(name, [])
                if not any(entry[0] == pattern_id for entry in entries):
                    entries.append((pattern_id, adaptive))
        group_routes: Dict[str, List[SharedPrefixGroup]] = {}
        for group in self._manager.groups():
            group.prune_members()
            if group.member_count == 0:
                # A memberless group receives no events at all.  Should a
                # member join it later, its join gate only admits prefix
                # completions made of strictly newer events — which the
                # re-entry full-process path derives afresh — so skipping
                # the group while it is empty loses nothing.
                continue
            for name in sorted(group.prefix_types):
                group_routes.setdefault(name, []).append(group)
        self._routes = routes
        self._group_routes = group_routes
        self._routing_version = self._manager.version

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def process(self, event: Event) -> List[Match]:
        """Count the event once, run the monitoring tick if it is due, then
        hand the event to the groups and patterns that consume its type.

        The tick runs after the hub has counted the event — so a suffix
        engine built by a re-plan joins its group at this event's
        timestamp — and before dispatch, so the plan switches it makes
        take effect on this event, as in a single-pattern engine.
        """
        self._hub.observe(event)
        now = event.timestamp
        if self._next_tick is None:
            self._next_tick = now + self._monitoring_interval
        elif now >= self._next_tick:
            for adaptive in self._adaptives.values():
                adaptive.adapt(now)
            self._next_tick = now + self._monitoring_interval
        if self._routing_version != self._manager.version:
            self._rebuild_routing()
        type_name = event.type_name
        matches: List[Match] = []
        for group in self._group_routes.get(type_name, ()):
            matches.extend(group.process(event))
        for _pattern_id, adaptive in self._routes.get(type_name, ()):
            matches.extend(adaptive.evaluate(event))
        return self._tag(matches)

    def _tag(self, matches: List[Match]) -> List[Match]:
        for match in matches:
            pattern_id = self._ids_by_name.get(match.pattern_name)
            if pattern_id is not None:
                match.pattern_id = pattern_id
        return matches

    def work_metrics(self) -> RunMetrics:
        """Work counters so far: the per-pattern engines' summed, plus the
        shared-prefix groups' evaluation counters (prefix work is done once
        per group, outside any one pattern's engine)."""
        metrics = aggregate_metrics(
            engine.work_metrics() for engine in self._adaptives.values()
        )
        for group in self._manager.groups():
            counters = group.engine.counters
            metrics.partial_matches_created += counters.partial_matches_created
            metrics.extension_attempts += counters.extension_attempts
        return metrics

    def run(self, stream: "EventStream | Iterable[Event]") -> RunResult:
        """Process a whole stream in one pass and report run metrics."""
        return fold_run(self, stream)


def _restrict_snapshot(
    snapshot: Optional[StatisticsSnapshot], pattern: Pattern
) -> Optional[StatisticsSnapshot]:
    """Restrict an initial snapshot to the types a sub-pattern actually uses."""
    if snapshot is None:
        return None
    wanted = {item.event_type.name for item in pattern.items}
    if all(snapshot.has_rate(name) for name in wanted):
        return snapshot.restrict(wanted)
    return None
