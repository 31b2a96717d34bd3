"""Shared one-pass multi-pattern evaluation.

The engine serves a :class:`~repro.multi.PatternSet` (or a plain ``list``
of patterns) — the paper's composite patterns included — in **one pass**
rather than reading the stream once per pattern:

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
  event, from statistics whose rates the hub computed once for that
  tick;
* the adaptive controller still re-plans each pattern independently —
  every re-planned engine is routed through the share manager again, and
  plan-migration draining keeps per-pattern match sets byte-identical to
  N isolated pipelines.

Matches are tagged with their originating pattern's registry id
(``Match.pattern_id``), so the union output keeps provenance.

The constructor takes a non-empty ``PatternSet`` or a non-empty list of
patterns (wrapped in a ``PatternSet``); a bare :class:`Pattern` or an
empty collection raises :class:`~repro.errors.EngineError`.
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
from repro.multi.registry import PatternSet
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
        A :class:`~repro.multi.PatternSet` or a non-empty iterable of
        :class:`Pattern` objects.
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
    ):
        if not isinstance(patterns, (Pattern, PatternSet)):
            patterns = PatternSet(patterns)
        if isinstance(patterns, Pattern) or not patterns:
            raise EngineError(
                "MultiPatternEngine takes a non-empty PatternSet or a non-empty "
                f"list of Patterns, got {patterns!r}; serve a single Pattern "
                "with AdaptiveCEPEngine or wrap it in a list"
            )
        self.pattern = patterns
        if monitoring_interval <= 0:
            raise EngineError("monitoring_interval must be positive")
        self.compile_mode = compile_mode
        self._monitoring_interval = float(monitoring_interval)
        self._next_tick: Optional[float] = None

        window = patterns.window if patterns.window != float("inf") else 100.0
        self._hub = SharedStatisticsHub(window=statistics_window or 5.0 * window)
        self._manager = PrefixShareManager(self._hub, compile_mode=compile_mode)
        for subpattern in patterns:
            self._hub.register(subpattern)
            self._manager.register(subpattern)

        self._adaptives: Dict[str, AdaptiveCEPEngine] = {}
        self._ids_by_name: Dict[str, str] = {}
        for pattern_id, subpattern in patterns.items():
            collector = SharedStatisticsCollector(self._hub)
            engine = AdaptiveCEPEngine(
                pattern=subpattern,
                planner=planner,
                policy=policy_factory(),
                initial_snapshot=_restrict_snapshot(initial_snapshot, subpattern),
                compile_mode=compile_mode,
                statistics_collector=collector,
                engine_factory=self._manager,
            )
            self._manager.attach(subpattern.name, engine)
            self._adaptives[pattern_id] = engine
            self._ids_by_name[subpattern.name] = pattern_id
        self._reset_routing()

    def _reset_routing(self) -> None:
        self._routes: Dict[str, List[Tuple[str, AdaptiveCEPEngine]]] = {}
        self._group_routes: Dict[str, List[SharedPrefixGroup]] = {}
        self._routing_version = -1
        #: Per pattern id: its distinct event-type names, in pattern order.
        self._type_names: Dict[str, Tuple[str, ...]] = {
            pattern_id: tuple(dict.fromkeys(t.name for t in adaptive.pattern.event_types))
            for pattern_id, adaptive in self._adaptives.items()
        }

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
        return {
            "pattern": self.pattern.name,
            "reoptimizations": self.reoptimization_count(),
            "partial_matches": {"live": self.partial_match_count()},
            "sharing": {
                "groups": self._manager.sharing_report(),
                "prefix_hits": self._manager.prefix_hits_total(),
                "kernels_reused": self._manager.kernels_reused,
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
            adaptive._engine_factory = manager
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
        through a shared prefix group instead.  Rebuilt whenever the share
        manager's ``version`` moves (an engine build or a membership
        change)."""
        routes: Dict[str, List[Tuple[str, AdaptiveCEPEngine]]] = {}
        for pattern_id, adaptive in self._adaptives.items():
            skipped = _group_fed_types(adaptive.evaluation_engines())
            entry = (pattern_id, adaptive)
            for name in self._type_names[pattern_id]:
                if name not in skipped:
                    routes.setdefault(name, []).append(entry)
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


def _group_fed_types(live) -> frozenset:
    """The types every one of a pattern's live engines receives through a
    shared prefix group: the prefix types all of them share, or none when
    an engine is not a group member."""
    fed = None
    for engine in live:
        if not isinstance(engine, SuffixNFAEngine):
            return frozenset()
        fed = engine.prefix_types if fed is None else fed & engine.prefix_types
    return fed or frozenset()


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
