"""Shared one-pass multi-pattern evaluation.

Historically this engine evaluated a :class:`CompositePattern` by feeding
every event to every sub-pattern's engine — N patterns meant reading the
stream N times.  It now serves a :class:`~repro.multi.PatternSet` (or a
plain ``list`` of patterns) in **one pass**:

* each event is routed through a per-event-type dispatch table to only
  the patterns that can consume it;
* one :class:`~repro.multi.SharedStatisticsHub` counts every arrival
  exactly once, and every pattern's collector reads the shared
  per-event-type estimators;
* plans that open with a structurally common prefix are routed by the
  :class:`~repro.multi.PrefixShareManager` into a
  :class:`~repro.multi.SharedPrefixGroup`: the prefix is materialised
  once and its completed bindings are fanned out to each pattern's
  :class:`~repro.multi.SuffixNFAEngine`;
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

import pickle
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
from repro.statistics import StatisticsProvider, StatisticsSnapshot

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
    statistics_provider / initial_snapshot / monitoring_interval / introspect /
    compile_mode:
        Forwarded to every per-pattern engine.
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
        statistics_provider: Optional[StatisticsProvider] = None,
        initial_snapshot: Optional[StatisticsSnapshot] = None,
        monitoring_interval: float = 1.0,
        introspect: bool = False,
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
        self.compile_mode = compile_mode
        self._sharing_enabled = bool(enable_sharing)

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
                statistics_provider=statistics_provider,
                initial_snapshot=_restrict_snapshot(initial_snapshot, subpattern),
                monitoring_interval=monitoring_interval,
                introspect=introspect,
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

    def engine_for(self, pattern_id: str) -> AdaptiveCEPEngine:
        """The per-pattern adaptive engine registered under ``pattern_id``."""
        try:
            return self._adaptives[pattern_id]
        except KeyError:
            raise EngineError(f"no engine for pattern id {pattern_id!r}") from None

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
            "partial_matches": {
                "live": self.partial_match_count(),
                "high_water": max(
                    (frame["partial_matches"]["high_water"] for frame in frames.values()),
                    default=0,
                ),
            },
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
    def multi_state_frames(self) -> Tuple[bytes, Dict[str, bytes]]:
        """Shared meta state plus one independently restorable frame per
        pattern — the layout :func:`repro.engine.state.snapshot_multi_state`
        frames into a single snapshot blob."""
        from repro.engine.state import snapshot_engine

        meta = {
            "pattern": self.pattern,
            "pattern_set": self.pattern_set,
            "manager": self._manager,
            "hub": self._hub,
            "compile_mode": self.compile_mode,
            "sharing": self._sharing_enabled,
            "ids": list(self._adaptives),
        }
        meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
        frames = {
            pattern_id: snapshot_engine(engine)
            for pattern_id, engine in self._adaptives.items()
        }
        return meta_blob, frames

    def snapshot_state(self) -> bytes:
        """Serialize per-pattern state frames inside one snapshot; see
        :func:`repro.engine.state.snapshot_multi_state`."""
        from repro.engine.state import snapshot_multi_state

        meta_blob, frames = self.multi_state_frames()
        return snapshot_multi_state(meta_blob, frames)

    @classmethod
    def restore_state(cls, blob: bytes) -> "MultiPatternEngine":
        """Rebuild a multi-pattern engine from a :meth:`snapshot_state` blob
        (or a legacy whole-graph :func:`snapshot_engine` frame)."""
        from repro.engine.state import is_multi_snapshot, restore_multi_state

        if is_multi_snapshot(blob):
            meta_blob, frames = restore_multi_state(blob)
            meta = pickle.loads(meta_blob)
            engine = cls.__new__(cls)
            engine.pattern = meta["pattern"]
            engine.pattern_set = meta["pattern_set"]
            engine._manager = meta["manager"]
            engine._hub = meta["hub"]
            engine.compile_mode = meta["compile_mode"]
            engine._sharing_enabled = meta["sharing"]
            engine._adaptives = {}
            engine._ids_by_name = {
                pattern.name: pattern_id
                for pattern_id, pattern in engine.pattern_set.items()
            }
            from repro.engine.state import restore_engine

            for pattern_id in meta["ids"]:
                engine._adaptives[pattern_id] = restore_engine(frames[pattern_id])
            engine._reset_routing()
            engine._rewire_sharing()
            return engine

        from repro.engine.state import restore_engine

        restored = restore_engine(blob)
        if not isinstance(restored, cls):
            raise EngineError(
                f"snapshot holds a {type(restored).__name__}, not a {cls.__name__}"
            )
        return restored

    def __setstate__(self, state):
        # Whole-graph pickling (worker replicas, delta skeletons) drops the
        # group membership lists and each sub-engine's factory reference;
        # re-establish the sharing topology from the restored graph.
        self.__dict__.update(state)
        self._reset_routing()
        self._rewire_sharing()

    def _rewire_sharing(self) -> None:
        """Re-attach suffix engines to their groups and collectors to the
        canonical hub after a restore.  Idempotent."""
        manager = self._manager
        hub = self._hub
        for group in manager.groups():
            group.collector.attach_hub(hub)
        for pattern_id, adaptive in self._adaptives.items():
            pattern = adaptive.pattern
            adaptive._engine_factory = manager if self._sharing_enabled else None
            collector = adaptive.collector
            if isinstance(collector, SharedStatisticsCollector):
                collector.attach_hub(hub)
            manager.attach(pattern.name, adaptive)
            for engine in adaptive.evaluation_engines():
                if isinstance(engine, SuffixNFAEngine):
                    group = manager.group_by_signature(engine.group_signature)
                    if group is not None:
                        group.adopt_member(engine, pattern.name)
                        share_prefix_statistics(collector, group)
        manager.version += 1

    def _delta_keyed_state(self):
        """Change-tracked collections of every sub-engine plus the shared
        prefix groups (delta snapshots)."""
        slots = []
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

    def snapshot_delta(self, since_epoch=None, epoch=None) -> bytes:
        """Framed incremental snapshot since ``since_epoch``; see
        :func:`repro.streaming.delta.engine_snapshot_delta`."""
        from repro.streaming.delta import engine_snapshot_delta

        return engine_snapshot_delta(self, since_epoch, epoch)

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
        if self._routing_version != self._manager.version:
            self._rebuild_routing()
        self._hub.observe(event)
        type_name = event.type_name
        matches: List[Match] = []
        processed_groups = self._group_routes.get(type_name, ())
        for group in processed_groups:
            matches.extend(group.process(event))
        for _pattern_id, adaptive in self._routes.get(type_name, ()):
            matches.extend(adaptive.process(event))
        if self._routing_version != self._manager.version:
            # A re-plan during this event changed the sharing topology
            # (new engine, new group membership).  Rebuild the dispatch
            # and hand this event's prefix completions to members that
            # joined mid-event — their join gate admits exactly the
            # completions their draining predecessor must suppress.
            self._rebuild_routing()
            for group in self._group_routes.get(type_name, ()):
                if any(g is group for g in processed_groups):
                    matches.extend(group.deliver_pending(event))
                else:
                    matches.extend(group.process(event))
        return self._tag(matches)

    def process_batch(self, events: List[Event]) -> List[Match]:
        """One-pass dispatch of a batch: each event is routed exactly once
        (the concatenation order of the union output follows event order,
        matching event-at-a-time processing)."""
        matches: List[Match] = []
        for event in events:
            matches.extend(self.process(event))
        return matches

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
