"""Shared-prefix evaluation across pattern plans.

The paper's cost model scores a plan prefix by the number of partial
matches it keeps alive (:func:`repro.plans.cost.order_prefix_cost`).
When several patterns open with the *same* prefix — same operator,
window, ``(variable, event type)`` items and prefix-only conditions —
re-deriving those partial matches once per pattern is pure waste: the
multi-pattern evaluator materialises the prefix **once** in a
:class:`SharedPrefixGroup` and fans the completed prefix bindings out to
each consumer's :class:`SuffixNFAEngine`, which evaluates only the
remaining plan steps.

The :class:`PrefixShareManager` is the engine factory the multi-pattern
engine installs into every per-pattern :class:`AdaptiveCEPEngine`: each
pattern keeps re-planning independently, and every plan the adaptive
controller installs is routed through the manager, which either joins a
shared group (when the plan's leading steps coincide with a prefix at
least two registered patterns declare) or falls back to a standalone
engine.  Plan migration semantics are preserved exactly: a suffix engine
created at switch time ``t0`` only receives prefix bindings made
entirely of events at or after ``t0`` (its ``join_time``), the
complement of what the draining predecessor is allowed to emit — so the
shared path produces per-pattern match sets byte-identical to isolated
pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conditions import ConditionSet
from repro.engine.match import Match, PartialMatch
from repro.engine.nfa import LazyNFAEngine
from repro.events import Event
from repro.multi.hub import SharedStatisticsCollector, SharedStatisticsHub
from repro.patterns import Pattern
from repro.plans import OrderBasedPlan
from repro.plans.cost import order_plan_cost, sharing_score
from repro.statistics import StatisticsCollector
from repro.statistics.collector import pairs_for_pattern

#: Shortest prefix worth materialising: a one-event "prefix" is just a
#: buffer, so sharing starts at two bound variables.
MIN_PREFIX_LENGTH = 2

Signature = Tuple


def prefix_signature(pattern: Pattern, length: int) -> Signature:
    """Structural identity of a pattern's declared prefix of ``length`` items.

    Two patterns share a prefix iff their first ``length`` positive items
    agree on variables and event types, their operators and windows agree,
    and the conditions closed over the prefix variables have identical
    :meth:`~repro.conditions.Condition.cache_key` sets.  Opaque conditions
    carry per-instance keys, so only provably identical prefixes merge.
    """
    items = pattern.positive_items[:length]
    prefix_variables = tuple(item.variable for item in items)
    condition_keys = tuple(
        sorted(
            repr(condition.cache_key())
            for condition in pattern.conditions.conditions_over(prefix_variables)
        )
    )
    return (
        pattern.operator.value,
        float(pattern.window),
        tuple((item.variable, item.event_type.name) for item in items),
        condition_keys,
    )


def shareable_lengths(pattern: Pattern) -> Sequence[int]:
    """Prefix lengths a pattern could share, deepest first.

    Patterns with negated or Kleene items are excluded outright: their
    finalisation consults side buffers the prefix/suffix split would have
    to replicate, so they always run standalone.
    """
    if pattern.negated_items or pattern.kleene_items:
        return ()
    return range(pattern.size - 1, MIN_PREFIX_LENGTH - 1, -1)


class SuffixNFAEngine(LazyNFAEngine):
    """A lazy-NFA engine that receives its leading bindings from a group.

    The engine runs the *full* pattern plan, but the event types of the
    shared prefix are masked out of its dispatch table: it never opens or
    extends partial matches from prefix-type events itself.  Instead the
    owning :class:`SharedPrefixGroup` calls :meth:`inject_partials` with
    completed prefix bindings, which then extend through the remaining
    plan steps exactly as if this engine had derived them — window,
    ordering and condition checks (and compiled kernels, whose step
    indexes key off the binding count) are untouched.

    ``join_time`` gates deliveries for engines created by a mid-stream
    re-plan: only bindings made entirely of events at or after it are
    accepted, mirroring the "all-new matches" contract of
    :class:`~repro.engine.PlanMigrationManager`.
    """

    def __init__(
        self,
        plan: OrderBasedPlan,
        collector: Optional[StatisticsCollector] = None,
        group_signature: Signature = (),
        prefix_variables: Sequence[str] = (),
        prefix_types: Sequence[str] = (),
        join_time: float = float("-inf"),
        compile_mode: str = "interpreted",
    ):
        super().__init__(plan, collector, compile_mode=compile_mode)
        self.group_signature = group_signature
        self.prefix_variables = tuple(prefix_variables)
        self.prefix_types = frozenset(prefix_types)
        self.join_time = join_time
        for type_name in self.prefix_types:
            self._type_to_variables.pop(type_name, None)

    def inject_partials(self, partials: List[PartialMatch], now: float) -> List[Match]:
        """Extend delivered prefix bindings through the suffix steps.

        Every delivered binding contains the prefix-completing event (at
        timestamp ``now``, of a prefix type, so it can never collide with
        this engine's buffered suffix events).  In a SEQ pattern the
        suffix steps' order relations put every suffix event strictly
        after it, so the interval search skips the already-buffered (hence
        not-later) suffix events outright; conjunctions impose no ordering
        and scan the whole window.
        """
        if now - self._last_expiry >= self._expiry_interval:
            self.expire(now)
        self.counters.partial_matches_created += len(partials)
        completed = self._extend_from_buffers(list(partials), now)
        matches: List[Match] = []
        for partial in completed:
            match = self._finalize(partial, now)
            if match is not None:
                matches.append(match)
        return matches

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SuffixNFAEngine(order={'->'.join(self._order)}, "
            f"prefix={'+'.join(self.prefix_variables)}, "
            f"partial_matches={self.partial_match_count()})"
        )


@dataclass
class MemberRecord:
    """One consumer of a shared prefix: a suffix engine and its pattern."""

    engine: SuffixNFAEngine
    pattern_name: str


class SharedPrefixGroup:
    """Materialises one shared prefix and fans completions out to members.

    The group owns a plain :class:`LazyNFAEngine` over a synthetic pattern
    made of the shared prefix items and the conditions closed over them.
    Each completed prefix match is re-wrapped as a
    :class:`~repro.engine.PartialMatch` and delivered to every live member
    whose ``join_time`` admits it; delivery counts are surfaced as
    ``prefix_hits``.

    Member records are deliberately *not* pickled: checkpoint frames hold
    each pattern's engines, and restore re-attaches them to their group by
    ``group_signature`` (see ``MultiPatternEngine._rewire_sharing``), so
    the same engine state is never serialized twice.
    """

    def __init__(
        self,
        signature: Signature,
        prefix_pattern: Pattern,
        hub: SharedStatisticsHub,
        compile_mode: str,
        manager: "PrefixShareManager",
    ):
        self.signature = signature
        self.prefix_pattern = prefix_pattern
        self.prefix_variables = tuple(
            item.variable for item in prefix_pattern.positive_items
        )
        self.prefix_types = frozenset(
            item.event_type.name for item in prefix_pattern.items
        )
        self.collector = SharedStatisticsCollector(hub)
        self.collector.register_pattern(prefix_pattern)
        plan = OrderBasedPlan.in_pattern_order(prefix_pattern)
        self.engine = LazyNFAEngine(plan, self.collector, compile_mode=compile_mode)
        self._manager = manager
        self._members: List[MemberRecord] = []
        self._pending: List[MemberRecord] = []
        self._last_event: Optional[Event] = None
        self._last_completions: List[PartialMatch] = []
        self.prefix_hits = 0
        self.completions = 0

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_members"] = []
        state["_pending"] = []
        state["_last_event"] = None
        state["_last_completions"] = []
        return state

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def member_count(self) -> int:
        return len(self._members) + len(self._pending)

    def member_pattern_names(self) -> List[str]:
        return [r.pattern_name for r in self._members + self._pending]

    def add_member(self, engine: SuffixNFAEngine, pattern_name: str) -> None:
        """Register a consumer; joins mid-event are held in a pending list
        so the current event's completions can still be delivered to them
        (see :meth:`deliver_pending`)."""
        self._pending.append(MemberRecord(engine, pattern_name))

    def adopt_member(self, engine: SuffixNFAEngine, pattern_name: str) -> None:
        """Directly attach a restored engine (checkpoint rewiring path)."""
        self._members.append(MemberRecord(engine, pattern_name))

    def prune_members(self) -> None:
        """Drop members whose engine was replaced and fully retired by its
        pattern's plan migration.  Pending (joined-mid-event) members are
        never pruned here — they still owe a :meth:`deliver_pending`."""
        live_members = []
        for record in self._members:
            live = self._manager.live_engines(record.pattern_name)
            if live is not None and not any(e is record.engine for e in live):
                continue  # replaced and fully retired by its pattern's migration
            live_members.append(record)
        self._members = live_members

    def _prune_and_promote(self) -> None:
        self._members.extend(self._pending)
        self._pending.clear()
        self.prune_members()

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def process(self, event: Event) -> List[Match]:
        """Feed one prefix-type event; deliver completions to members."""
        self._prune_and_promote()
        raw = self.engine.process(event)
        completions = [PartialMatch(match.bindings) for match in raw]
        self._last_event = event
        self._last_completions = completions
        if not completions:
            return []
        self.completions += len(completions)
        matches: List[Match] = []
        for record in self._members:
            matches.extend(self._deliver(record, completions, event))
        return matches

    def deliver_pending(self, event: Event) -> List[Match]:
        """Deliver the current event's completions to members that joined
        while the event was being processed (a re-plan at this timestamp),
        then promote them.  Their ``join_time`` equals this event's
        timestamp, so only completions made entirely of events at this
        exact timestamp pass the gate — but those are precisely the ones
        the draining predecessor is forbidden to emit.

        The multi-pattern engine no longer calls this: its monitoring tick
        runs before dispatch, so members join before the event reaches
        their group.  ``bench/tracing.py`` still wraps it by name."""
        matches: List[Match] = []
        if self._last_event is event and self._last_completions:
            for record in self._pending:
                matches.extend(
                    self._deliver(record, self._last_completions, event)
                )
        self._members.extend(self._pending)
        self._pending.clear()
        return matches

    def _deliver(
        self, record: MemberRecord, completions: List[PartialMatch], event: Event
    ) -> List[Match]:
        join_time = record.engine.join_time
        partials = [
            pm
            for pm in completions
            if pm.min_timestamp is None or pm.min_timestamp >= join_time
        ]
        if not partials:
            return []
        self.prefix_hits += len(partials)
        return record.engine.inject_partials(partials, event.timestamp)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SharedPrefixGroup(prefix={'+'.join(sorted(self.prefix_types))}, "
            f"members={self.member_count}, hits={self.prefix_hits})"
        )


class PrefixShareManager:
    """Scores, creates and tracks shared prefixes; doubles as the engine
    factory installed into every per-pattern adaptive engine.

    A manager call — ``manager(plan, collector, compile_mode=...)``
    — picks the deepest declared prefix that (a) at least two registered
    patterns share structurally, (b) uses event types disjoint from the
    suffix steps, and (c) the cost model scores as a positive saving
    (:func:`~repro.plans.cost.sharing_score`; prefixes with no rate
    evidence yet share optimistically when the plan already leads with
    them).  When the installed plan does *not* evaluate the prefix first,
    the manager may still share by reordering the evaluation: it moves
    the prefix variables to the front (suffix steps keep their relative
    order) if the per-member sharing saving exceeds the cost-model
    penalty of deviating from the planner's order — the controller keeps
    tracking the planner's plan for policy purposes, the built engine
    evaluates the shared order.  Anything else falls back to
    :func:`~repro.engine.engine_for_plan` unchanged.
    """

    def __init__(self, hub: SharedStatisticsHub, compile_mode: str = "interpreted"):
        self._hub = hub
        self.compile_mode = compile_mode
        self._signature_counts: Dict[Signature, int] = {}
        self._groups: Dict[Signature, SharedPrefixGroup] = {}
        self._adaptives: Dict[str, object] = {}
        #: Per pattern name: the prefixes passing the structural gates,
        #: deepest first (see :meth:`_candidates`).  Derived from the
        #: registered signatures, so :meth:`register` clears it.
        self._structural: Dict[str, List[Tuple[Signature, int]]] = {}
        self._group_seq = 0
        self.last_scores: Dict[Signature, float] = {}
        #: Bumped on every engine build and membership change; the
        #: multi-pattern engine rebuilds its routing when it moves.
        self.version = 0

    def __getstate__(self):
        # Attached adaptive engines are the checkpoint frames' payload —
        # never serialize them through the manager; restore re-attaches
        # them (``MultiPatternEngine._rewire_sharing``).
        state = dict(self.__dict__)
        state["_adaptives"] = {}
        state["_structural"] = {}
        return state

    # ------------------------------------------------------------------
    # Registration / wiring
    # ------------------------------------------------------------------
    def register(self, pattern: Pattern) -> None:
        """Count a pattern's shareable prefixes (all eligible depths)."""
        for length in shareable_lengths(pattern):
            signature = prefix_signature(pattern, length)
            self._signature_counts[signature] = (
                self._signature_counts.get(signature, 0) + 1
            )
        self._structural.clear()

    def _candidates(self, pattern: Pattern) -> List[Tuple[Signature, int]]:
        """``(signature, length)`` of every prefix of ``pattern`` that at
        least two registered patterns share structurally and whose event
        types are disjoint from the suffix's, deepest first.

        These gates depend on the pattern and the registrations only, so
        they are worked out once per pattern; what :meth:`_choose` adds on
        top needs statistics.
        """
        candidates = self._structural.get(pattern.name)
        if candidates is None:
            candidates = []
            for length in shareable_lengths(pattern):
                signature = prefix_signature(pattern, length)
                if self._signature_counts.get(signature, 0) < 2:
                    continue
                prefix_types = {
                    item.event_type.name for item in pattern.positive_items[:length]
                }
                suffix_types = {
                    item.event_type.name for item in pattern.positive_items[length:]
                }
                if not prefix_types & suffix_types:
                    candidates.append((signature, length))
            self._structural[pattern.name] = candidates
        return candidates

    def attach(self, pattern_name: str, adaptive) -> None:
        """Associate a pattern's adaptive engine for liveness checks."""
        self._adaptives[pattern_name] = adaptive

    def live_engines(self, pattern_name: str) -> Optional[List]:
        """The pattern's live evaluation engines, or ``None`` if unknown."""
        adaptive = self._adaptives.get(pattern_name)
        if adaptive is None:
            return None
        return adaptive.evaluation_engines()

    def groups(self) -> List[SharedPrefixGroup]:
        return list(self._groups.values())

    def group_by_signature(self, signature: Signature) -> Optional[SharedPrefixGroup]:
        return self._groups.get(signature)

    # ------------------------------------------------------------------
    # Engine factory
    # ------------------------------------------------------------------
    def __call__(
        self,
        plan,
        collector: Optional[StatisticsCollector] = None,
        compile_mode: str = "interpreted",
    ):
        choice = self._choose(plan, collector)
        self.version += 1
        if choice is None:
            from repro.engine.cep_engine import engine_for_plan

            return engine_for_plan(plan, collector, compile_mode=compile_mode)
        signature, length, plan = choice
        group = self._groups.get(signature)
        if group is None:
            group = self._create_group(signature, plan.pattern, length)
        engine = SuffixNFAEngine(
            plan,
            collector,
            group_signature=signature,
            prefix_variables=group.prefix_variables,
            prefix_types=group.prefix_types,
            join_time=self._hub.last_time,
            compile_mode=compile_mode,
        )
        share_prefix_statistics(collector, group)
        group.add_member(engine, plan.pattern.name)
        return engine

    def _choose(
        self, plan, collector: Optional[StatisticsCollector]
    ) -> Optional[Tuple[Signature, int, OrderBasedPlan]]:
        """The sharing decision for one plan install.

        Returns ``(signature, length, effective_plan)`` — the plan the
        suffix engine should actually evaluate, which is ``plan`` itself
        when it already leads with the shared prefix, or a reordered
        variant when rate evidence says the sharing saving outweighs the
        reordering penalty — or ``None`` to build standalone.
        """
        if not isinstance(plan, OrderBasedPlan):
            return None
        pattern = plan.pattern
        candidates = self._candidates(pattern)
        if not candidates:
            return None
        snapshot = self._snapshot(collector)
        for signature, length in candidates:
            items = pattern.positive_items[:length]
            prefix_variables = {item.variable for item in items}
            prefix_types = {item.event_type.name for item in items}
            leads = set(plan.order[:length]) == prefix_variables
            evidence = snapshot is not None and any(
                snapshot.rate_or_default(name, 0.0) > 0.0
                for name in prefix_types
            )
            if not leads and not evidence:
                # Without rate evidence, never override the planner's order.
                continue
            effective = plan
            if snapshot is not None:
                members = max(2, self._signature_counts[signature])
                prefix_order = (
                    tuple(plan.order[:length])
                    if leads
                    else tuple(item.variable for item in items)
                )
                score = sharing_score(snapshot, pattern, prefix_order, members)
                self.last_scores[signature] = score
                if evidence and score <= 0.0:
                    continue
                if not leads:
                    shared_order = prefix_order + tuple(
                        v for v in plan.order if v not in prefix_variables
                    )
                    penalty = order_plan_cost(
                        snapshot, pattern, shared_order
                    ) - order_plan_cost(snapshot, pattern, plan.order)
                    if penalty >= score / members:
                        continue
                    effective = OrderBasedPlan(pattern, shared_order)
            return signature, length, effective
        return None

    def _snapshot(self, collector: Optional[StatisticsCollector]):
        """The collector's statistics at the hub's clock — the current
        monitoring tick while the multi-pattern engine adapts, so the
        snapshot reuses the rates the tick already read from the hub."""
        if collector is None:
            return None
        now = self._hub.last_time
        return collector.snapshot(None if now == float("-inf") else now)

    def wants_resharing(self, plan, active_engine, collector) -> bool:
        """Would building an engine for ``plan`` *now* deepen the sharing
        topology relative to ``active_engine``?

        Consulted by the adaptive engine at monitoring boundaries when the
        policy sees no reason to re-plan: rate evidence accumulated since
        the last build may have turned a standalone engine into a
        profitable group member (or revealed a deeper shareable prefix).
        Only upgrades are reported — an engine already shared at the
        deepest structurally eligible prefix answers ``False`` without
        consulting the cost model, so scores hovering near zero cannot
        make the topology oscillate every monitoring period.  Neither that
        answer nor the one for a pattern with no structurally shareable
        prefix takes a statistics snapshot.
        """
        if not isinstance(plan, OrderBasedPlan):
            return False
        candidates = self._candidates(plan.pattern)
        if not candidates:
            return False
        current = getattr(active_engine, "group_signature", None)
        if current == candidates[0][0]:
            return False
        choice = self._choose(plan, collector)
        if choice is None:
            return False
        return choice[0] != current

    def _create_group(
        self, signature: Signature, pattern: Pattern, length: int
    ) -> SharedPrefixGroup:
        items = pattern.positive_items[:length]
        prefix_variables = [item.variable for item in items]
        conditions = ConditionSet.from_conditions(
            pattern.conditions.conditions_over(prefix_variables)
        )
        type_names = "+".join(item.event_type.name for item in items)
        self._group_seq += 1
        prefix_pattern = Pattern(
            pattern.operator,
            items,
            condition=conditions,
            window=pattern.window,
            name=f"shared-prefix({type_names})#{self._group_seq}",
        )
        group = SharedPrefixGroup(
            signature, prefix_pattern, self._hub, self.compile_mode, self
        )
        self._groups[signature] = group
        return group

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def prefix_hits_total(self) -> int:
        return sum(group.prefix_hits for group in self._groups.values())

    def sharing_report(self) -> List[dict]:
        """One row per shared-prefix group (introspection / bench)."""
        report = []
        for signature, group in self._groups.items():
            report.append(
                {
                    "prefix": group.prefix_pattern.name,
                    "types": sorted(group.prefix_types),
                    "members": group.member_pattern_names(),
                    "completions": group.completions,
                    "prefix_hits": group.prefix_hits,
                    "score": self.last_scores.get(signature, 0.0),
                }
            )
        return report

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"PrefixShareManager(groups={len(self._groups)}, "
            f"signatures={len(self._signature_counts)})"
        )


def share_prefix_statistics(
    collector: Optional[StatisticsCollector], group: SharedPrefixGroup
) -> None:
    """Point a member collector's prefix-pair selectivities at the group's.

    The member's suffix engine never evaluates prefix-only conditions (the
    group does, once), so without sharing its estimates for those pairs
    would starve and mislead its re-planning.  Idempotent — used both at
    member creation and during checkpoint-restore rewiring.
    """
    if collector is None:
        return
    for a, b in pairs_for_pattern(group.prefix_pattern):
        shared = group.collector.selectivity_estimator(a, b)
        if shared is not None:
            collector.share_selectivity(a, b, shared)
