"""Evaluation engine base class, counters and shared post-processing.

The post-processing step (negation filtering and Kleene expansion) is the
same for both engine families and follows the paper's observation that
negation and Kleene closure are handled outside the reordered/tree plan
over the positive items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.compile import CompiledPlanKernels, validate_compile_mode
from repro.events import Event
from repro.engine.match import Match, PartialMatch
from repro.engine.semantics import local_conditions_hold
from repro.patterns import Pattern, PatternItem
from repro.statistics import StatisticsCollector

#: One entry of an engine's per-type arrival table: the targets the type
#: serves, each with its local acceptance test (``None``: no local
#: condition), and whether the type feeds a negated or Kleene side buffer.
Arrival = Tuple[Tuple[Tuple[object, Optional[Callable[[Event], bool]]], ...], bool]


@dataclass
class EngineCounters:
    """Work counters exposed by engines (used in reports and tests).

    ``extension_attempts`` counts the pairings whose conditions were
    evaluated.  The lazy NFA only offers a partial match the candidates
    inside its admissible time interval, so pairings ruled out by the
    window or the SEQ order alone are not attempts (the tree engine counts
    every sibling pairing it considers).

    Two counts depend on *when* expiry runs, not only on the events that
    match: the tree engine's ``extension_attempts`` counts a pairing
    before its window check, so a stale sibling not yet expired is an
    attempt, and the indexed tier's ``candidates_pruned`` counts stale,
    not-yet-expired partial matches a probe skips by key.  Expiry is
    clocked by the events an engine is offered — every event, whether or
    not the pattern names its type — so dropping events ahead of an
    engine moves both.
    """

    events_processed: int = 0
    partial_matches_created: int = 0
    extension_attempts: int = 0
    matches_emitted: int = 0
    matches_suppressed_by_negation: int = 0
    candidates_pruned: int = 0

    def merge(self, other: "EngineCounters") -> "EngineCounters":
        return EngineCounters(
            events_processed=self.events_processed + other.events_processed,
            partial_matches_created=self.partial_matches_created
            + other.partial_matches_created,
            extension_attempts=self.extension_attempts + other.extension_attempts,
            matches_emitted=self.matches_emitted + other.matches_emitted,
            matches_suppressed_by_negation=self.matches_suppressed_by_negation
            + other.matches_suppressed_by_negation,
            candidates_pruned=self.candidates_pruned + other.candidates_pruned,
        )


class EvaluationEngine:
    """Base class for runtime evaluation engines.

    Subclasses implement :meth:`process`, which consumes one event and
    returns the matches completed by it.  The base class provides buffering
    of negated-item events, negation filtering, Kleene expansion and
    emission bookkeeping.

    Parameters
    ----------
    pattern:
        The pattern being evaluated.
    collector:
        Optional statistics collector receiving condition-evaluation
        feedback (arrival rates are fed by the enclosing CEP engine).
    compile_mode:
        ``"interpreted"`` (default) evaluates conditions through their
        ``evaluate`` method; ``"compiled"`` lowers the plan's conditions
        to specialized kernels at plan-build time; ``"indexed"`` adds
        equality-predicate hash indexes over the candidate stores.
        Subclasses opt in by calling :meth:`_compile_plan` once
        ``self.plan`` is set.

    Plan migration (:class:`~repro.engine.PlanMigrationManager`) takes no
    constructor argument: a new engine starts with empty buffers (but for
    the negated-item events it inherits), so it can only produce matches
    made entirely of events after the switch, and the
    *draining* engine carries ``suppress_all_new_after`` — set to the
    switch time, it suppresses matches whose events all arrived at or after
    it, since those are the new engine's.
    """

    def __init__(
        self,
        pattern: Pattern,
        collector: Optional[StatisticsCollector] = None,
        compile_mode: str = "interpreted",
    ):
        self.pattern = pattern
        self.collector = collector
        self.compile_mode = validate_compile_mode(compile_mode)
        self._compiled: Optional[CompiledPlanKernels] = None
        self.counters = EngineCounters()
        self.suppress_all_new_after: Optional[float] = None
        self._negated_buffers: Dict[str, List[Event]] = {
            item.variable: [] for item in pattern.negated_items
        }
        self._kleene_buffers: Dict[str, List[Event]] = {
            item.variable: [] for item in pattern.kleene_items
        }
        self._emitted_keys: Set[frozenset] = set()

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def process(self, event: Event) -> List[Match]:
        """Consume one event; return matches completed by it."""
        raise NotImplementedError

    def _compile_plan(self) -> None:
        """Build compiled kernels for ``self.plan`` (per ``compile_mode``).

        Called by subclasses at the end of construction, once the plan
        attribute exists.  Restored (unpickled) engines re-enter this
        implicitly through :class:`~repro.compile.CompiledPlanKernels`'s
        own ``__setstate__``.
        """
        if self.compile_mode == "interpreted":
            self._compiled = None
            return
        self._compiled = CompiledPlanKernels(
            self.plan, indexed=self.compile_mode == "indexed"
        )

    @property
    def kernels_reused(self) -> int:
        """Kernel-cache hits made when this engine's plan was compiled."""
        return self._compiled.kernels_reused if self._compiled is not None else 0

    def partial_match_count(self) -> int:
        """Number of partial matches currently stored (memory pressure proxy)."""
        raise NotImplementedError

    def state_occupancy(self) -> Dict[str, int]:
        """Partial matches held per operator state (NFA state / tree node)."""
        return {}

    def expire(self, now: float) -> None:
        """Drop buffered state that can no longer contribute to a match."""
        raise NotImplementedError

    def _delta_keyed_state(self):
        """Change-tracked collections for incremental snapshots.

        The emitted-key set is by far the largest (and append-only) piece
        of evaluation-engine state, so it is the piece shipped as diffs by
        :mod:`repro.streaming.delta`; the partial-match buffers churn per
        event and travel in the (small) skeleton instead.
        """
        return [("emitted", self, "_emitted_keys")]

    def _delta_frozen_state(self):
        """Immutable configuration roots for incremental snapshots.

        The pattern and the evaluation plan never mutate after
        construction (reoptimization *replaces* the plan object), so delta
        skeletons reference them as tokens instead of re-pickling them at
        every epoch.
        """
        roots = [self.pattern]
        plan = getattr(self, "plan", None)
        if plan is not None:
            roots.append(plan)
        return roots

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def _arrival_table(
        self, targets: Mapping[str, Sequence[Tuple[object, str]]]
    ) -> Dict[str, Arrival]:
        """Per event type: what an arrival of the type can reach.

        ``targets`` maps a type to the ``(target, variable)`` pairs it
        serves (NFA steps or tree leaves, in dispatch order); each entry
        becomes ``(targets with their local acceptance tests, special)``,
        where ``special`` says the type has a negated or Kleene item and so
        feeds the side buffers.  A type in neither is absent: its arrival
        only advances the expiry clock.  Derived state — built when the
        plan is compiled and on restore, never pickled.
        """
        special = {
            item.event_type.name
            for item in (*self.pattern.negated_items, *self.pattern.kleene_items)
        }
        table: Dict[str, Arrival] = {
            type_name: (
                tuple((target, self._local_acceptor(v)) for target, v in served),
                type_name in special,
            )
            for type_name, served in targets.items()
        }
        for type_name in special:
            table.setdefault(type_name, ((), True))
        return table

    def _local_acceptor(self, variable: str) -> Optional[Callable[[Event], bool]]:
        """The single-variable conditions of ``variable`` as one test, or
        ``None`` when it has none and every event of its type is accepted.

        Outcomes are reported to the collector as
        :func:`~repro.engine.semantics.local_conditions_hold` reports them.
        """
        if self._compiled is not None:
            return self._compiled.local_acceptor(variable, self.collector)
        if not self.pattern.conditions.single_variable_conditions(variable):
            return None
        pattern, collector = self.pattern, self.collector
        return lambda event: local_conditions_hold(pattern, variable, event, collector)

    def _buffer_special_items(self, event: Event) -> None:
        """Store events of negated / Kleene item types in their side buffers."""
        for item in self.pattern.negated_items:
            if item.event_type.name == event.type_name and local_conditions_hold(
                self.pattern, item.variable, event, self.collector
            ):
                self._negated_buffers[item.variable].append(event)
        for item in self.pattern.kleene_items:
            if item.event_type.name == event.type_name and local_conditions_hold(
                self.pattern, item.variable, event, None
            ):
                self._kleene_buffers[item.variable].append(event)

    def _expire_special_buffers(self, now: float) -> None:
        if not (self._negated_buffers or self._kleene_buffers):
            return
        window = self.pattern.window
        if window == float("inf"):
            return
        cutoff = now - window
        for buffers in (self._negated_buffers, self._kleene_buffers):
            for variable, events in buffers.items():
                if events:
                    buffers[variable] = [e for e in events if e.timestamp >= cutoff]

    def _finalize(self, partial: PartialMatch, now: float) -> Optional[Match]:
        """Turn a completed positive binding into a reportable match.

        Applies negation filtering, Kleene expansion and duplicate
        suppression (duplicates can arise from Kleene expansion and from
        the plan-migration overlap).
        """
        bindings: Dict[str, object] = dict(partial.bindings)

        if self._violates_negation(bindings):
            self.counters.matches_suppressed_by_negation += 1
            return None

        if self.pattern.kleene_items:
            bindings = self._expand_kleene(bindings)
            partial = PartialMatch(bindings)

        if self.suppress_all_new_after is not None:
            if partial.min_timestamp >= self.suppress_all_new_after:
                return None

        key = partial.event_ids()
        if key in self._emitted_keys:
            return None
        self._emitted_keys.add(key)

        self.counters.matches_emitted += 1
        return Match(self.pattern.name, bindings, detection_time=now)

    # ------------------------------------------------------------------
    # Negation
    # ------------------------------------------------------------------
    def _violates_negation(self, bindings: Mapping[str, object]) -> bool:
        """Whether some buffered negated event invalidates the match."""
        for item in self.pattern.negated_items:
            for candidate in self._negated_buffers.get(item.variable, ()):
                if self._negated_event_applies(item, candidate, bindings):
                    return True
        return False

    def _negated_event_applies(
        self, item: PatternItem, candidate: Event, bindings: Mapping[str, object]
    ) -> bool:
        """Whether ``candidate`` (of the negated type) invalidates ``bindings``."""
        trial = dict(bindings)
        trial[item.variable] = candidate
        # The negated event must satisfy the pattern conditions that couple it
        # to the bound events; otherwise it is irrelevant to this match.
        for condition in self.pattern.conditions.conditions_over(trial.keys()):
            if item.variable in condition.variables and not condition.evaluate(trial):
                return False
        if not self._within_window_with(bindings, candidate):
            return False
        if self.pattern.is_sequence():
            return self._respects_negated_position(item, candidate, bindings)
        return True

    def _within_window_with(
        self, bindings: Mapping[str, object], candidate: Event
    ) -> bool:
        window = self.pattern.window
        if window == float("inf"):
            return True
        timestamps = [candidate.timestamp]
        for value in bindings.values():
            if isinstance(value, list):
                timestamps.extend(e.timestamp for e in value)
            else:
                timestamps.append(value.timestamp)
        return max(timestamps) - min(timestamps) <= window

    def _respects_negated_position(
        self, item: PatternItem, candidate: Event, bindings: Mapping[str, object]
    ) -> bool:
        """Check that the negated event lies where the SEQ pattern forbids it.

        The forbidden region is between the latest bound event declared
        before the negated item and the earliest bound event declared after
        it (unbounded on a side with no such neighbour).
        """
        declared = [i.variable for i in self.pattern.items]
        negated_position = declared.index(item.variable)
        lower = None
        upper = None
        for variable, value in bindings.items():
            events = value if isinstance(value, list) else [value]
            variable_position = declared.index(variable)
            for event in events:
                if variable_position < negated_position:
                    lower = event.timestamp if lower is None else max(lower, event.timestamp)
                elif variable_position > negated_position:
                    upper = event.timestamp if upper is None else min(upper, event.timestamp)
        if lower is not None and candidate.timestamp <= lower:
            return False
        if upper is not None and candidate.timestamp >= upper:
            return False
        return True

    # ------------------------------------------------------------------
    # Kleene closure
    # ------------------------------------------------------------------
    def _expand_kleene(self, bindings: Dict[str, object]) -> Dict[str, object]:
        """Expand each Kleene binding to the maximal set of matching events.

        The engines match Kleene items with a single "seed" event; at
        emission time the binding grows to every buffered event of the type
        that satisfies the pattern conditions, the window and (for SEQ) the
        item's temporal position — the usual maximal-match semantics.
        """
        if not self.pattern.kleene_items:
            return bindings
        expanded = dict(bindings)
        for item in self.pattern.kleene_items:
            seed = bindings.get(item.variable)
            if seed is None:
                continue
            seed_events = seed if isinstance(seed, list) else [seed]
            others = {
                variable: value
                for variable, value in bindings.items()
                if variable != item.variable
            }
            selected: List[Event] = list(seed_events)
            selected_keys = {
                (e.type_name, e.timestamp, e.sequence_number) for e in selected
            }
            for candidate in self._kleene_buffers.get(item.variable, ()):
                key = (candidate.type_name, candidate.timestamp, candidate.sequence_number)
                if key in selected_keys:
                    continue
                if self._kleene_candidate_fits(item, candidate, others):
                    selected.append(candidate)
                    selected_keys.add(key)
            selected.sort(key=lambda e: (e.timestamp, e.sequence_number))
            expanded[item.variable] = selected
        return expanded

    def _kleene_candidate_fits(
        self, item: PatternItem, candidate: Event, others: Mapping[str, object]
    ) -> bool:
        trial = dict(others)
        trial[item.variable] = candidate
        for condition in self.pattern.conditions.conditions_over(trial.keys()):
            if item.variable in condition.variables and not condition.evaluate(trial):
                return False
        if not self._within_window_with(others, candidate):
            return False
        if self.pattern.is_sequence():
            from repro.engine.semantics import sequence_order_respected

            if not sequence_order_respected(self.pattern, others, item.variable, candidate):
                return False
        return True
