"""Lazy NFA engine for order-based plans.

The engine follows the lazy-evaluation principle of Kolchinsky et al.: the
first event type in the plan order *initiates* partial matches, and every
subsequent step is satisfied either from buffered history (events of later
plan steps that happened to arrive earlier) or from future arrivals.

Matching discipline
-------------------
The engine relies on the :class:`~repro.events.EventStream` contract:
events reach it in non-decreasing timestamp order (a
:class:`~repro.streaming.ReorderBuffer` restores it for disordered
feeds).  Every per-variable buffer and every equality-index bucket is
therefore time-sorted, and candidates are *enumerated by time interval*
rather than scanned and rejected one by one.

For a partial match and its next plan step the admissible timestamps form
one interval: the events that keep the match inside the window, strictly
after the bound events the pattern orders before the step's variable and
strictly before those it orders after (the plan's
:class:`~repro.plans.PlanStep` relations — one source for all execution
modes).  For every incoming event ``e``:

1. ``e`` is appended to the buffers of the positive variables it can serve
   (local single-variable conditions permitting) and to the negated/Kleene
   side buffers.
2. Every stored partial match whose *next* plan step accepts ``e``'s type
   and whose interval contains ``e``'s timestamp is tentatively extended
   with ``e`` (the newly bound conditions are evaluated).
3. If ``e`` serves the plan's initiator variable, a fresh partial match is
   opened with it.
4. Every partial match created in steps 2–3 is then recursively extended
   with *buffered* (earlier) events for its remaining steps — the slice of
   the step's buffer inside the interval, found by bisection — so matches
   whose plan order disagrees with arrival order are still found.  It is
   then stored for future arrivals, unless its next step must *precede* an
   already-bound event: no future arrival can take that step, so such a
   partial match is dropped after its one history scan.

With this discipline every complete match is materialised exactly once —
during the processing of its last-arriving event — and the number of live
partial matches tracks the quantity the plan-generation cost model
minimises.  Only candidates inside the interval reach a condition, so
``counters.extension_attempts`` counts exactly the pairings whose
conditions were evaluated (the paper's cost proxy), not the pairings time
alone rules out.  Expiry trims the heads of the sorted stores.

An event that arrives *behind* its buffer's tail is still inserted in
timestamp position, so the stores stay sorted and the interval search
stays exact for every buffered pairing; what a regression can lose are
matches that needed a partial match already dropped as closed to
arrivals — the in-order contract is what makes dropping them safe.

Execution modes
---------------
All three modes share the enumeration above and differ in the per-step
*extender* closure that evaluates the newly bound conditions.
``compile_mode="interpreted"`` evaluates them through
:mod:`repro.engine.semantics`.  ``"compiled"`` uses the plan's
:class:`~repro.compile.CompiledPlanKernels` (fused step extenders, local
kernels in :meth:`_accept_into_buffers`, columnar acceptance sweeps in
:meth:`process_batch`).  ``"indexed"`` adds equality hash indexes over
both candidate stores — the waiting partial matches and the buffered
events of each step — so join probes only touch candidates whose equality
key can match (and, within a bucket, whose timestamp can); candidates
pruned by key are counted in ``counters.candidates_pruned`` and reported
to the statistics collector as bulk failed attempts.  All three modes emit
byte-identical matches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compile import EqualityIndex, EventBatchColumns
from repro.engine.base import EvaluationEngine
from repro.engine.match import Match, PartialMatch
from repro.engine.semantics import evaluate_new_conditions, local_conditions_hold
from repro.errors import EngineError
from repro.events import Event
from repro.plans import OrderBasedPlan, PlanStep
from repro.statistics import StatisticsCollector

_TIMESTAMP = attrgetter("timestamp")
_INF = float("inf")


class _Step:
    """Runtime state of one plan position: metadata, stores, extender.

    ``buffer`` and ``waiting`` alias the engine's persistent per-variable
    lists (mutated in place only); the indexes shadow them when the step
    carries an ``index_spec``.  ``extend(partial, event, now)`` evaluates
    the step's newly bound conditions and returns the extended match or
    ``None``.
    """

    __slots__ = (
        "relations",
        "extend",
        "buffer",
        "waiting",
        "index_spec",
        "buffer_index",
        "waiting_index",
    )

    def __init__(self, relations: PlanStep, extend: Callable, buffer, waiting, index_spec):
        self.relations = relations
        self.extend = extend
        self.buffer: List[Event] = buffer
        self.waiting: List[PartialMatch] = waiting
        self.index_spec = index_spec
        indexed = index_spec is not None
        self.buffer_index: Optional[EqualityIndex] = EqualityIndex() if indexed else None
        self.waiting_index: Optional[EqualityIndex] = EqualityIndex() if indexed else None


def _order_bounds(relations: PlanStep, bindings) -> Tuple[float, float]:
    """``(after, before)``: the step's event must lie strictly between."""
    after = -_INF
    before = _INF
    for variable in relations.earlier:
        bound = bindings[variable]
        if isinstance(bound, list):
            timestamp = max((e.timestamp for e in bound), default=after)
        else:
            timestamp = bound.timestamp
        if timestamp > after:
            after = timestamp
    for variable in relations.later:
        bound = bindings[variable]
        if isinstance(bound, list):
            timestamp = min((e.timestamp for e in bound), default=before)
        else:
            timestamp = bound.timestamp
        if timestamp < before:
            before = timestamp
    return after, before


def _admissible_range(
    events: Sequence[Event],
    after: float,
    before: float,
    partial: PartialMatch,
    window: float,
) -> Tuple[int, int]:
    """``[lo, hi)`` of time-sorted ``events`` that may extend ``partial``.

    The order bounds are exact comparisons against bound timestamps; the
    window edges are searched with the semantics' own arithmetic
    (``span <= window``, monotone in the candidate's timestamp), so events
    on the boundary are classified exactly as a per-candidate check would.
    """
    hi = len(events)
    lo = 0
    if events[0].timestamp <= after:
        lo = bisect_right(events, after, key=_TIMESTAMP)
    if before != _INF:
        hi = bisect_left(events, before, lo, hi, key=_TIMESTAMP)
    if lo < hi:
        newest = partial.max_timestamp
        if newest - events[lo].timestamp > window:
            lo = bisect_left(
                events, True, lo, hi, key=lambda e: newest - e.timestamp <= window
            )
        oldest = partial.min_timestamp
        if lo < hi and events[hi - 1].timestamp - oldest > window:
            hi = bisect_left(
                events, True, lo, hi, key=lambda e: e.timestamp - oldest > window
            )
    return lo, hi


class LazyNFAEngine(EvaluationEngine):
    """Executes an :class:`OrderBasedPlan` over an event stream."""

    def __init__(
        self,
        plan: OrderBasedPlan,
        collector: Optional[StatisticsCollector] = None,
        expiry_interval_fraction: float = 0.25,
        profiler=None,
        compile_mode: str = "interpreted",
    ):
        if not isinstance(plan, OrderBasedPlan):
            raise EngineError("LazyNFAEngine requires an OrderBasedPlan")
        super().__init__(plan.pattern, collector, profiler, compile_mode)
        self.plan = plan
        self._order = plan.order
        self._depth = len(self._order)
        # Buffered events per positive variable (local conditions already
        # hold), in timestamp order.
        self._buffers: Dict[str, List[Event]] = {v: [] for v in self._order}
        # Partial matches indexed by the variable they are waiting for next.
        self._waiting: Dict[str, List[PartialMatch]] = {v: [] for v in self._order}
        self._type_to_variables: Dict[str, List[str]] = {}
        for variable in self._order:
            type_name = plan.pattern.item_by_variable(variable).event_type.name
            self._type_to_variables.setdefault(type_name, []).append(variable)
        window = plan.pattern.window
        self._expiry_interval = (
            window * expiry_interval_fraction if window != float("inf") else float("inf")
        )
        self._last_expiry = float("-inf")
        self._compile_plan()

    def _compile_plan(self) -> None:
        super()._compile_plan()
        self._bind_steps()

    def _bind_steps(self) -> None:
        """Build the per-step runtime table over the persistent stores.

        Extender closures and equality indexes are derived state: never
        pickled, rebuilt here at construction and on restore.
        """
        compiled = self._compiled
        if compiled is None:
            plan_steps: Sequence[PlanStep] = self.plan.steps()
        else:
            plan_steps = [step.relations for step in compiled.steps]
        steps: List[_Step] = []
        for position, relations in enumerate(plan_steps):
            variable = relations.variable
            if compiled is None:
                extend = self._interpreted_extender(variable)
                index_spec = None
            else:
                extend = compiled.step_extender(position, self.collector)
                index_spec = compiled.steps[position].index_spec
            if self.profiler is not None:
                extend = _profiled(extend, self.profiler, f"extend[{variable}]")
            step = _Step(
                relations, extend, self._buffers[variable], self._waiting[variable], index_spec
            )
            if step.relations.closed_to_arrivals:
                # Only snapshots from before closed steps stopped storing
                # partial matches can hold any; no arrival can extend them.
                step.waiting.clear()
            if index_spec is not None:
                attribute = index_spec.event_attribute
                for event in step.buffer:
                    step.buffer_index.add(event.get(attribute), event)
                for partial in step.waiting:
                    _index_waiting_partial(step.waiting_index, index_spec, partial)
            steps.append(step)
        self._steps = steps
        self._step_of: Dict[str, _Step] = {s.relations.variable: s for s in steps}

    def _interpreted_extender(self, variable: str) -> Callable:
        pattern, collector, conditions = self.pattern, self.collector, self._conditions

        def extend(partial: PartialMatch, event: Event, now: float):
            if evaluate_new_conditions(
                pattern, partial.bindings, variable, event, collector, now,
                conditions=conditions,
            ):
                return partial.extended(variable, event)
            return None

        return extend

    def __setstate__(self, state):
        # Engines travel through checkpoints via plain __dict__ pickling;
        # the step table (closures, and indexes holding the same objects as
        # the stores they shadow) is dropped pre-pickle and rebuilt here.
        self.__dict__.update(state)
        self._bind_steps()

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_steps"]
        del state["_step_of"]
        return state

    # ------------------------------------------------------------------
    # EvaluationEngine interface
    # ------------------------------------------------------------------
    def partial_match_count(self) -> int:
        return sum(len(pms) for pms in self._waiting.values())

    def state_occupancy(self) -> Dict[str, int]:
        return {
            variable: len(pms) for variable, pms in self._waiting.items() if pms
        }

    def buffered_event_count(self) -> int:
        """Number of events currently buffered across all positive variables."""
        return sum(len(events) for events in self._buffers.values())

    def expire(self, now: float) -> None:
        window = self.pattern.window
        if window == float("inf"):
            return
        cutoff = now - window
        for step in self._steps:
            events = step.buffer
            if events and events[0].timestamp < cutoff:
                del events[: bisect_left(events, cutoff, key=_TIMESTAMP)]
                if step.buffer_index is not None:
                    step.buffer_index.trim(cutoff, _TIMESTAMP)
            waiting = step.waiting
            kept = [pm for pm in waiting if pm.min_timestamp >= cutoff]
            if len(kept) != len(waiting):
                waiting[:] = kept
                if step.waiting_index is not None:
                    step.waiting_index.retain(lambda pm: pm.min_timestamp >= cutoff)
        self._expire_special_buffers(now)
        self._last_expiry = now

    def process(self, event: Event) -> List[Match]:
        return self._process_event(event, None, 0)

    def process_batch(self, events: List[Event]) -> List[Match]:
        """Batch entry point: columnar acceptance sweep in compiled modes.

        The struct-of-arrays view materialises each attribute referenced
        by an acceptance predicate once for the whole batch, and the
        per-variable verdict bitmasks replace the per-event local kernel
        calls inside :meth:`_accept_into_buffers`.
        """
        if self._compiled is None or not events:
            return super().process_batch(events)
        columns = EventBatchColumns(events)
        verdicts = self._compiled.local_verdicts(columns, self.collector)
        matches: List[Match] = []
        for row, event in enumerate(columns.events):
            matches.extend(self._process_event(event, verdicts, row))
        return matches

    def _process_event(self, event: Event, verdicts, row: int) -> List[Match]:
        now = event.timestamp
        self.counters.events_processed += 1
        if now - self._last_expiry >= self._expiry_interval:
            self.expire(now)
        self._buffer_special_items(event)

        accepted_variables = self._accept_into_buffers(event, verdicts, row)
        if not accepted_variables:
            return []

        new_matches = self._extend_with_event(event, accepted_variables, now)
        if self._order[0] in accepted_variables:
            new_matches.append(PartialMatch.of(self._order[0], event))
            self.counters.partial_matches_created += 1

        completed = self._extend_from_buffers(new_matches, now)

        if self.profiler is not None:
            self.profiler.observe_population(self.partial_match_count())

        matches: List[Match] = []
        for partial in completed:
            match = self._finalize(partial, now)
            if match is not None:
                matches.append(match)
        return matches

    # ------------------------------------------------------------------
    # Matching steps
    # ------------------------------------------------------------------
    def _accept_into_buffers(self, event: Event, verdicts, row: int) -> List[str]:
        """Buffer the event under every positive variable it can serve.

        ``verdicts`` carries precomputed columnar acceptance bitmasks when
        the batch path is active; otherwise compiled local kernels (or the
        interpreted conditions) run per event.
        """
        accepted: List[str] = []
        compiled = self._compiled
        for variable in self._type_to_variables.get(event.type_name, ()):
            if verdicts is not None:
                held = verdicts[variable][row]
            elif compiled is not None:
                held = compiled.evaluate_local(variable, event, self.collector)
            else:
                held = local_conditions_hold(
                    self.pattern, variable, event, self.collector,
                    conditions=self._conditions,
                )
            if self.profiler is not None:
                self.profiler.record_edge(f"buffer[{variable}]", held)
            if held:
                step = self._step_of[variable]
                events = step.buffer
                # A timestamp regression: keep the stores sorted, the
                # interval search depends on it.
                late = bool(events) and events[-1].timestamp > event.timestamp
                if late:
                    insort(events, event, key=_TIMESTAMP)
                else:
                    events.append(event)
                if step.buffer_index is not None:
                    key = event.get(step.index_spec.event_attribute)
                    if late:
                        step.buffer_index.add_sorted(key, event, _TIMESTAMP)
                    else:
                        step.buffer_index.add(key, event)
                accepted.append(variable)
        return accepted

    def _extend_with_event(
        self, event: Event, accepted_variables: List[str], now: float
    ) -> List[PartialMatch]:
        """Extend stored partial matches whose next step accepts this event."""
        extended: List[PartialMatch] = []
        window = self.pattern.window
        attempts = 0
        for variable in accepted_variables:
            step = self._step_of[variable]
            relations = step.relations
            if relations.closed_to_arrivals:
                continue
            candidates: Sequence[PartialMatch] = step.waiting
            if step.waiting_index is not None:
                spec = step.index_spec
                primary, fallback, pruned = step.waiting_index.probe(
                    event.get(spec.event_attribute)
                )
                if primary is not None:
                    candidates = primary if not fallback else [*primary, *fallback]
                    self._record_pruned(spec, pruned, now)
            if not candidates:
                continue
            extend = step.extend
            shares_type = relations.shares_type
            for partial in candidates:
                if partial.max_timestamp < now:
                    # Strictly older and stored: only the window can object.
                    if now - partial.min_timestamp > window:
                        continue
                elif not _admits(relations, partial, now, window):
                    continue
                if shares_type and partial.contains_event(event):
                    continue
                attempts += 1
                candidate = extend(partial, event, now)
                if candidate is not None:
                    extended.append(candidate)
        self.counters.extension_attempts += attempts
        self.counters.partial_matches_created += len(extended)
        return extended

    def _extend_from_buffers(
        self, new_matches: List[PartialMatch], now: float
    ) -> List[PartialMatch]:
        """Recursively extend fresh partial matches with buffered history.

        Every partial match created along the way is also registered as
        "waiting" so that future events can extend it — unless its next
        step is closed to arrivals; complete bindings are returned for
        finalisation.
        """
        completed: List[PartialMatch] = []
        frontier = new_matches
        steps = self._steps
        depth = self._depth
        window = self.pattern.window
        attempts = 0
        created = 0
        while frontier:
            next_frontier: List[PartialMatch] = []
            for partial in frontier:
                position = len(partial.bindings)
                if position == depth:
                    completed.append(partial)
                    continue
                step = steps[position]
                relations = step.relations
                if not relations.closed_to_arrivals:
                    step.waiting.append(partial)
                    if step.waiting_index is not None:
                        _index_waiting_partial(
                            step.waiting_index, step.index_spec, partial
                        )
                if step.buffer_index is None:
                    stores: Tuple[Sequence[Event], ...] = (step.buffer,)
                else:
                    stores = self._probe_buffered(step, partial, now)
                after, before = _order_bounds(relations, partial.bindings)
                extend = step.extend
                shares_type = relations.shares_type
                for events in stores:
                    if not events:
                        continue
                    lo, hi = _admissible_range(events, after, before, partial, window)
                    for index in range(lo, hi):
                        buffered = events[index]
                        if shares_type and partial.contains_event(buffered):
                            continue
                        attempts += 1
                        candidate = extend(partial, buffered, now)
                        if candidate is not None:
                            next_frontier.append(candidate)
            created += len(next_frontier)
            frontier = next_frontier
        self.counters.extension_attempts += attempts
        self.counters.partial_matches_created += created
        return completed

    def _probe_buffered(
        self, step: _Step, partial: PartialMatch, now: float
    ) -> Tuple[Sequence[Event], ...]:
        """Buffered events of the step that can satisfy the indexed equality."""
        spec = step.index_spec
        bound = partial.bindings[spec.bound_variable]
        if isinstance(bound, list):
            return (step.buffer,)
        primary, fallback, pruned = step.buffer_index.probe(
            bound.get(spec.bound_attribute)
        )
        if primary is None:
            return (step.buffer,)
        self._record_pruned(spec, pruned, now)
        return (primary, fallback)

    def _record_pruned(self, spec, pruned: int, now: float) -> None:
        if pruned <= 0:
            return
        self.counters.candidates_pruned += pruned
        if self.collector is not None:
            a, b = spec.pair
            self.collector.observe_condition_bulk(a, b, now, pruned, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"LazyNFAEngine(order={'->'.join(self._order)}, "
            f"partial_matches={self.partial_match_count()})"
        )


def _admits(relations: PlanStep, partial: PartialMatch, timestamp: float, window: float) -> bool:
    """The general time check of one pairing (ties and regressions)."""
    after, before = _order_bounds(relations, partial.bindings)
    if not after < timestamp < before:
        return False
    low = partial.min_timestamp if partial.min_timestamp < timestamp else timestamp
    high = partial.max_timestamp if partial.max_timestamp > timestamp else timestamp
    return high - low <= window


def _index_waiting_partial(index: EqualityIndex, spec, partial: PartialMatch) -> None:
    bound = partial.bindings[spec.bound_variable]
    if isinstance(bound, list):
        index.add_unkeyed(partial)
    else:
        index.add(bound.get(spec.bound_attribute), partial)


def _profiled(extend: Callable, profiler, label: str) -> Callable:
    """Record each extension outcome on the profiler's operator edge."""

    def profiled(partial, event, now):
        candidate = extend(partial, event, now)
        profiler.record_edge(label, candidate is not None)
        return candidate

    return profiled
