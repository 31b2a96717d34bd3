"""Order-aware candidate enumeration of the lazy NFA.

The engine enumerates candidates by time interval (bisection over
time-sorted stores) and drops partial matches that are closed to arrivals.
Both are pure work removal: the differential test below replays seeded
random patterns and streams through every compile mode and through a
scan-and-reject reference built only on :mod:`repro.engine.semantics`,
and demands identical matches *and* an identical multiset of condition
evaluations reported to the statistics collector.
"""

from __future__ import annotations

import pickle
import random
from collections import Counter

import pytest

from repro.compile import compile_step_kernel
from repro.conditions import (
    AttributeComparisonCondition,
    AttributeThresholdCondition,
    ConditionSet,
    EqualityCondition,
    PredicateCondition,
)
from repro.engine import LazyNFAEngine
from repro.engine.base import EvaluationEngine
from repro.engine.match import PartialMatch
from repro.engine.semantics import (
    evaluate_new_conditions,
    local_conditions_hold,
    sequence_order_respected,
    window_respected,
)
from repro.events import Event, EventType
from repro.patterns import Pattern, PatternItem, PatternOperator, seq
from repro.plans import OrderBasedPlan

A, B, C = EventType("A"), EventType("B"), EventType("C")
TYPES = (A, B, C)


def ev(event_type, t, **payload):
    return Event(event_type, t, payload)


def run_engine(engine, events):
    matches = []
    for event in events:
        matches.extend(engine.process(event))
    return matches


def match_records(matches):
    """Order-insensitive, fully identifying view of a match list."""
    records = []
    for match in matches:
        bindings = []
        for variable, value in sorted(match.bindings.items()):
            bound = value if isinstance(value, list) else [value]
            bindings.append(
                (variable, tuple((e.type_name, e.timestamp, e.sequence_number) for e in bound))
            )
        records.append((tuple(bindings), match.detection_time))
    return sorted(records)


class RecordingCollector:
    """Stands in for the statistics collector: a multiset of its calls."""

    def __init__(self):
        self.calls = Counter()

    def observe_condition(self, a, b, timestamp, success):
        self.calls[(a, b, timestamp, bool(success))] += 1

    def observe_condition_bulk(self, a, b, timestamp, attempts, successes=0.0):
        raise AssertionError("bulk reports belong to the indexed mode only")


class ScanAndRejectNFA(EvaluationEngine):
    """The lazy-NFA discipline with no pruning, no expiry and no indexes.

    Every stored partial match is offered every arriving event of its next
    step's type, every new partial match is offered the whole buffer, and
    each pairing is rejected one by one through the semantics helpers —
    so the collector sees exactly the pairings time does not rule out.
    Only the negated/Kleene side buffers expire, on the engine's cadence:
    Kleene expansion bounds a candidate by the *other* variables' window,
    so which old events it can still see depends on when they were dropped.
    """

    def __init__(self, plan, collector=None):
        super().__init__(plan.pattern, collector)
        self.order = plan.order
        self.buffers = {v: [] for v in self.order}
        self.waiting = {v: [] for v in self.order}
        self.last_expiry = float("-inf")
        #: Pairings that time (and identity) did not rule out.
        self.in_range = 0

    def _try(self, partial, variable, event, now):
        bindings = partial.bindings
        if (
            partial.contains_event(event)
            or not window_respected(bindings, event, self.pattern.window)
            or not sequence_order_respected(self.pattern, bindings, variable, event)
        ):
            return None
        self.in_range += 1
        if not evaluate_new_conditions(
            self.pattern, bindings, variable, event, self.collector, now
        ):
            return None
        return PartialMatch({**bindings, variable: event})

    def process(self, event):
        now = event.timestamp
        if now - self.last_expiry >= self.pattern.window * 0.25:
            self._expire_special_buffers(now)
            self.last_expiry = now
        self._buffer_special_items(event)
        fresh = []
        for variable in self.order:
            item = self.pattern.item_by_variable(variable)
            if item.event_type.name != event.type_name:
                continue
            if not local_conditions_hold(self.pattern, variable, event, self.collector):
                continue
            self.buffers[variable].append(event)
            for partial in self.waiting[variable]:
                candidate = self._try(partial, variable, event, now)
                if candidate is not None:
                    fresh.append(candidate)
            if variable == self.order[0]:
                fresh.append(PartialMatch({variable: event}))
        matches = []
        while fresh:
            partial = fresh.pop(0)
            if partial.size == len(self.order):
                match = self._finalize(partial, now)
                if match is not None:
                    matches.append(match)
                continue
            variable = self.order[partial.size]
            self.waiting[variable].append(partial)
            for buffered in self.buffers[variable]:
                candidate = self._try(partial, variable, buffered, now)
                if candidate is not None:
                    fresh.append(candidate)
        return matches


def _same_parity(left, right):
    return left.get("x", 0) % 2 == right.get("x", 0) % 2


def random_case(seed):
    """A seeded ``(pattern, plan order, in-order events)`` triple.

    Timestamps sit on a 0.5 grid and windows are grid multiples, so equal
    timestamps and spans landing exactly on the window are common.
    """
    rng = random.Random(seed)
    operator = rng.choice([PatternOperator.SEQUENCE, PatternOperator.CONJUNCTION])
    size = rng.randint(2, 4)
    variables = list("abcd"[:size])
    items = [PatternItem(v, rng.choice(TYPES)) for v in variables]
    if rng.random() < 0.3:
        index = rng.randrange(size)
        items[index] = PatternItem(items[index].variable, items[index].event_type, kleene=True)
    if rng.random() < 0.3:
        items.insert(rng.randint(0, size), PatternItem("n", rng.choice(TYPES), negated=True))

    conditions = ConditionSet()
    for first, second in zip(variables, variables[1:]):
        roll = rng.random()
        if roll < 0.4:
            conditions.add(EqualityCondition(first, second, "k"))
        elif roll < 0.6:
            conditions.add(AttributeComparisonCondition(first, "x", "<=", second, "x"))
        elif roll < 0.8:
            conditions.add(PredicateCondition([first, second], _same_parity))
    if size > 2 and rng.random() < 0.4:
        conditions.add(EqualityCondition(variables[0], variables[-1], "k"))
    if rng.random() < 0.4:
        conditions.add(AttributeThresholdCondition(rng.choice(variables), "x", "<", 5))
    if any(item.negated for item in items) and rng.random() < 0.7:
        conditions.add(EqualityCondition(rng.choice(variables), "n", "k"))

    window = rng.choice([1.0, 2.0, float("inf")])
    pattern = Pattern(operator, items, condition=conditions, window=window, name=f"case-{seed}")
    order = variables[:]
    rng.shuffle(order)

    timestamp = 0.0
    events = []
    for _ in range(rng.randint(25, 45)):
        timestamp += rng.choice([0.0, 0.0, 0.5, 0.5, 1.0])
        events.append(
            ev(rng.choice(TYPES), timestamp, k=rng.randint(0, 1), x=rng.randint(0, 6))
        )
    return pattern, order, events


@pytest.mark.parametrize("seed", range(120))
def test_every_mode_matches_the_scan_and_reject_reference(seed):
    pattern, order, events = random_case(seed)
    plan = OrderBasedPlan(pattern, order)

    reference_calls = RecordingCollector()
    scan_and_reject = ScanAndRejectNFA(plan, reference_calls)
    reference = match_records(run_engine(scan_and_reject, events))

    for mode in ("interpreted", "compiled"):
        calls = RecordingCollector()
        engine = LazyNFAEngine(plan, calls, compile_mode=mode)
        assert match_records(run_engine(engine, events)) == reference, mode
        # Candidates removed by the interval search or with a dead partial
        # match were never evaluated: the statistics stream is unchanged.
        assert calls.calls == reference_calls.calls, mode
        assert engine.counters.extension_attempts == scan_and_reject.in_range, mode

    indexed = LazyNFAEngine(plan, compile_mode="indexed")
    assert match_records(run_engine(indexed, events)) == reference


class TestDeadPartialElimination:
    def test_partials_closed_to_arrivals_are_never_stored(self):
        pattern = seq([A, B, C], condition=EqualityCondition("a", "c", "k"), window=5.0)
        # b first: a partial {b} waits for a, which must *precede* b.
        reordered = LazyNFAEngine(OrderBasedPlan(pattern, ["b", "a", "c"]))
        declared = LazyNFAEngine(OrderBasedPlan.in_pattern_order(pattern))
        rng = random.Random(5)
        events = []
        for step in range(120):
            events.append(ev(rng.choice(TYPES), step * 0.25, k=rng.randint(0, 1)))
        reordered_matches = []
        for event in events:
            reordered_matches.extend(reordered.process(event))
            assert reordered._waiting["a"] == []
        assert reordered.plan.steps()[1].closed_to_arrivals
        assert reordered._waiting["c"]
        assert match_records(reordered_matches) == match_records(run_engine(declared, events))
        assert reordered_matches

    def test_conjunctions_keep_every_partial_open(self):
        pattern = Pattern(
            PatternOperator.CONJUNCTION,
            [PatternItem("a", A), PatternItem("b", B)],
            window=5.0,
        )
        engine = LazyNFAEngine(OrderBasedPlan(pattern, ["b", "a"]))
        assert not any(step.closed_to_arrivals for step in engine.plan.steps())
        assert len(run_engine(engine, [ev(B, 1), ev(A, 2)])) == 1


class TestSortedStores:
    def _indexed_engine(self, window=4.0):
        pattern = seq([A, B], condition=EqualityCondition("a", "b", "k"), window=window)
        return LazyNFAEngine(OrderBasedPlan.in_pattern_order(pattern), compile_mode="indexed")

    def test_expiry_trims_index_buckets_in_place(self):
        engine = self._indexed_engine()
        for t in (0.0, 1.0, 2.0):
            engine.process(ev(B, t, k=7))
        engine.process(ev(B, 1.5, k=8))
        step = engine._step_of["b"]
        index = step.buffer_index
        bucket = index._buckets[7]
        assert [e.timestamp for e in bucket] == [0.0, 1.0, 2.0]

        engine.expire(5.5)  # cutoff 1.5: drops 0.0 and 1.0 of key 7

        assert step.buffer_index is index and index._buckets[7] is bucket
        assert [e.timestamp for e in bucket] == [2.0]
        assert [e.timestamp for e in index._buckets[8]] == [1.5]
        assert len(index) == 2 == engine.buffered_event_count()

        engine.expire(6.5)  # cutoff 2.5: both buckets empty out and vanish
        assert index._buckets == {} and len(index) == 0

    def test_expiry_filters_waiting_partials_and_their_index(self):
        engine = self._indexed_engine()
        engine.process(ev(A, 0.0, k=1))
        engine.process(ev(A, 3.0, k=1))
        waiting_index = engine._step_of["b"].waiting_index
        assert len(waiting_index) == 2
        engine.expire(5.0)  # cutoff 1.0
        assert engine._step_of["b"].waiting_index is waiting_index
        assert len(waiting_index) == 1 == engine.partial_match_count()
        assert len(engine.process(ev(B, 5.0, k=1))) == 1

    def test_restore_rebuilds_the_indexes(self):
        engine = self._indexed_engine()
        engine.process(ev(A, 0.0, k=1))
        engine.process(ev(B, 0.5, k=2))
        restored = pickle.loads(pickle.dumps(engine))
        assert len(restored._step_of["b"].buffer_index) == 1
        assert len(restored._step_of["b"].waiting_index) == 1
        assert len(restored.process(ev(B, 1.0, k=1))) == 1

    @pytest.mark.parametrize("mode", ["interpreted", "compiled", "indexed"])
    def test_timestamp_regression_keeps_buffers_sorted(self, mode):
        pattern = Pattern(
            PatternOperator.CONJUNCTION,
            [PatternItem("a", A), PatternItem("b", B)],
            condition=EqualityCondition("a", "b", "k"),
            window=2.0,
        )
        engine = LazyNFAEngine(OrderBasedPlan.in_pattern_order(pattern), compile_mode=mode)
        for t in (1.0, 3.0, 2.0, 2.5, 0.5):
            engine.process(ev(B, t, k=1))
        assert [e.timestamp for e in engine._buffers["b"]] == [0.5, 1.0, 2.0, 2.5, 3.0]
        if mode == "indexed":
            bucket = engine._step_of["b"].buffer_index._buckets[1]
            assert [e.timestamp for e in bucket] == [0.5, 1.0, 2.0, 2.5, 3.0]
        # The interval search over the re-sorted buffer is exact: a at 4.0
        # pairs with b in [2.0, 4.0] only.
        matches = engine.process(ev(A, 4.0, k=1))
        assert sorted(m["b"].timestamp for m in matches) == [2.0, 2.5, 3.0]


def _blank_partial_match():
    return PartialMatch.__new__(PartialMatch)


class _OldPartialMatchPickle:
    """Pickles as a pre-change ``PartialMatch`` did: a bare instance plus
    the default ``(None, slots)`` state handed to ``__setstate__``."""

    def __init__(self, bindings):
        timestamps = [event.timestamp for event in bindings.values()]
        self.state = (
            None,
            {
                "_bindings": dict(bindings),
                "_min_timestamp": min(timestamps),
                "_max_timestamp": max(timestamps),
            },
        )

    def __reduce__(self):
        return (_blank_partial_match, (), self.state)


class TestPartialMatchLayout:
    def test_derivations_agree_with_the_general_constructor(self):
        first, second, third = ev(A, 2.0), ev(B, 1.0), ev(C, 3.0)
        built = PartialMatch.of("a", first).extended("b", second)
        merged = built.merged(PartialMatch.of("c", third))
        general = PartialMatch({"a": first, "b": second, "c": third})
        for match in (merged, general):
            assert list(match.events()) == [first, second, third]
            assert (match.min_timestamp, match.max_timestamp) == (1.0, 3.0)
            assert match.size == 3 and match.contains_event(second)
        assert merged.event_ids() == general.event_ids()
        kleene = built.extended("c", [third, ev(C, 0.5)])
        assert kleene.min_timestamp == 0.5 and len(list(kleene.events())) == 4

    def test_pre_change_pickle_restores(self):
        first, second = ev(A, 1.0), ev(B, 4.0)
        blob = pickle.dumps(_OldPartialMatchPickle({"a": first, "b": second}))
        restored = pickle.loads(blob)
        assert type(restored) is PartialMatch
        assert restored.bindings["b"].timestamp == 4.0
        assert [e.timestamp for e in restored.events()] == [1.0, 4.0]
        assert (restored.min_timestamp, restored.max_timestamp) == (1.0, 4.0)
        extended = restored.extended("c", ev(C, 5.0))
        assert extended.max_timestamp == 5.0 and extended.size == 3

    def test_round_trip_keeps_derived_state(self):
        match = PartialMatch.of("a", ev(A, 1.0)).extended("b", ev(B, 2.0))
        clone = pickle.loads(pickle.dumps(match))
        assert clone.span() == 1.0 and len(list(clone.events())) == 2
        assert pickle.loads(pickle.dumps(PartialMatch())).size == 0


class TestPatternModifierViews:
    def test_negated_and_kleene_items_are_cached(self):
        pattern = Pattern(
            PatternOperator.SEQUENCE,
            [PatternItem("a", A), PatternItem("n", B, negated=True), PatternItem("k", C, kleene=True)],
            window=3.0,
        )
        assert pattern.negated_items is pattern.negated_items
        assert [item.variable for item in pattern.negated_items] == ["n"]
        assert [item.variable for item in pattern.kleene_items] == ["k"]

    def test_pattern_pickled_before_the_cache_restores(self):
        pattern = Pattern(
            PatternOperator.SEQUENCE,
            [PatternItem("a", A), PatternItem("n", B, negated=True)],
            window=3.0,
        )
        state = dict(pattern.__dict__)
        del state["_negated_items"], state["_kleene_items"]
        old = Pattern.__new__(Pattern)
        old.__setstate__(state)
        assert [item.variable for item in old.negated_items] == ["n"]
        assert old.kleene_items == ()


class TestOpaquePredicateKernel:
    def test_positional_call_without_trial_binding(self):
        seen = []

        def predicate(left, right):
            seen.append((left, right))
            return left.timestamp < right.timestamp

        first, second = ev(A, 1.0), ev(B, 2.0)
        for ordered, new in ((["a", "b"], "b"), (["b", "a"], "a")):
            condition = PredicateCondition(ordered, predicate)
            kernel = compile_step_kernel(condition, new)
            assert not kernel.specialized
            bindings = {"a": first} if new == "b" else {"b": second}
            event = second if new == "b" else first
            assert kernel.fn(bindings, event) == condition.evaluate({"a": first, "b": second})
        # Kernel call, then ``evaluate``, per orientation: same arguments.
        assert seen == [(first, second)] * 2 + [(second, first)] * 2

    def test_kleene_lists_and_wider_predicates_pass_through(self):
        def three(a, b, c):
            return isinstance(b, list) and a.timestamp < c.timestamp

        condition = PredicateCondition(["a", "b", "c"], three)
        kernel = compile_step_kernel(condition, "c")
        bindings = {"a": ev(A, 1.0), "b": [ev(B, 1.5), ev(B, 1.6)]}
        assert kernel.fn(bindings, ev(C, 2.0)) is True
        assert kernel.fn(bindings, ev(C, 0.5)) is False


# ----------------------------------------------------------------------
# A checkpoint written by the commit before this engine layout
# ----------------------------------------------------------------------
def _legacy_events():
    rng = random.Random(14)
    events, clock = [], 0.0
    for number in range(400):
        clock += rng.choice([0.0, 0.05, 0.1, 0.2])
        roll = rng.random()
        event_type = A if roll < 0.6 else (B if roll < 0.85 else C)
        events.append(
            Event(event_type, clock, {"person_id": rng.randint(0, 3)}, sequence_number=number)
        )
    return events


def _legacy_engine():
    from repro.adaptive import InvariantBasedPolicy
    from repro.conditions import AndCondition
    from repro.engine import AdaptiveCEPEngine
    from repro.optimizer import GreedyOrderPlanner

    condition = AndCondition(
        [EqualityCondition("a", "b", "person_id"), EqualityCondition("b", "c", "person_id")]
    )
    return AdaptiveCEPEngine(
        seq([A, B, C], condition=condition, window=3.0),
        GreedyOrderPlanner(),
        InvariantBasedPolicy(distance=0.1),
        monitoring_interval=1.0,
        compile_mode="indexed",
    )


def test_checkpoint_from_before_the_change_restores_and_continues():
    """``tests/data/engine_state_pr13_indexed.bin`` is ``snapshot_engine``
    of ``_legacy_engine()`` after the first 250 ``_legacy_events()``, written
    by the parent commit: ``pickletools``-optimised, old ``PartialMatch``
    and counter slots, no cached pattern views, and partial matches stored
    for steps that are closed to arrivals (plan C -> B -> A)."""
    import os

    from repro.engine.state import restore_engine

    path = os.path.join(os.path.dirname(__file__), "data", "engine_state_pr13_indexed.bin")
    with open(path, "rb") as handle:
        restored = restore_engine(handle.read())
    events = _legacy_events()

    active = restored.migration_manager.active_engine
    assert active._order == ("c", "b", "a")
    assert active.partial_match_count() == 0  # the dead ones were dropped
    assert len(active._step_of["b"].buffer_index) == len(active._buffers["b"]) > 0

    fresh = _legacy_engine()
    for event in events[:250]:
        fresh.process(event)
    assert match_records(run_engine(restored, events[250:])) == match_records(
        run_engine(fresh, events[250:])
    )
    assert restored.plan_history == fresh.plan_history
