"""Plan migration is correct for any switch schedule (Section 2.2).

A plan changes along one path: ``AdaptiveCEPEngine.adapt`` builds an
engine for the new plan (``_build_engine``) and hands it to the migration
manager (``switch_to``) at the monitoring tick, before the tick's event is
evaluated.  The contract: the old engine drains for one window and
suppresses matches made only of events at or after the switch; the new
engine starts empty but for the negated-item events it inherits.  Whatever
the schedule — order <-> tree switches, a switch while an earlier one
still drains — the emitted matches must be exactly the pattern's matches
over the stream, each once.

The reference enumerates bindings through the same predicates the engines
use (:mod:`repro.engine.semantics`), with no plan and no pruning.  Matches
are emitted as they complete, so a negated event counts only if it
arrived first.  Kleene items sit between two bound items: elsewhere the
expansion depends on when the side buffer was last pruned.  The property
is also run against three seeded faults in the switch, and must fail on
each.
"""

from __future__ import annotations

import collections
import itertools
import math
from typing import Dict, List

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, Phase, given, settings

from repro.adaptive import StaticPolicy
from repro.conditions import AndCondition, AttributeThresholdCondition, EqualityCondition
from repro.engine import AdaptiveCEPEngine, PlanMigrationManager
from repro.engine.semantics import (
    evaluate_new_conditions,
    sequence_order_respected,
    window_respected,
)
from repro.events import Event, EventType
from repro.optimizer import GreedyOrderPlanner
from repro.patterns import Pattern, PatternItem, PatternOperator
from repro.plans import OrderBasedPlan, TreeBasedPlan

TYPES = {name: EventType(name) for name in "ABCD"}
#: Timestamps lie on this grid, so ties and matches spanning exactly the
#: window occur; a retirement one step early is then observable.
STEP = 0.5
WINDOW = 2.0
SHAPES = ("seq", "and", "seq-neg", "seq-neg-first", "and-neg", "seq-kl")


def make_pattern(shape: str, couple_ab: bool, couple_bc: bool) -> Pattern:
    """SEQ or AND over a, b, c, with a negated item (between a and b, or
    first) or a Kleene item (between a and b) when the shape names one."""
    items = [PatternItem("a", TYPES["A"]), PatternItem("b", TYPES["B"]), PatternItem("c", TYPES["C"])]
    conditions = [AttributeThresholdCondition("c", "v", ">", 0)]
    if couple_ab:
        conditions.append(EqualityCondition("a", "b", "k"))
    if couple_bc:
        conditions.append(EqualityCondition("b", "c", "k"))
    if shape.endswith("-neg") or shape.endswith("-neg-first"):
        position = 0 if shape.endswith("-first") else 1
        items.insert(position, PatternItem("n", TYPES["D"], negated=True))
        conditions.append(EqualityCondition("a", "n", "k"))
    elif shape.endswith("-kl"):
        items.insert(1, PatternItem("d", TYPES["D"], kleene=True))
        conditions.append(AttributeThresholdCondition("d", "v", ">", 0))
    operator = PatternOperator.CONJUNCTION if shape.startswith("and") else PatternOperator.SEQUENCE
    return Pattern(operator, items, condition=AndCondition(conditions), window=WINDOW, name=shape)


def make_plan(pattern: Pattern, family: str, permutation):
    variables = [item.variable for item in pattern.positive_items]
    order = [variables[i] for i in permutation if i < len(variables)]
    if family == "order":
        return OrderBasedPlan(pattern, order)
    if family == "left-deep":
        return TreeBasedPlan.left_deep(pattern, order)
    return TreeBasedPlan.right_deep(pattern, order)


def make_events(rows) -> List[Event]:
    events, clock = [], 0.0
    for number, (gap, name, k, v) in enumerate(rows):
        clock += gap * STEP
        events.append(Event(TYPES[name], clock, {"k": k, "v": v}, sequence_number=number))
    return events


# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------
def _fits(pattern: Pattern, bindings: Dict, variable: str, event: Event) -> bool:
    return (
        sequence_order_respected(pattern, bindings, variable, event)
        and window_respected(bindings, event, pattern.window)
        and evaluate_new_conditions(pattern, bindings, variable, event)
    )


def _negated(pattern: Pattern, bindings: Dict, events: List[Event]) -> bool:
    """Whether a negated event that arrived before the match completed
    meets the conditions that name it, lies within the window and, in a
    SEQ, strictly between the bound events declared around it."""
    completed = max(event.sequence_number for event in bindings.values())
    declared = [item.variable for item in pattern.items]
    for item in pattern.negated_items:
        position = declared.index(item.variable)
        before = [bindings[v].timestamp for v in declared[:position] if v in bindings]
        after = [bindings[v].timestamp for v in declared[position + 1 :] if v in bindings]
        for event in events[:completed]:
            if (
                event.type_name == item.event_type.name
                and window_respected(bindings, event, pattern.window)
                and evaluate_new_conditions(pattern, bindings, item.variable, event)
                and not (
                    pattern.is_sequence()
                    and (
                        (before and event.timestamp <= max(before))
                        or (after and event.timestamp >= min(after))
                    )
                )
            ):
                return True
    return False


def reference_keys(pattern: Pattern, events: List[Event]) -> set:
    """Every match of ``pattern`` over the whole stream, as ``event_ids``
    keys; a Kleene item binds every event that fits beside the others."""
    keys = set()
    positive = pattern.positive_items

    def extend(bindings: Dict, index: int) -> None:
        if index == len(positive):
            if _negated(pattern, bindings, events):
                return
            bound = list(bindings.values())
            for item in pattern.kleene_items:
                others = {v: e for v, e in bindings.items() if v != item.variable}
                bound.extend(
                    event
                    for event in events
                    if event.type_name == item.event_type.name
                    and _fits(pattern, others, item.variable, event)
                )
            keys.add(frozenset((e.type_name, e.timestamp, e.sequence_number) for e in bound))
            return
        item = positive[index]
        for event in events:
            if event.type_name == item.event_type.name and _fits(
                pattern, bindings, item.variable, event
            ):
                extend({**bindings, item.variable: event}, index + 1)

    extend({}, 0)
    return keys


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------
plan_strategy = st.tuples(
    st.sampled_from(("order", "left-deep", "right-deep")),
    st.permutations(range(4)),
)

cases = st.fixed_dictionaries(
    {
        "shape": st.sampled_from(SHAPES),
        "couple_ab": st.booleans(),
        "couple_bc": st.booleans(),
        "compile_mode": st.sampled_from(("interpreted", "compiled", "indexed")),
        "rows": st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from("ABCD"),
                st.integers(0, 1),
                st.integers(0, 1),
            ),
            min_size=12,
            max_size=40,
        ),
        "initial": plan_strategy,
        # (position in the stream as a fraction, plan) per switch.
        "switches": st.lists(
            st.tuples(st.integers(0, 99), plan_strategy), min_size=1, max_size=5
        ),
    }
)


def switch_positions(events: List[Event], switches) -> Dict[int, list]:
    """Map each scheduled switch to the first event of its timestamp: a
    monitoring tick runs before the first event at or past its time."""
    at: Dict[int, list] = collections.defaultdict(list)
    for fraction, plan in switches:
        index = fraction * len(events) // 100
        while index > 0 and events[index - 1].timestamp == events[index].timestamp:
            index -= 1
        at[index].append(plan)
    return at


def check_migration(case) -> None:
    pattern = make_pattern(case["shape"], case["couple_ab"], case["couple_bc"])
    events = make_events(case["rows"])
    adaptive = AdaptiveCEPEngine(
        pattern,
        GreedyOrderPlanner(),
        StaticPolicy(),
        compile_mode=case["compile_mode"],
    )
    switches = switch_positions(events, [(0, case["initial"])] + case["switches"])
    emitted = collections.Counter()
    for index, event in enumerate(events):
        for family, permutation in switches.get(index, ()):
            # What ``adapt`` does once ``update`` returns a plan.
            engine = adaptive._build_engine(make_plan(pattern, family, permutation))
            adaptive.migration_manager.switch_to(engine, switch_time=event.timestamp)
        for match in adaptive.evaluate(event):
            emitted[match.event_ids()] += 1
    expected = reference_keys(pattern, events)
    duplicated = {key: count for key, count in emitted.items() if count > 1}
    assert not duplicated, f"emitted more than once: {duplicated}"
    assert set(emitted) == expected


MIGRATION_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], database=None
)


@given(cases)
@settings(max_examples=300, **MIGRATION_SETTINGS)
def test_any_switch_schedule_emits_every_match_once(case):
    check_migration(case)


# ----------------------------------------------------------------------
# The property bites
# ----------------------------------------------------------------------
_switch_to = PlanMigrationManager.switch_to


def suppress_strictly_after(self, new_engine, switch_time):
    """Suppression at ``switch_time < min`` instead of ``<=``."""
    previous = self.active_engine
    _switch_to(self, new_engine, switch_time)
    previous.suppress_all_new_after = math.nextafter(switch_time, math.inf)


def retire_one_step_early(self, new_engine, switch_time):
    """Retirement at ``t0 + W - STEP``."""
    _switch_to(self, new_engine, switch_time)
    engine, retirement = self._draining[-1]
    self._draining[-1] = (engine, retirement - STEP)


def seed_with_old_buffers(self, new_engine, switch_time):
    """The new engine starts from the events the old one buffered."""
    previous = self.active_engine
    if hasattr(previous, "_buffers"):
        groups = previous._buffers.values()
    else:
        groups = [
            [partial.bindings[store.node.variable] for partial in store.matches]
            for stores in previous._leaf_stores_by_type.values()
            for store in stores
        ]
    buffered = {event.sequence_number: event for event in itertools.chain(*groups)}
    for sequence_number in sorted(buffered):
        new_engine.process(buffered[sequence_number])
    _switch_to(self, new_engine, switch_time)


def forget_negated_events(self, new_engine, switch_time):
    """The new engine starts without the negated-item events."""
    _switch_to(self, new_engine, switch_time)
    for events in new_engine._negated_buffers.values():
        events.clear()


@pytest.mark.parametrize(
    "mutant",
    [
        suppress_strictly_after,
        retire_one_step_early,
        seed_with_old_buffers,
        forget_negated_events,
    ],
)
def test_property_fails_on_a_faulty_switch(mutant, monkeypatch):
    monkeypatch.setattr(PlanMigrationManager, "switch_to", mutant)
    search = settings(
        max_examples=1000,
        derandomize=True,
        phases=[Phase.generate],
        report_multiple_bugs=False,
        **MIGRATION_SETTINGS,
    )(given(cases)(check_migration))
    with pytest.raises(AssertionError):
        search()
