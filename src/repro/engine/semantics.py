"""Shared matching semantics used by both runtime engines.

Both the lazy NFA and the tree engine need the same answers to three
questions when they consider adding an event (or joining two sub-matches):

1. Is the temporal ordering constraint of a SEQ pattern respected?
2. Does the combined match still fit inside the time window?
3. Do the pattern conditions that have just become fully bound hold?

The helpers in this module answer these questions over plain binding
mappings, and optionally report every pairwise condition evaluation to a
:class:`~repro.statistics.StatisticsCollector` so that selectivity
estimates track what the engine actually observes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.events import Event
from repro.patterns import Pattern
from repro.statistics import StatisticsCollector


def sequence_order_respected(
    pattern: Pattern,
    bindings: Mapping[str, object],
    variable: str,
    event: Event,
) -> bool:
    """Check the SEQ temporal constraint for adding ``event`` as ``variable``.

    Every already-bound positive variable that precedes ``variable`` in the
    pattern's declared order must hold an earlier event, and every bound
    variable that follows it must hold a later event.  Conjunction patterns
    impose no ordering and always pass.
    """
    if not pattern.is_sequence():
        return True
    position = pattern.positive_index(variable)
    for other in pattern.positive_items:
        if other.variable == variable or other.variable not in bindings:
            continue
        bound = bindings[other.variable]
        bound_events = bound if isinstance(bound, list) else [bound]
        other_position = pattern.positive_index(other.variable)
        for bound_event in bound_events:
            if other_position < position and not bound_event.timestamp < event.timestamp:
                return False
            if other_position > position and not event.timestamp < bound_event.timestamp:
                return False
    return True


def groups_order_respected(
    pattern: Pattern,
    left_bindings: Mapping[str, object],
    right_bindings: Mapping[str, object],
) -> bool:
    """Check the SEQ constraint between two disjoint sub-matches (tree joins)."""
    if not pattern.is_sequence():
        return True
    for left_variable, left_value in left_bindings.items():
        left_events = left_value if isinstance(left_value, list) else [left_value]
        left_position = pattern.positive_index(left_variable)
        for right_variable, right_value in right_bindings.items():
            right_events = right_value if isinstance(right_value, list) else [right_value]
            right_position = pattern.positive_index(right_variable)
            for left_event in left_events:
                for right_event in right_events:
                    if left_position < right_position:
                        if not left_event.timestamp < right_event.timestamp:
                            return False
                    elif left_position > right_position:
                        if not right_event.timestamp < left_event.timestamp:
                            return False
    return True


def window_respected(
    bindings: Mapping[str, object], event: Event, window: float
) -> bool:
    """Whether adding ``event`` keeps the match within the time window."""
    if window == float("inf"):
        return True
    timestamps = [event.timestamp]
    for value in bindings.values():
        if isinstance(value, list):
            timestamps.extend(e.timestamp for e in value)
        else:
            timestamps.append(value.timestamp)
    return max(timestamps) - min(timestamps) <= window


def evaluate_new_conditions(
    pattern: Pattern,
    bindings: Mapping[str, object],
    variable: str,
    event: Event,
    collector: Optional[StatisticsCollector] = None,
    now: Optional[float] = None,
) -> bool:
    """Evaluate the conditions that become fully bound by adding ``event``.

    Per-pair outcomes are reported to the statistics collector so that the
    selectivity estimates reflect the engine's real predicate hit rates.
    Returns ``True`` iff every newly applicable condition holds.
    """
    trial: Dict[str, object] = dict(bindings)
    trial[variable] = event
    timestamp = event.timestamp if now is None else now
    satisfied = True
    for condition in pattern.conditions.newly_applicable(bindings.keys(), variable):
        outcome = condition.evaluate(trial)
        if collector is not None:
            _report_condition(collector, condition.variables, timestamp, outcome)
        if not outcome:
            satisfied = False
            # Keep evaluating the remaining conditions so their selectivity
            # estimators still receive observations; correctness only needs
            # the conjunction's overall outcome.
    return satisfied


def evaluate_join_conditions(
    pattern: Pattern,
    left_bindings: Mapping[str, object],
    right_bindings: Mapping[str, object],
    collector: Optional[StatisticsCollector] = None,
    now: float = 0.0,
) -> bool:
    """Evaluate the conditions coupling two disjoint sub-matches (tree joins)."""
    combined: Dict[str, object] = dict(left_bindings)
    combined.update(right_bindings)
    satisfied = True
    for condition in pattern.conditions.conditions_between(
        left_bindings.keys(), right_bindings.keys()
    ):
        outcome = condition.evaluate(combined)
        if collector is not None:
            _report_condition(collector, condition.variables, now, outcome)
        if not outcome:
            satisfied = False
    return satisfied


def local_conditions_hold(
    pattern: Pattern,
    variable: str,
    event: Event,
    collector: Optional[StatisticsCollector] = None,
) -> bool:
    """Evaluate the single-variable conditions of ``variable`` on ``event``."""
    satisfied = True
    for condition in pattern.conditions.single_variable_conditions(variable):
        outcome = condition.evaluate({variable: event})
        if collector is not None:
            collector.observe_condition(variable, variable, event.timestamp, outcome)
        if not outcome:
            satisfied = False
    return satisfied


def _report_condition(
    collector: StatisticsCollector,
    variables: Iterable[str],
    timestamp: float,
    outcome: bool,
) -> None:
    names = sorted(variables)
    if len(names) == 1:
        collector.observe_condition(names[0], names[0], timestamp, outcome)
        return
    for index, a in enumerate(names):
        for b in names[index + 1 :]:
            collector.observe_condition(a, b, timestamp, outcome)
