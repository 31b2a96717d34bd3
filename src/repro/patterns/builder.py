"""Fluent builder and helper functions for declaring patterns.

The builder offers a compact, SASE-flavoured way of declaring patterns in
examples and tests::

    pattern = (
        PatternBuilder.sequence()
        .event(camera_a, "a")
        .event(camera_b, "b")
        .event(camera_c, "c")
        .where(EqualityCondition("a", "b", "person_id"))
        .where(EqualityCondition("b", "c", "person_id"))
        .within(600)
        .named("intruder-via-main-gate")
        .build()
    )

Module-level helpers :func:`seq` and :func:`conjunction` cover the simple
cases in one call; a composite (OR) pattern is a
:class:`~repro.multi.PatternSet` of such patterns.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.conditions import Condition, ConditionSet
from repro.errors import PatternError
from repro.events import EventType
from repro.patterns.operators import PatternOperator
from repro.patterns.pattern import Pattern, PatternItem


class PatternBuilder:
    """Incrementally assemble a :class:`Pattern`."""

    def __init__(self, operator: PatternOperator):
        if operator not in (PatternOperator.SEQUENCE, PatternOperator.CONJUNCTION):
            raise PatternError(
                "PatternBuilder supports SEQUENCE or CONJUNCTION roots; "
                "use a repro.multi.PatternSet for composite patterns"
            )
        self._operator = operator
        self._items: List[PatternItem] = []
        self._conditions = ConditionSet()
        self._window: float = float("inf")
        self._name: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction entry points
    # ------------------------------------------------------------------
    @classmethod
    def sequence(cls) -> "PatternBuilder":
        """Start a SEQ pattern."""
        return cls(PatternOperator.SEQUENCE)

    @classmethod
    def conjunction(cls) -> "PatternBuilder":
        """Start an AND pattern."""
        return cls(PatternOperator.CONJUNCTION)

    # ------------------------------------------------------------------
    # Items
    # ------------------------------------------------------------------
    def event(self, event_type: EventType, variable: Optional[str] = None) -> "PatternBuilder":
        """Append a plain positive event position."""
        return self._add_item(event_type, variable, negated=False, kleene=False)

    def negated_event(
        self, event_type: EventType, variable: Optional[str] = None
    ) -> "PatternBuilder":
        """Append an event position under negation."""
        return self._add_item(event_type, variable, negated=True, kleene=False)

    def kleene_event(
        self, event_type: EventType, variable: Optional[str] = None
    ) -> "PatternBuilder":
        """Append an event position under Kleene closure."""
        return self._add_item(event_type, variable, negated=False, kleene=True)

    def _add_item(
        self,
        event_type: EventType,
        variable: Optional[str],
        negated: bool,
        kleene: bool,
    ) -> "PatternBuilder":
        name = variable or self._default_variable(event_type)
        self._items.append(
            PatternItem(variable=name, event_type=event_type, negated=negated, kleene=kleene)
        )
        return self

    def _default_variable(self, event_type: EventType) -> str:
        base = event_type.name.lower()
        existing = {item.variable for item in self._items}
        if base not in existing:
            return base
        index = 2
        while f"{base}{index}" in existing:
            index += 1
        return f"{base}{index}"

    # ------------------------------------------------------------------
    # Clauses
    # ------------------------------------------------------------------
    def where(self, condition: Condition) -> "PatternBuilder":
        """Add a condition (conjoined with previously added ones)."""
        self._conditions.add(condition)
        return self

    def within(self, window: float) -> "PatternBuilder":
        """Set the time window (WITHIN clause)."""
        if window <= 0:
            raise PatternError("window must be positive")
        self._window = float(window)
        return self

    def named(self, name: str) -> "PatternBuilder":
        """Set the pattern name."""
        self._name = name
        return self

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def build(self) -> Pattern:
        """Create the pattern (raises :class:`PatternError` if invalid)."""
        return Pattern(
            operator=self._operator,
            items=self._items,
            condition=self._conditions,
            window=self._window,
            name=self._name,
        )


def _items_from_types(
    event_types: Sequence[EventType], variables: Optional[Sequence[str]]
) -> List[PatternItem]:
    if variables is not None and len(variables) != len(event_types):
        raise PatternError("variables must match event_types in length")
    items = []
    used = set()
    for index, event_type in enumerate(event_types):
        if variables is not None:
            variable = variables[index]
        else:
            variable = event_type.name.lower()
            if variable in used:
                variable = f"{variable}{index}"
        used.add(variable)
        items.append(PatternItem(variable=variable, event_type=event_type))
    return items


def seq(
    event_types: Sequence[EventType],
    condition: Optional[Condition] = None,
    window: float = float("inf"),
    variables: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> Pattern:
    """Build a SEQ pattern over the given event types in one call."""
    return Pattern(
        PatternOperator.SEQUENCE,
        _items_from_types(event_types, variables),
        condition=condition,
        window=window,
        name=name,
    )


def conjunction(
    event_types: Sequence[EventType],
    condition: Optional[Condition] = None,
    window: float = float("inf"),
    variables: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> Pattern:
    """Build an AND pattern over the given event types in one call."""
    return Pattern(
        PatternOperator.CONJUNCTION,
        _items_from_types(event_types, variables),
        condition=condition,
        window=window,
        name=name,
    )

