"""Pattern and pattern-item definitions.

A :class:`Pattern` has a top-level operator (sequence or conjunction), an
ordered list of :class:`PatternItem` positions, a condition set and a time
window.  Items can carry negation or Kleene-closure modifiers, matching the
five pattern families used in the paper's evaluation.

A :class:`CompositePattern` is a disjunction of sub-patterns; following the
paper, each sub-pattern is planned and evaluated independently and their
matches are unioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.conditions import Condition, ConditionSet, TrueCondition
from repro.errors import PatternError
from repro.events import EventType
from repro.patterns.operators import PatternOperator


@dataclass(frozen=True)
class PatternItem:
    """One primitive-event position within a pattern.

    Parameters
    ----------
    variable:
        Name the position is bound to in conditions (e.g. ``"a"``).
    event_type:
        The :class:`EventType` accepted at this position.
    negated:
        Whether the position is under a negation operator (the match is
        valid only if no such event occurs).
    kleene:
        Whether the position is under Kleene closure (one or more events of
        the type are accepted and bound as a list).
    """

    variable: str
    event_type: EventType
    negated: bool = False
    kleene: bool = False

    def __post_init__(self) -> None:
        if not self.variable:
            raise PatternError("pattern item variable name must be non-empty")
        if self.negated and self.kleene:
            raise PatternError(
                f"item {self.variable!r}: negation and Kleene closure "
                "cannot be combined on the same item"
            )

    @property
    def type_name(self) -> str:
        return self.event_type.name

    def __repr__(self) -> str:
        prefix = "~" if self.negated else ""
        suffix = "*" if self.kleene else ""
        return f"{prefix}{self.event_type.name}{suffix} {self.variable}"


class Pattern:
    """A single (non-composite) complex event pattern.

    Parameters
    ----------
    operator:
        ``PatternOperator.SEQUENCE`` or ``PatternOperator.CONJUNCTION``.
    items:
        Ordered pattern items.  For sequences the order is the required
        temporal order of the positive items.
    condition:
        A :class:`Condition` or :class:`ConditionSet` over the item
        variables (the WHERE clause).  Defaults to the trivially true
        condition.
    window:
        Length of the time window (WITHIN clause) in the same units as
        event timestamps.
    name:
        Optional pattern name used in reports.
    """

    def __init__(
        self,
        operator: PatternOperator,
        items: Sequence[PatternItem],
        condition: Optional[Condition] = None,
        window: float = float("inf"),
        name: Optional[str] = None,
    ):
        if operator not in (PatternOperator.SEQUENCE, PatternOperator.CONJUNCTION):
            raise PatternError(
                f"Pattern root operator must be SEQUENCE or CONJUNCTION, got {operator}; "
                "use CompositePattern for disjunctions"
            )
        items = tuple(items)
        if not items:
            raise PatternError("a pattern requires at least one item")
        variables = [item.variable for item in items]
        if len(set(variables)) != len(variables):
            raise PatternError(f"duplicate pattern variables: {variables}")
        if window <= 0:
            raise PatternError("pattern window must be positive")
        positive = [item for item in items if not item.negated]
        if not positive:
            raise PatternError("a pattern must contain at least one positive item")

        self._operator = operator
        self._items = items
        self._positive_items = tuple(positive)
        self._index_modifier_items()
        self._positive_index = {
            item.variable: index for index, item in enumerate(positive)
        }
        self._window = float(window)
        self._name = name or self._default_name()
        if isinstance(condition, ConditionSet):
            self._conditions = condition
        else:
            self._conditions = ConditionSet(condition or TrueCondition())
        unknown = self._conditions.variables() - set(variables)
        if unknown:
            raise PatternError(
                f"condition references unknown variables: {sorted(unknown)}"
            )

    def _index_modifier_items(self) -> None:
        self._negated_items = tuple(item for item in self._items if item.negated)
        self._kleene_items = tuple(item for item in self._items if item.kleene)

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if "_negated_items" not in state:
            # Pickled before the modifier-item views were cached.
            self._index_modifier_items()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def operator(self) -> PatternOperator:
        return self._operator

    @property
    def items(self) -> Tuple[PatternItem, ...]:
        return self._items

    @property
    def conditions(self) -> ConditionSet:
        return self._conditions

    @property
    def window(self) -> float:
        return self._window

    @property
    def name(self) -> str:
        return self._name

    def _default_name(self) -> str:
        type_names = ",".join(item.event_type.name for item in self._items)
        return f"{self._operator.value}({type_names})"

    # ------------------------------------------------------------------
    # Derived views used by the planner and the engines
    # ------------------------------------------------------------------
    @property
    def positive_items(self) -> Tuple[PatternItem, ...]:
        """Items that must occur (not under negation)."""
        return self._positive_items

    @property
    def negated_items(self) -> Tuple[PatternItem, ...]:
        """Items under the negation operator."""
        return self._negated_items

    @property
    def kleene_items(self) -> Tuple[PatternItem, ...]:
        """Items under Kleene closure."""
        return self._kleene_items

    @property
    def size(self) -> int:
        """Pattern size as defined in the paper.

        The number of positive items; Kleene-closure items count, negated
        items do not (Appendix A).
        """
        return len(self.positive_items)

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(item.variable for item in self._items)

    @property
    def event_types(self) -> Tuple[EventType, ...]:
        return tuple(item.event_type for item in self._items)

    def item_by_variable(self, variable: str) -> PatternItem:
        for item in self._items:
            if item.variable == variable:
                return item
        raise PatternError(f"pattern {self._name!r} has no variable {variable!r}")

    def items_by_type(self, type_name: str) -> List[PatternItem]:
        return [item for item in self._items if item.event_type.name == type_name]

    def positive_index(self, variable: str) -> int:
        """Index of a variable among the positive items (sequence order)."""
        try:
            return self._positive_index[variable]
        except KeyError:
            raise PatternError(
                f"variable {variable!r} is not a positive item of pattern "
                f"{self._name!r}"
            ) from None

    def type_names(self) -> Tuple[str, ...]:
        return tuple(item.event_type.name for item in self._items)

    def distinct_type_names(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for item in self._items:
            seen.setdefault(item.event_type.name, None)
        return tuple(seen)

    def is_sequence(self) -> bool:
        return self._operator is PatternOperator.SEQUENCE

    def is_conjunction(self) -> bool:
        return self._operator is PatternOperator.CONJUNCTION

    def subpatterns(self) -> Tuple["Pattern", ...]:
        """Uniform interface with :class:`CompositePattern`."""
        return (self,)

    def __repr__(self) -> str:
        items = ", ".join(repr(item) for item in self._items)
        return f"Pattern<{self._operator.value}>({items}; window={self._window:g})"


class CompositePattern:
    """A disjunction (OR) of independent sub-patterns.

    Matches the paper's "composite patterns" family: a match of any
    sub-pattern is a match of the composite.  Each sub-pattern keeps its own
    plan, its own statistics and its own adaptation state.
    """

    def __init__(self, patterns: Sequence[Pattern], name: Optional[str] = None):
        patterns = tuple(patterns)
        if len(patterns) < 2:
            raise PatternError("a composite pattern requires at least two sub-patterns")
        self._patterns = patterns
        self._name = name or " | ".join(p.name for p in patterns)

    @property
    def operator(self) -> PatternOperator:
        return PatternOperator.DISJUNCTION

    @property
    def name(self) -> str:
        return self._name

    @property
    def window(self) -> float:
        return max(p.window for p in self._patterns)

    @property
    def size(self) -> int:
        """Composite pattern size: the size of each sub-sequence (Appendix A)."""
        return max(p.size for p in self._patterns)

    def subpatterns(self) -> Tuple[Pattern, ...]:
        return self._patterns

    def event_types(self) -> Tuple[EventType, ...]:
        types: List[EventType] = []
        seen = set()
        for pattern in self._patterns:
            for event_type in pattern.event_types:
                if event_type.name not in seen:
                    seen.add(event_type.name)
                    types.append(event_type)
        return tuple(types)

    def __repr__(self) -> str:
        return f"CompositePattern({' | '.join(p.name for p in self._patterns)})"


def validate_pattern_types(
    pattern: Pattern, known_types: Iterable[EventType]
) -> None:
    """Check that every event type referenced by ``pattern`` is known.

    Raises :class:`PatternError` otherwise.  Useful when wiring patterns to
    dataset simulators in experiments.
    """
    known = {t.name for t in known_types}
    missing = [
        item.event_type.name
        for item in pattern.items
        if item.event_type.name not in known
    ]
    if missing:
        raise PatternError(
            f"pattern {pattern.name!r} references unknown event types: {missing}"
        )
