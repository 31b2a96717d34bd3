"""Partial and complete matches.

A *partial match* is a consistent binding of a subset of a pattern's
positive variables to concrete events.  A *match* is a completed binding of
all positive variables (after negation filtering and Kleene expansion).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.events import Event

BindingValue = Union[Event, List[Event]]


class PartialMatch:
    """An immutable binding of pattern variables to events.

    Partial matches are extended by creating new objects (``extended``), so
    an engine can keep the original open for other extensions without
    defensive copying.  Alongside the bindings every partial match carries
    the flat tuple of its bound events and their timestamp extremes; the
    deriving constructors (:meth:`of`, :meth:`extended`, :meth:`merged`)
    update all three incrementally, so building a match one event longer
    costs the same whatever its size.  The attributes are read-only by
    convention.
    """

    __slots__ = ("bindings", "_events", "min_timestamp", "max_timestamp")

    def __init__(self, bindings: Optional[Mapping[str, BindingValue]] = None):
        self.bindings: Dict[str, BindingValue] = dict(bindings or {})
        self._index_events()

    def _index_events(self) -> None:
        """Derive the flat event tuple and timestamp extremes from the bindings."""
        events: List[Event] = []
        for value in self.bindings.values():
            if isinstance(value, list):
                events.extend(value)
            else:
                events.append(value)
        self._events: Tuple[Event, ...] = tuple(events)
        timestamps = [event.timestamp for event in events]
        self.min_timestamp: Optional[float] = min(timestamps) if timestamps else None
        self.max_timestamp: Optional[float] = max(timestamps) if timestamps else None

    @classmethod
    def of(cls, variable: str, event: Event) -> "PartialMatch":
        """A partial match binding one variable to one event."""
        match = cls.__new__(cls)
        match.bindings = {variable: event}
        match._events = (event,)
        match.min_timestamp = match.max_timestamp = event.timestamp
        return match

    def __getstate__(self):
        # Only the bindings travel; the event tuple and the extremes are
        # derived state and are rebuilt on arrival.
        return {"bindings": self.bindings}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):
            # Snapshots written before the flat event tuple existed carry
            # the default slot state ``(None, {"_bindings": ..., ...})``.
            state = {"bindings": state[1]["_bindings"]}
        self.bindings = state["bindings"]
        self._index_events()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(self.bindings)

    @property
    def size(self) -> int:
        """Number of bound variables."""
        return len(self.bindings)

    def events(self) -> Iterator[Event]:
        """All bound events (Kleene bindings are flattened)."""
        return iter(self._events)

    def event_ids(self) -> frozenset:
        """Identity key over the bound events (used for deduplication)."""
        return frozenset(
            (event.type_name, event.timestamp, event.sequence_number)
            for event in self._events
        )

    def get(self, variable: str) -> Optional[BindingValue]:
        return self.bindings.get(variable)

    def __contains__(self, variable: str) -> bool:
        return variable in self.bindings

    def contains_event(self, event: Event) -> bool:
        """Whether the exact event is already bound somewhere in the match."""
        for bound in self._events:
            if bound is event:
                return True
        return False

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def extended(self, variable: str, value: BindingValue) -> "PartialMatch":
        """Return a new partial match with one more variable bound."""
        bindings = dict(self.bindings)
        bindings[variable] = value
        if isinstance(value, list) or len(bindings) == len(self.bindings):
            # Kleene lists and re-bindings take the general constructor.
            return PartialMatch(bindings)
        match = PartialMatch.__new__(PartialMatch)
        match.bindings = bindings
        match._events = self._events + (value,)
        timestamp = value.timestamp
        low, high = self.min_timestamp, self.max_timestamp
        if low is None:
            low = high = timestamp
        elif timestamp < low:
            low = timestamp
        elif timestamp > high:
            high = timestamp
        match.min_timestamp = low
        match.max_timestamp = high
        return match

    def merged(self, other: "PartialMatch") -> "PartialMatch":
        """Return a new partial match combining two disjoint bindings."""
        bindings = dict(self.bindings)
        bindings.update(other.bindings)
        if (
            len(bindings) != len(self.bindings) + len(other.bindings)
            or self.min_timestamp is None
            or other.min_timestamp is None
        ):
            return PartialMatch(bindings)
        match = PartialMatch.__new__(PartialMatch)
        match.bindings = bindings
        match._events = self._events + other._events
        match.min_timestamp = min(self.min_timestamp, other.min_timestamp)
        match.max_timestamp = max(self.max_timestamp, other.max_timestamp)
        return match

    def span(self) -> float:
        """Temporal span of the bound events (0 for empty/singleton matches)."""
        if self.min_timestamp is None or self.max_timestamp is None:
            return 0.0
        return self.max_timestamp - self.min_timestamp

    def within_window(self, window: float) -> bool:
        return self.span() <= window

    def __repr__(self) -> str:
        parts = []
        for variable, value in self.bindings.items():
            if isinstance(value, list):
                parts.append(f"{variable}=[{len(value)} events]")
            else:
                parts.append(f"{variable}@{value.timestamp:g}")
        return f"PartialMatch({', '.join(parts)})"


class Match:
    """A completed pattern match reported to the user.

    Parameters
    ----------
    pattern_name:
        Name of the matched pattern.
    bindings:
        Final variable bindings (Kleene variables bind to lists of events).
    detection_time:
        Stream time at which the match was emitted.
    pattern_id:
        Stable id of the originating pattern (defaults to the pattern
        name).  Multi-pattern serving re-tags matches with the
        :class:`~repro.multi.PatternSet` registry id so sinks and decision
        logs keep provenance across the union output.
    """

    __slots__ = ("pattern_name", "bindings", "detection_time", "pattern_id")

    def __init__(
        self,
        pattern_name: str,
        bindings: Mapping[str, BindingValue],
        detection_time: float,
        pattern_id: Optional[str] = None,
    ):
        self.pattern_name = pattern_name
        self.bindings = dict(bindings)
        self.detection_time = float(detection_time)
        self.pattern_id = pattern_id if pattern_id is not None else pattern_name

    def events(self) -> List[Event]:
        events: List[Event] = []
        for value in self.bindings.values():
            if isinstance(value, list):
                events.extend(value)
            else:
                events.append(value)
        return events

    def event_ids(self) -> frozenset:
        return frozenset(
            (event.type_name, event.timestamp, event.sequence_number)
            for event in self.events()
        )

    def __getitem__(self, variable: str) -> BindingValue:
        return self.bindings[variable]

    def __repr__(self) -> str:
        variables = ", ".join(sorted(self.bindings))
        return f"Match({self.pattern_name}: {variables} @ {self.detection_time:g})"


def primary_events(bindings: Mapping[str, BindingValue]) -> Sequence[Event]:
    """The single-event bindings of a match (excluding Kleene lists)."""
    return [value for value in bindings.values() if isinstance(value, Event)]
