"""Event stream abstractions.

Streams deliver primitive events to the engine in timestamp order.  That
order is a *contract with the consumer*, not a property of the outside
world: sources that receive events out of order must pass them through the
event-time machinery of :mod:`repro.streaming.ordering` (watermarks + a
reorder buffer), which restores non-decreasing timestamp order before the
events reach any engine.  Two concrete implementations are provided:

* :class:`InMemoryEventStream` wraps a list of events (used by tests,
  examples and the dataset simulators, which materialise their synthetic
  streams).
* :class:`GeneratorEventStream` wraps an arbitrary iterator of events —
  a truly lazy, single-pass stream that never materialises its input
  (the substrate of the :mod:`repro.streaming` sources).
* :class:`MergedEventStream` lazily merges several already-sorted streams,
  mirroring a CEP engine subscribing to multiple event sources.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import DatasetError
from repro.events.event import Event
from repro.events.event_type import EventType


class EventStream:
    """Base class for event streams.

    A stream is an iterable of :class:`Event` objects in non-decreasing
    timestamp order.  Subclasses must implement :meth:`__iter__`.
    """

    def __iter__(self) -> Iterator[Event]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover - optional
        raise TypeError(f"{type(self).__name__} has no defined length")

    def to_list(self) -> List[Event]:
        """Materialise the stream as a list."""
        return list(self)

    def count_by_type(self) -> Dict[str, int]:
        """Return the number of events per event-type name.

        Implemented with :class:`collections.Counter` over a generator —
        a single C-level pass instead of a per-event dict lookup loop.
        """
        return dict(Counter(event.type_name for event in self))


class GeneratorEventStream(EventStream):
    """A lazy, single-pass stream over an arbitrary event iterator.

    Unlike :class:`InMemoryEventStream`, the events are never materialised:
    iteration pulls straight from the underlying iterator, so the stream can
    be unbounded.  The price is that it can be consumed **once** — a second
    iteration (or a :meth:`to_list` after the first pass) raises a
    :class:`DatasetError` instead of silently yielding nothing, which is the
    classic exhausted-generator trap.

    Parameters
    ----------
    events:
        Any iterable/iterator of :class:`Event` objects in non-decreasing
        timestamp order (not verified — verifying would require buffering).
        Disordered producers should be wrapped in a
        :class:`~repro.streaming.ordering.ReorderBuffer` (or handed to a
        pipeline with ``max_lateness``) rather than fed here directly.
    name:
        Optional label used in error messages and ``repr``.
    """

    def __init__(self, events: Iterable[Event], name: str = ""):
        self._iterator = iter(events)
        self._name = name or type(self).__name__
        self._consumed = False

    @property
    def consumed(self) -> bool:
        """Whether the single pass over the stream has already started."""
        return self._consumed

    def __iter__(self) -> Iterator[Event]:
        if self._consumed:
            raise DatasetError(
                f"{self._name} is a single-pass generator-backed stream and "
                "has already been iterated; re-iterating would silently yield "
                "nothing. Materialise it first (e.g. wrap in "
                "InMemoryEventStream(stream.to_list())) if multiple passes "
                "are needed."
            )
        self._consumed = True
        return self._iterator

    def __repr__(self) -> str:
        state = "consumed" if self._consumed else "fresh"
        return f"<{type(self).__name__} {self._name!r} ({state})>"


class InMemoryEventStream(EventStream):
    """A stream backed by an in-memory list of events.

    Parameters
    ----------
    events:
        The events to deliver.  If ``sort`` is true (default) they are
        sorted by ``(timestamp, sequence_number)``; otherwise they must
        already be sorted and a :class:`DatasetError` is raised when they
        are not.
    """

    def __init__(self, events: Iterable[Event], sort: bool = True):
        self._events: List[Event] = list(events)
        if sort:
            self._events.sort()
        else:
            for previous, current in zip(self._events, self._events[1:]):
                if current < previous:
                    raise DatasetError(
                        "events are not sorted by timestamp; pass sort=True"
                    )

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    @property
    def events(self) -> Sequence[Event]:
        return tuple(self._events)

    def time_span(self) -> float:
        """Return ``last_timestamp - first_timestamp`` (0 for short streams)."""
        if len(self._events) < 2:
            return 0.0
        return self._events[-1].timestamp - self._events[0].timestamp

    def filter_types(self, types: Iterable[EventType]) -> "InMemoryEventStream":
        """Return a sub-stream containing only events of the given types."""
        wanted = {t.name for t in types}
        return InMemoryEventStream(
            [e for e in self._events if e.type_name in wanted], sort=False
        )

    def slice_time(self, start: float, end: float) -> "InMemoryEventStream":
        """Return events with ``start <= timestamp < end``."""
        return InMemoryEventStream(
            [e for e in self._events if start <= e.timestamp < end], sort=False
        )


class MergedEventStream(EventStream):
    """Merge several sorted streams into one globally ordered stream."""

    def __init__(self, streams: Sequence[EventStream]):
        if not streams:
            raise DatasetError("MergedEventStream requires at least one stream")
        self._streams = list(streams)

    def __iter__(self) -> Iterator[Event]:
        return heapq.merge(*self._streams)

    def __len__(self) -> int:
        """Sum of the sub-stream lengths, when every sub-stream is sized.

        Raises a :class:`TypeError` naming the offending sub-stream when one
        of them has no defined length, instead of surfacing the base class's
        opaque error mid-summation.
        """
        total = 0
        for stream in self._streams:
            try:
                total += len(stream)
            except TypeError:
                raise TypeError(
                    f"MergedEventStream length is undefined: sub-stream "
                    f"{type(stream).__name__} has no defined length"
                ) from None
        return total


def stream_from_tuples(
    rows: Iterable[tuple],
    types: Dict[str, EventType],
    attribute_names: Optional[Sequence[str]] = None,
) -> InMemoryEventStream:
    """Build a stream from ``(type_name, timestamp, *values)`` tuples.

    Convenience helper for tests and examples: each row names an event type,
    gives a timestamp and the remaining values are zipped against
    ``attribute_names`` to form the payload.
    """
    events = []
    for row in rows:
        type_name, timestamp, *values = row
        if type_name not in types:
            raise DatasetError(f"unknown event type {type_name!r} in row {row!r}")
        names = attribute_names or [f"v{i}" for i in range(len(values))]
        if len(values) > len(names):
            raise DatasetError(
                f"row {row!r} has more values than attribute names {names!r}"
            )
        payload = dict(zip(names, values))
        events.append(Event(types[type_name], timestamp, payload))
    return InMemoryEventStream(events)
