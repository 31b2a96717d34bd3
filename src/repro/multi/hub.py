"""Shared statistics for multi-pattern serving.

In an N-isolated-pipelines deployment every pattern's
:class:`~repro.statistics.StatisticsCollector` counts every arrival
itself, so one stream is measured N times.  The
:class:`SharedStatisticsHub` owns exactly one sliding-window rate
estimator per event type; the multi-pattern engine feeds each event into
the hub once.  A pattern's :class:`SharedStatisticsCollector` holds no
rate estimator of its own: its snapshots read the hub's rates, which the
hub computes once per reference time (so at a monitoring tick each
type's rate is computed once, however many patterns decide on it).  The
per-pattern collectors keep their own selectivity estimators (conditions
are pattern-local), except for pairs evaluated on their behalf by a
shared prefix group, which are re-pointed at the group's estimators via
:meth:`~repro.statistics.StatisticsCollector.share_selectivity` — the
only estimators two collectors hold in common.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import StatisticsError
from repro.events import Event, EventType
from repro.patterns import Pattern
from repro.statistics import StatisticsCollector
from repro.statistics.sliding_window import SlidingWindowRateEstimator


class SharedStatisticsHub:
    """One rate estimator per event type, shared across patterns.

    Parameters mirror :class:`~repro.statistics.StatisticsCollector`; the
    hub's window must cover the longest statistics window any pattern
    would have used on its own.
    """

    def __init__(self, window: float, num_buckets: int = 32):
        if window <= 0:
            raise StatisticsError("statistics hub window must be positive")
        self.window = float(window)
        self.num_buckets = num_buckets
        self._rates: Dict[str, SlidingWindowRateEstimator] = {}
        self._last_time: float = float("-inf")
        #: ``(reference, rates)`` of the last :meth:`rates` call; an
        #: arrival or a new estimator invalidates it.
        self._rate_cache: Optional[Tuple[float, Dict[str, float]]] = None

    @property
    def last_time(self) -> float:
        """Timestamp of the newest event observed (``-inf`` before any)."""
        return self._last_time

    @property
    def tracked_types(self):
        return tuple(self._rates)

    def rate_estimator(self, type_name: str) -> SlidingWindowRateEstimator:
        """The shared estimator for an event type (created on first use)."""
        estimator = self._rates.get(type_name)
        if estimator is None:
            estimator = self._rates[type_name] = SlidingWindowRateEstimator(
                self.window, self.num_buckets
            )
            self._rate_cache = None
        return estimator

    def register(self, pattern: Pattern) -> None:
        """Ensure shared estimators exist for every type a pattern uses."""
        for event_type in pattern.event_types:
            self.rate_estimator(event_type.name)

    def observe(self, event: Event) -> None:
        """Count one arrival — called exactly once per event by the
        multi-pattern engine, regardless of how many patterns consume it."""
        estimator = self._rates.get(event.type_name)
        if estimator is not None:
            estimator.observe(event.timestamp)
            self._rate_cache = None
        if event.timestamp > self._last_time:
            self._last_time = event.timestamp

    def rates(self, reference: float) -> Dict[str, float]:
        """Every type's rate at ``reference``, computed once until the next
        arrival.  Callers must not mutate the returned mapping."""
        cached = self._rate_cache
        if cached is None or cached[0] != reference:
            cached = self._rate_cache = (
                reference,
                {
                    name: estimator.rate(reference)
                    for name, estimator in self._rates.items()
                },
            )
        return cached[1]

    def _delta_keyed_state(self):
        """The rate estimators' bucket runs (incremental-snapshot hook)."""
        return [
            (f"rate[{name}]", estimator._counter, "_buckets")
            for name, estimator in self._rates.items()
        ]


class SharedStatisticsCollector(StatisticsCollector):
    """A per-pattern collector whose arrival rates come from the hub.

    ``register_event_type`` records which of the hub's types the pattern
    uses; a snapshot reads their rates from the hub, and ``observe_event``
    only advances the local clock — the hub has already counted the
    arrival.  Selectivity estimation is unchanged (pattern-local), so the
    resulting snapshots are exactly what an isolated collector would
    produce, at 1/N the counting work.
    """

    def __init__(self, hub: SharedStatisticsHub, prior_selectivity: float = 0.5):
        super().__init__(
            window=hub.window,
            num_buckets=hub.num_buckets,
            prior_selectivity=prior_selectivity,
        )
        self._hub = hub
        self._rate_types: List[str] = []

    @property
    def hub(self) -> SharedStatisticsHub:
        return self._hub

    @property
    def tracked_types(self) -> Tuple[str, ...]:
        return tuple(self._rate_types)

    def register_event_type(self, event_type: EventType) -> None:
        self._hub.rate_estimator(event_type.name)
        if event_type.name not in self._rate_types:
            self._rate_types.append(event_type.name)

    def _rates_at(self, reference: float) -> Dict[str, float]:
        rates = self._hub.rates(reference)
        return {name: rates[name] for name in self._rate_types}

    def observe_event(self, event: Event) -> None:
        # The hub counted this arrival once for all patterns.
        self._advance(event.timestamp)
