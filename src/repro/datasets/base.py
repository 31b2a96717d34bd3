"""Base class for dataset simulators.

A dataset simulator owns a set of event types, a time-varying arrival-rate
model per type, and a payload generator.  Streams are produced with a
discretised non-homogeneous Poisson process: time is split into small
steps, the expected count of each type within a step is ``rate * dt``, the
actual count is Poisson-distributed, and the events are placed uniformly
within the step.  All randomness is driven by an explicit seed, so streams
are reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.conditions import Condition
from repro.errors import DatasetError
from repro.events import Event, EventType, InMemoryEventStream
from repro.patterns import Pattern
from repro.statistics import StatisticsSnapshot, TimeVaryingValue


class DatasetSimulator:
    """Common machinery for the synthetic dataset simulators."""

    #: Name used in reports ("traffic", "stocks", ...).
    name: str = "dataset"

    def __init__(
        self,
        event_types: Sequence[EventType],
        rate_models: Dict[str, TimeVaryingValue],
        seed: int = 0,
        time_step: float = 1.0,
    ):
        if not event_types:
            raise DatasetError("a dataset needs at least one event type")
        missing = [t.name for t in event_types if t.name not in rate_models]
        if missing:
            raise DatasetError(f"rate models missing for types: {missing}")
        if time_step <= 0:
            raise DatasetError("time_step must be positive")
        self._event_types: Dict[str, EventType] = {t.name: t for t in event_types}
        self._rate_models = dict(rate_models)
        self._seed = int(seed)
        self._time_step = float(time_step)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def event_types(self) -> List[EventType]:
        return list(self._event_types.values())

    @property
    def seed(self) -> int:
        return self._seed

    def event_type(self, name: str) -> EventType:
        try:
            return self._event_types[name]
        except KeyError:
            raise DatasetError(f"dataset {self.name!r} has no event type {name!r}") from None

    def type_names(self) -> List[str]:
        return list(self._event_types)

    def rate_model(self, type_name: str) -> TimeVaryingValue:
        try:
            return self._rate_models[type_name]
        except KeyError:
            raise DatasetError(f"no rate model for type {type_name!r}") from None

    def true_rate(self, type_name: str, t: float) -> float:
        return max(0.0, self.rate_model(type_name).value_at(t))

    # ------------------------------------------------------------------
    # Pattern support hooks (overridden by concrete datasets)
    # ------------------------------------------------------------------
    def condition_between(self, variable_a: str, variable_b: str) -> Condition:
        """The dataset's natural inter-event predicate between two variables."""
        raise NotImplementedError

    def nominal_selectivity(self) -> float:
        """Approximate selectivity of :meth:`condition_between` on this data."""
        raise NotImplementedError

    def default_window(self, pattern_size: int) -> float:
        """A reasonable time window for a pattern of the given size."""
        raise NotImplementedError

    def _payload(
        self, type_name: str, timestamp: float, rng: np.random.Generator
    ) -> Dict[str, float]:
        """Generate the attribute payload of one event."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Statistics helpers
    # ------------------------------------------------------------------
    def initial_snapshot(
        self, pattern: Pattern, at_time: float = 0.0
    ) -> StatisticsSnapshot:
        """Ground-truth statistics at ``at_time`` for the pattern's types.

        Selectivities for condition-coupled pairs are set to the dataset's
        nominal selectivity — the same role as the ``in_stat`` argument of
        Algorithm 1.
        """
        rates = {
            item.event_type.name: self.true_rate(item.event_type.name, at_time)
            for item in pattern.items
        }
        selectivity = self.nominal_selectivity()
        selectivities = {
            pair: selectivity for pair in pattern.conditions.variable_pairs()
        }
        return StatisticsSnapshot(rates, selectivities, timestamp=at_time)

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------
    def generate(
        self,
        duration: float,
        seed: Optional[int] = None,
        start_time: float = 0.0,
        max_events: Optional[int] = None,
    ) -> InMemoryEventStream:
        """Generate a stream covering ``[start_time, start_time + duration)``."""
        if duration <= 0:
            raise DatasetError("duration must be positive")
        rng = np.random.default_rng(self._seed if seed is None else seed)
        events: List[Event] = []
        step = self._time_step
        steps = int(np.ceil(duration / step))
        for index in range(steps):
            step_start = start_time + index * step
            step_end = min(start_time + duration, step_start + step)
            width = step_end - step_start
            if width <= 0:
                break
            midpoint = step_start + width / 2.0
            for type_name, model in self._rate_models.items():
                expected = max(0.0, model.value_at(midpoint)) * width
                count = int(rng.poisson(expected)) if expected > 0 else 0
                if count == 0:
                    continue
                timestamps = np.sort(rng.uniform(step_start, step_end, size=count))
                event_type = self._event_types[type_name]
                for timestamp in timestamps:
                    events.append(
                        Event(
                            event_type,
                            float(timestamp),
                            self._payload(type_name, float(timestamp), rng),
                        )
                    )
            if max_events is not None and len(events) >= max_events:
                break
        events.sort()
        if max_events is not None:
            events = events[:max_events]
        return InMemoryEventStream(events, sort=False)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} types={len(self._event_types)} seed={self._seed}>"
