"""Online statistics collection from the running engine.

The :class:`StatisticsCollector` is the "statistics estimation" component of
the paper's ACEP architecture (Figure 2): it consumes the same event stream
as the evaluation mechanism, maintains sliding-window arrival-rate
estimators per event type and selectivity estimators per condition pair,
and produces :class:`~repro.statistics.StatisticsSnapshot` objects on
demand for the optimizer and the reoptimizing decision function.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.errors import StatisticsError
from repro.events import Event, EventType
from repro.patterns import Pattern
from repro.statistics.sliding_window import (
    SlidingSelectivityEstimator,
    SlidingWindowRateEstimator,
)
from repro.statistics.snapshot import PairKey, StatisticsSnapshot, pair_key


class StatisticsCollector:
    """Maintains sliding-window statistics for one pattern's event types.

    Parameters
    ----------
    window:
        Length of the estimation sliding window (stream-time units).  A
        common choice is a small multiple of the pattern's time window.
    num_buckets:
        Bucket granularity of the underlying sliding counters.
    prior_selectivity:
        Prior used by selectivity estimators before evidence accumulates.
    """

    def __init__(
        self,
        window: float,
        num_buckets: int = 32,
        prior_selectivity: float = 0.5,
    ):
        if window <= 0:
            raise StatisticsError("statistics window must be positive")
        self._window = float(window)
        self._num_buckets = num_buckets
        self._prior_selectivity = prior_selectivity
        self._rate_estimators: Dict[str, SlidingWindowRateEstimator] = {}
        self._selectivity_estimators: Dict[PairKey, SlidingSelectivityEstimator] = {}
        self._last_time: float = 0.0

    def _delta_keyed_state(self):
        """Change-tracked collections for incremental snapshots.

        The sliding counters' bucket runs are the bulk of collector state
        and evolve append-at-the-tail / expire-at-the-head, so between two
        checkpoints only a handful of buckets differ — exactly what
        :mod:`repro.streaming.delta` ships.  Dict enumeration order is
        insertion order, which pickling preserves, so the slot names are
        stable across a snapshot/restore round trip.
        """
        slots = []
        for name, estimator in self._rate_estimators.items():
            slots.append((f"rate[{name}]", estimator._counter, "_buckets"))
        for key, estimator in self._selectivity_estimators.items():
            slots.append((f"sel[{key}].attempts", estimator._attempts, "_buckets"))
            slots.append((f"sel[{key}].successes", estimator._successes, "_buckets"))
        return slots

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_event_type(self, event_type: EventType) -> None:
        """Start tracking arrival rate for an event type (idempotent)."""
        self._rate_estimators.setdefault(
            event_type.name,
            SlidingWindowRateEstimator(self._window, self._num_buckets),
        )

    def register_pair(self, a: str, b: str) -> None:
        """Start tracking selectivity for a variable pair (idempotent)."""
        self._selectivity_estimators.setdefault(
            pair_key(a, b),
            SlidingSelectivityEstimator(
                self._window, self._num_buckets, self._prior_selectivity
            ),
        )

    def register_pattern(self, pattern: Pattern) -> None:
        """Register all event types and condition pairs of a pattern."""
        for event_type in pattern.event_types:
            self.register_event_type(event_type)
        for a, b in pattern.conditions.variable_pairs():
            self.register_pair(a, b)
        for item in pattern.items:
            if pattern.conditions.single_variable_conditions(item.variable):
                self.register_pair(item.variable, item.variable)

    def selectivity_estimator(
        self, a: str, b: str
    ) -> Optional[SlidingSelectivityEstimator]:
        """The live selectivity estimator for a variable pair, if registered."""
        return self._selectivity_estimators.get(pair_key(a, b))

    def share_selectivity(
        self, a: str, b: str, estimator: SlidingSelectivityEstimator
    ) -> None:
        """Point this collector's selectivity for ``a``/``b`` at a shared estimator.

        Used when a shared prefix evaluates a condition pair once on behalf
        of several patterns: every consumer sees the evidence the prefix
        engine accumulated.
        """
        self._selectivity_estimators[pair_key(a, b)] = estimator

    @property
    def tracked_types(self) -> Tuple[str, ...]:
        return tuple(self._rate_estimators)

    @property
    def tracked_pairs(self) -> Tuple[PairKey, ...]:
        return tuple(self._selectivity_estimators)

    # ------------------------------------------------------------------
    # Online updates
    # ------------------------------------------------------------------
    def observe_event(self, event: Event) -> None:
        """Record the arrival of a primitive event."""
        estimator = self._rate_estimators.get(event.type_name)
        if estimator is None:
            # Unregistered types are ignored: the collector only tracks the
            # types relevant to its pattern, mirroring per-pattern statistics.
            self._advance(event.timestamp)
            return
        estimator.observe(event.timestamp)
        self._advance(event.timestamp)

    def observe_condition(
        self, a: str, b: str, timestamp: float, success: bool
    ) -> None:
        """Record one evaluation of the condition between variables ``a``/``b``."""
        key = pair_key(a, b)
        estimator = self._selectivity_estimators.get(key)
        if estimator is None:
            return
        estimator.observe(timestamp, success)

    def observe_condition_bulk(
        self,
        a: str,
        b: str,
        timestamp: float,
        attempts: float,
        successes: float = 0.0,
    ) -> None:
        """Record many evaluations of one condition pair in a single update.

        Used by the indexed hot path: an index probe that pruned a whole
        bucket of candidate pairings reports aggregate counts instead of
        paying one estimator update per pairing.
        """
        estimator = self._selectivity_estimators.get(pair_key(a, b))
        if estimator is None:
            return
        estimator.observe_many(timestamp, attempts, successes)

    def advance_time(self, timestamp: float) -> None:
        """Advance all estimators' clocks without new observations."""
        self._advance(timestamp)
        for estimator in self._rate_estimators.values():
            estimator.advance(timestamp)
        for estimator in self._selectivity_estimators.values():
            estimator.advance(timestamp)

    def _advance(self, timestamp: float) -> None:
        if timestamp > self._last_time:
            self._last_time = timestamp

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> StatisticsSnapshot:
        """Produce an immutable snapshot of the current estimates."""
        reference = self._last_time if now is None else now
        selectivities = {
            key: estimator.selectivity(reference)
            for key, estimator in self._selectivity_estimators.items()
        }
        return StatisticsSnapshot(
            self._rates_at(reference), selectivities, timestamp=reference
        )

    def _rates_at(self, reference: float) -> Dict[str, float]:
        """Arrival rates of the tracked types at ``reference``."""
        return {
            name: estimator.rate(reference)
            for name, estimator in self._rate_estimators.items()
        }

    def seed_from_snapshot(self, snapshot: StatisticsSnapshot) -> None:
        """Warm-start estimators from a known snapshot.

        Injects synthetic observations consistent with the snapshot so the
        first estimates after start-up are sensible rather than zero.  Used
        by experiments that pass initial statistics to the engine, matching
        Algorithm 1's ``in_stat`` argument.
        """
        for name in self._rate_estimators:
            if not snapshot.has_rate(name):
                continue
            rate = snapshot.rate(name)
            estimator = SlidingWindowRateEstimator(self._window, self._num_buckets)
            count = max(1, int(round(rate * self._window)))
            if rate > 0:
                for i in range(count):
                    estimator.observe(self._last_time - self._window * (1 - (i + 1) / count))
                estimator.advance(self._last_time)
            self._rate_estimators[name] = estimator
        for key in self._selectivity_estimators:
            selectivity = snapshot.selectivities.get(key)
            if selectivity is None:
                continue
            estimator = SlidingSelectivityEstimator(
                self._window,
                self._num_buckets,
                prior_selectivity=selectivity,
                prior_weight=16.0,
            )
            self._selectivity_estimators[key] = estimator

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"StatisticsCollector(types={len(self._rate_estimators)}, "
            f"pairs={len(self._selectivity_estimators)}, window={self._window:g})"
        )


def pairs_for_pattern(pattern: Pattern) -> Iterable[PairKey]:
    """All variable pairs of a pattern for which selectivities are tracked."""
    yield from pattern.conditions.variable_pairs()
    for item in pattern.items:
        if pattern.conditions.single_variable_conditions(item.variable):
            yield (item.variable, item.variable)
