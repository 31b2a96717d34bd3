"""Online statistics collection from the running engine.

The :class:`StatisticsCollector` is the "statistics estimation" component of
the paper's ACEP architecture (Figure 2): it consumes the same event stream
as the evaluation mechanism, maintains sliding-window arrival-rate
estimators per event type and selectivity estimators per condition pair,
and produces :class:`~repro.statistics.StatisticsSnapshot` objects on
demand for the optimizer, plus a per-tick :class:`StatisticsProbe` that
the reoptimizing decision function reads.
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
        """Record the arrival of a primitive event.

        Unregistered types only move the clock: the collector tracks the
        types relevant to its pattern, mirroring per-pattern statistics.
        """
        timestamp = event.timestamp
        estimator = self._rate_estimators.get(event.type_name)
        if estimator is not None:
            estimator._counter.add(timestamp)
        if timestamp > self._last_time:
            self._last_time = timestamp

    def observe_condition(
        self, a: str, b: str, timestamp: float, success: bool
    ) -> None:
        """Record one evaluation of the condition between variables ``a``/``b``.

        ``(a, b)`` must be the canonical pair (:func:`pair_key`): every
        caller reports the sorted pair, so the report is one lookup.
        """
        estimator = self._selectivity_estimators.get((a, b))
        if estimator is not None:
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
        paying one estimator update per pairing.  ``(a, b)`` is the
        canonical pair, as for :meth:`observe_condition`.
        """
        estimator = self._selectivity_estimators.get((a, b))
        if estimator is not None:
            estimator.observe_many(timestamp, attempts, successes)

    # ------------------------------------------------------------------
    # Snapshots and probes
    # ------------------------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> StatisticsSnapshot:
        """Produce an immutable snapshot of the current estimates."""
        reference = self._last_time if now is None else now
        selectivities = {
            key: estimator.selectivity(reference)
            for key, estimator in self._selectivity_estimators.items()
        }
        rates = {name: self._rate_at(name, reference) for name in self.tracked_types}
        return StatisticsSnapshot(rates, selectivities, timestamp=reference)

    def probe(self, now: float) -> "StatisticsProbe":
        """A read view of the estimates at ``now``, valid until the next
        observed event (see :class:`StatisticsProbe`)."""
        return StatisticsProbe(self, now)

    def _rate_at(self, type_name: str, reference: float) -> Optional[float]:
        """Arrival rate of one type at ``reference``; ``None`` if untracked."""
        estimator = self._rate_estimators.get(type_name)
        return None if estimator is None else estimator.rate(reference)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"StatisticsCollector(types={len(self._rate_estimators)}, "
            f"pairs={len(self._selectivity_estimators)}, window={self._window:g})"
        )


class StatisticsProbe:
    """One monitoring tick's view of a collector's estimates at ``now``.

    It answers the reads a :class:`~repro.optimizer.terms.StatExpression`
    makes (``rate_or_default``, ``selectivity``, ``local_selectivity``)
    with exactly the floats ``collector.snapshot(now)`` would hold, but
    computes only the statistics that are read, each once per tick.  The
    full snapshot is built by :meth:`snapshot` only when a caller keeps
    one or plans from it.  A :class:`StatisticsSnapshot` offers the same
    reads and ``snapshot()`` (itself), so either is a valid view.

    A probe is valid inside its tick: reading it after the collector has
    observed a newer event raises :class:`~repro.errors.StatisticsError`.
    """

    __slots__ = (
        "_collector",
        "timestamp",
        "_clock",
        "_rates",
        "_selectivities",
        "_snapshot",
    )

    def __init__(self, collector: StatisticsCollector, now: float):
        self._collector = collector
        self.timestamp = now
        self._clock = collector._last_time
        self._rates: Dict[str, Optional[float]] = {}
        self._selectivities: Dict[PairKey, float] = {}
        self._snapshot: Optional[StatisticsSnapshot] = None

    def _check(self) -> None:
        if self._collector._last_time != self._clock:
            raise StatisticsError(
                "statistics probe read after its tick: the collector has "
                "observed a newer event"
            )

    def rate_or_default(self, type_name: str, default: float = 0.0) -> float:
        self._check()
        rates = self._rates
        if type_name in rates:
            rate = rates[type_name]
        else:
            rate = self._collector._rate_at(type_name, self.timestamp)
            rate = rates[type_name] = None if rate is None else float(rate)
        return default if rate is None else rate

    def selectivity(self, a: str, b: str) -> float:
        return self._selectivity(pair_key(a, b))

    def local_selectivity(self, variable: str) -> float:
        return self._selectivity((variable, variable))

    def _selectivity(self, key: PairKey) -> float:
        self._check()
        value = self._selectivities.get(key)
        if value is None:
            estimator = self._collector._selectivity_estimators.get(key)
            value = (
                1.0 if estimator is None else float(estimator.selectivity(self.timestamp))
            )
            self._selectivities[key] = value
        return value

    def snapshot(self) -> StatisticsSnapshot:
        """The full snapshot at the probe's time (built once, on demand)."""
        self._check()
        if self._snapshot is None:
            self._snapshot = self._collector.snapshot(self.timestamp)
        return self._snapshot


def pairs_for_pattern(pattern: Pattern) -> Iterable[PairKey]:
    """All variable pairs of a pattern for which selectivities are tracked."""
    yield from pattern.conditions.variable_pairs()
    for item in pattern.items:
        if pattern.conditions.single_variable_conditions(item.variable):
            yield (item.variable, item.variable)
