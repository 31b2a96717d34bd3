"""Immutable snapshots of the monitored statistics.

A :class:`StatisticsSnapshot` is what the plan-generation algorithms and the
reoptimizing decision functions consume: the current estimates of

* the arrival rate of each event type (events per time unit), and
* the selectivity of the inter-event predicates, keyed by the unordered
  pair of pattern variables they couple (a ``(v, v)`` key holds the
  combined selectivity of the conditions local to variable ``v``).

Snapshots are plain value objects; producing one never mutates estimator
state, so decision functions can be evaluated as often as desired.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import StatisticsError

PairKey = Tuple[str, str]


def pair_key(a: str, b: str) -> PairKey:
    """Canonical (sorted) key for an unordered variable pair."""
    return (a, b) if a <= b else (b, a)


class StatisticsSnapshot:
    """Point-in-time view of arrival rates and selectivities.

    Parameters
    ----------
    rates:
        Mapping from event-type name to estimated arrival rate.
    selectivities:
        Mapping from variable-pair key (see :func:`pair_key`) to estimated
        selectivity in ``[0, 1]``.  Missing pairs default to ``1.0`` (no
        predicate defined), as in the paper's cost formulas.
    timestamp:
        The stream time at which the snapshot was taken.
    """

    __slots__ = ("_rates", "_selectivities", "timestamp")

    def __init__(
        self,
        rates: Mapping[str, float],
        selectivities: Optional[Mapping[PairKey, float]] = None,
        timestamp: float = 0.0,
    ):
        self._rates: Dict[str, float] = {}
        for name, rate in rates.items():
            if rate < 0:
                raise StatisticsError(f"arrival rate for {name!r} must be >= 0, got {rate}")
            self._rates[name] = float(rate)
        self._selectivities: Dict[PairKey, float] = {}
        for key, selectivity in (selectivities or {}).items():
            canonical = pair_key(*key)
            if not 0.0 <= selectivity <= 1.0:
                raise StatisticsError(
                    f"selectivity for {canonical} must be in [0, 1], got {selectivity}"
                )
            self._selectivities[canonical] = float(selectivity)
        self.timestamp = float(timestamp)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def rates(self) -> Mapping[str, float]:
        return dict(self._rates)

    @property
    def selectivities(self) -> Mapping[PairKey, float]:
        return dict(self._selectivities)

    def rate(self, type_name: str) -> float:
        """Arrival rate of an event type (raises if unknown)."""
        try:
            return self._rates[type_name]
        except KeyError:
            raise StatisticsError(f"no arrival rate recorded for type {type_name!r}") from None

    def rate_or_default(self, type_name: str, default: float = 0.0) -> float:
        return self._rates.get(type_name, default)

    def has_rate(self, type_name: str) -> bool:
        return type_name in self._rates

    def selectivity(self, a: str, b: str) -> float:
        """Selectivity of the predicate between variables ``a`` and ``b``.

        Defaults to 1.0 when no predicate (hence no estimate) exists,
        matching the convention in the paper's cost expressions.
        """
        return self._selectivities.get(pair_key(a, b), 1.0)

    def local_selectivity(self, variable: str) -> float:
        """Combined selectivity of conditions local to a single variable."""
        return self._selectivities.get((variable, variable), 1.0)

    def snapshot(self) -> "StatisticsSnapshot":
        """The snapshot itself: a snapshot is a valid statistics view
        wherever a :class:`~repro.statistics.StatisticsProbe` is."""
        return self

    # ------------------------------------------------------------------
    # Derived snapshots
    # ------------------------------------------------------------------
    def restrict(self, type_names: Iterable[str]) -> "StatisticsSnapshot":
        """Return a snapshot containing only the given event types' rates."""
        wanted = set(type_names)
        return StatisticsSnapshot(
            {name: rate for name, rate in self._rates.items() if name in wanted},
            self._selectivities,
            timestamp=self.timestamp,
        )

    def with_rate(self, type_name: str, rate: float) -> "StatisticsSnapshot":
        """Return a copy with one arrival rate replaced."""
        rates = dict(self._rates)
        rates[type_name] = rate
        return StatisticsSnapshot(rates, self._selectivities, timestamp=self.timestamp)

    def with_selectivity(self, a: str, b: str, selectivity: float) -> "StatisticsSnapshot":
        """Return a copy with one selectivity replaced."""
        selectivities = dict(self._selectivities)
        selectivities[pair_key(a, b)] = selectivity
        return StatisticsSnapshot(self._rates, selectivities, timestamp=self.timestamp)

    # ------------------------------------------------------------------
    # Comparisons (used by the constant-threshold decision policy)
    # ------------------------------------------------------------------
    def max_relative_deviation(self, other: "StatisticsSnapshot") -> float:
        """Largest relative change of any shared statistic vs ``other``.

        The constant-threshold baseline from ZStream triggers a
        reoptimization when this value exceeds its threshold ``t``.
        """
        deviation = 0.0
        for name, rate in self._rates.items():
            if other.has_rate(name):
                deviation = max(deviation, _relative_change(other.rate(name), rate))
        for key, selectivity in self._selectivities.items():
            other_value = other._selectivities.get(key)
            if other_value is not None:
                deviation = max(deviation, _relative_change(other_value, selectivity))
        return deviation

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatisticsSnapshot):
            return NotImplemented
        return (
            self._rates == other._rates and self._selectivities == other._selectivities
        )

    def __repr__(self) -> str:
        return (
            f"StatisticsSnapshot(rates={self._rates!r}, "
            f"selectivities={len(self._selectivities)} pairs, t={self.timestamp:g})"
        )


def _relative_change(baseline: float, current: float) -> float:
    """Relative change of ``current`` with respect to ``baseline``."""
    if baseline == 0.0:
        return 0.0 if current == 0.0 else float("inf")
    return abs(current - baseline) / abs(baseline)
