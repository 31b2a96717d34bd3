"""Synthetic stand-in for the NASDAQ stock-updates dataset.

The paper describes the stocks dataset as having *low skew* — the arrival
rates of all stock identifiers are nearly identical — while the statistics
change *frequently but only slightly*.  The simulator therefore gives every
stock symbol a rate close to a common base value and perturbs it with a
small-amplitude, short-period oscillation plus a slow bounded random walk.

Event payloads carry the current ``price`` and the ``diff`` against the
previous price of the same symbol (the paper preprocesses the raw data the
same way).  The workload conditions require increasing price differences
across the pattern's events (``a.diff < b.diff < c.diff ...``).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.conditions import ComparisonShape, Condition
from repro.datasets.base import DatasetSimulator
from repro.errors import DatasetError
from repro.events import AttributeSpec, EventSchema, EventType
from repro.statistics import OscillatingValue, RandomWalkValue, TimeVaryingValue


class PriceJumpCondition(Condition):
    """``first.diff + margin < second.diff``: a clear acceleration in price moves.

    It declares that comparison (a missing ``diff`` reads as 0.0), so the
    compiled tiers lower it to a comparison kernel.  Its cache key stays
    the per-instance opaque one: a structural key would let the prefixes
    of patterns whose conditions are equal only by value form new share
    groups.
    """

    def __init__(self, first_variable: str, second_variable: str, margin: float):
        self._first = first_variable
        self._second = second_variable
        self._margin = float(margin)

    @property
    def variables(self):
        return frozenset({self._first, self._second})

    @property
    def margin(self) -> float:
        return self._margin

    def comparison_shape(self) -> ComparisonShape:
        return ComparisonShape(
            self._first, "diff", "<", self._second, "diff", self._margin, 0.0
        )

    def evaluate(self, binding) -> bool:
        if self._first not in binding or self._second not in binding:
            return True
        first = binding[self._first]
        second = binding[self._second]
        first_events = first if isinstance(first, list) else [first]
        second_events = second if isinstance(second, list) else [second]
        for left in first_events:
            for right in second_events:
                if not left.get("diff", 0.0) + self._margin < right.get("diff", 0.0):
                    return False
        return True

    def __repr__(self) -> str:
        return f"{self._first}.diff + {self._margin:g} < {self._second}.diff"


def _stock_schema() -> EventSchema:
    return EventSchema(
        [
            AttributeSpec("price", float, description="last trade price"),
            AttributeSpec("diff", float, description="difference against the previous price"),
        ]
    )


class _CompositeRate:
    """Oscillation around a slowly drifting base: frequent, minor changes."""

    def __init__(self, walk: RandomWalkValue, oscillation: OscillatingValue):
        self._walk = walk
        self._oscillation = oscillation

    def value_at(self, t: float) -> float:
        base = self._walk.value_at(t)
        ratio = self._oscillation.value_at(t)
        return max(0.05, base * ratio)


class StockDatasetSimulator(DatasetSimulator):
    """Near-uniform rates with frequent minor fluctuations (stock-ticker style)."""

    name = "stocks"

    def __init__(
        self,
        num_types: int = 16,
        base_rate: float = 2.5,
        rate_spread: float = 0.1,
        oscillation_amplitude: float = 0.25,
        oscillation_period: float = 12.0,
        walk_volatility: float = 0.01,
        duration_hint: float = 300.0,
        seed: int = 11,
        time_step: float = 1.0,
    ):
        """Create the simulator.

        Parameters
        ----------
        num_types:
            Number of stock symbols (event types ``K00``, ``K01``, ...).
        base_rate:
            Common arrival-rate level shared (almost) by all symbols.
        rate_spread:
            Relative spread of the initial rates around ``base_rate``
            (small — the paper observed near-identical initial values).
        oscillation_amplitude / oscillation_period:
            Parameters of the per-symbol sinusoidal fluctuation producing
            the frequent minor changes.
        walk_volatility:
            Volatility of the slow random-walk component of each rate.
        """
        if num_types < 2:
            raise DatasetError("stock simulator needs at least two symbols")
        self.num_types = num_types
        self.base_rate = float(base_rate)
        self.duration_hint = float(duration_hint)

        rng = np.random.default_rng(seed)
        schema = _stock_schema()
        event_types = [
            EventType(f"K{i:02d}", schema=schema, description=f"stock symbol {i}")
            for i in range(num_types)
        ]
        rate_models: Dict[str, TimeVaryingValue] = {}
        for index, event_type in enumerate(event_types):
            initial = base_rate * (1.0 + rng.uniform(-rate_spread, rate_spread))
            walk = RandomWalkValue(
                base=initial,
                volatility=walk_volatility,
                horizon=duration_hint,
                step=max(1.0, duration_hint / 200.0),
                rng=np.random.default_rng(seed * 1000 + index),
                lower=0.2 * base_rate,
                upper=3.0 * base_rate,
            )
            oscillation = OscillatingValue(
                base=1.0,
                amplitude=oscillation_amplitude,
                period=oscillation_period * (1.0 + 0.2 * rng.random()),
                phase=float(rng.uniform(0.0, 2.0 * np.pi)),
            )
            rate_models[event_type.name] = _CompositeRate(walk, oscillation)
        super().__init__(event_types, rate_models, seed=seed, time_step=time_step)

        self._price_state: Dict[str, float] = {
            t.name: float(rng.uniform(20.0, 200.0)) for t in event_types
        }

    # ------------------------------------------------------------------
    # Pattern hooks
    # ------------------------------------------------------------------
    #: Margin by which the later event's price difference must exceed the
    #: earlier one's; keeps the predicate selective enough that final matches
    #: stay rare compared with intermediate partial matches.
    DIFF_MARGIN = 1.2

    def condition_between(self, variable_a: str, variable_b: str) -> Condition:
        """Require the later variable's price difference to clearly exceed the earlier's."""
        return PriceJumpCondition(variable_a, variable_b, self.DIFF_MARGIN)

    def nominal_selectivity(self) -> float:
        # diff values are N(0, 1); the margin-1.2 comparison between two
        # independent draws holds for roughly a fifth of the pairs.
        return 0.2

    def default_window(self, pattern_size: int) -> float:
        return 3.0 + 0.5 * pattern_size

    # ------------------------------------------------------------------
    # Payload generation
    # ------------------------------------------------------------------
    def _payload(
        self, type_name: str, timestamp: float, rng: np.random.Generator
    ) -> Dict[str, float]:
        previous = self._price_state[type_name]
        diff = float(rng.normal(0.0, 1.0))
        price = max(0.01, previous + diff)
        self._price_state[type_name] = price
        return {"price": price, "diff": diff}
