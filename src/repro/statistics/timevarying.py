"""Models of time-varying statistic values.

The dataset simulators drive their generating processes (arrival rates,
predicate selectivities) with these small value models.  Each model answers
``value_at(t)``: the ground-truth value of the statistic at stream time
``t``.  Composing them reproduces the two characters the paper describes:

* the *traffic* dataset: highly skewed, stable values with rare, extreme
  regime shifts — modelled with :class:`StepValue`;
* the *stocks* dataset: near-uniform values with frequent minor
  oscillations — modelled with :class:`OscillatingValue` or
  :class:`RandomWalkValue`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StatisticsError


class TimeVaryingValue:
    """A scalar statistic as a function of stream time."""

    def value_at(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def clamp(self, lower: float, upper: float) -> "ClampedValue":
        """Restrict the value to ``[lower, upper]`` (e.g. selectivities to [0,1])."""
        return ClampedValue(self, lower, upper)


class ConstantValue(TimeVaryingValue):
    """A value that never changes."""

    def __init__(self, value: float):
        self._value = float(value)

    def value_at(self, t: float) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"ConstantValue({self._value:g})"


class StepValue(TimeVaryingValue):
    """Piecewise-constant value: regime shifts at given times.

    Parameters
    ----------
    initial:
        Value before the first shift.
    steps:
        Sequence of ``(time, value)`` pairs, sorted by time; at each time
        the value jumps to the new level and stays there.
    """

    def __init__(self, initial: float, steps: Sequence[Tuple[float, float]] = ()):
        self._initial = float(initial)
        self._times: List[float] = []
        self._values: List[float] = []
        last_time = -math.inf
        for time, value in steps:
            if time <= last_time:
                raise StatisticsError("StepValue shift times must be strictly increasing")
            last_time = time
            self._times.append(float(time))
            self._values.append(float(value))

    def value_at(self, t: float) -> float:
        index = bisect_right(self._times, t)
        if index == 0:
            return self._initial
        return self._values[index - 1]

    @property
    def shift_times(self) -> Tuple[float, ...]:
        return tuple(self._times)

    def __repr__(self) -> str:
        return f"StepValue(initial={self._initial:g}, steps={len(self._times)})"


class LinearDriftValue(TimeVaryingValue):
    """A value drifting linearly from ``start`` to ``end`` over ``[t0, t1]``."""

    def __init__(self, start: float, end: float, t0: float, t1: float):
        if t1 <= t0:
            raise StatisticsError("LinearDriftValue requires t1 > t0")
        self._start = float(start)
        self._end = float(end)
        self._t0 = float(t0)
        self._t1 = float(t1)

    def value_at(self, t: float) -> float:
        if t <= self._t0:
            return self._start
        if t >= self._t1:
            return self._end
        fraction = (t - self._t0) / (self._t1 - self._t0)
        return self._start + fraction * (self._end - self._start)

    def __repr__(self) -> str:
        return (
            f"LinearDriftValue({self._start:g}->{self._end:g} "
            f"over [{self._t0:g}, {self._t1:g}])"
        )


class OscillatingValue(TimeVaryingValue):
    """A value oscillating sinusoidally around a base level.

    ``value(t) = base * (1 + amplitude * sin(2*pi*t/period + phase))``.
    With a small amplitude this reproduces the frequent-but-minor changes of
    the stocks dataset.
    """

    def __init__(self, base: float, amplitude: float, period: float, phase: float = 0.0):
        if period <= 0:
            raise StatisticsError("OscillatingValue period must be positive")
        if amplitude < 0:
            raise StatisticsError("OscillatingValue amplitude must be >= 0")
        self._base = float(base)
        self._amplitude = float(amplitude)
        self._period = float(period)
        self._phase = float(phase)

    def value_at(self, t: float) -> float:
        oscillation = math.sin(2.0 * math.pi * t / self._period + self._phase)
        return self._base * (1.0 + self._amplitude * oscillation)

    def __repr__(self) -> str:
        return (
            f"OscillatingValue(base={self._base:g}, amp={self._amplitude:g}, "
            f"period={self._period:g})"
        )


class RandomWalkValue(TimeVaryingValue):
    """A value following a pre-sampled bounded random walk.

    The walk is sampled once at construction time on a fixed time grid so
    that ``value_at`` is a deterministic function of ``t`` — repeated calls
    (e.g. from the event generator and a dataset's initial snapshot) always
    agree.
    """

    def __init__(
        self,
        base: float,
        volatility: float,
        horizon: float,
        step: float,
        rng: Optional[np.random.Generator] = None,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
    ):
        if step <= 0 or horizon <= 0:
            raise StatisticsError("RandomWalkValue requires positive step and horizon")
        if volatility < 0:
            raise StatisticsError("RandomWalkValue volatility must be >= 0")
        rng = rng or np.random.default_rng(0)
        self._base = float(base)
        self._step = float(step)
        count = int(math.ceil(horizon / step)) + 2
        increments = rng.normal(0.0, volatility * base, size=count)
        values = base + np.cumsum(increments)
        if lower is not None or upper is not None:
            values = np.clip(
                values,
                lower if lower is not None else -np.inf,
                upper if upper is not None else np.inf,
            )
        self._values = values

    def value_at(self, t: float) -> float:
        if t <= 0:
            return float(self._values[0])
        index = min(int(t / self._step), len(self._values) - 1)
        return float(self._values[index])

    def __repr__(self) -> str:
        return f"RandomWalkValue(base={self._base:g}, points={len(self._values)})"


class ClampedValue(TimeVaryingValue):
    """Wrap another value model, clamping its output to ``[lower, upper]``."""

    def __init__(self, inner: TimeVaryingValue, lower: float, upper: float):
        if lower > upper:
            raise StatisticsError("ClampedValue requires lower <= upper")
        self._inner = inner
        self._lower = float(lower)
        self._upper = float(upper)

    def value_at(self, t: float) -> float:
        return min(self._upper, max(self._lower, self._inner.value_at(t)))

    def __repr__(self) -> str:
        return f"Clamped({self._inner!r}, [{self._lower:g}, {self._upper:g}])"
