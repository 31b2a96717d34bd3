"""Statistics substrate.

This package maintains the quantities the adaptation layer monitors: event
arrival rates and inter-event predicate selectivities.  Estimates are
maintained over sliding windows (following the histogram-based techniques
the paper cites) by :class:`StatisticsCollector`.  The time-varying value
models drive the dataset simulators' generating processes.
"""

from repro.statistics.snapshot import StatisticsSnapshot, pair_key
from repro.statistics.sliding_window import (
    BucketedSlidingCounter,
    SlidingWindowRateEstimator,
    SlidingSelectivityEstimator,
)
from repro.statistics.collector import StatisticsCollector, StatisticsProbe
from repro.statistics.timevarying import (
    TimeVaryingValue,
    ConstantValue,
    StepValue,
    OscillatingValue,
    RandomWalkValue,
    LinearDriftValue,
)

__all__ = [
    "StatisticsSnapshot",
    "pair_key",
    "BucketedSlidingCounter",
    "SlidingWindowRateEstimator",
    "SlidingSelectivityEstimator",
    "StatisticsCollector",
    "StatisticsProbe",
    "TimeVaryingValue",
    "ConstantValue",
    "StepValue",
    "OscillatingValue",
    "RandomWalkValue",
    "LinearDriftValue",
]
