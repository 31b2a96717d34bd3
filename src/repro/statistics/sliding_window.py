"""Sliding-window estimators for rates and selectivities.

The paper maintains stream statistics with the histogram-based sliding
window techniques of Datar et al.  We implement the same functionality with
a bucketed sliding counter: the window is split into a fixed number of time
buckets, counts are accumulated into the newest bucket and whole buckets
expire as time advances, so the relative error is bounded (at most one
bucket's worth of events), which is the property the adaptation layer
relies on.

Updates are counted by the bucket, not by the call.  The newest bucket is
kept *open* outside the run of closed buckets as ``(floor index, amount)``:
an update that lands in it at or after the clock is one index comparison
and one addition.  A bucket closes — it is appended to the run, and the
stale head of the run expires — when an update opens a newer bucket, or
when a read needs it: ``count``, ``rate`` and the ``_buckets`` property
(which checkpoints and delta snapshots read) first fold the open bucket in
and expire at the newest time, so every read sees exactly the run an
eager counter (append and expire on every update) would hold.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.errors import StatisticsError


class BucketedSlidingCounter:
    """Count occurrences over a sliding time window using fixed buckets.

    Parameters
    ----------
    window:
        Window length in stream-time units.
    num_buckets:
        Number of buckets the window is divided into.  More buckets means
        finer expiry granularity at slightly higher query cost.
    """

    __slots__ = (
        "window",
        "num_buckets",
        "_bucket_width",
        "_run",
        "_total",
        "_last_time",
        "late_samples",
        "_open_index",
        "_open_amount",
    )

    def __init__(self, window: float, num_buckets: int = 32):
        if window <= 0:
            raise StatisticsError("sliding window length must be positive")
        if num_buckets < 1:
            raise StatisticsError("num_buckets must be >= 1")
        self.window = float(window)
        self.num_buckets = int(num_buckets)
        self._bucket_width = self.window / self.num_buckets
        # Closed buckets as (start_time, count); newest last.  ``_total`` is
        # the sum of their counts: amounts are integer-valued, so the running
        # sum is exact whatever the order of additions and removals.
        self._run: Deque[Tuple[float, float]] = deque()
        self._total = 0.0
        self._last_time: Optional[float] = None
        #: Out-of-order updates absorbed so far (clamped into the newest
        #: bucket rather than rejected).
        self.late_samples = 0
        # The open (newest) bucket: ``timestamp // width`` of its updates
        # and their summed amount; ``None`` while every bucket is closed.
        self._open_index: Optional[float] = None
        self._open_amount = 0.0

    @property
    def _buckets(self) -> Deque[Tuple[float, float]]:
        """The bucket run, under the name checkpoints know it by."""
        self._fold()
        return self._run

    @_buckets.setter
    def _buckets(self, run) -> None:
        # Wholesale replacement: older pickles restore the run under this
        # name, and delta snapshots swap it out (for a sentinel) and back.
        # A replacement run is the whole count (the getter folded the open
        # bucket in), so no bucket stays open.
        self._run = run
        self._open_index = None
        self._open_amount = 0.0
        self._total = (
            float(sum(count for _start, count in run)) if isinstance(run, deque) else 0.0
        )

    def add(self, timestamp: float, amount: float = 1.0) -> None:
        """Record ``amount`` occurrences at ``timestamp``.

        Timestamps are expected to be non-decreasing; a *boundedly* late
        (out-of-order) update — within one window of the newest time seen —
        is tolerated rather than fatal: it is clamped forward into the
        newest bucket and counted in :attr:`late_samples`.  The error this
        introduces is bounded by the disorder the caller lets through (at
        most one lateness-bound worth of misattribution), which is the
        right trade for statistics collection: estimates degrade gracefully
        instead of a disordered feed killing the run.  An update more than
        a full window behind still raises :class:`StatisticsError` — at
        that distance it could not contribute to any estimate, and the
        usual cause is a caller bug (e.g. re-running a single-run engine),
        which should stay loud.  A regression within ``1e-9`` (float
        noise) is clamped the same way without counting as late; the clock
        never goes backwards.
        """
        index = timestamp // self._bucket_width
        if index == self._open_index and timestamp >= self._last_time:
            self._open_amount += amount
            self._last_time = timestamp
            return
        last = self._last_time
        if last is not None and timestamp < last:
            if timestamp < last - 1e-9:
                if timestamp < last - self.window:
                    raise StatisticsError(
                        f"out-of-order update beyond one window: {timestamp} < "
                        f"last seen {last} - window {self.window:g} "
                        "(disordered feeds should be bounded by the event-time "
                        "ordering stage; engines are single-run)"
                    )
                self.late_samples += 1
            timestamp = last
            index = timestamp // self._bucket_width
            if index == self._open_index:
                self._open_amount += amount
                return
        self._last_time = timestamp
        self._fold()
        run = self._run
        if run and run[-1][0] == index * self._bucket_width:
            # A read or a restored run closed this bucket; reopen it.
            count = run.pop()[1]
            self._total -= count
            amount = count + amount
        self._open_index = index
        self._open_amount = amount

    def __setstate__(self, state) -> None:
        # Engine checkpoints written before `late_samples` or the open
        # bucket existed pickle this class without those slots; default
        # them so restored counters clamp late updates instead of dying on
        # an unset attribute.
        dict_state, slot_state = (
            state if isinstance(state, tuple) else (state, None)
        )
        for source in (dict_state, slot_state):
            if source:
                for key, value in source.items():
                    setattr(self, key, value)
        if not hasattr(self, "late_samples"):
            self.late_samples = 0
        if not hasattr(self, "_open_index"):
            self._open_index = None
            self._open_amount = 0.0

    def advance(self, timestamp: float) -> None:
        """Advance the clock without recording an occurrence.

        Buckets the new time leaves behind expire at the next read or at
        the next bucket an update opens.
        """
        if self._last_time is None or timestamp > self._last_time:
            self._last_time = timestamp

    def count(self, now: Optional[float] = None) -> float:
        """Total count within the window ending at ``now`` (default: last seen)."""
        self._fold()
        return self._count_at(self._last_time if now is None else now)

    def rate(self, now: Optional[float] = None) -> float:
        """Occurrences per time unit over the (possibly partially filled) window."""
        self._fold()
        reference = self._last_time if now is None else now
        if reference is None or not self._run:
            return 0.0
        elapsed = max(reference - self._run[0][0], self._bucket_width)
        return self._count_at(reference) / min(elapsed, self.window)

    def _count_at(self, reference: Optional[float]) -> float:
        if reference is None:
            return 0.0
        # The running total minus the buckets already out of this window:
        # they sit at the head, and there are none when ``reference`` is
        # the newest time seen (reads expire at it).
        cutoff = reference - self.window
        total = self._total
        for start, count in self._run:
            if start + self._bucket_width > cutoff:
                break
            total -= count
        return total

    def _fold(self) -> None:
        """Close the open bucket and expire at the newest time: the run an
        eager counter would hold."""
        run = self._run
        if self._open_index is not None:
            run.append((self._open_index * self._bucket_width, self._open_amount))
            self._total += self._open_amount
            self._open_index = None
            self._open_amount = 0.0
        if self._last_time is not None:
            cutoff = self._last_time - self.window
            while run and run[0][0] + self._bucket_width <= cutoff:
                self._total -= run.popleft()[1]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"BucketedSlidingCounter(window={self.window:g}, "
            f"buckets={len(self._run) + (self._open_index is not None)}/"
            f"{self.num_buckets})"
        )


class SlidingWindowRateEstimator:
    """Estimate the arrival rate of a single event type over a sliding window."""

    def __init__(self, window: float, num_buckets: int = 32):
        self._counter = BucketedSlidingCounter(window, num_buckets)

    def observe(self, timestamp: float) -> None:
        """Record the arrival of one event at ``timestamp``."""
        self._counter.add(timestamp)

    def advance(self, timestamp: float) -> None:
        """Advance time so stale observations drop out of the window."""
        self._counter.advance(timestamp)

    def rate(self, now: Optional[float] = None) -> float:
        """Current estimated arrival rate (events per time unit)."""
        return self._counter.rate(now)

    def count(self, now: Optional[float] = None) -> float:
        """Number of events currently inside the window."""
        return self._counter.count(now)

    @property
    def late_samples(self) -> int:
        """Out-of-order observations absorbed (clamped) so far."""
        return self._counter.late_samples


class SlidingSelectivityEstimator:
    """Estimate the success probability of a predicate over a sliding window.

    The runtime engine reports every evaluation of the predicate (attempted
    pairings of events) together with its outcome; the estimator keeps
    windowed counts of attempts and successes.

    Parameters
    ----------
    window:
        Window length in stream-time units.
    num_buckets:
        Bucket count for the underlying sliding counters.
    prior_selectivity:
        Value returned before any evaluation has been observed, and blended
        in with weight ``prior_weight`` afterwards to damp early noise.
    prior_weight:
        Pseudo-count weight of the prior.
    """

    def __init__(
        self,
        window: float,
        num_buckets: int = 32,
        prior_selectivity: float = 0.5,
        prior_weight: float = 4.0,
    ):
        if not 0.0 <= prior_selectivity <= 1.0:
            raise StatisticsError("prior_selectivity must be in [0, 1]")
        if prior_weight < 0:
            raise StatisticsError("prior_weight must be >= 0")
        self._attempts = BucketedSlidingCounter(window, num_buckets)
        self._successes = BucketedSlidingCounter(window, num_buckets)
        self._prior_selectivity = prior_selectivity
        self._prior_weight = prior_weight

    def observe(self, timestamp: float, success: bool) -> None:
        """Record one predicate evaluation and its outcome."""
        self._attempts.add(timestamp)
        if success:
            self._successes.add(timestamp)
        else:
            self._successes.advance(timestamp)

    def observe_many(
        self, timestamp: float, attempts: float, successes: float = 0.0
    ) -> None:
        """Record a batch of evaluations sharing one timestamp in O(1).

        The bucketed counters already accumulate arbitrary amounts, so an
        index probe that adjudicated ``attempts`` pairings at once (``successes`` of which held) reports them in a
        single update instead of one call per pairing.
        """
        if attempts < successes:
            raise StatisticsError("successes cannot exceed attempts")
        if attempts <= 0:
            return
        self._attempts.add(timestamp, attempts)
        if successes > 0:
            self._successes.add(timestamp, successes)
        else:
            self._successes.advance(timestamp)

    def selectivity(self, now: Optional[float] = None) -> float:
        """Current estimated selectivity in ``[0, 1]``."""
        attempts = self._attempts.count(now)
        successes = self._successes.count(now)
        numerator = successes + self._prior_selectivity * self._prior_weight
        denominator = attempts + self._prior_weight
        if denominator == 0:
            return self._prior_selectivity
        return min(1.0, max(0.0, numerator / denominator))

    def attempts(self, now: Optional[float] = None) -> float:
        """Number of evaluations currently inside the window."""
        return self._attempts.count(now)

    @property
    def late_samples(self) -> int:
        """Out-of-order observations absorbed (clamped) so far."""
        return self._attempts.late_samples
