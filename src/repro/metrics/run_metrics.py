"""Run-level performance metrics.

The paper reports four quantities per (dataset, algorithm, adaptation
method, pattern size) cell:

* throughput — primitive events processed per second of execution time;
* relative throughput gain over the non-adaptive (static) method;
* the total number of plan reoptimizations (actual plan replacements);
* computational overhead — the fraction of execution time spent inside the
  decision function ``D`` and the plan generator ``A``.

:class:`RunMetrics` captures these together with auxiliary counters
(matches, partial matches) so tests can assert on engine behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


@dataclass
class RunMetrics:
    """Metrics of one engine run over one stream."""

    events_processed: int = 0
    matches_emitted: int = 0
    duration_seconds: float = 0.0
    reoptimizations: int = 0
    decisions_evaluated: int = 0
    time_in_decision: float = 0.0
    time_in_generation: float = 0.0
    partial_matches_created: int = 0
    extension_attempts: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Primitive events processed per second of execution time."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.events_processed / self.duration_seconds

    @property
    def adaptation_time(self) -> float:
        return self.time_in_decision + self.time_in_generation

    @property
    def overhead_fraction(self) -> float:
        """Fraction of the run spent in the decision function and the planner."""
        if self.duration_seconds <= 0:
            return 0.0
        return min(1.0, self.adaptation_time / self.duration_seconds)

    def relative_gain_over(self, baseline: "RunMetrics") -> float:
        """Relative throughput gain over a baseline run (1.0 = no gain)."""
        if baseline.throughput <= 0:
            return float("inf") if self.throughput > 0 else 1.0
        return self.throughput / baseline.throughput

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary representation used by report tables."""
        return {
            "events": float(self.events_processed),
            "matches": float(self.matches_emitted),
            "duration_s": self.duration_seconds,
            "throughput": self.throughput,
            "reoptimizations": float(self.reoptimizations),
            "overhead": self.overhead_fraction,
            "partial_matches": float(self.partial_matches_created),
        }

    def __repr__(self) -> str:
        return (
            f"RunMetrics(events={self.events_processed}, matches={self.matches_emitted}, "
            f"throughput={self.throughput:.0f} ev/s, reopt={self.reoptimizations}, "
            f"overhead={self.overhead_fraction:.2%})"
        )


def aggregate_metrics(runs: Iterable[RunMetrics]) -> RunMetrics:
    """Aggregate several runs into one (sums counters, sums durations).

    Used when an experiment cell averages over several patterns (the paper
    averages over its five pattern sets): throughput of the aggregate is
    total events over total time, matching a weighted average.
    """
    runs = list(runs)
    aggregate = RunMetrics()
    for run in runs:
        aggregate.events_processed += run.events_processed
        aggregate.matches_emitted += run.matches_emitted
        aggregate.duration_seconds += run.duration_seconds
        aggregate.reoptimizations += run.reoptimizations
        aggregate.decisions_evaluated += run.decisions_evaluated
        aggregate.time_in_decision += run.time_in_decision
        aggregate.time_in_generation += run.time_in_generation
        aggregate.partial_matches_created += run.partial_matches_created
        aggregate.extension_attempts += run.extension_attempts
    return aggregate


def summarize_rows(rows: List[Dict[str, float]], keys: Iterable[str]) -> Dict[str, float]:
    """Column-wise mean over report rows (helper for experiment summaries)."""
    keys = list(keys)
    if not rows:
        return {key: 0.0 for key in keys}
    return {key: sum(row.get(key, 0.0) for row in rows) / len(rows) for key in keys}
