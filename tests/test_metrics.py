"""Tests for the run-metrics helpers."""

from __future__ import annotations

import pytest

from repro.metrics import RunMetrics, aggregate_metrics
from repro.metrics.run_metrics import summarize_rows


class TestRunMetrics:
    def test_throughput(self):
        metrics = RunMetrics(events_processed=1000, duration_seconds=2.0)
        assert metrics.throughput == 500.0

    def test_throughput_zero_duration(self):
        assert RunMetrics(events_processed=10, duration_seconds=0.0).throughput == 0.0

    def test_overhead_fraction(self):
        metrics = RunMetrics(
            duration_seconds=10.0, time_in_decision=0.5, time_in_generation=1.5
        )
        assert metrics.adaptation_time == 2.0
        assert metrics.overhead_fraction == pytest.approx(0.2)

    def test_overhead_fraction_capped_at_one(self):
        metrics = RunMetrics(duration_seconds=1.0, time_in_generation=5.0)
        assert metrics.overhead_fraction == 1.0

    def test_relative_gain(self):
        fast = RunMetrics(events_processed=100, duration_seconds=1.0)
        slow = RunMetrics(events_processed=100, duration_seconds=2.0)
        assert fast.relative_gain_over(slow) == pytest.approx(2.0)

    def test_relative_gain_against_zero_baseline(self):
        fast = RunMetrics(events_processed=100, duration_seconds=1.0)
        idle = RunMetrics()
        assert fast.relative_gain_over(idle) == float("inf")
        assert idle.relative_gain_over(idle) == 1.0

    def test_as_row_keys(self):
        row = RunMetrics(events_processed=5, duration_seconds=1.0).as_row()
        assert {"events", "matches", "throughput", "reoptimizations", "overhead"} <= set(row)


class TestAggregation:
    def test_aggregate_sums_counters(self):
        runs = [
            RunMetrics(events_processed=100, duration_seconds=1.0, reoptimizations=2),
            RunMetrics(events_processed=300, duration_seconds=2.0, reoptimizations=1),
        ]
        total = aggregate_metrics(runs)
        assert total.events_processed == 400
        assert total.duration_seconds == 3.0
        assert total.reoptimizations == 3
        assert total.throughput == pytest.approx(400 / 3.0)

    def test_aggregate_empty(self):
        assert aggregate_metrics([]).events_processed == 0

    def test_summarize_rows(self):
        rows = [{"x": 1.0, "y": 2.0}, {"x": 3.0}]
        summary = summarize_rows(rows, ["x", "y"])
        assert summary["x"] == 2.0
        assert summary["y"] == 1.0

    def test_summarize_rows_empty(self):
        assert summarize_rows([], ["x"]) == {"x": 0.0}
