"""Tests for the dataset simulators and the workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    ConfigurableDatasetSimulator,
    StockDatasetSimulator,
    TrafficDatasetSimulator,
    dataset_by_name,
)
from repro.errors import DatasetError
from repro.events import EventType
from repro.multi import PatternSet
from repro.patterns import Pattern
from repro.statistics import ConstantValue
from repro.workloads import PATTERN_FAMILIES, WorkloadGenerator


class TestTrafficDataset:
    def test_generation_is_deterministic(self):
        first = TrafficDatasetSimulator(num_types=6, duration_hint=50).generate(50, seed=3)
        second = TrafficDatasetSimulator(num_types=6, duration_hint=50).generate(50, seed=3)
        assert len(first) == len(second)
        assert [e.timestamp for e in first][:20] == [e.timestamp for e in second][:20]

    def test_rates_are_skewed(self):
        dataset = TrafficDatasetSimulator(num_types=10, base_rate=8.0)
        rates = [dataset.true_rate(name, 0.0) for name in dataset.type_names()]
        assert max(rates) / min(rates) > 3.0

    def test_shifts_change_rates(self):
        dataset = TrafficDatasetSimulator(num_types=8, num_shifts=4, duration_hint=100)
        changed = 0
        for name in dataset.type_names():
            if abs(dataset.true_rate(name, 99.0) - dataset.true_rate(name, 0.0)) > 1e-9:
                changed += 1
        assert changed >= 2

    def test_no_shifts_means_constant_rates(self):
        dataset = TrafficDatasetSimulator(num_types=6, num_shifts=0, duration_hint=100)
        for name in dataset.type_names():
            assert dataset.true_rate(name, 0.0) == dataset.true_rate(name, 90.0)

    def test_observed_counts_track_true_rates(self):
        dataset = TrafficDatasetSimulator(num_types=6, base_rate=10.0, num_shifts=0, duration_hint=60)
        stream = dataset.generate(60, seed=1)
        counts = stream.count_by_type()
        for name in dataset.type_names():
            expected = dataset.true_rate(name, 0.0) * 60
            assert counts.get(name, 0) == pytest.approx(expected, rel=0.35)

    def test_payload_attributes(self):
        dataset = TrafficDatasetSimulator(num_types=4, duration_hint=20)
        stream = dataset.generate(20)
        event = stream[0]
        assert "avg_speed" in event and "vehicle_count" in event and "point_id" in event

    def test_condition_between_semantics(self):
        dataset = TrafficDatasetSimulator(num_types=4)
        condition = dataset.condition_between("a", "b")
        from repro.events import Event

        up = Event(EventType("P00"), 1.0, {"avg_speed": 50, "vehicle_count": 30})
        up_more = Event(EventType("P01"), 2.0, {"avg_speed": 80, "vehicle_count": 60})
        down = Event(EventType("P01"), 2.0, {"avg_speed": 20, "vehicle_count": 60})
        assert condition.evaluate({"a": up, "b": up_more})
        assert not condition.evaluate({"a": up, "b": down})

    def test_initial_snapshot_covers_pattern(self):
        dataset = TrafficDatasetSimulator(num_types=8)
        pattern = WorkloadGenerator(dataset).sequence_pattern(4)
        snapshot = dataset.initial_snapshot(pattern)
        for item in pattern.items:
            assert snapshot.has_rate(item.event_type.name)
        for pair in pattern.conditions.variable_pairs():
            assert snapshot.selectivity(*pair) == dataset.nominal_selectivity()

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            TrafficDatasetSimulator(num_types=1)
        with pytest.raises(DatasetError):
            TrafficDatasetSimulator(num_shifts=-1)
        with pytest.raises(DatasetError):
            TrafficDatasetSimulator(shift_fraction=0.0)

    def test_max_events_cap(self):
        dataset = TrafficDatasetSimulator(num_types=6, base_rate=10.0, duration_hint=100)
        stream = dataset.generate(100, max_events=500)
        assert len(stream) <= 500


class TestStockDataset:
    def test_rates_are_near_uniform(self):
        dataset = StockDatasetSimulator(num_types=10, base_rate=3.0)
        rates = [dataset.true_rate(name, 0.0) for name in dataset.type_names()]
        assert max(rates) / min(rates) < 2.0

    def test_rates_fluctuate_over_time(self):
        dataset = StockDatasetSimulator(num_types=5, duration_hint=100)
        name = dataset.type_names()[0]
        samples = [dataset.true_rate(name, t) for t in np.linspace(0, 100, 50)]
        assert max(samples) - min(samples) > 0.1 * np.mean(samples)

    def test_rates_stay_positive(self):
        dataset = StockDatasetSimulator(num_types=5, duration_hint=200)
        for name in dataset.type_names():
            for t in np.linspace(0, 200, 40):
                assert dataset.true_rate(name, t) > 0

    def test_payload_has_price_and_diff(self):
        dataset = StockDatasetSimulator(num_types=4, duration_hint=20)
        stream = dataset.generate(20)
        assert "price" in stream[0] and "diff" in stream[0]

    def test_condition_between_uses_margin(self):
        dataset = StockDatasetSimulator(num_types=4)
        condition = dataset.condition_between("a", "b")
        from repro.events import Event

        small = Event(EventType("K00"), 1.0, {"diff": 0.0})
        big = Event(EventType("K01"), 2.0, {"diff": 3.0})
        close = Event(EventType("K01"), 2.0, {"diff": 0.5})
        assert condition.evaluate({"a": small, "b": big})
        assert not condition.evaluate({"a": small, "b": close})

    def test_generation_deterministic(self):
        first = StockDatasetSimulator(num_types=4, duration_hint=30).generate(30, seed=9)
        second = StockDatasetSimulator(num_types=4, duration_hint=30).generate(30, seed=9)
        assert len(first) == len(second)


class TestConfigurableDataset:
    def test_custom_rates_and_payload(self):
        types = [EventType("X"), EventType("Y")]
        dataset = ConfigurableDatasetSimulator(
            types,
            {"X": ConstantValue(5.0), "Y": ConstantValue(1.0)},
            payload_generator=lambda name, t, rng: {"value": 0.5},
        )
        stream = dataset.generate(20, seed=1)
        counts = stream.count_by_type()
        assert counts["X"] > counts["Y"]
        assert stream[0]["value"] == 0.5

    def test_missing_rate_model_rejected(self):
        with pytest.raises(DatasetError):
            ConfigurableDatasetSimulator(
                [EventType("X")], {"Y": ConstantValue(1.0)}
            )

    def test_condition_and_window_defaults(self):
        types = [EventType("X"), EventType("Y")]
        dataset = ConfigurableDatasetSimulator(
            types, {"X": ConstantValue(1.0), "Y": ConstantValue(1.0)}
        )
        assert dataset.default_window(4) == 8.0
        assert dataset.nominal_selectivity() == 0.5
        assert dataset.condition_between("a", "b") is not None

    def test_invalid_duration(self):
        types = [EventType("X")]
        dataset = ConfigurableDatasetSimulator(types, {"X": ConstantValue(1.0)})
        with pytest.raises(DatasetError):
            dataset.generate(0)


class TestDatasetFactory:
    def test_by_name(self):
        assert isinstance(dataset_by_name("traffic"), TrafficDatasetSimulator)
        assert isinstance(dataset_by_name("stocks"), StockDatasetSimulator)
        assert isinstance(dataset_by_name("NASDAQ"), StockDatasetSimulator)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            dataset_by_name("unknown")


class TestWorkloadGenerator:
    @pytest.fixture
    def workload(self):
        return WorkloadGenerator(TrafficDatasetSimulator(num_types=12), seed=1)

    def test_sequence_pattern(self, workload):
        pattern = workload.sequence_pattern(5)
        assert pattern.size == 5
        assert pattern.is_sequence()
        assert len(pattern.conditions) == 4
        assert len(set(pattern.type_names())) == 5

    def test_conjunction_pattern(self, workload):
        pattern = workload.conjunction_pattern(4)
        assert pattern.is_conjunction()
        assert pattern.size == 4

    def test_negation_pattern(self, workload):
        pattern = workload.negation_pattern(4)
        assert pattern.size == 4
        assert len(pattern.negated_items) == 1
        assert len(pattern.items) == 5

    def test_kleene_pattern(self, workload):
        pattern = workload.kleene_pattern(4)
        assert pattern.size == 4
        assert len(pattern.kleene_items) == 1

    def test_composite_pattern(self, workload):
        pattern = workload.composite_pattern(3)
        assert isinstance(pattern, PatternSet)
        assert len(pattern.subpatterns()) == 3
        for subpattern in pattern.subpatterns():
            assert subpattern.size == 3

    def test_pattern_family_dispatch(self, workload):
        for family in PATTERN_FAMILIES:
            pattern = workload.pattern(family, 3)
            assert isinstance(pattern, (Pattern, PatternSet))

    def test_unknown_family_rejected(self, workload):
        with pytest.raises(DatasetError):
            workload.pattern("bogus", 3)

    def test_pattern_set_sizes(self, workload):
        patterns = workload.pattern_set("sequence", sizes=(3, 4, 5))
        assert sorted(patterns) == [3, 4, 5]
        assert patterns[4].size == 4

    def test_all_pattern_sets(self, workload):
        sets = workload.all_pattern_sets(sizes=(3,))
        assert set(sets) == set(PATTERN_FAMILIES)

    def test_deterministic_given_seed(self):
        dataset = TrafficDatasetSimulator(num_types=12)
        first = WorkloadGenerator(dataset, seed=5).sequence_pattern(4)
        second = WorkloadGenerator(dataset, seed=5).sequence_pattern(4)
        assert first.type_names() == second.type_names()

    def test_variant_changes_selection(self, workload):
        base = workload.sequence_pattern(4, variant=0)
        other = workload.sequence_pattern(4, variant=1)
        assert base.type_names() != other.type_names() or base.name != other.name

    def test_size_exceeding_types_rejected(self):
        dataset = TrafficDatasetSimulator(num_types=4)
        with pytest.raises(DatasetError):
            WorkloadGenerator(dataset).sequence_pattern(10)

    def test_window_override(self):
        dataset = TrafficDatasetSimulator(num_types=8)
        workload = WorkloadGenerator(dataset, window=42.0)
        assert workload.sequence_pattern(3).window == 42.0

    def test_types_spread_across_rate_ranking(self, workload):
        pattern = workload.sequence_pattern(6)
        dataset = workload.dataset
        rates = [dataset.true_rate(name, 0.0) for name in pattern.type_names()]
        assert max(rates) / min(rates) > 2.0
