"""Tests for the experiment drivers (small-scale runs)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.adaptive import ConstantThresholdPolicy, InvariantBasedPolicy, StaticPolicy, UnconditionalPolicy
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    PolicySpec,
    build_planner,
    build_policy,
    compare_methods,
    distance_estimation_table,
    distance_sweep,
    find_optimal_distance,
    format_table,
    k_invariant_ablation,
    make_stream,
    rows_to_csv,
    run_single,
    selection_strategy_ablation,
)
from repro.experiments.config import default_method_specs
from repro.experiments.distance_estimation import accuracy_ratio
from repro.experiments.method_comparison import DEFAULT_METHODS
from repro.experiments.reporting import pivot
from repro.experiments.runner import build_dataset, build_workload
from repro.optimizer import GreedyOrderPlanner, ZStreamTreePlanner


SMALL = ExperimentConfig(
    dataset="traffic",
    algorithm="greedy",
    duration=40.0,
    max_events=2500,
    sizes=(3,),
    monitoring_interval=2.0,
    num_types=8,
)


class TestConfig:
    def test_policy_spec_validation(self):
        with pytest.raises(ExperimentError):
            PolicySpec("bogus")

    def test_policy_spec_names(self):
        assert PolicySpec("invariant", distance=0.1).name == "invariant(d=0.1)"
        assert PolicySpec("invariant", use_davg_distance=True).name == "invariant(davg)"
        assert PolicySpec("invariant", distance=0.1, k=3).name == "invariant(d=0.1,K=3)"
        assert PolicySpec("threshold", threshold=0.3).name == "threshold(t=0.3)"
        assert PolicySpec("static").name == "static"
        assert PolicySpec("invariant", label="custom").name == "custom"

    def test_experiment_config_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(algorithm="bogus")
        with pytest.raises(ExperimentError):
            ExperimentConfig(duration=-1)

    def test_default_method_specs(self):
        specs = default_method_specs()
        assert [spec.kind for spec in specs] == [
            "invariant",
            "threshold",
            "unconditional",
            "static",
        ]

    def test_default_methods_per_combination(self):
        specs = DEFAULT_METHODS("traffic", "zstream")
        invariant = specs[0]
        assert invariant.k == 3  # K-invariant recommended for ZStream


class TestBuilders:
    def test_build_planner(self):
        assert isinstance(build_planner("greedy"), GreedyOrderPlanner)
        assert isinstance(build_planner("zstream"), ZStreamTreePlanner)
        with pytest.raises(ExperimentError):
            build_planner("bogus")

    def test_build_policy(self):
        assert isinstance(build_policy(PolicySpec("invariant")), InvariantBasedPolicy)
        assert isinstance(build_policy(PolicySpec("threshold")), ConstantThresholdPolicy)
        assert isinstance(build_policy(PolicySpec("unconditional")), UnconditionalPolicy)
        assert isinstance(build_policy(PolicySpec("static")), StaticPolicy)

    def test_build_policy_davg(self):
        policy = build_policy(PolicySpec("invariant", use_davg_distance=True))
        assert isinstance(policy, InvariantBasedPolicy)

    def test_build_dataset_and_stream(self):
        dataset = build_dataset(SMALL)
        stream = make_stream(dataset, SMALL)
        assert len(stream) > 100
        assert len(stream) <= SMALL.max_events


class TestRunSingle:
    def test_run_single_produces_metrics(self):
        dataset = build_dataset(SMALL)
        workload = build_workload(SMALL, dataset)
        stream = make_stream(dataset, SMALL)
        pattern = workload.sequence_pattern(3)
        metrics = run_single(pattern, stream, SMALL, PolicySpec("invariant", distance=0.1))
        assert metrics.events_processed == len(stream)
        assert metrics.throughput > 0

    def test_static_policy_never_reoptimizes(self):
        dataset = build_dataset(SMALL)
        workload = build_workload(SMALL, dataset)
        stream = make_stream(dataset, SMALL)
        pattern = workload.sequence_pattern(3)
        metrics = run_single(pattern, stream, SMALL, PolicySpec("static"))
        assert metrics.reoptimizations == 0

    def test_composite_pattern_runs_through_multi_engine(self):
        dataset = build_dataset(SMALL)
        workload = build_workload(SMALL, dataset)
        stream = make_stream(dataset, SMALL)
        composite = workload.composite_pattern(3)
        metrics = run_single(composite, stream, SMALL, PolicySpec("invariant"))
        assert metrics.events_processed == len(stream)

    def test_all_methods_find_same_matches(self):
        dataset = build_dataset(SMALL)
        workload = build_workload(SMALL, dataset)
        stream = make_stream(dataset, SMALL)
        pattern = workload.sequence_pattern(3)
        counts = {
            spec.kind: run_single(pattern, stream, SMALL, spec).matches_emitted
            for spec in default_method_specs()
        }
        assert len(set(counts.values())) == 1, counts

    def test_sharded_run_matches_sequential(self):
        dataset = build_dataset(SMALL)
        workload = build_workload(SMALL, dataset)
        stream = make_stream(dataset, SMALL)
        pattern = workload.sequence_pattern(3)
        spec = PolicySpec("invariant", distance=0.1)
        sequential = run_single(pattern, stream, SMALL, spec)
        sharded = run_single(pattern, stream, replace(SMALL, shards=2), spec)
        assert sharded.matches_emitted == sequential.matches_emitted
        assert sharded.events_processed == sequential.events_processed
        assert sharded.extra["shards"] == 2.0


class TestComparisonDriver:
    def test_compare_methods_rows(self):
        result = compare_methods(SMALL)
        assert len(result.rows) == 4  # one size x four methods
        methods = {row["method"] for row in result.rows}
        assert methods == {"invariant", "threshold", "unconditional", "static"}
        static_row = result.rows_for_method("static")[0]
        assert static_row["relative_gain"] == pytest.approx(1.0)

    def test_result_accessors(self):
        result = compare_methods(SMALL)
        assert result.throughput("static", 3) > 0
        assert result.mean_throughput("invariant") > 0
        assert result.mean_value("unconditional", "reoptimizations") >= 0
        with pytest.raises(KeyError):
            result.throughput("static", 99)


class TestDistanceExperiments:
    def test_distance_sweep_rows(self):
        rows = distance_sweep(SMALL, distances=(0.0, 0.3))
        assert len(rows) == 2
        assert {row["distance"] for row in rows} == {0.0, 0.3}

    def test_find_optimal_distance(self):
        rows = [
            {"size": 3, "distance": 0.0, "throughput": 10.0},
            {"size": 3, "distance": 0.1, "throughput": 30.0},
            {"size": 3, "distance": 0.5, "throughput": 20.0},
        ]
        dopt, throughput = find_optimal_distance(rows)
        assert dopt == 0.1 and throughput == 30.0

    def test_find_optimal_distance_empty(self):
        with pytest.raises(ValueError):
            find_optimal_distance([], size=3)

    def test_accuracy_ratio(self):
        assert accuracy_ratio(0.1, 0.1) == 1.0
        assert accuracy_ratio(0.05, 0.1) == pytest.approx(0.5)
        assert accuracy_ratio(0.2, 0.1) == pytest.approx(0.5)
        assert accuracy_ratio(0.0, 0.1) == 0.0

    def test_distance_estimation_table(self):
        rows = distance_estimation_table(SMALL, dopt=0.1, sizes=(3, 4))
        assert len(rows) == 2
        for row in rows:
            assert row["davg"] >= 0
            assert 0.0 <= row["accuracy"] <= 1.0


class TestAblations:
    def test_k_invariant_ablation(self):
        rows = k_invariant_ablation(SMALL, k_values=(1, 0), size=3)
        assert len(rows) == 2
        all_conditions = rows[1]
        assert all_conditions["num_invariants"] >= rows[0]["num_invariants"]

    def test_selection_strategy_ablation(self):
        rows = selection_strategy_ablation(SMALL, size=3)
        assert {row["strategy"] for row in rows} == {
            "tightest",
            "violation-probability",
            "random",
        }


class TestReporting:
    ROWS = [
        {"size": 3, "method": "invariant", "throughput": 1234.5},
        {"size": 3, "method": "static", "throughput": 456.7},
    ]

    def test_format_table(self):
        text = format_table(self.ROWS, ["size", "method", "throughput"], title="demo")
        assert "demo" in text and "invariant" in text and "1,234" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_rows_to_csv(self):
        csv_text = rows_to_csv(self.ROWS)
        assert csv_text.splitlines()[0] == "size,method,throughput"
        assert len(csv_text.splitlines()) == 3

    def test_rows_to_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_pivot(self):
        pivoted = pivot(self.ROWS, index="size", column="method", value="throughput")
        assert len(pivoted) == 1
        assert pivoted[0]["invariant"] == 1234.5
        assert pivoted[0]["static"] == 456.7
