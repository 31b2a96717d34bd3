"""Tests for engine introspection and cost-model drift.

Drift is derived on demand from what every engine already holds — the
installed plan's ``PlanGenerationResult`` (the plan and the snapshot it
was planned from), the pattern, and an observed snapshot of the
statistics collector — so it is on for every engine, with no flag:

* **rows** — :func:`drift_rows` compares predicted with observed
  selectivities per pair, worst first;
* **provenance** — on a stream whose rates and selectivities really
  shift, a ``replan`` record handed to a decision sink carries the drift
  rows of the *outgoing* plan (and a controller without a sink computes
  none, so the state checkpoints pickle does not grow);
* **export** — ``/engine`` and ``/metrics`` serve the drift section of a
  default-built engine, every plan and drift gauge labelled with its
  pattern, and per-shard frames merge pattern by pattern keeping the
  worst row per pair.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.datasets import StockDatasetSimulator
from repro.datasets.generic import ConfigurableDatasetSimulator
from repro.engine import AdaptiveCEPEngine, MultiPatternEngine
from repro.events import EventType
from repro.obs import (
    ControlPlane,
    DecisionLog,
    engine_introspection_samples,
    render_prometheus,
)
from repro.obs.introspect import drift_rows, merge_introspection_frames
from repro.optimizer import GreedyOrderPlanner
from repro.statistics import StatisticsSnapshot
from repro.statistics.timevarying import ConstantValue, StepValue
from repro.parallel import ParallelCEPEngine
from repro.streaming import (
    CheckpointStore,
    CollectorSink,
    InlineBackend,
    ProcessWorkerBackend,
    ReplaySource,
    StreamingPipeline,
)
from repro.workloads import WorkloadGenerator

#: Stream time of the regime shift in :func:`_shifting_stream`.
SHIFT = 40.0


def _shifting_stream(duration: float = 80.0, seed: int = 3):
    """Camera events whose rates and selectivities really shift at ``SHIFT``.

    The C rate climbs past B's (breaking the greedy plan's ordering
    invariant, so the shift triggers a re-plan) and the person-id space
    shrinks from 20 ids to 4, so the equality selectivities the collector
    observes rise about fivefold.
    """

    def payload(type_name, timestamp, rng):
        persons = 20 if timestamp < SHIFT else 4
        return {"person_id": int(rng.integers(0, persons))}

    dataset = ConfigurableDatasetSimulator(
        [EventType("A"), EventType("B"), EventType("C")],
        {
            "A": ConstantValue(10.0),
            "B": ConstantValue(3.0),
            "C": StepValue(1.0, [(SHIFT, 8.0)]),
        },
        payload_generator=payload,
        seed=seed,
    )
    return dataset.generate(duration).to_list()


class RecordingPlanner(GreedyOrderPlanner):
    """The greedy planner, keeping every result it generates."""

    def __init__(self):
        super().__init__()
        self.results = []

    def generate(self, pattern, snapshot):
        result = super().generate(pattern, snapshot)
        self.results.append(result)
        return result


def _engine(pattern, planner=None):
    return AdaptiveCEPEngine(
        pattern,
        planner or GreedyOrderPlanner(),
        InvariantBasedPolicy(distance=0.1),
        monitoring_interval=2.0,
    )


def _outgoing_results(engine, planner):
    """The result each recorded replacement retired, in replacement order.

    One ``generate`` runs per decision, so the result a replacement
    installed is the one planned from its decision-time snapshot.
    """
    replacements = engine.controller.statistics.replacements
    installed = [planner.results[0]] + [
        next(r for r in planner.results if r.snapshot.timestamp == record.time)
        for record in replacements
    ]
    return list(zip(replacements, installed))


def _assert_measured_against(rows, result):
    predicted = result.snapshot
    for row in rows:
        a, b = row["pair"].split("~")
        assert row["predicted"] == predicted.selectivity(a, b), row


class TestDrift:
    def test_ratio_and_magnitude(self, camera_pattern):
        result = GreedyOrderPlanner().generate(
            camera_pattern,
            StatisticsSnapshot(
                {"A": 100.0, "B": 15.0, "C": 10.0}, {("a", "b"): 0.2, ("b", "c"): 0.0}
            ),
        )
        rows = drift_rows(
            result,
            camera_pattern,
            StatisticsSnapshot({}, {("a", "b"): 0.05, ("b", "c"): 0.5}),
        )
        by_pair = {row["pair"]: row for row in rows}
        assert by_pair["a~b"]["ratio"] == pytest.approx(0.25)
        assert by_pair["a~b"]["drift"] == pytest.approx(4.0)
        # A pair predicted never to pass that does: infinite drift, first.
        assert rows[0]["pair"] == "b~c"
        assert by_pair["b~c"]["ratio"] == float("inf")
        assert by_pair["b~c"]["drift"] == float("inf")
        on_model = drift_rows(
            result, camera_pattern, StatisticsSnapshot({}, {("b", "c"): 0.0})
        )
        assert {row["pair"]: row["ratio"] for row in on_model}["b~c"] == 1.0

    def test_no_drift_against_the_planning_snapshot(self, camera_pattern, camera_snapshot):
        result = GreedyOrderPlanner().generate(camera_pattern, camera_snapshot)
        rows = drift_rows(result, camera_pattern, camera_snapshot)
        assert [row["pair"] for row in rows] == ["a~b", "b~c"]
        assert all(row["ratio"] == 1.0 and row["drift"] == 1.0 for row in rows)

    def test_seeded_shift_produces_drift_signal_before_replan(self, camera_pattern):
        """A shifted snapshot drifts from the unchanged plan's predictions."""
        planned = StatisticsSnapshot(
            {"A": 100.0, "B": 15.0, "C": 10.0}, {("a", "b"): 0.3, ("b", "c"): 0.2}
        )
        result = GreedyOrderPlanner().generate(camera_pattern, planned)
        shifted = StatisticsSnapshot(
            {"A": 100.0, "B": 15.0, "C": 200.0},
            {("a", "b"): 0.05, ("b", "c"): 0.9},
            timestamp=40.0,
        )
        rows = drift_rows(result, camera_pattern, shifted)
        by_pair = {row["pair"]: row for row in rows}
        assert by_pair["b~c"]["ratio"] == pytest.approx(0.9 / 0.2)
        assert by_pair["a~b"]["ratio"] == pytest.approx(0.05 / 0.3)
        # Worst drift first: a~b moved by 6x, b~c by 4.5x.
        assert rows[0]["pair"] == "a~b"
        assert rows[0]["drift"] == pytest.approx(6.0)

    def test_replan_record_carries_costs_distance_and_drift(self, camera_pattern):
        """The shift drives a re-plan whose record, handed to a decision
        sink, carries the old/new predicted cost, the trigger distance and
        the drift rows of the plan being retired."""
        planner = RecordingPlanner()
        engine = _engine(camera_pattern, planner)
        handed = []
        engine.controller.decision_sink = handed.append
        engine.run(_shifting_stream())
        assert engine.reoptimization_count() >= 2
        assert handed == engine.controller.statistics.replacements
        for record, outgoing in _outgoing_results(engine, planner):
            assert record.drift
            _assert_measured_against(record.drift, outgoing)
        record = handed[-1]
        assert record.time > SHIFT, "the last re-plan must be the shift's"
        assert record.previous_cost > record.new_cost > 0
        assert record.trigger_distance is not None
        assert record.drift[0]["drift"] > 1.5

    def test_records_carry_no_drift_without_a_sink(self, camera_pattern):
        engine = _engine(camera_pattern)
        engine.run(_shifting_stream())
        replacements = engine.controller.statistics.replacements
        assert replacements
        assert all(record.drift is None for record in replacements)


class TestFrameMerging:
    def test_introspection_frames_keep_worst_drift_row_per_pair(self):
        def frame(live, ratio):
            return {
                "pattern": "p",
                "counters": {"events_processed": 10},
                "partial_matches": {"live": live},
                "drift": {
                    "predicted_cost": 3.0,
                    "pairs": [
                        {"pair": "a~b", "predicted": 0.3, "observed": 0.3 * ratio,
                         "ratio": ratio, "drift": max(ratio, 1 / ratio)},
                    ],
                },
            }

        merged = merge_introspection_frames([frame(4, 1.1), frame(7, 3.0)])
        assert merged["shards"] == 2
        assert merged["counters"]["events_processed"] == 20
        assert merged["partial_matches"]["live"] == 11
        assert merged["drift"]["pairs"][0]["ratio"] == 3.0
        assert merged["drift"]["max_drift"] == 3.0
        assert merged["drift"]["predicted_cost"] == 3.0
        assert merge_introspection_frames([frame(4, 1.1)]) == {
            **frame(4, 1.1),
            "shards": 1,
        }

    def test_multi_pattern_frames_fold_pattern_by_pattern(self):
        def pattern_frame(name, reoptimizations, ratio):
            return {
                "pattern": name,
                "plan": f"plan-{name}",
                "reoptimizations": reoptimizations,
                "partial_matches": {"live": 2},
                "drift": {
                    "predicted_cost": 5.0,
                    "pairs": [{"pair": "a~b", "ratio": ratio, "drift": ratio}],
                },
            }

        def frame(ratio):
            return {
                "pattern": "set",
                "reoptimizations": 3,
                "partial_matches": {"live": 4},
                "sharing": {
                    "groups": [{"prefix": "g", "completions": 2, "prefix_hits": 5}],
                    "prefix_hits": 5,
                    "kernels_reused": 9,
                },
                "patterns": {
                    "p1": pattern_frame("p1", 1, ratio),
                    "p2": pattern_frame("p2", 2, 1.0),
                },
            }

        merged = merge_introspection_frames([frame(1.5), frame(4.0)])
        assert "plan" not in merged
        assert merged["shards"] == 2
        assert merged["reoptimizations"] == 6
        assert merged["partial_matches"]["live"] == 8
        assert merged["sharing"] == {
            "groups": [{"prefix": "g", "completions": 4, "prefix_hits": 10}],
            "prefix_hits": 10,
            "kernels_reused": 9,
        }
        assert set(merged["patterns"]) == {"p1", "p2"}
        p1 = merged["patterns"]["p1"]
        assert p1["plan"] == "plan-p1"
        assert p1["reoptimizations"] == 2
        assert p1["partial_matches"]["live"] == 4
        assert p1["drift"]["max_drift"] == 4.0
        assert merged["patterns"]["p2"]["reoptimizations"] == 4


class TestPipelineIntrospection:
    def _run_pipeline(self, pattern, tmp_path, planner=None):
        """A default-built engine (no flag) serving the shifting stream with
        a decision log and checkpoints."""
        log = DecisionLog()
        engine = _engine(pattern, planner)
        pipeline = StreamingPipeline(
            engine,
            ReplaySource(_shifting_stream()),
            sinks=[CollectorSink()],
            checkpoint_store=CheckpointStore(str(tmp_path / "ckpt")),
            checkpoint_every=150,
            decision_log=log,
        )
        result = pipeline.run()
        return pipeline, result, log

    def test_drift_is_on_by_default(self, camera_pattern, tmp_path):
        planner = RecordingPlanner()
        pipeline, _, log = self._run_pipeline(camera_pattern, tmp_path, planner)

        # The replan records carry drift rows measured against the plan
        # each one retired.
        replans = log.query(type="replan")
        outgoing = _outgoing_results(pipeline.engine, planner)
        assert replans and len(replans) == len(outgoing)
        for decision, (_, retired) in zip(replans, outgoing):
            assert decision.detail["drift"]
            _assert_measured_against(decision.detail["drift"], retired)

        frame = pipeline.engine_introspection()
        assert frame["drift"]["pairs"]
        assert frame["drift"]["predicted_cost"] > 0

        body = render_prometheus(engine_introspection_samples(frame))
        assert "repro_plan_predicted_cost" in body
        assert "repro_cost_model_drift_ratio" in body
        with ControlPlane(pipeline) as control:
            with urllib.request.urlopen(f"{control.url}/engine", timeout=5) as response:
                payload = json.loads(response.read().decode("utf-8"))
            with urllib.request.urlopen(f"{control.url}/metrics", timeout=5) as response:
                scrape = response.read().decode("utf-8")
        assert payload["plan"] == frame["plan"]
        assert payload["drift"]["pairs"]
        assert "repro_plan_predicted_cost" in scrape

    def test_partial_match_high_water_sampled_and_reported(
        self, camera_pattern, tmp_path
    ):
        _, result, _ = self._run_pipeline(camera_pattern, tmp_path)
        assert result.metrics.partial_matches_high_water > 0
        row = result.metrics.as_row()
        assert row["partial_matches_high_water"] == float(
            result.metrics.partial_matches_high_water
        )

    def test_replan_decision_record_has_drift_context(self, camera_pattern, tmp_path):
        _, _, log = self._run_pipeline(camera_pattern, tmp_path)
        replans = log.query(type="replan")
        assert replans, "the seeded shift must produce a replan record"
        detail = replans[-1].detail
        assert detail["previous_cost"] > detail["new_cost"] > 0
        assert detail["trigger_distance"] is not None
        assert detail["drift"][0]["drift"] > 1.5
        # The record round-trips through JSON (the decision log's format).
        json.dumps(detail)

    def test_engine_endpoint_and_metrics_export(self, camera_pattern, tmp_path):
        pipeline, _, _ = self._run_pipeline(camera_pattern, tmp_path)
        frame = pipeline.engine_introspection()
        assert frame["plan"] and frame["counters"]["events_processed"] > 0
        assert "high_water" not in frame["partial_matches"]

        body = render_prometheus(engine_introspection_samples(frame))
        assert "repro_partial_matches_live" in body
        assert "repro_cost_model_drift_max" in body

        with ControlPlane(pipeline) as control:
            with urllib.request.urlopen(f"{control.url}/engine", timeout=5) as response:
                assert response.status == 200
                payload = json.loads(response.read().decode("utf-8"))
        assert payload["partial_matches"]["live"] == frame["partial_matches"]["live"]
        assert payload["drift"]["max_drift"] == frame["drift"]["max_drift"]


def _stock_pattern_set():
    stocks = StockDatasetSimulator(num_types=10, duration_hint=40, seed=5)
    events = stocks.generate(duration=40, seed=6, max_events=1500).to_list()
    return WorkloadGenerator(stocks, seed=1).composite_pattern(3), events


def _scrape(pipeline) -> str:
    with ControlPlane(pipeline) as control:
        with urllib.request.urlopen(f"{control.url}/metrics", timeout=30) as response:
            return response.read().decode("utf-8")


class TestMultiPatternIntrospection:
    """A pattern set keeps every pattern's plan and drift on ``/engine``
    and ``/metrics``, sharded or not, on every backend."""

    @pytest.mark.parametrize("backend_cls", [InlineBackend, ProcessWorkerBackend])
    def test_sharded_pattern_set_frame_keeps_every_pattern(self, backend_cls):
        patterns, events = _stock_pattern_set()
        engine = ParallelCEPEngine(
            patterns, GreedyOrderPlanner(), InvariantBasedPolicy(), shards=2
        )
        pipeline = StreamingPipeline(backend_cls(engine), ReplaySource(events))
        pipeline.run()
        frame = pipeline.engine_introspection()
        assert frame["shards"] == 2
        assert set(frame["patterns"]) == {p.name for p in patterns}
        for pattern_frame in frame["patterns"].values():
            assert pattern_frame["plan"]
            assert pattern_frame["drift"]["pairs"]
        assert frame["reoptimizations"] == sum(
            pattern_frame["reoptimizations"]
            for pattern_frame in frame["patterns"].values()
        )
        assert "sharing" in frame

    def test_pattern_set_scrape_labels_every_pattern(self):
        patterns, events = _stock_pattern_set()
        engine = MultiPatternEngine(
            patterns,
            GreedyOrderPlanner(),
            policy_factory=InvariantBasedPolicy,
        )
        pipeline = StreamingPipeline(engine, ReplaySource(events))
        pipeline.run()
        scrape = _scrape(pipeline)
        for pattern in patterns:
            label = f'pattern="{pattern.name}"'
            for name in (
                "repro_plan_predicted_cost",
                "repro_cost_model_drift_max",
                "repro_cost_model_drift_ratio",
            ):
                assert any(
                    line.startswith(name + "{") and label in line
                    for line in scrape.splitlines()
                ), f"{name} has no series for {pattern.name}"

    def test_single_pattern_series_carry_the_pattern_label(self, camera_pattern):
        pipeline = StreamingPipeline(_engine(camera_pattern), ReplaySource(_shifting_stream()))
        pipeline.run()
        assert (
            f'repro_plan_predicted_cost{{pattern="{camera_pattern.name}",pipeline="pipeline"}}'
            in _scrape(pipeline)
        )
