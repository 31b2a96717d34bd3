"""Tests for plan migration and the adaptive CEP engine facade."""

from __future__ import annotations

import pytest

from repro.adaptive import InvariantBasedPolicy, StaticPolicy, UnconditionalPolicy
from repro.conditions import AndCondition, EqualityCondition
from repro.engine import (
    AdaptiveCEPEngine,
    LazyNFAEngine,
    MultiPatternEngine,
    PlanMigrationManager,
    TreeEvaluationEngine,
    engine_for_plan,
)
from repro.errors import EngineError
from repro.events import Event, EventType, InMemoryEventStream
from repro.multi import PatternSet
from repro.optimizer import GreedyOrderPlanner, ZStreamTreePlanner
from repro.patterns import seq
from repro.plans import OrderBasedPlan, TreeBasedPlan
from repro.statistics import StatisticsSnapshot

from tests.conftest import brute_force_sequence_matches, make_camera_stream

A, B, C, D = EventType("A"), EventType("B"), EventType("C"), EventType("D")


def camera_pattern(window=10.0):
    condition = AndCondition(
        [EqualityCondition("a", "b", "person_id"), EqualityCondition("b", "c", "person_id")]
    )
    return seq([A, B, C], condition=condition, window=window)


def camera_snapshot():
    return StatisticsSnapshot(
        {"A": 6.0, "B": 2.5, "C": 1.5}, {("a", "b"): 0.2, ("b", "c"): 0.2}
    )


def ev(event_type, t, **payload):
    return Event(event_type, t, payload)


class TestEngineForPlan:
    def test_dispatch_by_plan_type(self):
        pattern = camera_pattern()
        assert isinstance(
            engine_for_plan(OrderBasedPlan.in_pattern_order(pattern)), LazyNFAEngine
        )
        assert isinstance(
            engine_for_plan(TreeBasedPlan.left_deep(pattern)), TreeEvaluationEngine
        )

    def test_unknown_plan_type_rejected(self):
        class FakePlan:
            pass

        with pytest.raises(EngineError):
            engine_for_plan(FakePlan())


class TestPlanMigrationManager:
    def test_switch_counts(self):
        pattern = camera_pattern()
        manager = PlanMigrationManager(
            LazyNFAEngine(OrderBasedPlan.in_pattern_order(pattern)), window=10.0
        )
        assert manager.switches_performed == 0
        manager.switch_to(LazyNFAEngine(OrderBasedPlan(pattern, ("c", "b", "a"))), 5.0)
        assert manager.switches_performed == 1
        assert manager.draining_count == 1

    def test_old_engine_retired_after_window(self):
        pattern = camera_pattern(window=5.0)
        manager = PlanMigrationManager(
            LazyNFAEngine(OrderBasedPlan.in_pattern_order(pattern)), window=5.0
        )
        manager.switch_to(LazyNFAEngine(OrderBasedPlan(pattern, ("c", "b", "a"))), 10.0)
        manager.process(ev(A, 11, person_id=1))
        assert manager.draining_count == 1
        manager.process(ev(A, 16, person_id=1))
        assert manager.draining_count == 0

    def test_no_duplicate_matches_across_switch(self):
        pattern = camera_pattern()
        manager = PlanMigrationManager(
            LazyNFAEngine(OrderBasedPlan.in_pattern_order(pattern)), window=10.0
        )
        matches = []
        matches.extend(manager.process(ev(A, 1, person_id=1)))
        manager.switch_to(LazyNFAEngine(OrderBasedPlan(pattern, ("c", "b", "a"))), 1.5)
        matches.extend(manager.process(ev(B, 2, person_id=1)))
        matches.extend(manager.process(ev(C, 3, person_id=1)))
        # The match spans the switch: only the old (draining) engine reports it.
        assert len(matches) == 1

    def test_all_new_match_reported_once_by_new_engine(self):
        pattern = camera_pattern()
        manager = PlanMigrationManager(
            LazyNFAEngine(OrderBasedPlan.in_pattern_order(pattern)), window=10.0
        )
        manager.process(ev(A, 1, person_id=9))
        manager.switch_to(LazyNFAEngine(OrderBasedPlan(pattern, ("c", "b", "a"))), 2.0)
        matches = []
        matches.extend(manager.process(ev(A, 3, person_id=1)))
        matches.extend(manager.process(ev(B, 4, person_id=1)))
        matches.extend(manager.process(ev(C, 5, person_id=1)))
        assert len(matches) == 1

    def test_counters_aggregate_over_engines(self):
        pattern = camera_pattern(window=3.0)
        manager = PlanMigrationManager(
            LazyNFAEngine(OrderBasedPlan.in_pattern_order(pattern)), window=3.0
        )
        manager.process(ev(A, 1, person_id=1))
        manager.switch_to(LazyNFAEngine(OrderBasedPlan(pattern, ("c", "b", "a"))), 2.0)
        manager.process(ev(A, 2.5, person_id=1))
        manager.process(ev(A, 30.0, person_id=1))  # retires the old engine
        counters = manager.total_counters()
        assert counters.events_processed >= 4
        assert counters.partial_matches_created >= 2
        assert manager.partial_match_count() >= 0

    def test_invalid_window_rejected(self):
        with pytest.raises(EngineError):
            PlanMigrationManager(
                LazyNFAEngine(OrderBasedPlan.in_pattern_order(camera_pattern())), window=0.0
            )


class TestAdaptiveCEPEngine:
    def test_match_counts_equal_brute_force_despite_adaptation(self):
        stream = make_camera_stream(count=300, seed=0)
        expected = brute_force_sequence_matches(
            stream, ["A", "B", "C"], window=10.0, key="person_id"
        )
        engine = AdaptiveCEPEngine(
            camera_pattern(),
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            initial_snapshot=camera_snapshot(),
            monitoring_interval=2.0,
        )
        result = engine.run(stream)
        assert result.match_count == expected
        assert result.metrics.events_processed == 300

    def test_zstream_engine_agrees_with_greedy_engine(self):
        stream = make_camera_stream(count=300, seed=0)
        greedy_result = AdaptiveCEPEngine(
            camera_pattern(), GreedyOrderPlanner(), InvariantBasedPolicy(),
            initial_snapshot=camera_snapshot(), monitoring_interval=2.0,
        ).run(stream)
        tree_result = AdaptiveCEPEngine(
            camera_pattern(), ZStreamTreePlanner(), InvariantBasedPolicy(k=3),
            initial_snapshot=camera_snapshot(), monitoring_interval=2.0,
        ).run(InMemoryEventStream(list(stream)))
        assert greedy_result.match_count == tree_result.match_count

    def test_static_policy_never_replaces_plan(self):
        engine = AdaptiveCEPEngine(
            camera_pattern(),
            GreedyOrderPlanner(),
            StaticPolicy(),
            initial_snapshot=camera_snapshot(),
            monitoring_interval=1.0,
        )
        engine.run(make_camera_stream(count=200, seed=2))
        assert engine.reoptimization_count() == 0
        assert len(engine.plan_history) == 1

    def test_unconditional_policy_tracks_overhead(self):
        engine = AdaptiveCEPEngine(
            camera_pattern(),
            GreedyOrderPlanner(),
            UnconditionalPolicy(),
            initial_snapshot=camera_snapshot(),
            monitoring_interval=1.0,
        )
        result = engine.run(make_camera_stream(count=200, seed=2))
        assert result.metrics.decisions_evaluated > 10
        assert result.metrics.time_in_generation > 0

    def test_default_initial_plan_is_pattern_order(self):
        engine = AdaptiveCEPEngine(
            camera_pattern(), GreedyOrderPlanner(), InvariantBasedPolicy()
        )
        assert engine.current_plan.order == ("a", "b", "c")

    def test_invalid_monitoring_interval(self):
        with pytest.raises(EngineError):
            AdaptiveCEPEngine(
                camera_pattern(),
                GreedyOrderPlanner(),
                InvariantBasedPolicy(),
                monitoring_interval=0.0,
            )

    def test_process_single_events(self):
        engine = AdaptiveCEPEngine(
            camera_pattern(),
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            initial_snapshot=camera_snapshot(),
        )
        assert engine.process(ev(A, 1, person_id=1)) == []
        assert engine.process(ev(B, 2, person_id=1)) == []
        matches = engine.process(ev(C, 3, person_id=1))
        assert len(matches) == 1

    def test_run_metrics_fields(self):
        engine = AdaptiveCEPEngine(
            camera_pattern(),
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            initial_snapshot=camera_snapshot(),
        )
        metrics = engine.run(make_camera_stream(count=100, seed=4)).metrics
        assert metrics.throughput > 0
        assert 0.0 <= metrics.overhead_fraction <= 1.0
        assert metrics.partial_matches_created > 0


class TestMultiPatternEngine:
    def composite(self):
        first = seq(
            [A, B], condition=EqualityCondition("a", "b", "person_id"), window=5, name="p1"
        )
        second = seq(
            [C, D], condition=EqualityCondition("c", "d", "person_id"), window=5, name="p2"
        )
        return PatternSet([first, second])

    def test_requires_composite_pattern(self):
        with pytest.raises(EngineError):
            MultiPatternEngine(
                camera_pattern(), GreedyOrderPlanner(), InvariantBasedPolicy
            )

    def test_union_of_subpattern_matches(self):
        engine = MultiPatternEngine(
            self.composite(), GreedyOrderPlanner(), InvariantBasedPolicy
        )
        events = [
            ev(A, 1, person_id=1),
            ev(B, 2, person_id=1),
            ev(C, 3, person_id=2),
            ev(D, 4, person_id=2),
        ]
        matches = []
        for event in events:
            matches.extend(engine.process(event))
        assert {match.pattern_name for match in matches} == {"p1", "p2"}

    def test_run_aggregates_metrics(self):
        engine = MultiPatternEngine(
            self.composite(), GreedyOrderPlanner(), InvariantBasedPolicy
        )
        stream = InMemoryEventStream(
            [ev(A, 1, person_id=1), ev(B, 2, person_id=1), ev(C, 3, person_id=1), ev(D, 4, person_id=1)]
        )
        result = engine.run(stream)
        assert result.metrics.events_processed == 4
        assert result.match_count == 2
        assert len(result.plan_history) >= 2

    def test_each_subpattern_gets_own_policy(self):
        engine = MultiPatternEngine(
            self.composite(), GreedyOrderPlanner(), InvariantBasedPolicy
        )
        policies = {id(sub.policy) for sub in engine.sub_engines}
        assert len(policies) == 2
