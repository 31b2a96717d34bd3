"""Tests for the tree (ZStream-style) evaluation engine."""

from __future__ import annotations

import json
import random

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.conditions import (
    AndCondition,
    AttributeComparisonCondition,
    AttributeThresholdCondition,
    EqualityCondition,
)
from repro.engine import AdaptiveCEPEngine, LazyNFAEngine, TreeEvaluationEngine
from repro.engine.state import restore_engine, snapshot_engine
from repro.errors import EngineError
from repro.events import Event, EventType
from repro.patterns import Pattern, PatternItem, PatternOperator, conjunction, seq
from repro.plans import OrderBasedPlan, TreeBasedPlan
from repro.optimizer import ZStreamTreePlanner
from repro.statistics import StatisticsCollector
from repro.streaming.sinks import match_record

from tests.conftest import brute_force_sequence_matches, make_camera_stream

A, B, C, D = EventType("A"), EventType("B"), EventType("C"), EventType("D")


def camera_pattern(window=10.0):
    condition = AndCondition(
        [EqualityCondition("a", "b", "person_id"), EqualityCondition("b", "c", "person_id")]
    )
    return seq([A, B, C], condition=condition, window=window)


def run_engine(engine, events):
    matches = []
    for event in events:
        matches.extend(engine.process(event))
    return matches


def ev(event_type, t, **payload):
    return Event(event_type, t, payload)


class TestBasicMatching:
    def test_simple_sequence_match(self):
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(camera_pattern()))
        events = [ev(A, 1, person_id=1), ev(B, 2, person_id=1), ev(C, 3, person_id=1)]
        assert len(run_engine(engine, events)) == 1

    def test_condition_filters_matches(self):
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(camera_pattern()))
        events = [ev(A, 1, person_id=1), ev(B, 2, person_id=9), ev(C, 3, person_id=1)]
        assert run_engine(engine, events) == []

    def test_temporal_order_enforced(self):
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(camera_pattern()))
        events = [ev(B, 1, person_id=1), ev(A, 2, person_id=1), ev(C, 3, person_id=1)]
        assert run_engine(engine, events) == []

    def test_window_enforced(self):
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(camera_pattern(window=5)))
        events = [ev(A, 1, person_id=1), ev(B, 2, person_id=1), ev(C, 30, person_id=1)]
        assert run_engine(engine, events) == []

    def test_tree_shape_does_not_change_results(self):
        pattern = camera_pattern()
        events = [
            ev(A, 1, person_id=1),
            ev(A, 1.5, person_id=1),
            ev(B, 2, person_id=1),
            ev(C, 3, person_id=1),
        ]
        left = TreeEvaluationEngine(TreeBasedPlan.left_deep(pattern))
        right = TreeEvaluationEngine(TreeBasedPlan.right_deep(pattern))
        assert len(run_engine(left, list(events))) == len(run_engine(right, list(events))) == 2

    def test_conjunction_any_order(self):
        pattern = conjunction(
            [A, B, C],
            condition=AndCondition(
                [EqualityCondition("a", "b", "person_id"), EqualityCondition("b", "c", "person_id")]
            ),
            window=10,
        )
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(pattern))
        events = [ev(C, 1, person_id=1), ev(B, 2, person_id=1), ev(A, 3, person_id=1)]
        assert len(run_engine(engine, events)) == 1

    def test_local_condition_filters_at_leaf(self):
        pattern = seq(
            [A, B], condition=AttributeThresholdCondition("a", "speed", "<", 50), window=10
        )
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(pattern))
        events = [ev(A, 1, speed=90), ev(B, 2), ev(A, 3, speed=10), ev(B, 4)]
        assert len(run_engine(engine, events)) == 1

    def test_requires_tree_plan(self):
        with pytest.raises(EngineError):
            TreeEvaluationEngine(OrderBasedPlan.in_pattern_order(camera_pattern()))

    def test_four_leaf_tree(self):
        condition = AndCondition(
            [
                EqualityCondition("a", "b", "person_id"),
                EqualityCondition("c", "d", "person_id"),
            ]
        )
        pattern = seq([A, B, C, D], condition=condition, window=10)
        engine = TreeEvaluationEngine(TreeBasedPlan.right_deep(pattern))
        events = [
            ev(A, 1, person_id=1),
            ev(B, 2, person_id=1),
            ev(C, 3, person_id=2),
            ev(D, 4, person_id=2),
        ]
        assert len(run_engine(engine, events)) == 1


class TestAgainstBruteForceAndNFA:
    def test_tree_matches_brute_force(self):
        pattern = camera_pattern()
        stream = make_camera_stream(count=250, seed=11)
        expected = brute_force_sequence_matches(
            stream, ["A", "B", "C"], window=10.0, key="person_id"
        )
        engine = TreeEvaluationEngine(TreeBasedPlan.right_deep(pattern))
        assert len(run_engine(engine, stream)) == expected

    def test_tree_and_nfa_agree_on_match_sets(self):
        pattern = camera_pattern()
        stream = make_camera_stream(count=200, seed=13)
        nfa = LazyNFAEngine(OrderBasedPlan(pattern, ("c", "b", "a")))
        tree = TreeEvaluationEngine(TreeBasedPlan.left_deep(pattern))
        nfa_matches = {m.event_ids() for m in run_engine(nfa, stream)}
        tree_matches = {m.event_ids() for m in run_engine(tree, stream)}
        assert nfa_matches == tree_matches


class TestPartialMatchAccounting:
    def test_cheaper_tree_stores_fewer_submatches(self):
        pattern = camera_pattern()
        stream = make_camera_stream(count=400, seed=17)  # A much more frequent
        # Joining the rare types (B, C) first stores fewer intermediate matches
        # than joining A with B first.
        expensive = TreeEvaluationEngine(TreeBasedPlan.left_deep(pattern))
        cheap = TreeEvaluationEngine(TreeBasedPlan.right_deep(pattern))
        run_engine(expensive, stream)
        run_engine(cheap, stream)
        assert (
            cheap.counters.partial_matches_created
            < expensive.counters.partial_matches_created
        )

    def test_stored_match_counts_by_node(self):
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(camera_pattern()))
        run_engine(
            engine,
            [ev(A, 1, person_id=1), ev(B, 2, person_id=1), ev(C, 3, person_id=1)],
        )
        counts = engine.stored_match_counts()
        assert counts[("a",)] == 1
        assert counts[("a", "b")] == 1

    def test_expiry_prunes_stores(self):
        pattern = camera_pattern(window=2.0)
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(pattern))
        engine.process(ev(A, 1, person_id=1))
        engine.process(ev(A, 50, person_id=1))
        engine.expire(50.0)
        assert engine.partial_match_count() == 1

    def test_collector_receives_condition_feedback(self):
        collector = StatisticsCollector(window=50.0)
        pattern = camera_pattern()
        collector.register_pattern(pattern)
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(pattern), collector)
        run_engine(engine, make_camera_stream(count=200, seed=19))
        assert 0.05 < collector.snapshot().selectivity("a", "b") < 0.5


class TestNegationAndKleene:
    def test_negation_suppression(self):
        items = [
            PatternItem("a", A),
            PatternItem("n", B, negated=True),
            PatternItem("c", C),
        ]
        condition = AndCondition(
            [EqualityCondition("a", "c", "person_id"), EqualityCondition("a", "n", "person_id")]
        )
        pattern = Pattern(PatternOperator.SEQUENCE, items, condition=condition, window=10)
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(pattern))
        blocked = run_engine(
            engine,
            [ev(A, 1, person_id=1), ev(B, 2, person_id=1), ev(C, 3, person_id=1)],
        )
        assert blocked == []
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(pattern))
        allowed = run_engine(engine, [ev(A, 1, person_id=1), ev(C, 3, person_id=1)])
        assert len(allowed) == 1

    def test_kleene_expansion(self):
        items = [
            PatternItem("a", A),
            PatternItem("k", B, kleene=True),
            PatternItem("c", C),
        ]
        condition = AndCondition(
            [EqualityCondition("a", "k", "person_id"), EqualityCondition("a", "c", "person_id")]
        )
        pattern = Pattern(PatternOperator.SEQUENCE, items, condition=condition, window=10)
        engine = TreeEvaluationEngine(TreeBasedPlan.left_deep(pattern))
        matches = run_engine(
            engine,
            [
                ev(A, 1, person_id=1),
                ev(B, 2, person_id=1),
                ev(B, 2.5, person_id=1),
                ev(C, 3, person_id=1),
            ],
        )
        assert len(matches) == 1
        assert len(matches[0]["k"]) == 2


class TestRestoreAndContinue:
    """A checkpointed tree engine resumes exactly where it stopped."""

    TYPES = [EventType(f"S{i}") for i in range(5)]

    def pattern(self):
        variables = "abcd"
        conditions = [
            AttributeThresholdCondition(variable, "load", "<", 0.6) for variable in variables
        ]
        conditions += [
            AttributeComparisonCondition(first, f"level{i}", "<", second, f"level{i}")
            for i, (first, second) in enumerate(zip(variables, variables[1:]))
        ]
        items = [PatternItem(v, t) for v, t in zip(variables, self.TYPES)]
        return Pattern(
            PatternOperator.CONJUNCTION, items, condition=AndCondition(conditions), window=1.0
        )

    def stream(self, count=1500, seed=5):
        rng = random.Random(seed)
        events, t = [], 0.0
        for index in range(count):
            t += rng.expovariate(20.0)
            payload = {"load": rng.random()}
            payload.update({f"level{i}": rng.gauss(50.0, 20.0) for i in range(3)})
            events.append(Event(rng.choice(self.TYPES), t, payload, sequence_number=index))
        return events

    def lines(self, engine, events):
        return [json.dumps(match_record(m)) for event in events for m in engine.process(event)]

    @pytest.mark.parametrize("compile_mode", ["interpreted", "compiled", "indexed"])
    def test_tree_engine_resumes_byte_identical(self, compile_mode):
        pattern, events = self.pattern(), self.stream()

        def build():
            return TreeEvaluationEngine(
                TreeBasedPlan.left_deep(pattern), compile_mode=compile_mode
            )

        expected = self.lines(build(), events)
        assert expected
        for cut in (1, 400, 777, 1499):
            engine = build()
            served = self.lines(engine, events[:cut])
            served += self.lines(restore_engine(snapshot_engine(engine)), events[cut:])
            assert served == expected, f"restored at event {cut}"

    def test_adaptive_tree_engine_resumes_byte_identical(self):
        pattern, events = self.pattern(), self.stream()

        def build():
            return AdaptiveCEPEngine(
                pattern,
                ZStreamTreePlanner(),
                InvariantBasedPolicy(distance=0.1),
                monitoring_interval=2.0,
                compile_mode="compiled",
            )

        expected = self.lines(build(), events)
        assert expected
        engine = build()
        served = self.lines(engine, events[:750])
        assert engine.partial_match_count() > 0
        restored = restore_engine(snapshot_engine(engine))
        served += self.lines(restored, events[750:])
        assert served == expected
