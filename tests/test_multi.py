"""Tests for shared one-pass multi-pattern serving (the ``repro.multi`` stack).

Covers the pattern registry, the constructor's input coercion, the common
evaluator protocol, match provenance, the cost-model sharing decision
(including evidence-driven plan reordering) and the headline guarantee:
N patterns served by one shared pipeline produce per-pattern match sets
byte-identical to N isolated pipelines — across compile modes and across
a kill/resume cycle.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.engine import AdaptiveCEPEngine, MultiPatternEngine
from repro.engine.protocol import CEPEngine
from repro.errors import EngineError, PatternError
from repro.events import EventType
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_dataset, build_workload
from repro.multi import (
    PatternSet,
    PrefixShareManager,
    SharedStatisticsHub,
    SuffixNFAEngine,
    as_pattern_set,
)
from repro.optimizer import GreedyOrderPlanner
from repro.parallel import ParallelCEPEngine
from repro.patterns import CompositePattern, PatternItem, Pattern, seq
from repro.patterns.operators import PatternOperator
from repro.plans import OrderBasedPlan
from repro.statistics import StatisticsSnapshot
from repro.streaming.sinks import match_record

A, B, C, D = EventType("A"), EventType("B"), EventType("C"), EventType("D")


def _family(count=4, size=4, duration=30.0, max_events=1500):
    """A small stocks workload family with a shared prefix, plus its stream."""
    config = ExperimentConfig(
        dataset="stocks", duration=duration, max_events=max_events
    )
    dataset = build_dataset(config)
    workload = build_workload(config, dataset)
    patterns = workload.similar_sequence_patterns(count, size=size)
    events = dataset.generate(
        duration=config.duration,
        seed=config.stream_seed,
        max_events=config.max_events,
    ).to_list()
    return patterns, events


def _per_pattern_records(patterns, matches):
    per_pattern = {p.name: [] for p in patterns}
    for match in matches:
        per_pattern[match.pattern_name].append(json.dumps(match_record(match)))
    return {name: sorted(records) for name, records in per_pattern.items()}


def _isolated_records(patterns, events, compile_mode="interpreted"):
    records = {}
    for pattern in patterns:
        engine = AdaptiveCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            monitoring_interval=1.0,
            compile_mode=compile_mode,
        )
        records[pattern.name] = sorted(
            json.dumps(match_record(m)) for m in engine.process_batch(events)
        )
    return records


def _shared_engine(patterns, compile_mode="interpreted"):
    return MultiPatternEngine(
        PatternSet(patterns),
        GreedyOrderPlanner(),
        policy_factory=InvariantBasedPolicy,
        monitoring_interval=1.0,
        compile_mode=compile_mode,
    )


class TestPatternSet:
    def test_registry_round_trip(self):
        p1 = seq([A, B], window=5.0, name="p1")
        p2 = seq([C, D], window=5.0, name="p2")
        registry = PatternSet([p1])
        assert registry.add(p2) == "p2"
        assert registry.get("p2") is p2
        assert registry.ids() == ("p1", "p2")
        assert registry.id_for("p1") == "p1"
        assert len(registry) == 2 and "p1" in registry
        assert registry.remove("p1") is p1
        # Removing one pattern never renames another: ids are stable.
        assert registry.ids() == ("p2",)

    def test_explicit_ids_and_uniqueness(self):
        p1 = seq([A, B], window=5.0, name="p1")
        registry = PatternSet()
        assert registry.add(p1, pattern_id="deploy-7") == "deploy-7"
        assert registry.id_for("p1") == "deploy-7"
        with pytest.raises(PatternError):
            registry.add(seq([C, D], window=5.0, name="p1"))
        with pytest.raises(PatternError):
            registry.add(seq([C, D], window=5.0, name="other"), pattern_id="deploy-7")
        with pytest.raises(PatternError):
            registry.add("not a pattern")

    def test_composite_compatible_surface(self):
        p1 = seq([A, B], window=5.0, name="p1")
        p2 = seq([C, D], window=9.0, name="p2")
        registry = PatternSet([p1, p2], name="deploys")
        assert registry.operator is PatternOperator.DISJUNCTION
        assert registry.name == "deploys"
        assert registry.window == 9.0
        assert registry.subpatterns() == (p1, p2)
        assert {t.name for t in registry.event_types()} == {"A", "B", "C", "D"}

    def test_as_pattern_set_coercions(self):
        p1 = seq([A, B], window=5.0, name="p1")
        p2 = seq([C, D], window=5.0, name="p2")
        registry = PatternSet([p1, p2])
        assert as_pattern_set(registry) is registry
        assert as_pattern_set([p1, p2]).ids() == ("p1", "p2")
        composite = CompositePattern([p1, p2], name="legacy")
        coerced = as_pattern_set(composite)
        assert coerced.name == "legacy" and coerced.subpatterns() == (p1, p2)
        with pytest.raises(PatternError):
            as_pattern_set(p1)


class TestConstructorShim:
    def test_plain_list_constructor(self):
        p1 = seq([A, B], window=5.0, name="p1")
        p2 = seq([C, D], window=5.0, name="p2")
        engine = MultiPatternEngine(
            [p1, p2], GreedyOrderPlanner(), InvariantBasedPolicy
        )
        assert engine.pattern_set.ids() == ("p1", "p2")

    def test_composite_pattern_accepted_without_warning(self):
        p1 = seq([A, B], window=5.0, name="p1")
        p2 = seq([C, D], window=5.0, name="p2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = MultiPatternEngine(
                CompositePattern([p1, p2]), GreedyOrderPlanner(), InvariantBasedPolicy
            )
        assert engine.pattern_set.ids() == ("p1", "p2")

    def test_bare_pattern_keeps_historical_engine_error(self):
        with pytest.raises(EngineError, match="PatternSet, a CompositePattern or"):
            MultiPatternEngine(
                seq([A, B], window=5.0), GreedyOrderPlanner(), InvariantBasedPolicy
            )
        with pytest.raises(EngineError, match="non-empty list"):
            MultiPatternEngine([], GreedyOrderPlanner(), InvariantBasedPolicy)


class TestEvaluatorProtocol:
    def test_all_three_facades_conform(self):
        pattern = seq([A, B], window=5.0, name="p1")
        single = AdaptiveCEPEngine(
            pattern, GreedyOrderPlanner(), InvariantBasedPolicy()
        )
        multi = MultiPatternEngine(
            [pattern, seq([C, D], window=5.0, name="p2")],
            GreedyOrderPlanner(),
            InvariantBasedPolicy,
        )
        parallel = ParallelCEPEngine(
            pattern, GreedyOrderPlanner(), InvariantBasedPolicy(), shards=2
        )
        for engine in (single, multi, parallel):
            assert isinstance(engine, CEPEngine)


class TestProvenance:
    def test_matches_carry_registry_ids(self):
        patterns, events = _family(count=3)
        registry = PatternSet()
        ids = [
            registry.add(pattern, pattern_id=f"deploy-{index}")
            for index, pattern in enumerate(patterns)
        ]
        engine = MultiPatternEngine(
            registry, GreedyOrderPlanner(), InvariantBasedPolicy
        )
        matches = engine.process_batch(events)
        assert matches, "workload family produced no matches to tag"
        assert {m.pattern_id for m in matches} <= set(ids)
        for match in matches:
            assert registry.get(match.pattern_id).name == match.pattern_name


class TestSharingDecision:
    """Unit tests of the cost-model sharing choice on hand-built statistics."""

    def _patterns(self):
        shared = [PatternItem("a", A), PatternItem("b", B)]
        p1 = Pattern(
            PatternOperator.SEQUENCE, shared + [PatternItem("c", C)],
            window=10.0, name="p1",
        )
        p2 = Pattern(
            PatternOperator.SEQUENCE, shared + [PatternItem("c", D)],
            window=10.0, name="p2",
        )
        return p1, p2

    def _manager(self):
        manager = PrefixShareManager(SharedStatisticsHub(window=50.0))
        p1, p2 = self._patterns()
        manager.register(p1)
        manager.register(p2)
        return manager, p1

    class _StubCollector:
        def __init__(self, snapshot):
            self._snapshot = snapshot

        def snapshot(self, now=None):
            return self._snapshot

        def share_selectivity(self, a, b, estimator):
            pass

    def test_reorders_when_saving_beats_penalty(self):
        manager, p1 = self._manager()
        # Solo-optimal order leads with the suffix variable; the rates make
        # the per-member prefix saving (8) larger than the reordering
        # penalty (cost 40 shared vs 34 solo).
        plan = OrderBasedPlan(p1, ("c", "a", "b"))
        snapshot = StatisticsSnapshot({"A": 4.0, "B": 3.0, "C": 2.0, "D": 2.0}, {})
        engine = manager(plan, self._StubCollector(snapshot))
        assert isinstance(engine, SuffixNFAEngine)
        assert engine.plan.order == ("a", "b", "c")
        assert engine.prefix_variables == ("a", "b")

    def test_keeps_planner_order_when_penalty_dominates(self):
        manager, p1 = self._manager()
        plan = OrderBasedPlan(p1, ("c", "a", "b"))
        # A near-silent suffix type makes the solo plan nearly free, so
        # deviating from it costs more than the shared prefix saves.
        snapshot = StatisticsSnapshot({"A": 4.0, "B": 3.0, "C": 0.01, "D": 0.01}, {})
        engine = manager(plan, self._StubCollector(snapshot))
        assert not isinstance(engine, SuffixNFAEngine)

    def test_no_reorder_without_rate_evidence(self):
        manager, p1 = self._manager()
        plan = OrderBasedPlan(p1, ("c", "a", "b"))
        engine = manager(plan, self._StubCollector(StatisticsSnapshot({}, {})))
        assert not isinstance(engine, SuffixNFAEngine)

    def test_wants_resharing_upgrades_then_settles(self):
        manager, p1 = self._manager()
        plan = OrderBasedPlan(p1, ("c", "a", "b"))
        snapshot = StatisticsSnapshot({"A": 4.0, "B": 3.0, "C": 2.0, "D": 2.0}, {})
        collector = self._StubCollector(snapshot)
        standalone = manager(OrderBasedPlan(p1, ("c", "a", "b")), None)
        assert manager.wants_resharing(plan, standalone, collector)
        shared = manager(plan, collector)
        # Already shared at the deepest structural prefix: no oscillation.
        assert not manager.wants_resharing(plan, shared, collector)


class TestSharedVsIsolated:
    @pytest.mark.parametrize("compile_mode", ["interpreted", "compiled", "indexed"])
    def test_byte_identical_per_pattern_matches(self, compile_mode):
        patterns, events = _family(count=4)
        expected = _isolated_records(patterns, events, compile_mode)
        engine = _shared_engine(patterns, compile_mode)
        actual = _per_pattern_records(patterns, engine.process_batch(events))
        assert actual == expected
        assert sum(len(r) for r in expected.values()) > 0
        assert engine.prefix_hits_total() > 0, "prefix sharing never engaged"

    def test_kill_resume_preserves_match_sets(self):
        patterns, events = _family(count=4)
        expected = _isolated_records(patterns, events)
        engine = _shared_engine(patterns)
        half = len(events) // 2
        matches = engine.process_batch(events[:half])
        blob = engine.snapshot_state()
        resumed = MultiPatternEngine.restore_state(blob)
        matches.extend(resumed.process_batch(events[half:]))
        assert _per_pattern_records(patterns, matches) == expected

    def test_compiled_mode_reuses_kernels_across_patterns(self):
        from repro.compile import kernels_reused_total

        patterns, events = _family(count=4)
        before = kernels_reused_total()
        engine = _shared_engine(patterns, "compiled")
        engine.process_batch(events[:200])
        assert kernels_reused_total() > before


class TestRoutingHygiene:
    def test_memberless_groups_leave_the_event_path(self):
        patterns, events = _family(count=3)
        engine = _shared_engine(patterns)
        engine.process_batch(events[:400])
        groups = engine.share_manager.groups()
        assert any(group.member_count > 0 for group in groups)
        # Forcibly retire every member: the next routing rebuild must stop
        # feeding events to the now-memberless groups (until an adaptation
        # step legitimately re-shares a pattern into one, which re-adds it
        # with a fresh member).
        for group in groups:
            group._members.clear()
            group._pending.clear()
        engine._reset_routing()
        engine.process_batch(events[400:600])
        routed = [
            group
            for groups_for_type in engine._group_routes.values()
            for group in groups_for_type
        ]
        assert all(group.member_count > 0 for group in routed)
