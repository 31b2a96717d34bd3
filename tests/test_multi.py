"""Tests for shared one-pass multi-pattern serving (the ``repro.multi`` stack).

Covers the pattern registry, the constructor's input coercion, the common
evaluator protocol, match provenance, the cost-model sharing decision
(including evidence-driven plan reordering) and the headline guarantee:
N patterns served by one shared pipeline produce per-pattern match sets
byte-identical to N isolated pipelines — across compile modes and across
a kill/resume cycle — and the one monitoring tick the engine owns for
all its patterns.
"""

from __future__ import annotations

import collections
import json

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.datasets import StockDatasetSimulator
from repro.engine import (
    AdaptiveCEPEngine,
    MultiPatternEngine,
    restore_engine,
    snapshot_engine,
)
from repro.engine.protocol import CEPEngine
from repro.errors import EngineError, PatternError
from repro.events import EventType
from repro.experiments.config import ExperimentConfig
from repro.experiments.method_comparison import compare_methods
from repro.experiments.runner import build_dataset, build_workload
from repro.multi import (
    PatternSet,
    PrefixShareManager,
    SharedStatisticsCollector,
    SharedStatisticsHub,
    SuffixNFAEngine,
)
from repro.optimizer import GreedyOrderPlanner
from repro.parallel import ParallelCEPEngine
from repro.patterns import PatternItem, Pattern, seq
from repro.patterns.operators import PatternOperator
from repro.plans import OrderBasedPlan
from repro.statistics import StatisticsCollector, StatisticsSnapshot
from repro.statistics.sliding_window import SlidingWindowRateEstimator
from repro.streaming import DeltaTracker, materialize_engine_blob
from repro.streaming.sinks import match_record
from repro.workloads import WorkloadGenerator

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


def _tick_times(events, interval=1.0):
    """The timestamps a monitoring tick fires at: the first event at least
    ``interval`` after the previous tick (or after the first event)."""
    ticks = []
    next_tick = None
    for event in events:
        now = event.timestamp
        if next_tick is None:
            next_tick = now + interval
        elif now >= next_tick:
            ticks.append(now)
            next_tick = now + interval
    return ticks


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
            json.dumps(match_record(m)) for m in engine.run(events).matches
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


class TestConstructorShim:
    def test_plain_list_constructor(self):
        p1 = seq([A, B], window=5.0, name="p1")
        p2 = seq([C, D], window=5.0, name="p2")
        engine = MultiPatternEngine(
            [p1, p2], GreedyOrderPlanner(), InvariantBasedPolicy
        )
        assert isinstance(engine.pattern, PatternSet)
        assert engine.pattern.ids() == ("p1", "p2")
        # Sharing is always on: the frame has no switch to report.
        assert set(engine.introspection()["sharing"]) == {
            "groups",
            "prefix_hits",
            "kernels_reused",
        }

    def test_bare_pattern_keeps_historical_engine_error(self):
        with pytest.raises(EngineError, match="PatternSet or a non-empty list"):
            MultiPatternEngine(
                seq([A, B], window=5.0), GreedyOrderPlanner(), InvariantBasedPolicy
            )
        with pytest.raises(EngineError, match="non-empty list"):
            MultiPatternEngine([], GreedyOrderPlanner(), InvariantBasedPolicy)


class TestCompositePath:
    """The paper's composite family — a disjunction of three sequences —
    through the multi-pattern engine and the method comparison.  The
    literals were recorded before the composite type became a
    ``PatternSet``; the engine must still install the same plans, tag the
    same provenance and find the same matches."""

    def test_composite_pattern_through_multi_engine(self):
        stocks = StockDatasetSimulator(duration_hint=60.0)
        composite = WorkloadGenerator(stocks, seed=1).composite_pattern(3)
        events = stocks.generate(duration=60.0, seed=5, max_events=2000).to_list()
        engine = MultiPatternEngine(
            composite,
            GreedyOrderPlanner(),
            InvariantBasedPolicy,
            monitoring_interval=1.0,
        )
        result = engine.run(events)
        assert dict(collections.Counter(m.pattern_name for m in result.matches)) == {
            "stocks-seq-3-0": 14,
            "stocks-seq-3-1": 50,
            "stocks-seq-3-2": 76,
        }
        assert result.plan_history == [
            "OrderBasedPlan[K11 -> K00 -> K03]",
            "OrderBasedPlan[K00 -> K03 -> K11]",
            "OrderBasedPlan[K00 -> K11 -> K03]",
            "OrderBasedPlan[K00 -> K03 -> K11]",
            "OrderBasedPlan[K03 -> K00 -> K11]",
            "OrderBasedPlan[K00 -> K11 -> K03]",
            "OrderBasedPlan[K00 -> K03 -> K11]",
            "OrderBasedPlan[K00 -> K11 -> K03]",
            "OrderBasedPlan[K11 -> K01 -> K06]",
            "OrderBasedPlan[K01 -> K11 -> K06]",
            "OrderBasedPlan[K11 -> K01 -> K06]",
            "OrderBasedPlan[K06 -> K01 -> K11]",
            "OrderBasedPlan[K01 -> K11 -> K06]",
            "OrderBasedPlan[K03 -> K11 -> K00]",
            "OrderBasedPlan[K00 -> K11 -> K03]",
        ]
        assert all(m.pattern_id == m.pattern_name for m in result.matches)
        assert {m.pattern_id for m in result.matches} == {
            subpattern.name for subpattern in composite.subpatterns()
        }
        assert engine.work_metrics().reoptimizations == 12

    def test_compare_methods_composite_row(self):
        config = ExperimentConfig(
            dataset="stocks",
            algorithm="greedy",
            duration=40.0,
            max_events=1500,
            sizes=(3,),
            monitoring_interval=2.0,
            pattern_families=("composite",),
        )
        (row,) = compare_methods(config).rows_for_method("invariant")
        assert {
            key: row[key] for key in ("size", "reoptimizations", "matches", "partial_matches")
        } == {"size": 3, "reoptimizations": 6.0, "matches": 145.0, "partial_matches": 1201.0}


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
        matches = engine.run(events).matches
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

    def test_probe_without_shareable_prefix_takes_no_snapshot(self, monkeypatch):
        hub = SharedStatisticsHub(window=50.0)
        manager = PrefixShareManager(hub)
        p1, p2 = self._patterns()
        lone = Pattern(
            PatternOperator.SEQUENCE,
            [PatternItem("a", C), PatternItem("b", D), PatternItem("c", A)],
            window=10.0, name="lone",
        )
        for pattern in (p1, p2, lone):
            manager.register(pattern)
        collector = SharedStatisticsCollector(hub)
        collector.register_pattern(lone)
        plan = OrderBasedPlan(lone, ("a", "b", "c"))
        engine = manager(plan, collector)
        assert not isinstance(engine, SuffixNFAEngine)

        calls = []
        snapshot = StatisticsCollector.snapshot

        def counted(self, now=None):
            calls.append(now)
            return snapshot(self, now)

        monkeypatch.setattr(StatisticsCollector, "snapshot", counted)
        for _ in range(3):
            assert not manager.wants_resharing(plan, engine, collector)
        assert calls == []


class TestSharedVsIsolated:
    @pytest.mark.parametrize("compile_mode", ["interpreted", "compiled", "indexed"])
    def test_byte_identical_per_pattern_matches(self, compile_mode):
        patterns, events = _family(count=4)
        expected = _isolated_records(patterns, events, compile_mode)
        engine = _shared_engine(patterns, compile_mode)
        actual = _per_pattern_records(patterns, engine.run(events).matches)
        assert actual == expected
        assert sum(len(r) for r in expected.values()) > 0
        assert engine.prefix_hits_total() > 0, "prefix sharing never engaged"

    def test_kill_resume_preserves_match_sets(self):
        patterns, events = _family(count=4)
        expected = _isolated_records(patterns, events)
        engine = _shared_engine(patterns)
        half = len(events) // 2
        matches = engine.run(events[:half]).matches
        resumed = restore_engine(snapshot_engine(engine))
        assert isinstance(resumed, MultiPatternEngine)
        matches.extend(resumed.run(events[half:]).matches)
        assert _per_pattern_records(patterns, matches) == expected

    def test_delta_chain_resume_preserves_match_sets(self):
        patterns, events = _family(count=4)
        expected = _isolated_records(patterns, events)
        engine = _shared_engine(patterns)
        # Cut early: on this stream the shared prefixes keep earning hits
        # only through its first half.
        step = len(events) // 12
        matches = []
        for event in events[:step]:
            matches.extend(engine.process(event))
        base = snapshot_engine(engine)
        tracker = DeltaTracker(engine)
        tracker.prime(0)
        frames = []
        for epoch in (1, 2):
            for event in events[epoch * step : (epoch + 1) * step]:
                matches.extend(engine.process(event))
            frames.append(tracker.encode_frame(epoch - 1, epoch))
        assert tracker.last_kind == "delta"
        resumed = restore_engine(materialize_engine_blob(base, frames))
        hits = resumed.prefix_hits_total()
        assert hits == engine.prefix_hits_total() > 0
        for event in events[3 * step :]:
            matches.extend(resumed.process(event))
        assert _per_pattern_records(patterns, matches) == expected
        assert resumed.prefix_hits_total() > hits, "sharing stopped after the restore"

    def test_compiled_mode_reuses_kernels_across_patterns(self):
        from repro.compile import kernels_reused_total

        patterns, events = _family(count=4)
        before = kernels_reused_total()
        engine = _shared_engine(patterns, "compiled")
        engine.run(events[:200])
        assert kernels_reused_total() > before


class TestMonitoringTick:
    """The multi-pattern engine owns one monitoring tick for every pattern."""

    def test_patterns_decide_together_on_engine_ticks(self, monkeypatch):
        patterns, events = _family(count=4)
        reads = []
        rate = SlidingWindowRateEstimator.rate

        def counted(self, now=None):
            reads.append((id(self), now))
            return rate(self, now)

        monkeypatch.setattr(SlidingWindowRateEstimator, "rate", counted)
        engine = _shared_engine(patterns)
        engine.run(events)

        ticks = _tick_times(events)
        assert len(ticks) > 10
        replacements = []
        for adaptive in engine.sub_engines:
            statistics = adaptive.controller.statistics
            assert statistics.decisions_evaluated == len(ticks)
            replacements.extend(record.time for record in statistics.replacements)
        assert replacements, "no pattern re-planned on this stream"
        assert set(replacements) <= set(ticks)

        hub = engine.statistics_hub
        estimators = {id(hub.rate_estimator(name)) for name in hub.tracked_types}
        per_tick = {(estimator, tick): 0 for estimator in estimators for tick in ticks}
        for key in reads:
            if key in per_tick:
                per_tick[key] += 1
        assert set(per_tick.values()) == {1}

    def test_tick_survives_full_and_delta_checkpoints(self):
        patterns, events = _family(count=4)
        ticks = _tick_times(events)
        tick_indexes = [
            index for index, event in enumerate(events) if event.timestamp in ticks
        ]

        def between_ticks(index):
            # Cut two events after a tick, with the next tick still ahead.
            cut = tick_indexes[index] + 2
            assert cut < tick_indexes[index + 1]
            return cut

        first, second = between_ticks(3), between_ticks(8)

        def outcome(engine, matches):
            return (
                _per_pattern_records(patterns, matches),
                {a.pattern.name: a.plan_history for a in engine.sub_engines},
                {
                    a.pattern.name: (
                        a.controller.statistics.decisions_evaluated,
                        [r.time for r in a.controller.statistics.replacements],
                    )
                    for a in engine.sub_engines
                },
            )

        reference = _shared_engine(patterns)
        expected = outcome(reference, reference.run(events).matches)

        engine = _shared_engine(patterns)
        matches = engine.run(events[:first]).matches
        resumed = restore_engine(snapshot_engine(engine))
        matches.extend(resumed.run(events[first:]).matches)
        assert outcome(resumed, matches) == expected

        engine = _shared_engine(patterns)
        matches = engine.run(events[:first]).matches
        base = snapshot_engine(engine)
        tracker = DeltaTracker(engine)
        tracker.prime(0)
        matches.extend(engine.run(events[first:second]).matches)
        frame = tracker.encode_frame(0, 1)
        assert tracker.last_kind == "delta"
        resumed = restore_engine(materialize_engine_blob(base, [frame]))
        matches.extend(resumed.run(events[second:]).matches)
        assert outcome(resumed, matches) == expected


class TestRoutingHygiene:
    def test_memberless_groups_leave_the_event_path(self):
        patterns, events = _family(count=3)
        engine = _shared_engine(patterns)
        for event in events[:400]:
            engine.process(event)
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
        for event in events[400:600]:
            engine.process(event)
        routed = [
            group
            for groups_for_type in engine._group_routes.values()
            for group in groups_for_type
        ]
        assert all(group.member_count > 0 for group in routed)
