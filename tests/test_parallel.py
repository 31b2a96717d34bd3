"""Tests for the partitioned parallel execution subsystem (repro.parallel)."""

from __future__ import annotations

import pickle
import random
from decimal import Decimal

import numpy as np
import pytest

from repro.adaptive import InvariantBasedPolicy, StaticPolicy
from repro.datasets import StockDatasetSimulator, TrafficDatasetSimulator
from repro.engine import AdaptiveCEPEngine
from repro.errors import ParallelExecutionError, PartitionError
from repro.events import Event, EventType, InMemoryEventStream
from repro.optimizer import GreedyOrderPlanner, ZStreamTreePlanner
import repro.parallel
import repro.parallel.partitioner as partitioner_module
from repro.engine import MultiPatternEngine
from repro.parallel import (
    BroadcastPartitioner,
    KeyPartitioner,
    ParallelCEPEngine,
    RoundRobinPartitioner,
    ShardedEngine,
    match_signature,
)
from repro.patterns import seq
from repro.streaming import match_record
from repro.workloads import WorkloadGenerator

from tests.conftest import make_camera_stream


# ----------------------------------------------------------------------
# Shared workloads (module-scoped: streams are re-iterable and engines are
# built fresh per run, so sharing is safe and keeps the suite fast).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stocks_workload():
    dataset = StockDatasetSimulator(duration_hint=60.0)
    workload = WorkloadGenerator(dataset)
    stream = dataset.generate(duration=60.0, seed=3, max_events=2500)
    return workload, stream


@pytest.fixture(scope="module")
def traffic_workload():
    dataset = TrafficDatasetSimulator(duration_hint=60.0)
    workload = WorkloadGenerator(dataset)
    stream = dataset.generate(duration=60.0, seed=3, max_events=2500)
    return workload, stream


@pytest.fixture(scope="module")
def keyed_workload():
    dataset = StockDatasetSimulator(duration_hint=60.0)
    workload = WorkloadGenerator(dataset)
    return workload.keyed_workload(3, duration=60.0, entities=5, max_events=3000)


def sequential_matches(pattern, stream, planner=None, policy=None):
    engine = AdaptiveCEPEngine(
        pattern, planner or GreedyOrderPlanner(), policy or InvariantBasedPolicy()
    )
    return engine.run(stream)


def signatures(matches):
    return sorted(match_signature(match) for match in matches)


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def _event(self, **payload):
        return Event(EventType("A"), 0.0, payload)

    def test_broadcast_routes_to_every_shard(self):
        assert BroadcastPartitioner().route(self._event(), 4) == (0, 1, 2, 3)

    def test_round_robin_cycles(self):
        partitioner = RoundRobinPartitioner()
        routes = [partitioner.route(self._event(), 3)[0] for _ in range(6)]
        assert routes == [0, 1, 2, 0, 1, 2]

    def test_key_partitioner_is_deterministic_and_key_consistent(self):
        partitioner = KeyPartitioner("user")
        first = partitioner.route(self._event(user=42), 4)
        second = partitioner.route(self._event(user=42), 4)
        assert first == second
        assert len(first) == 1 and 0 <= first[0] < 4

    def test_key_partitioner_numeric_keys_hash_by_value_not_type(self):
        # 7 == 7.0 == True under the engine's equality joins, so numerically
        # equal keys of different types must land on the same shard.
        partitioner = KeyPartitioner("user")
        for shards in (2, 3, 5, 7):
            assert (
                partitioner.route(self._event(user=7), shards)
                == partitioner.route(self._event(user=7.0), shards)
            )
            assert (
                partitioner.route(self._event(user=1), shards)
                == partitioner.route(self._event(user=True), shards)
            )

    def test_key_partitioner_missing_key_routes_to_one_shard(self):
        partitioner = KeyPartitioner("user")
        routes = {partitioner.route(self._event(), 4)[0] for _ in range(5)}
        assert len(routes) == 1

    def test_key_partitioner_requires_attribute_name(self):
        with pytest.raises(PartitionError):
            KeyPartitioner("")

    def test_key_validation_accepts_key_joined_pattern(self, keyed_workload):
        pattern, _ = keyed_workload
        KeyPartitioner("entity_id").validate(pattern, 4)

    def test_key_validation_rejects_cross_key_correlation(self, stocks_workload):
        # Stock patterns correlate events through price differences, not a
        # shared key: a match may combine events of different entities.
        workload, _ = stocks_workload
        pattern = workload.sequence_pattern(3)
        with pytest.raises(PartitionError):
            KeyPartitioner("entity_id").validate(pattern, 2)

    def test_key_validation_rejects_unconstrained_negated_item(self, camera_types):
        # The negated item is not key-joined: whether it suppresses a match
        # can depend on events living in another shard.
        a, b, c = camera_types
        from repro.conditions import EqualityCondition
        from repro.patterns import PatternBuilder

        pattern = (
            PatternBuilder.sequence()
            .event(a, "a")
            .negated_event(b, "b")
            .event(c, "c")
            .where(EqualityCondition("a", "c", "person_id"))
            .within(10.0)
            .build()
        )
        with pytest.raises(PartitionError):
            KeyPartitioner("person_id").validate(pattern, 2)

    def test_key_validation_single_shard_always_allowed(self, stocks_workload):
        workload, _ = stocks_workload
        KeyPartitioner("entity_id").validate(workload.sequence_pattern(3), 1)

    def test_round_robin_validation_rejects_multi_event_patterns(self, camera_pattern):
        with pytest.raises(PartitionError):
            RoundRobinPartitioner().validate(camera_pattern, 2)

    def test_round_robin_validation_allows_single_event_pattern(self):
        pattern = seq([EventType("A")], window=5.0)
        RoundRobinPartitioner().validate(pattern, 4)

    def test_round_robin_validation_rejects_single_kleene_item(self):
        # A lone Kleene item still combines several events per match, so a
        # content-blind split would corrupt its runs.
        from repro.patterns import PatternBuilder

        pattern = (
            PatternBuilder.sequence().kleene_event(EventType("A"), "a").within(5.0).build()
        )
        with pytest.raises(PartitionError):
            RoundRobinPartitioner().validate(pattern, 2)

    def test_key_validation_rejects_unconstrained_single_kleene_item(self):
        from repro.patterns import PatternBuilder

        pattern = (
            PatternBuilder.sequence().kleene_event(EventType("A"), "a").within(5.0).build()
        )
        with pytest.raises(PartitionError):
            KeyPartitioner("entity_id").validate(pattern, 2)


class TestKeyRouting:
    """``KeyPartitioner.route`` through the module-level hash memo."""

    #: ``_stable_hash`` of plain Python keys as the partitioner computed it
    #: before NumPy scalars were unwrapped and the memo existed: checkpoints
    #: and the benchmark's key-to-shard assignment depend on these values.
    PINNED_HASHES = [
        (0, 9523843951405948789),
        (1, 17797172410793473910),
        (-7, 7251330064161976088),
        (2**70, 8038594043786494433),
        (1.0, 17797172410793473910),
        (2.5, 6340594069982954676),
        (-0.0, 9523843951405948789),
        (float("inf"), 1180052285266817458),
        (True, 17797172410793473910),
        (False, 9523843951405948789),
        ("a", 11494053157100649449),
        ("entity-42", 2739691578779103368),
        ("", 7531266821334470792),
        (None, 6012258934026951680),
        ((1, "x"), 11964883694390915837),
        (("a", 2.5, None), 6000341698394947982),
    ]

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        partitioner_module._KEY_HASHES.clear()
        yield
        partitioner_module._KEY_HASHES.clear()

    @staticmethod
    def _route(key, shards):
        return KeyPartitioner("k").route(Event(EventType("A"), 0.0, {"k": key}), shards)[0]

    @pytest.mark.parametrize("key,expected", PINNED_HASHES)
    def test_plain_key_hashes_are_unchanged(self, key, expected):
        assert partitioner_module._stable_hash(key) == expected
        for shards in (2, 3, 7):
            assert self._route(key, shards) == expected % shards
            assert self._route(key, shards) == expected % shards  # memo hit

    @pytest.mark.parametrize(
        "numpy_key,python_key",
        [
            (np.int64(1), 1),
            (np.int32(-7), -7),
            (np.uint8(3), 3),
            (np.float64(2.5), 2.5),
            (np.float32(2.5), 2.5),
            (np.float64(4.0), 4),
            (np.bool_(True), 1),
            (np.str_("entity-42"), "entity-42"),
        ],
    )
    def test_numpy_scalar_keys_route_with_the_python_keys_they_equal(
        self, numpy_key, python_key
    ):
        assert numpy_key == python_key
        assert partitioner_module._stable_hash(numpy_key) == partitioner_module._stable_hash(
            python_key
        )
        for shards in (2, 3, 5, 7):
            assert self._route(numpy_key, shards) == self._route(python_key, shards)

    def test_numpy_key_join_survives_sharding(self):
        from repro.conditions import EqualityCondition

        a, b = EventType("A"), EventType("B")
        pattern = seq([a, b], condition=EqualityCondition("a", "b", "k"), window=10.0)
        events = [Event(a, 1.0, {"k": 1}), Event(b, 2.0, {"k": np.int64(1)})]
        KeyPartitioner("k").validate(pattern, 2)
        assert len(sequential_matches(pattern, events).matches) == 1
        engine = ParallelCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            shards=2,
            partitioner=KeyPartitioner("k"),
        )
        assert len(engine.run(events).matches) == 1

    def test_memo_agrees_with_the_hash(self):
        rng = random.Random(5)
        keys = [rng.randrange(-(2**40), 2**40) for _ in range(300)]
        keys += [f"key-{rng.randrange(10**6)}" for _ in range(300)]
        for key in keys * 2:
            for shards in (2, 3, 8):
                assert self._route(key, shards) == (
                    partitioner_module._stable_hash(key) % shards
                )

    def test_memo_never_collapses_keys_that_compare_equal(self):
        # 1 == True == 1.0 == Decimal(1) share a dict slot, so a memo keyed
        # by value alone would hand each the hash of whichever came first.
        # Only the exact int enters; the others are hashed as they were.
        keys = (Decimal(1), 1.0, True, 1, np.int64(1), "1")
        for order in (keys, keys[::-1]):
            partitioner_module._KEY_HASHES.clear()
            for key in order * 2:
                for shards in (2, 3, 5, 7):
                    assert self._route(key, shards) == (
                        partitioner_module._stable_hash(key) % shards
                    )
            assert sorted(map(repr, partitioner_module._KEY_HASHES)) == ["'1'", "1"]
            assert {type(key) for key in partitioner_module._KEY_HASHES} == {int, str}

    def test_unhashable_keys_fall_through(self):
        key = [1, "x"]
        assert self._route(key, 3) == partitioner_module._stable_hash(key) % 3
        assert not partitioner_module._KEY_HASHES

    def test_memo_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(partitioner_module, "KEY_HASH_MEMO_SIZE", 16)
        for key in range(200):
            assert self._route(key, 4) == partitioner_module._stable_hash(key) % 4
            assert len(partitioner_module._KEY_HASHES) <= 16

    def test_partitioner_pickles_as_before(self):
        for key in range(50):
            self._route(key, 2)
        assert pickle.dumps(KeyPartitioner("k"), protocol=4) == (
            b"\x80\x04\x95H\x00\x00\x00\x00\x00\x00\x00\x8c\x1arepro.parallel.partitioner"
            b"\x94\x8c\x0eKeyPartitioner\x94\x93\x94)\x81\x94}\x94\x8c\tattribute"
            b"\x94\x8c\x01k\x94sb."
        )


# ----------------------------------------------------------------------
# Sharded engine plumbing
# ----------------------------------------------------------------------
class TestShardedEngine:
    def test_rejects_non_positive_shard_count(self, camera_pattern):
        with pytest.raises(ParallelExecutionError):
            ShardedEngine(
                camera_pattern, GreedyOrderPlanner(), InvariantBasedPolicy(), 0
            )

    def test_replicas_have_independent_state(self, camera_pattern):
        sharded = ShardedEngine(
            camera_pattern, GreedyOrderPlanner(), InvariantBasedPolicy(), 3
        )
        engines = [shard.engine for shard in sharded.shards]
        assert len({id(engine) for engine in engines}) == 3
        assert len({id(engine.collector) for engine in engines}) == 3
        assert len({id(engine.controller) for engine in engines}) == 3


# ----------------------------------------------------------------------
# Parallel-vs-sequential equivalence (the subsystem's core property)
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("family", ["sequence", "conjunction", "kleene"])
    def test_broadcast_equivalence_on_stocks(self, stocks_workload, family, shards):
        workload, stream = stocks_workload
        pattern = workload.pattern(family, 3)
        sequential = sequential_matches(pattern, stream)
        parallel = ParallelCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            shards=shards,
            partitioner=BroadcastPartitioner(),
        ).run(stream)
        assert signatures(parallel.matches) == signatures(sequential.matches)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_broadcast_equivalence_on_traffic(self, traffic_workload, shards):
        workload, stream = traffic_workload
        pattern = workload.sequence_pattern(3)
        sequential = sequential_matches(pattern, stream)
        parallel = ParallelCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            shards=shards,
        ).run(stream)
        assert signatures(parallel.matches) == signatures(sequential.matches)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_key_partitioned_equivalence(self, keyed_workload, shards):
        pattern, stream = keyed_workload
        sequential = sequential_matches(pattern, stream)
        parallel = ParallelCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            shards=shards,
            partitioner=KeyPartitioner("entity_id"),
        ).run(stream)
        assert signatures(parallel.matches) == signatures(sequential.matches)
        # Key partitioning never duplicates work across shards.
        assert parallel.metrics.extra["duplicates_dropped"] == 0.0

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_round_robin_equivalence_on_single_event_pattern(self, shards):
        from repro.conditions import AttributeThresholdCondition

        pattern = seq(
            [EventType("A")],
            condition=AttributeThresholdCondition("a", "person_id", ">=", 2),
            window=10.0,
        )
        stream = make_camera_stream(count=200)
        sequential = sequential_matches(pattern, stream)
        parallel = ParallelCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            shards=shards,
            partitioner=RoundRobinPartitioner(),
        ).run(stream)
        assert signatures(parallel.matches) == signatures(sequential.matches)

    def test_zstream_planner_equivalence(self, keyed_workload):
        pattern, stream = keyed_workload
        sequential = sequential_matches(
            pattern, stream, planner=ZStreamTreePlanner(), policy=StaticPolicy()
        )
        parallel = ParallelCEPEngine(
            pattern,
            ZStreamTreePlanner(),
            StaticPolicy(),
            shards=2,
            partitioner=KeyPartitioner("entity_id"),
        ).run(stream)
        assert signatures(parallel.matches) == signatures(sequential.matches)

    def test_single_shard_serial_is_identical_to_sequential(self, keyed_workload):
        """The acceptance criterion: shards=1 reproduces the sequential
        engine bit for bit (same matches, same count metrics)."""
        pattern, stream = keyed_workload
        sequential = sequential_matches(pattern, stream)
        parallel = ParallelCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            shards=1,
        ).run(stream)
        assert signatures(parallel.matches) == signatures(sequential.matches)
        assert parallel.metrics.matches_emitted == sequential.metrics.matches_emitted
        assert parallel.metrics.events_processed == sequential.metrics.events_processed
        assert (
            parallel.metrics.partial_matches_created
            == sequential.metrics.partial_matches_created
        )
        assert parallel.metrics.reoptimizations == sequential.metrics.reoptimizations

    def test_unsafe_configurations_are_refused(self, stocks_workload):
        workload, _ = stocks_workload
        pattern = workload.sequence_pattern(3)
        with pytest.raises(PartitionError):
            ParallelCEPEngine(
                pattern,
                GreedyOrderPlanner(),
                InvariantBasedPolicy(),
                shards=2,
                partitioner=KeyPartitioner("entity_id"),
            )
        with pytest.raises(PartitionError):
            ParallelCEPEngine(
                pattern,
                GreedyOrderPlanner(),
                InvariantBasedPolicy(),
                shards=2,
                partitioner=RoundRobinPartitioner(),
            )


# ----------------------------------------------------------------------
# run() is the fold of process() — on every facade
# ----------------------------------------------------------------------
def _sharded(pattern, shards, partitioner):
    return ParallelCEPEngine(
        pattern,
        GreedyOrderPlanner(),
        InvariantBasedPolicy(),
        shards=shards,
        partitioner=partitioner,
    )


def records(matches):
    return [match_record(match) for match in matches]


class TestRunIsTheProcessFold:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("partitioning", ["broadcast", "key"])
    def test_run_equals_concatenated_process(self, keyed_workload, partitioning, shards):
        pattern, stream = keyed_workload

        def engine():
            partitioner = (
                KeyPartitioner("entity_id")
                if partitioning == "key"
                else BroadcastPartitioner()
            )
            return _sharded(pattern, shards, partitioner)

        folded = []
        stepper = engine()
        for event in stream:
            folded.extend(stepper.process(event))
        result = engine().run(stream)
        assert folded, "workload produced no matches to order"
        assert records(result.matches) == records(folded)
        # Detection-time order, first report wins: no signature repeats.
        times = [match.detection_time for match in result.matches]
        assert times == sorted(times)
        assert len(set(signatures(result.matches))) == len(result.matches)

    @pytest.mark.parametrize("partitioning", ["broadcast", "key"])
    def test_run_metrics_are_the_replicas_own_counters(self, keyed_workload, partitioning):
        pattern, stream = keyed_workload
        partitioner = (
            KeyPartitioner("entity_id") if partitioning == "key" else BroadcastPartitioner()
        )
        engine = _sharded(pattern, 3, partitioner)
        metrics = engine.run(stream).metrics
        replicas = [
            shard.engine.work_metrics() for shard in engine.sharded_engine.shards
        ]
        for counter in (
            "reoptimizations",
            "decisions_evaluated",
            "partial_matches_created",
            "extension_attempts",
        ):
            assert getattr(metrics, counter) == sum(
                getattr(replica, counter) for replica in replicas
            ), counter
        assert metrics.partial_matches_created > 0
        # Distinct input events, however many replicas each one reached.
        assert metrics.events_processed == len(stream)
        fanout = 3 if partitioning == "broadcast" else 1
        assert metrics.extra["events_dispatched"] == fanout * len(stream)
        assert "shard_seconds" not in metrics.extra

    @pytest.mark.parametrize("run_half", ["first", "second"])
    def test_run_and_process_continue_one_stream(self, keyed_workload, run_half):
        # A run() is just more process() calls: either order, one clock.
        pattern, stream = keyed_workload
        events = stream.to_list()
        half = len(events) // 2
        engine = _sharded(pattern, 2, KeyPartitioner("entity_id"))
        found = []
        if run_half == "first":
            found.extend(engine.run(events[:half]).matches)
            for event in events[half:]:
                found.extend(engine.process(event))
        else:
            for event in events[:half]:
                found.extend(engine.process(event))
            found.extend(engine.run(events[half:]).matches)
        expected = sequential_matches(pattern, stream).matches
        assert expected
        assert signatures(found) == signatures(expected)

    def test_single_shard_run_is_record_identical_to_sequential(self, keyed_workload):
        pattern, stream = keyed_workload
        sequential = sequential_matches(pattern, stream)
        parallel = _sharded(pattern, 1, BroadcastPartitioner()).run(stream)
        assert records(parallel.matches) == records(sequential.matches)
        assert [entry.split(": ", 1)[1] for entry in parallel.plan_history] == (
            sequential.plan_history
        )

    def test_every_facade_reports_the_engines_own_work_counters(self, keyed_workload):
        """The single source of truth for the metric fold: ``run`` on all
        three facades reports what summing the adaptive engines'
        ``migration_manager.total_counters()`` by hand gives."""
        pattern, stream = keyed_workload
        single = AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())
        # Two disjoint patterns: nothing to share, so every counter lives
        # in a per-pattern engine.
        other = seq([EventType("X"), EventType("Y")], window=5.0, name="other")
        multi = MultiPatternEngine(
            [pattern, other], GreedyOrderPlanner(), InvariantBasedPolicy
        )
        sharded = _sharded(pattern, 2, KeyPartitioner("entity_id"))
        adaptives = {
            "single": [single],
            "multi": multi.sub_engines,
            "sharded": [shard.engine for shard in sharded.sharded_engine.shards],
        }
        for name, facade in (("single", single), ("multi", multi), ("sharded", sharded)):
            metrics = facade.run(stream).metrics
            by_hand = [
                engine.migration_manager.total_counters() for engine in adaptives[name]
            ]
            assert metrics.partial_matches_created == sum(
                counters.partial_matches_created for counters in by_hand
            ), name
            assert metrics.extension_attempts == sum(
                counters.extension_attempts for counters in by_hand
            ), name
            assert metrics.extension_attempts > 0, name
            assert metrics.events_processed == len(stream), name

    def test_public_surface_is_pinned(self):
        # An executor, a batch type or an end-of-run merger cannot quietly
        # come back: the package exports exactly the one sharded path.
        assert sorted(repro.parallel.__all__) == sorted(
            [
                "ParallelCEPEngine",
                "Partitioner",
                "KeyPartitioner",
                "RoundRobinPartitioner",
                "BroadcastPartitioner",
                "Shard",
                "ShardedEngine",
                "build_replica",
                "match_signature",
                "StreamingMatchDeduplicator",
                "UNBOUNDED_DEDUP_WINDOW",
            ]
        )


# ----------------------------------------------------------------------
# Facade details
# ----------------------------------------------------------------------
class TestParallelCEPEngine:
    def test_plan_history_is_prefixed_per_shard(self, keyed_workload):
        pattern, stream = keyed_workload
        result = ParallelCEPEngine(
            pattern, GreedyOrderPlanner(), InvariantBasedPolicy(), shards=2,
            partitioner=KeyPartitioner("entity_id"),
        ).run(stream)
        assert result.plan_history
        assert all(entry.startswith("shard ") for entry in result.plan_history)

    def test_metrics_extra_records_dispatch_totals(self, keyed_workload):
        pattern, stream = keyed_workload
        result = ParallelCEPEngine(
            pattern, GreedyOrderPlanner(), InvariantBasedPolicy(), shards=3,
        ).run(stream)
        # Broadcast dispatches every event to every shard.
        assert result.metrics.extra["events_dispatched"] == 3.0 * len(stream)
        assert result.metrics.extra["shards"] == 3.0

    def test_keyed_stream_tags_every_event(self, stocks_workload):
        workload, _ = stocks_workload
        stream = workload.keyed_stream(duration=20.0, entities=4, max_events=500)
        entities = {event["entity_id"] for event in stream}
        assert entities <= set(range(4))
        assert len(entities) > 1

    def test_empty_stream_yields_empty_result(self, keyed_workload):
        pattern, _ = keyed_workload
        result = ParallelCEPEngine(
            pattern, GreedyOrderPlanner(), InvariantBasedPolicy(), shards=2,
            partitioner=KeyPartitioner("entity_id"),
        ).run(InMemoryEventStream([]))
        assert result.matches == []
        assert result.metrics.events_processed == 0
