"""Tests for the streaming execution backends (repro.streaming.workers)."""

from __future__ import annotations

import pickle
import queue
import random
import threading

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.engine import AdaptiveCEPEngine
from repro.engine.state import restore_engine, snapshot_engine
from repro.errors import CheckpointError, StreamingError
from repro.events import AttributeSpec, Event, EventSchema, EventType
from repro.optimizer import GreedyOrderPlanner, ZStreamTreePlanner
from repro.parallel import (
    BroadcastPartitioner,
    KeyPartitioner,
    ParallelCEPEngine,
    build_replica,
    match_signature,
)
from repro.streaming import (
    Checkpoint,
    CheckpointStore,
    CollectorSink,
    InlineBackend,
    ProcessWorkerBackend,
    ReplaySource,
    StreamingPipeline,
    workers,
)
from repro.streaming.workers import _encode_batch, _worker_loop
from tests.conftest import make_camera_stream

from repro.conditions import (
    AndCondition,
    AttributeComparisonCondition,
    AttributeThresholdCondition,
    ConditionSet,
    EqualityCondition,
    PredicateCondition,
)
from repro.patterns import Pattern, PatternItem, PatternOperator, seq


def _camera_pattern():
    a, b, c = EventType("A"), EventType("B"), EventType("C")
    condition = AndCondition(
        [
            EqualityCondition("a", "b", "person_id"),
            EqualityCondition("b", "c", "person_id"),
        ]
    )
    return seq([a, b, c], condition=condition, window=10.0)


def _sequential_engine(pattern):
    return AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())


def _parallel_engine(pattern, shards=2, partitioner=None):
    return ParallelCEPEngine(
        pattern,
        GreedyOrderPlanner(),
        InvariantBasedPolicy(),
        shards=shards,
        partitioner=partitioner or BroadcastPartitioner(),
    )


def _signatures(matches):
    return sorted(match_signature(match) for match in matches)


# ----------------------------------------------------------------------
# Shard lifecycle: a replica fed hand-off batches by the worker loop
# ----------------------------------------------------------------------
def _feed_messages(events, size):
    """``events`` as the coordinator hands them to one worker session."""
    sent_types = set()
    return [
        _encode_batch(events[start : start + size], sent_types)
        for start in range(0, len(events), size)
    ]


class TestShardFeedLifecycle:
    def test_feed_matches_run_to_completion(self):
        pattern = _camera_pattern()
        events = make_camera_stream(count=200, seed=2).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        assert expected

        replica = build_replica(
            pattern, GreedyOrderPlanner(), InvariantBasedPolicy(), None, 1.0
        )
        in_queue, out_queue = queue.Queue(), queue.Queue()
        messages = _feed_messages(events, 16)
        for message in messages:
            in_queue.put(message)
        in_queue.put(("stop",))
        _worker_loop(0, replica, in_queue, out_queue)  # returns on "stop"

        replies = []
        while not out_queue.empty():
            replies.append(out_queue.get())
        assert [reply[0] for reply in replies] == ["matches"] * len(messages) + ["stopped"]
        collected = [match for reply in replies[:-1] for match in reply[3]]
        assert _signatures(collected) == expected
        assert sum(reply[4] for reply in replies[:-1]) == len(events)


class _Recorder:
    """A stand-in replica that keeps every event the worker loop decodes."""

    def __init__(self):
        self.events = []

    def process(self, event):
        self.events.append(event)
        return []


def _schema_stream(count, seed):
    """A mixed-type stream whose types carry schemas (and one does not)."""
    rng = random.Random(seed)
    reading = EventSchema(
        [AttributeSpec("sensor", str), AttributeSpec("value", float, required=False)]
    )
    types = [
        EventType("Temp", schema=reading, description="temperature"),
        EventType("Humidity", schema=reading),
        EventType("Door", schema=EventSchema([AttributeSpec("open", bool)])),
        EventType("Heartbeat"),
    ]
    events, t = [], 0.0
    for index in range(count):
        t += rng.choice([0.0, 0.25, 1.0])
        event_type = rng.choice(types)
        payload = {
            "Temp": lambda: {"sensor": f"s{rng.randrange(3)}", "value": rng.uniform(-5, 30)},
            "Humidity": lambda: {"sensor": "h", "value": None},
            "Door": lambda: {"open": rng.random() < 0.5, "tags": ["x", index]},
            "Heartbeat": lambda: {},
        }[event_type.name]()
        events.append(Event(event_type, t, payload, sequence_number=10 * index + 3))
    return events


def _same_event(rebuilt, submitted):
    # Event equality covers type name, timestamp, sequence number and
    # payload; EventType equality ignores the schema, so compare it too.
    assert type(rebuilt) is Event
    assert rebuilt == submitted
    assert rebuilt.event_type.description == submitted.event_type.description
    if submitted.event_type.schema is None:
        assert rebuilt.event_type.schema is None
    else:
        assert list(rebuilt.event_type.schema) == list(submitted.event_type.schema)
    assert type(rebuilt.timestamp) is float
    assert rebuilt.payload is not submitted.payload  # it crossed by value


class TestHandOff:
    """The coordinator's plain-row batches, decoded by the worker loop."""

    def test_worker_rebuilds_every_event_exactly(self):
        events = _schema_stream(300, seed=8)
        recorder = _Recorder()
        in_queue, out_queue = queue.Queue(), queue.Queue()
        for message in _feed_messages(events, 7):
            # Through pickle, as over a process queue.
            in_queue.put(pickle.loads(pickle.dumps(message)))
        in_queue.put(("mark", 1))
        in_queue.put(("stop",))
        _worker_loop(0, recorder, in_queue, out_queue)

        assert len(recorder.events) == len(events)
        for rebuilt, submitted in zip(recorder.events, events):
            _same_event(rebuilt, submitted)
        # One EventType object per name on the worker side.
        by_name = {}
        for event in recorder.events:
            assert by_name.setdefault(event.type_name, event.event_type) is event.event_type
        replies = [out_queue.get() for _ in range(out_queue.qsize())]
        assert [reply[0] for reply in replies[:-2]] == ["matches"] * (len(replies) - 2)
        assert replies[-2] == ("reply", 0, 1, None)
        assert replies[-1][0] == "stopped"

    def test_backend_ships_types_once_and_again_after_restart(self, monkeypatch):
        """Each worker session receives every type it sees exactly once; a
        restarted worker is a new session and receives them again."""
        puts = []
        original_put = ProcessWorkerBackend._put

        def recording_put(self, shard_id, message, deadline=None):
            if message[0] == "events":
                puts.append((shard_id, message))
            return original_put(self, shard_id, message, deadline)

        monkeypatch.setattr(ProcessWorkerBackend, "_put", recording_put)
        monkeypatch.setattr(workers, "FEED_BATCH", 8)
        pattern = _camera_pattern()
        events = make_camera_stream(count=160, seed=6).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        backend = ProcessWorkerBackend(
            _parallel_engine(pattern, partitioner=KeyPartitioner("person_id"))
        )

        def sessions(events):
            del puts[:]
            for event in events:
                backend.submit(event)
            matches = backend.flush()
            backend.close()
            shipped, routed = {0: [], 1: []}, {0: set(), 1: set()}
            for shard_id, (_, new_types, rows) in puts:
                shipped[shard_id].extend(event_type.name for event_type in new_types)
                routed[shard_id].update(row[0] for row in rows)
                # A type is shipped no later than its first row.
                assert set(row[0] for row in rows) <= set(shipped[shard_id])
            for shard_id in (0, 1):
                assert sorted(shipped[shard_id]) == sorted(routed[shard_id])
            return matches, puts[:]

        try:
            first, _ = sessions(events[:80])
            second, restarted = sessions(events[80:])
        finally:
            backend.close()
        assert _signatures(first + second) == expected
        for shard_id in (0, 1):
            batch = next(message for shard, message in restarted if shard == shard_id)
            assert {event_type.name for event_type in batch[1]} == {row[0] for row in batch[2]}

# ----------------------------------------------------------------------
# The inline backend (default wrapping)
# ----------------------------------------------------------------------
class TestInlineBackend:
    def test_rejects_non_engine(self):
        with pytest.raises(StreamingError, match="process"):
            InlineBackend(object())

    def test_submit_collect_flush(self):
        pattern = _camera_pattern()
        events = make_camera_stream(count=150, seed=4).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)

        backend = InlineBackend(_sequential_engine(pattern))
        collected = []
        for event in events:
            backend.submit(event)
            collected.extend(backend.collect())
        collected.extend(backend.flush())
        assert _signatures(collected) == expected

    def test_pipeline_wraps_bare_engine(self):
        pipeline = StreamingPipeline(_sequential_engine(_camera_pattern()), [])
        assert pipeline.backend.name == "inline"


# ----------------------------------------------------------------------
# Worker backends
# ----------------------------------------------------------------------
@pytest.fixture(params=[ProcessWorkerBackend], ids=lambda cls: cls.name)
def backend_cls(request):
    return request.param


class TestWorkerBackends:
    def test_requires_parallel_engine(self, backend_cls):
        with pytest.raises(StreamingError, match="ParallelCEPEngine"):
            backend_cls(_sequential_engine(_camera_pattern()))

    def test_matches_equal_sequential(self, backend_cls):
        pattern = _camera_pattern()
        events = make_camera_stream(count=250, seed=5).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        assert expected

        backend = backend_cls(_parallel_engine(pattern))
        collected = []
        try:
            for event in events:
                backend.submit(event)
                collected.extend(backend.collect())
            collected.extend(backend.flush())
        finally:
            backend.close()
        assert _signatures(collected) == expected

    def test_flush_is_a_barrier(self, backend_cls, monkeypatch):
        monkeypatch.setattr(workers, "FEED_BATCH", 1000)
        pattern = _camera_pattern()
        events = make_camera_stream(count=100, seed=6).to_list()
        backend = backend_cls(_parallel_engine(pattern))
        try:
            for event in events:
                backend.submit(event)  # FEED_BATCH never reached: all pending
            matches = backend.flush()
            expected = _signatures(_sequential_engine(pattern).run(events).matches)
            assert _signatures(matches) == expected
        finally:
            backend.close()

    def test_snapshot_restore_round_trip(self, backend_cls):
        pattern = _camera_pattern()
        events = make_camera_stream(count=300, seed=7).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        split = 150

        first = backend_cls(_parallel_engine(pattern))
        collected = []
        try:
            for event in events[:split]:
                first.submit(event)
            collected.extend(first.flush())
            blob = first.snapshot()
        finally:
            first.close()
        assert isinstance(restore_engine(blob), ParallelCEPEngine)

        second = backend_cls(_parallel_engine(pattern))
        try:
            second.restore(blob)
            for event in events[split:]:
                second.submit(event)
            collected.extend(second.flush())
        finally:
            second.close()
        assert _signatures(collected) == expected

    def test_restore_rejects_wrong_shard_count(self, backend_cls):
        pattern = _camera_pattern()
        donor = backend_cls(_parallel_engine(pattern, shards=3))
        blob = donor.snapshot()  # never started: local replica snapshot
        backend = backend_cls(_parallel_engine(pattern, shards=2))
        with pytest.raises(CheckpointError, match="worker count"):
            backend.restore(blob)

    def test_restore_adopts_inline_parallel_checkpoint(self, backend_cls):
        """An inline ParallelCEPEngine checkpoint resumes on a worker backend."""
        pattern = _camera_pattern()
        events = make_camera_stream(count=300, seed=8).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        split = 150

        inline_engine = _parallel_engine(pattern)
        collected = []
        for event in events[:split]:
            collected.extend(inline_engine.process(event))
        blob = snapshot_engine(inline_engine)

        backend = backend_cls(_parallel_engine(pattern))
        try:
            backend.restore(blob)
            for event in events[split:]:
                backend.submit(event)
            collected.extend(backend.flush())
        finally:
            backend.close()
        assert _signatures(collected) == expected

    def test_close_is_idempotent_and_restartable(self, backend_cls):
        pattern = _camera_pattern()
        events = make_camera_stream(count=200, seed=9).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        backend = backend_cls(_parallel_engine(pattern))
        collected = []
        for event in events[:100]:
            backend.submit(event)
        collected.extend(backend.flush())
        backend.close()
        backend.close()  # idempotent
        # Restart: worker state survived the stop (processes ship it back).
        for event in events[100:]:
            backend.submit(event)
        collected.extend(backend.flush())
        backend.close()
        assert _signatures(collected) == expected

    def test_plan_history_is_shard_prefixed(self, backend_cls):
        backend = backend_cls(_parallel_engine(_camera_pattern()))
        history = backend.engine.plan_history
        assert history
        assert all(entry.startswith("shard ") for entry in history)


def _explode(first, second):
    raise RuntimeError("engine exploded")


class TestWorkerFailure:
    def test_worker_error_propagates(self):
        """A replica that raises inside its worker process fails the backend."""
        a, b, c = EventType("A"), EventType("B"), EventType("C")
        pattern = seq(
            [a, b, c], condition=PredicateCondition(["a", "b"], _explode), window=10.0
        )
        backend = ProcessWorkerBackend(_parallel_engine(pattern))
        try:
            with pytest.raises(StreamingError, match="(?s)worker failed.*engine exploded"):
                for event in make_camera_stream(count=50, seed=1).to_list():
                    backend.submit(event)
                backend.flush()
        finally:
            backend.close()

    def test_worker_error_surfaces_within_a_batch_per_shard(self):
        """``submit`` checks for failure once per hand-off batch, not per
        event: once a worker's error is recorded, at most FEED_BATCH submits
        per shard return before the traceback is raised."""
        a, b, c = EventType("A"), EventType("B"), EventType("C")
        pattern = seq(
            [a, b, c], condition=PredicateCondition(["a", "b"], _explode), window=10.0
        )
        shards = 2
        backend = ProcessWorkerBackend(_parallel_engine(pattern, shards=shards))
        events = [
            Event(a if index % 2 == 0 else b, float(index), {}) for index in range(400)
        ]
        try:
            for event in events[:4]:
                backend.submit(event)
            backend._flush_pending(0)  # shard 0 meets an A and then a B
            with backend._cond:
                assert backend._cond.wait_for(
                    lambda: backend._error is not None, timeout=workers.BARRIER_TIMEOUT_S
                )
            returned = 0
            with pytest.raises(StreamingError, match="(?s)shard 0 worker failed.*engine exploded"):
                for event in events[4:]:
                    backend.submit(event)
                    returned += 1
            assert returned <= workers.FEED_BATCH * shards
        finally:
            backend.close()



# ----------------------------------------------------------------------
# Checkpoint portability: one engine frame for every backend
# ----------------------------------------------------------------------
def _older_worker_frame(engine):
    """A checkpoint as worker backends used to write it: a
    ``repro-shard-states`` frame holding one engine frame per replica plus
    the coordinator's partitioner and deduplicator."""
    blobs = [snapshot_engine(shard.engine) for shard in engine.sharded_engine.shards]
    meta = {
        "backend": "process",
        "num_shards": engine.num_shards,
        "partitioner": engine.partitioner,
        "event_time_watermark": float("-inf"),
        "queue_high_water": {},
        "dedup": engine._streaming_dedup,
    }
    body = pickle.dumps((blobs, meta), protocol=pickle.HIGHEST_PROTOCOL)
    return b"repro-shard-states\x01" + body


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_older_worker_frame_fails_with_checkpoint_error(backend, tmp_path):
    pattern = _camera_pattern()
    events = make_camera_stream(count=60, seed=3).to_list()
    store = CheckpointStore(str(tmp_path / "ckpt"))
    store.save(
        Checkpoint(
            events_processed=30,
            matches_emitted=0,
            engine_blob=_older_worker_frame(_parallel_engine(pattern)),
            pattern_name=pattern.name,
        )
    )
    engine = _parallel_engine(pattern)
    host = InlineBackend(engine) if backend == "inline" else ProcessWorkerBackend(engine)
    pipeline = StreamingPipeline(host, ReplaySource(events), checkpoint_store=store)
    with pytest.raises(CheckpointError, match="not a valid engine snapshot"):
        pipeline.run()


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------
class TestPipelineWithWorkers:
    def test_worker_pipeline_matches_inline(self, backend_cls):
        pattern = _camera_pattern()
        events = make_camera_stream(count=250, seed=10).to_list()

        inline_sink = CollectorSink()
        StreamingPipeline(
            _sequential_engine(pattern), ReplaySource(events), sinks=[inline_sink]
        ).run()
        expected = _signatures(inline_sink.matches)
        assert expected

        worker_sink = CollectorSink()
        backend = backend_cls(_parallel_engine(pattern))
        result = StreamingPipeline(
            backend, ReplaySource(events), sinks=[worker_sink]
        ).run()
        assert _signatures(worker_sink.matches) == expected
        assert result.events_processed == len(events)
        assert result.matches_emitted == len(expected)

    def test_worker_lane_metrics_populated(self, backend_cls):
        pattern = _camera_pattern()
        events = make_camera_stream(count=120, seed=12).to_list()
        backend = backend_cls(_parallel_engine(pattern))
        pipeline = StreamingPipeline(backend, ReplaySource(events))
        result = pipeline.run()
        lanes = result.metrics.workers
        assert set(lanes) == {0, 1}
        # Broadcast: every worker saw every event.
        assert all(lane.events_processed == len(events) for lane in lanes.values())
        assert all(lane.batches_consumed > 0 for lane in lanes.values())
        row = result.metrics.as_row()
        assert row["workers"] == 2.0
        assert "worker_batch_ms_mean" in row

    def test_keyed_worker_pipeline(self, backend_cls, monkeypatch):
        monkeypatch.setattr(workers, "FEED_BATCH", 4)
        pattern = _camera_pattern()
        events = make_camera_stream(count=250, seed=13).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        sink = CollectorSink()
        backend = backend_cls(
            _parallel_engine(pattern, partitioner=KeyPartitioner("person_id"))
        )
        StreamingPipeline(backend, ReplaySource(events), sinks=[sink]).run()
        assert _signatures(sink.matches) == expected

    def test_checkpoint_kill_resume_with_workers(self, backend_cls, tmp_path):
        pattern = _camera_pattern()
        events = make_camera_stream(count=400, seed=11).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        assert expected

        sink_path = str(tmp_path / "matches.jsonl")
        store = CheckpointStore(str(tmp_path / "ckpt"))

        from repro.streaming import JSONLMatchWriter

        def build():
            backend = backend_cls(_parallel_engine(pattern))
            return StreamingPipeline(
                backend,
                ReplaySource(events),
                sinks=[JSONLMatchWriter(sink_path)],
                checkpoint_store=store,
                checkpoint_every=75,
            )

        first = build().run(max_events=260, final_checkpoint=False)
        assert first.metrics.checkpoints_written == 3  # at 75/150/225
        second = build().run()
        assert second.resumed_from == 225

        import json

        from repro.streaming.sinks import match_record

        expected_lines = sorted(
            json.dumps(match_record(match))
            for match in _sequential_engine(pattern).run(events).matches
        )
        served = sorted(
            line for line in open(sink_path).read().splitlines() if line
        )
        assert served == expected_lines


    def test_introspection_from_another_thread_loses_no_event(self, monkeypatch):
        """A scrape on another thread never touches the hand-off lists.

        Hand-offs wait for a barrier (``FEED_BATCH`` is never reached), so
        the scrape finds every pending list non-empty, and each list's
        ``clear()``, called off the submitting thread, first waits for that
        thread's next append: a scrape that flushed the lists itself would
        wipe that event.  The pipeline must take the frame on its run loop
        instead, so every event reaches a worker once.
        """
        pattern = _camera_pattern()
        events = make_camera_stream(count=600, seed=14).to_list()
        monkeypatch.setattr(workers, "FEED_BATCH", 2 * len(events))
        expected = _signatures(_sequential_engine(pattern).run(events).matches)

        class RacingPending(list):
            def __init__(self, owner):
                super().__init__()
                self.owner = owner
                self.appended = threading.Event()

            def append(self, event):
                super().append(event)
                self.appended.set()

            def clear(self):
                if threading.current_thread() is not self.owner:
                    self.appended.clear()
                    self.appended.wait(timeout=60)
                super().clear()

        class RacingBackend(ProcessWorkerBackend):
            def start(self):
                if not self._started:
                    super().start()
                    owner = threading.current_thread()
                    self._pending = [RacingPending(owner) for _ in self._pending]

        backend = RacingBackend(
            _parallel_engine(pattern, partitioner=KeyPartitioner("person_id"))
        )
        sink = CollectorSink()
        pipeline = None
        scraped = {}
        calling = threading.Event()

        def scrape():
            calling.set()
            try:
                scraped["frame"] = pipeline.engine_introspection()
            except Exception as exc:  # reported by the assertion below
                scraped["error"] = exc

        scraper = threading.Thread(target=scrape)

        def source():
            for index, event in enumerate(events):
                if index == 300:
                    scraper.start()
                    calling.wait(timeout=60)
                yield event

        pipeline = StreamingPipeline(backend, source(), sinks=[sink])
        result = pipeline.run()
        scraper.join(timeout=60)

        assert "error" not in scraped, scraped.get("error")
        assert scraped["frame"]["shards"] == 2
        lanes = result.metrics.workers.values()
        assert sum(lane.events_processed for lane in lanes) == len(events)
        assert _signatures(sink.matches) == expected

# ----------------------------------------------------------------------
# Adaptation: a worker replica is the inline replica in another process
# ----------------------------------------------------------------------
_DRIFT_TYPES = [EventType(f"S{index}") for index in range(5)]
_DRIFT_VARIABLES = ("a", "b", "c", "d")


def _drifting_and4():
    """AND-4 with a single-variable threshold per item and a chain of
    pairwise comparisons (the shape of the benchmark's tree workload)."""
    conditions = ConditionSet()
    for variable in _DRIFT_VARIABLES:
        conditions.add(AttributeThresholdCondition(variable, "load", "<", 0.5))
    for index, (first, second) in enumerate(zip(_DRIFT_VARIABLES, _DRIFT_VARIABLES[1:])):
        attribute = f"level{index}"
        conditions.add(
            AttributeComparisonCondition(first, attribute, "<", second, attribute)
        )
    items = [PatternItem(v, t) for v, t in zip(_DRIFT_VARIABLES, _DRIFT_TYPES)]
    return Pattern(
        PatternOperator.CONJUNCTION, items, condition=conditions, window=1.0,
        name="drift-and4",
    )


def _drifting_stream(count, seed):
    """Poisson arrivals whose four pattern-type rates rotate halfway."""
    rng = random.Random(seed)
    before = [0.5, 1.5, 4.5, 13.5]
    after = before[2:] + before[:2]
    events, timestamp = [], 0.0
    for position in range(count):
        rates = (before if position < count // 2 else after) + [2.0]
        total = sum(rates)
        timestamp += rng.expovariate(total)
        pick = rng.random() * total
        index = 0
        while pick > rates[index]:
            pick -= rates[index]
            index += 1
        payload = {f"level{level}": rng.gauss(50.0, 20.0) for level in range(3)}
        payload["load"] = rng.random()
        events.append(Event(_DRIFT_TYPES[index], timestamp, payload))
    return events


def _adaptation_counts(engine):
    statistics = engine.controller.statistics
    metrics = engine.work_metrics()
    return {
        "plan_history": engine.plan_history,
        "decisions_evaluated": statistics.decisions_evaluated,
        "reoptimizations_requested": statistics.reoptimizations_requested,
        "plans_generated": statistics.plans_generated,
        "plans_replaced": statistics.plans_replaced,
        "reoptimizations": metrics.reoptimizations,
        "partial_matches_created": metrics.partial_matches_created,
        "extension_attempts": metrics.extension_attempts,
    }


class TestWorkerAdaptation:
    def test_worker_replicas_adapt_exactly_like_inline_replicas(self):
        """Every shard installs the same plans and does the same work
        whether its replica runs inline or in a worker process."""
        events = _drifting_stream(6000, seed=14)

        def engine():
            return ParallelCEPEngine(
                _drifting_and4(),
                ZStreamTreePlanner(),
                InvariantBasedPolicy(0.1),
                shards=2,
                partitioner=BroadcastPartitioner(),
                compile_mode="compiled",
            )

        inline = engine()
        StreamingPipeline(inline, ReplaySource(events)).run()
        hosted = engine()
        StreamingPipeline(ProcessWorkerBackend(hosted), ReplaySource(events)).run()

        for inline_shard, hosted_shard in zip(
            inline.sharded_engine.shards, hosted.sharded_engine.shards
        ):
            expected = _adaptation_counts(inline_shard.engine)
            assert expected["plans_replaced"] > 0, "the drift must force re-plans"
            assert _adaptation_counts(hosted_shard.engine) == expected


# ----------------------------------------------------------------------
# Store clock
# ----------------------------------------------------------------------
class TestCheckpointStoreClock:
    def test_checkpoint_store_uses_injected_clock(self, tmp_path):
        from repro.streaming import Checkpoint

        ticks = iter([111.0, 222.0])
        store = CheckpointStore(str(tmp_path), clock=lambda: next(ticks))
        blob = snapshot_engine(_sequential_engine(_camera_pattern()))
        store.save(Checkpoint(events_processed=1, matches_emitted=0, engine_blob=blob))
        store.save(Checkpoint(events_processed=2, matches_emitted=0, engine_blob=blob))
        assert store.load(0).created_at == 111.0
        assert store.load(1).created_at == 222.0
