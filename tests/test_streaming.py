"""Tests for the streaming I/O and service runtime (repro.streaming)."""

from __future__ import annotations

import json

import pytest

from repro.engine import AdaptiveCEPEngine, restore_engine, snapshot_engine
from repro.errors import (
    CheckpointError,
    ParallelExecutionError,
    StreamingError,
)
from repro.events import Event, EventType
from repro.optimizer import GreedyOrderPlanner
from repro.adaptive import InvariantBasedPolicy
from repro.parallel import (
    BroadcastPartitioner,
    KeyPartitioner,
    ParallelCEPEngine,
    StreamingMatchDeduplicator,
    match_signature,
)
from repro.streaming import (
    Backpressure,
    BoundedBuffer,
    CallbackSource,
    Checkpoint,
    CheckpointStore,
    CollectorSink,
    CSVFileSource,
    DropNewest,
    DropOldest,
    IterableSource,
    JSONLFileSource,
    JSONLMatchWriter,
    MetricsSink,
    NO_EVENT,
    RateLimiter,
    ReplaySource,
    StreamingPipeline,
    overflow_policy_by_name,
    write_events_csv,
    write_events_jsonl,
)
from repro.streaming.sinks import match_record

from tests.conftest import make_camera_stream


def _fresh_engine(pattern):
    return AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())


def _signatures(matches):
    return [match_signature(match) for match in matches]


# ----------------------------------------------------------------------
# Rate limiting
# ----------------------------------------------------------------------
class FakeClock:
    """Deterministic clock + sleep pair for rate-limit tests."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0
        self.sleeps.append(seconds)
        self.now += seconds


class TestRateLimiter:
    def test_paces_to_target_rate(self):
        fake = FakeClock()
        limiter = RateLimiter(10.0, clock=fake.clock, sleep=fake.sleep)
        for _ in range(5):
            limiter.wait()
        # First event is immediate; each subsequent one is 0.1s later.
        assert fake.sleeps == pytest.approx([0.1, 0.1, 0.1, 0.1])
        assert fake.now == pytest.approx(0.4)

    def test_slow_consumer_is_not_penalised(self):
        fake = FakeClock()
        limiter = RateLimiter(10.0, clock=fake.clock, sleep=fake.sleep)
        limiter.wait()
        fake.now += 1.0  # consumer was busy for 10 event periods
        limiter.wait()  # already overdue: no sleep
        assert fake.sleeps == []

    def test_rejects_non_positive_rate(self):
        with pytest.raises(StreamingError):
            RateLimiter(0.0)


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class TestSources:
    def _events(self, count=6):
        kind = EventType("A")
        return [Event(kind, float(index)) for index in range(count)]

    def test_iterable_source_yields_in_order(self):
        events = self._events()
        source = IterableSource(events)
        assert list(source) == events
        assert source.events_emitted == len(events)

    def test_source_is_single_pass(self):
        source = IterableSource(self._events())
        list(source)
        with pytest.raises(Exception, match="single-pass"):
            list(source)

    def test_skip_fast_forwards(self):
        events = self._events()
        source = IterableSource(events)
        source.skip(4)
        assert list(source) == events[4:]
        assert source.events_emitted == 2

    def test_skip_after_iteration_starts_rejected(self):
        source = IterableSource(self._events())
        next(iter(source))
        with pytest.raises(StreamingError):
            source.skip(1)

    def test_callback_source_ends_on_none(self):
        events = self._events(3)
        queue = list(events)
        source = CallbackSource(lambda: queue.pop(0) if queue else None)
        assert list(source) == events

    def test_callback_source_no_event_is_not_eof(self):
        # NO_EVENT means "nothing available yet" — the source polls on,
        # unlike None which terminates the stream.
        events = self._events(2)
        replies = [events[0], NO_EVENT, NO_EVENT, events[1], None]
        source = CallbackSource(lambda: replies.pop(0))
        assert list(source) == events

    def test_callback_source_on_idle_runs_after_no_event(self):
        events = self._events(1)
        replies = [NO_EVENT, NO_EVENT, events[0], None]
        idles = []
        source = CallbackSource(
            lambda: replies.pop(0), on_idle=lambda: idles.append(len(idles))
        )
        assert list(source) == events
        assert idles == [0, 1]  # once per NO_EVENT

    def test_callback_source_on_idle_false_ends_the_stream(self):
        source = CallbackSource(lambda: NO_EVENT, on_idle=lambda: False)
        assert list(source) == []

    def test_callback_source_rejects_non_callable_on_idle(self):
        with pytest.raises(StreamingError):
            CallbackSource(lambda: None, on_idle=42)

    def test_replay_source_throttles(self):
        import time

        events = self._events(40)
        started = time.monotonic()
        replayed = list(ReplaySource(events, rate=2000.0))
        elapsed = time.monotonic() - started
        assert replayed == events
        # 40 events at 2000/s: the last is scheduled 39/2000 ≈ 19.5ms in.
        assert elapsed >= 0.019

    def test_replay_source_unthrottled_by_default(self):
        events = self._events()
        assert list(ReplaySource(events)) == events


class TestFileSources:
    def _types(self):
        return {"A": EventType("A"), "B": EventType("B")}

    def _events(self):
        types = self._types()
        return [
            Event(types["A"], 0.5, {"price": 10.0, "entity_id": 1}),
            Event(types["B"], 1.25, {"price": 11.5, "entity_id": 2}),
            Event(types["A"], 2.0, {"price": 9.75, "entity_id": 1}),
        ]

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        events = self._events()
        assert write_events_jsonl(events, path) == 3
        loaded = list(JSONLFileSource(path, self._types()))
        assert [(e.type_name, e.timestamp, e.payload) for e in loaded] == [
            (e.type_name, e.timestamp, e.payload) for e in events
        ]

    def test_file_reads_are_deterministic(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_events_jsonl(self._events(), path)
        first = list(JSONLFileSource(path, self._types()))
        second = list(JSONLFileSource(path, self._types()))
        # Sequence numbers come from the record index, so replays are
        # byte-identical — the property checkpoint/resume relies on.
        assert first == second
        assert [e.sequence_number for e in first] == [0, 1, 2]

    def test_csv_round_trip_coerces_numbers(self, tmp_path):
        path = str(tmp_path / "events.csv")
        events = self._events()
        assert write_events_csv(events, path) == 3
        loaded = list(CSVFileSource(path, self._types()))
        assert [(e.type_name, e.timestamp, e.payload) for e in loaded] == [
            (e.type_name, e.timestamp, e.payload) for e in events
        ]
        assert isinstance(loaded[0].payload["entity_id"], int)
        assert isinstance(loaded[0].payload["price"], float)

    def test_csv_quoted_newlines_survive(self, tmp_path):
        path = str(tmp_path / "multiline.csv")
        kind = EventType("A")
        events = [Event(kind, 1.0, {"note": "first\n\nsecond", "price": 2.5})]
        write_events_csv(events, path)
        loaded = list(CSVFileSource(path, {"A": kind}))
        assert len(loaded) == 1
        assert loaded[0].payload["note"] == "first\n\nsecond"
        assert loaded[0].payload["price"] == 2.5

    def test_csv_skips_blank_lines_between_records(self, tmp_path):
        path = str(tmp_path / "gappy.csv")
        with open(path, "w") as handle:
            handle.write("type,timestamp,price\n\nA,1.0,2.5\n\nA,2.0,3.5\n")
        loaded = list(CSVFileSource(path, {"A": EventType("A")}))
        assert [e.timestamp for e in loaded] == [1.0, 2.0]
        assert [e.sequence_number for e in loaded] == [0, 1]

    def test_invalid_json_names_the_line(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"type": "A", "timestamp": 1.0}\nnot json\n')
        with pytest.raises(StreamingError, match=":2"):
            list(JSONLFileSource(path, self._types()))

    def test_unknown_event_type_rejected(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as handle:
            handle.write('{"type": "Z", "timestamp": 1.0}\n')
        with pytest.raises(StreamingError, match="unknown event type"):
            list(JSONLFileSource(path, self._types()))

    def test_follow_picks_up_appended_lines(self, tmp_path):
        path = str(tmp_path / "tail.jsonl")
        write_events_jsonl(self._events(), path)
        appended = {"done": False}

        source = JSONLFileSource(path, self._types(), follow=True)

        def fake_sleep(_seconds):
            # First EOF poll: the "writer" appends one more event, which the
            # next readline must pick up; afterwards end the tail.
            if not appended["done"]:
                with open(path, "a") as handle:
                    handle.write('{"type": "B", "timestamp": 9.0}\n')
                appended["done"] = True
            else:
                source.stop_following()

        source._sleep = fake_sleep
        loaded = list(source)
        assert len(loaded) == 4
        assert loaded[-1].timestamp == 9.0

    def test_skip_seeks_past_checkpointed_prefix(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_events_jsonl(self._events(), path)
        source = JSONLFileSource(path, self._types())
        source.skip(2)
        loaded = list(source)
        assert len(loaded) == 1
        assert loaded[0].sequence_number == 2


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def _some_matches(count=3):
    stream = make_camera_stream(count=400, seed=3)
    from repro.patterns import seq
    from repro.conditions import AndCondition, EqualityCondition

    pattern = seq(
        [EventType("A"), EventType("B"), EventType("C")],
        condition=AndCondition(
            [
                EqualityCondition("a", "b", "person_id"),
                EqualityCondition("b", "c", "person_id"),
            ]
        ),
        window=10.0,
    )
    matches = _fresh_engine(pattern).run(stream).matches
    assert len(matches) >= count, "fixture stream must produce enough matches"
    return matches[:count]


class TestSinks:
    def test_collector_truncates_on_restore(self):
        matches = _some_matches(3)
        sink = CollectorSink()
        sink.emit(matches[0])
        sink.emit(matches[1])
        state = sink.state()
        sink.emit(matches[2])
        sink.restore(state)
        assert sink.matches == matches[:2]

    def test_collector_rejects_impossible_rollback(self):
        sink = CollectorSink()
        with pytest.raises(CheckpointError):
            sink.restore(5)

    def test_jsonl_writer_round_trip_and_rollback(self, tmp_path):
        path = str(tmp_path / "matches.jsonl")
        matches = _some_matches(3)
        sink = JSONLMatchWriter(path)
        sink.open()
        sink.emit(matches[0])
        sink.emit(matches[1])
        state = sink.state()
        sink.emit(matches[2])
        sink.close()
        assert len(open(path).read().splitlines()) == 3

        # Roll back to the two-match checkpoint, then append a new match —
        # exactly the resume sequence of the pipeline.
        resumed = JSONLMatchWriter(path)
        resumed.restore(state)
        resumed.open()
        resumed.emit(matches[2])
        resumed.close()
        lines = open(path).read().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0]) == match_record(matches[0])
        assert json.loads(lines[2]) == match_record(matches[2])

    def test_jsonl_writer_requires_open(self, tmp_path):
        sink = JSONLMatchWriter(str(tmp_path / "m.jsonl"))
        with pytest.raises(StreamingError):
            sink.emit(_some_matches(1)[0])

    def test_jsonl_writer_state_after_close_keeps_offset(self, tmp_path):
        # A checkpoint cut after close() must record the real file offset:
        # {"offset": 0} here would make a later restore truncate everything.
        path = str(tmp_path / "matches.jsonl")
        matches = _some_matches(2)
        sink = JSONLMatchWriter(path)
        sink.open()
        for match in matches:
            sink.emit(match)
        open_state = sink.state()
        sink.close()
        closed_state = sink.state()
        assert closed_state == open_state
        assert closed_state["offset"] > 0 and closed_state["matches"] == 2

        resumed = JSONLMatchWriter(path)
        resumed.restore(closed_state)
        assert len(open(path).read().splitlines()) == 2  # nothing truncated
        assert resumed.matches_written == 2

    def test_jsonl_writer_rollback_to_zero_empties_a_populated_file(self, tmp_path):
        # offset 0 is a legitimate checkpoint (cut before any match): the
        # rollback withdraws every line, it is not a malformed state.
        path = str(tmp_path / "matches.jsonl")
        sink = JSONLMatchWriter(path)
        sink.open()
        state = sink.state()
        for match in _some_matches(2):
            sink.emit(match)
        sink.close()
        assert open(path).read().splitlines()
        resumed = JSONLMatchWriter(path)
        resumed.restore(state)
        assert open(path).read() == ""
        assert resumed.matches_written == 0

    def test_jsonl_writer_restore_rejects_malformed_state(self, tmp_path):
        sink = JSONLMatchWriter(str(tmp_path / "m.jsonl"))
        with pytest.raises(CheckpointError, match="jsonl-writer sink"):
            sink.restore({"offset": 10})  # missing "matches"
        with pytest.raises(CheckpointError, match="jsonl-writer sink"):
            sink.restore({"offset": "ten", "matches": 1})
        with pytest.raises(CheckpointError, match="jsonl-writer sink"):
            sink.restore([10, 1])
        sink.restore(None)  # empty state = fresh start, not an error

    def test_collector_restore_rejects_malformed_state(self):
        sink = CollectorSink()
        with pytest.raises(CheckpointError, match="collector sink"):
            sink.restore("many")
        with pytest.raises(CheckpointError, match="collector sink"):
            sink.restore({"count": 2})

    def test_metrics_sink_restore_rejects_malformed_state(self):
        sink = MetricsSink()
        with pytest.raises(CheckpointError, match="metrics sink"):
            sink.restore({"total": 1})  # missing per_pattern
        with pytest.raises(CheckpointError, match="metrics sink"):
            sink.restore({"total": "lots", "per_pattern": {}, "last_detection_time": None})
        with pytest.raises(CheckpointError, match="metrics sink"):
            sink.restore(7)
        sink.restore(None)

    def test_metrics_sink_counts(self):
        matches = _some_matches(2)
        sink = MetricsSink()
        for match in matches:
            sink.emit(match)
        assert sink.total == 2
        assert sum(sink.per_pattern.values()) == 2
        state = sink.state()
        sink.emit(matches[0])
        sink.restore(state)
        assert sink.total == 2


# ----------------------------------------------------------------------
# Buffering and overflow policies
# ----------------------------------------------------------------------
class TestBoundedBuffer:
    def _event(self, t=0.0):
        return Event(EventType("A"), t)

    def test_backpressure_refuses_when_full(self):
        buffer = BoundedBuffer(2, Backpressure())
        assert buffer.offer(self._event(0))
        assert buffer.offer(self._event(1))
        assert not buffer.offer(self._event(2))
        assert buffer.depth == 2
        assert buffer.events_shed == 0

    def test_drop_newest_sheds_incoming(self):
        buffer = BoundedBuffer(2, DropNewest())
        first, second, third = (self._event(t) for t in (0, 1, 2))
        assert buffer.offer(first) and buffer.offer(second)
        assert buffer.offer(third)  # consumed (shed), not buffered
        assert buffer.snapshot_events() == [first, second]
        assert buffer.events_shed == 1

    def test_drop_oldest_evicts(self):
        buffer = BoundedBuffer(2, DropOldest())
        first, second, third = (self._event(t) for t in (0, 1, 2))
        buffer.offer(first)
        buffer.offer(second)
        assert buffer.offer(third)
        assert buffer.snapshot_events() == [second, third]
        assert buffer.events_shed == 1

    def test_high_water_mark(self):
        buffer = BoundedBuffer(4)
        for t in range(3):
            buffer.offer(self._event(t))
        buffer.pop()
        assert buffer.high_water == 3

    def test_policy_factory(self):
        assert isinstance(overflow_policy_by_name("drop-oldest"), DropOldest)
        with pytest.raises(StreamingError):
            overflow_policy_by_name("bogus")

    def test_rejects_bad_capacity(self):
        with pytest.raises(StreamingError):
            BoundedBuffer(0)


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def _checkpoint(self, events=100):
        engine = _fresh_engine(_camera_pattern())
        return Checkpoint(
            events_processed=events,
            matches_emitted=1,
            engine_blob=snapshot_engine(engine),
            sink_states=[None],
            pattern_name=engine.pattern.name,
        )

    def test_save_load_latest(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        assert store.latest() is None
        store.save(self._checkpoint(100))
        store.save(self._checkpoint(200))
        latest = store.latest()
        assert latest.events_processed == 200
        assert isinstance(restore_engine(latest.engine_blob), AdaptiveCEPEngine)

    def test_prunes_to_keep(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"), keep=2)
        for events in (1, 2, 3, 4):
            store.save(self._checkpoint(events))
        assert store.stats()["checkpoints"] == 2
        assert store.latest().events_processed == 4

    def test_corrupt_newest_falls_back(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.save(self._checkpoint(100))
        path = store.save(self._checkpoint(200))
        with open(path, "wb") as handle:
            handle.write(b"torn write")
        assert store.latest().events_processed == 100

    def test_clear(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.save(self._checkpoint())
        assert store.clear() == 1
        assert store.latest() is None


# ----------------------------------------------------------------------
# Engine snapshot/restore
# ----------------------------------------------------------------------
def _camera_pattern():
    from repro.patterns import seq
    from repro.conditions import AndCondition, EqualityCondition

    return seq(
        [EventType("A"), EventType("B"), EventType("C")],
        condition=AndCondition(
            [
                EqualityCondition("a", "b", "person_id"),
                EqualityCondition("b", "c", "person_id"),
            ]
        ),
        window=10.0,
    )


class TestEngineSnapshot:
    def test_mid_stream_snapshot_resumes_identically(self):
        pattern = _camera_pattern()
        events = make_camera_stream(count=400, seed=7).to_list()
        expected = _signatures(_fresh_engine(pattern).run(events).matches)

        engine = _fresh_engine(pattern)
        collected = []
        half = len(events) // 2
        for event in events[:half]:
            collected.extend(engine.process(event))
        resumed = AdaptiveCEPEngine.restore_state(engine.snapshot_state())
        for event in events[half:]:
            collected.extend(resumed.process(event))
        assert _signatures(collected) == expected

    def test_restore_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            restore_engine(b"not a snapshot")

    def test_restore_rejects_wrong_type(self):
        engine = _fresh_engine(_camera_pattern())
        blob = engine.snapshot_state()
        with pytest.raises(ParallelExecutionError):
            ParallelCEPEngine.restore_state(blob)

    def test_snapshot_requires_an_engine(self):
        with pytest.raises(CheckpointError):
            snapshot_engine(object())


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class TestPipeline:
    def test_matches_batch_engine_exactly(self):
        pattern = _camera_pattern()
        events = make_camera_stream(count=400, seed=5).to_list()
        expected = _signatures(_fresh_engine(pattern).run(events).matches)

        collector = CollectorSink()
        pipeline = StreamingPipeline(
            _fresh_engine(pattern), ReplaySource(events), sinks=[collector]
        )
        result = pipeline.run()
        assert _signatures(collector.matches) == expected
        assert result.events_processed == len(events)
        assert result.matches_emitted == len(expected)
        assert result.stop_reason == "source-exhausted"

    def test_rate_controlled_source_matches_batch_on_keyed_workload(self):
        pattern, stream = _keyed_workload()
        events = stream.to_list()
        expected = [
            json.dumps(match_record(match))
            for match in _fresh_engine(pattern).run(events).matches
        ]
        assert expected

        collector = CollectorSink()
        pipeline = StreamingPipeline(
            _fresh_engine(pattern),
            ReplaySource(events, rate=100_000.0),
            sinks=[collector],
        )
        pipeline.run()
        served = [json.dumps(match_record(match)) for match in collector.matches]
        assert served == expected  # byte-identical to the batch engine

    def test_max_events_bounds_the_run(self):
        events = make_camera_stream(count=100).to_list()
        pipeline = StreamingPipeline(_fresh_engine(_camera_pattern()), events)
        result = pipeline.run(max_events=40)
        assert result.events_processed == 40
        assert result.stop_reason == "max-events"

    def test_stop_is_graceful(self):
        events = make_camera_stream(count=300, seed=5).to_list()
        pipeline = StreamingPipeline(
            _fresh_engine(_camera_pattern()),
            events,
            fill_chunk=16,
            buffer_capacity=16,
        )

        class StopOnFirstMatch(CollectorSink):
            def emit(self, match):
                super().emit(match)
                pipeline.stop()

        sink = StopOnFirstMatch()
        pipeline._sinks.append(sink)
        result = pipeline.run()
        assert result.stop_reason == "stopped"
        assert result.events_processed < len(events)
        assert len(sink.matches) >= 1

    def test_stop_interrupts_the_fill_phase(self):
        events = make_camera_stream(count=200).to_list()
        queue = list(events)
        state = {}

        def poll():
            if len(queue) <= len(events) - 6:
                state["pipeline"].stop()
            return queue.pop(0) if queue else None

        pipeline = StreamingPipeline(
            _fresh_engine(_camera_pattern()), CallbackSource(poll)
        )
        state["pipeline"] = pipeline
        result = pipeline.run()
        assert result.stop_reason == "stopped"
        # The fill loop must break as soon as stop() is called instead of
        # pulling a full fill chunk (256) through the source.
        assert pipeline.source.events_emitted <= 8

    def test_submit_and_drain_with_shedding(self):
        pattern = _camera_pattern()
        events = make_camera_stream(count=50).to_list()
        pipeline = StreamingPipeline(
            _fresh_engine(pattern),
            [],
            buffer_capacity=8,
            overflow_policy=DropNewest(),
        )
        accepted = sum(1 for event in events if pipeline.submit(event))
        assert accepted == len(events)  # drop policy always consumes
        pipeline.drain()
        assert pipeline.metrics.events_processed == 8
        assert pipeline.metrics.events_shed == len(events) - 8

    def test_submit_backpressure_refuses(self):
        events = make_camera_stream(count=10).to_list()
        pipeline = StreamingPipeline(
            _fresh_engine(_camera_pattern()), [], buffer_capacity=4
        )
        results = [pipeline.submit(event) for event in events]
        assert results.count(True) == 4
        assert results.count(False) == 6

    def test_checkpoint_kill_resume_is_exactly_once(self, tmp_path):
        pattern = _camera_pattern()
        events = make_camera_stream(count=400, seed=11).to_list()
        expected = [
            json.dumps(match_record(match))
            for match in _fresh_engine(pattern).run(events).matches
        ]
        assert expected, "fixture must produce matches"

        matches_path = str(tmp_path / "matches.jsonl")
        store = CheckpointStore(str(tmp_path / "ckpt"))

        def build():
            return StreamingPipeline(
                _fresh_engine(pattern),
                ReplaySource(events),
                sinks=[JSONLMatchWriter(matches_path)],
                checkpoint_store=store,
                checkpoint_every=75,
            )

        # Kill mid-stream: no final checkpoint, sink retains post-checkpoint
        # matches that the resumed run will re-derive.
        first = build().run(max_events=260, final_checkpoint=False)
        assert first.metrics.checkpoints_written == 3  # at 75/150/225

        second = build().run()
        assert second.resumed_from == 225
        served = [line for line in open(matches_path).read().splitlines() if line]
        assert served == expected  # nothing lost, nothing duplicated

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        events = make_camera_stream(count=120).to_list()
        store = CheckpointStore(str(tmp_path / "ckpt"))
        StreamingPipeline(
            _fresh_engine(_camera_pattern()),
            ReplaySource(events),
            checkpoint_store=store,
            checkpoint_every=50,
        ).run()

        # A pipeline over a differently-named pattern must refuse the store.
        from repro.patterns import seq

        other = seq(
            [EventType("A"), EventType("B")],
            window=10.0,
            name="other-pattern",
        )
        with pytest.raises(CheckpointError, match="pattern"):
            StreamingPipeline(
                _fresh_engine(other),
                ReplaySource(events),
                checkpoint_store=store,
            ).run()

    def test_checkpoint_every_requires_store(self):
        with pytest.raises(StreamingError):
            StreamingPipeline(
                _fresh_engine(_camera_pattern()), [], checkpoint_every=10
            )


# ----------------------------------------------------------------------
# Parallel streaming ingestion
# ----------------------------------------------------------------------
def _keyed_workload():
    from repro.datasets import StockDatasetSimulator
    from repro.workloads import WorkloadGenerator

    dataset = StockDatasetSimulator(duration_hint=60.0)
    workload = WorkloadGenerator(dataset, seed=1)
    return workload.keyed_workload(3, duration=60.0, entities=4, max_events=2500)


class TestParallelStreaming:
    def test_key_partitioned_streaming_matches_sequential(self):
        pattern, stream = _keyed_workload()
        events = stream.to_list()
        expected = sorted(_signatures(_fresh_engine(pattern).run(events).matches))
        assert expected, "keyed workload must produce matches"

        engine = ParallelCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            shards=2,
            partitioner=KeyPartitioner("entity_id"),
        )
        collected = []
        for event in events:
            collected.extend(engine.process(event))
        assert sorted(_signatures(collected)) == expected

    def test_broadcast_streaming_deduplicates(self):
        pattern = _camera_pattern()
        events = make_camera_stream(count=300, seed=5).to_list()
        expected = sorted(_signatures(_fresh_engine(pattern).run(events).matches))
        assert expected

        engine = ParallelCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            shards=2,
            partitioner=BroadcastPartitioner(),
        )
        collected = []
        for event in events:
            collected.extend(engine.process(event))
        assert sorted(_signatures(collected)) == expected
        assert engine._streaming_dedup.duplicates_dropped >= len(expected)

    def test_sharded_checkpoint_kill_resume(self, tmp_path):
        pattern, stream = _keyed_workload()
        events = stream.to_list()
        expected = [
            json.dumps(match_record(match))
            for match in _fresh_engine(pattern).run(events).matches
        ]
        assert expected

        matches_path = str(tmp_path / "matches.jsonl")
        store = CheckpointStore(str(tmp_path / "ckpt"))

        def build():
            engine = ParallelCEPEngine(
                pattern,
                GreedyOrderPlanner(),
                InvariantBasedPolicy(),
                shards=2,
                partitioner=KeyPartitioner("entity_id"),
            )
            return StreamingPipeline(
                engine,
                ReplaySource(events),
                sinks=[JSONLMatchWriter(matches_path)],
                checkpoint_store=store,
                checkpoint_every=500,
            )

        build().run(max_events=len(events) // 2, final_checkpoint=False)
        second = build().run()
        assert second.resumed_from > 0
        served = [line for line in open(matches_path).read().splitlines() if line]
        assert served == expected

    def test_dedup_window_eviction_bounds_memory(self):
        dedup = StreamingMatchDeduplicator(window=10.0)
        matches = _some_matches(2)
        admitted = dedup.filter(matches, now=matches[-1].detection_time)
        assert admitted == matches
        # Far in the future, the signatures have been evicted; re-reporting
        # is impossible in practice (events expired), so re-admission of the
        # same signature is acceptable — the memory stays bounded.
        dedup.filter([], now=matches[-1].detection_time + 100.0)
        assert len(dedup._seen) == 0
