"""Tests for the multi-core streaming execution backends (repro.streaming.workers)."""

from __future__ import annotations

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.engine import AdaptiveCEPEngine
from repro.engine.state import (
    is_shard_snapshot,
    restore_shard_states,
    snapshot_engine,
    snapshot_shard_states,
)
from repro.errors import CheckpointError, StreamingError
from repro.events import EventType
from repro.optimizer import GreedyOrderPlanner
from repro.parallel import (
    BroadcastPartitioner,
    KeyPartitioner,
    ParallelCEPEngine,
    Shard,
    build_replica,
    match_signature,
)
from repro.streaming import (
    CheckpointStore,
    CollectorSink,
    InlineBackend,
    ProcessWorkerBackend,
    ReplaySource,
    StreamingPipeline,
    ThreadWorkerBackend,
    backend_by_name,
)
from tests.conftest import make_camera_stream

from repro.conditions import AndCondition, EqualityCondition
from repro.patterns import seq


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
# Shard lifecycle: init / feed
# ----------------------------------------------------------------------
class TestShardFeedLifecycle:
    def test_feed_matches_run_to_completion(self):
        pattern = _camera_pattern()
        events = make_camera_stream(count=200, seed=2).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        assert expected

        shard = Shard(
            0,
            build_replica(
                pattern, GreedyOrderPlanner(), InvariantBasedPolicy(), None, None, 1.0
            ),
        )
        collected = []
        for start in range(0, len(events), 16):
            collected.extend(shard.feed(events[start : start + 16]))
        assert _signatures(collected) == expected


# ----------------------------------------------------------------------
# Shard-state framing
# ----------------------------------------------------------------------
class TestShardStateFraming:
    def test_round_trip(self):
        engine = _sequential_engine(_camera_pattern())
        blob = snapshot_shard_states(
            [snapshot_engine(engine)], {"num_shards": 1, "note": "x"}
        )
        assert is_shard_snapshot(blob)
        blobs, meta = restore_shard_states(blob)
        assert len(blobs) == 1
        assert meta["note"] == "x"

    def test_rejects_non_engine_blobs(self):
        with pytest.raises(CheckpointError, match="snapshot_engine"):
            snapshot_shard_states([b"not-a-frame"])

    def test_rejects_empty(self):
        with pytest.raises(CheckpointError, match="at least one"):
            snapshot_shard_states([])

    def test_rejects_bad_magic(self):
        with pytest.raises(CheckpointError, match="magic"):
            restore_shard_states(b"garbage-bytes-here")

    def test_engine_frame_is_not_shard_frame(self):
        blob = snapshot_engine(_sequential_engine(_camera_pattern()))
        assert not is_shard_snapshot(blob)
        with pytest.raises(CheckpointError):
            restore_shard_states(blob)


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

    def test_rejects_worker_checkpoint(self):
        engine = _sequential_engine(_camera_pattern())
        backend = InlineBackend(engine)
        shard_blob = snapshot_shard_states([snapshot_engine(engine)])
        with pytest.raises(CheckpointError, match="multi-worker"):
            backend.restore(shard_blob)

    def test_pipeline_wraps_bare_engine(self):
        pipeline = StreamingPipeline(_sequential_engine(_camera_pattern()), [])
        assert pipeline.backend.name == "inline"


# ----------------------------------------------------------------------
# Worker backends (threads and processes)
# ----------------------------------------------------------------------
@pytest.fixture(params=["thread", "process"])
def backend_name(request):
    return request.param


def _make_backend(name, engine, **kwargs):
    cls = {"thread": ThreadWorkerBackend, "process": ProcessWorkerBackend}[name]
    return cls(engine, **kwargs)


class TestWorkerBackends:
    def test_requires_parallel_engine(self, backend_name):
        with pytest.raises(StreamingError, match="ParallelCEPEngine"):
            _make_backend(backend_name, _sequential_engine(_camera_pattern()))

    def test_matches_equal_sequential(self, backend_name):
        pattern = _camera_pattern()
        events = make_camera_stream(count=250, seed=5).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        assert expected

        backend = _make_backend(
            backend_name, _parallel_engine(pattern), feed_batch=16
        )
        collected = []
        try:
            for event in events:
                backend.submit(event)
                collected.extend(backend.collect())
            collected.extend(backend.flush())
        finally:
            backend.close()
        assert _signatures(collected) == expected

    def test_flush_is_a_barrier(self, backend_name):
        pattern = _camera_pattern()
        events = make_camera_stream(count=100, seed=6).to_list()
        backend = _make_backend(
            backend_name, _parallel_engine(pattern), feed_batch=1000
        )
        try:
            for event in events:
                backend.submit(event)  # feed_batch never reached: all pending
            matches = backend.flush()
            expected = _signatures(_sequential_engine(pattern).run(events).matches)
            assert _signatures(matches) == expected
        finally:
            backend.close()

    def test_snapshot_restore_round_trip(self, backend_name):
        pattern = _camera_pattern()
        events = make_camera_stream(count=300, seed=7).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        split = 150

        first = _make_backend(backend_name, _parallel_engine(pattern), feed_batch=8)
        collected = []
        try:
            for event in events[:split]:
                first.submit(event)
            collected.extend(first.flush())
            blob = first.snapshot()
        finally:
            first.close()
        assert is_shard_snapshot(blob)

        second = _make_backend(backend_name, _parallel_engine(pattern), feed_batch=8)
        try:
            second.restore(blob)
            for event in events[split:]:
                second.submit(event)
            collected.extend(second.flush())
        finally:
            second.close()
        assert _signatures(collected) == expected

    def test_restore_rejects_wrong_shard_count(self, backend_name):
        pattern = _camera_pattern()
        donor = _make_backend(backend_name, _parallel_engine(pattern, shards=3))
        blob = donor.snapshot()  # never started: local replica snapshot
        backend = _make_backend(backend_name, _parallel_engine(pattern, shards=2))
        with pytest.raises(CheckpointError, match="worker count"):
            backend.restore(blob)

    def test_restore_adopts_inline_parallel_checkpoint(self, backend_name):
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

        backend = _make_backend(backend_name, _parallel_engine(pattern))
        try:
            backend.restore(blob)
            for event in events[split:]:
                backend.submit(event)
            collected.extend(backend.flush())
        finally:
            backend.close()
        assert _signatures(collected) == expected

    def test_close_is_idempotent_and_restartable(self, backend_name):
        pattern = _camera_pattern()
        events = make_camera_stream(count=200, seed=9).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        backend = _make_backend(backend_name, _parallel_engine(pattern))
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

    def test_plan_history_is_shard_prefixed(self, backend_name):
        backend = _make_backend(backend_name, _parallel_engine(_camera_pattern()))
        history = backend.plan_history()
        assert history
        assert all(entry.startswith("shard ") for entry in history)


class TestWorkerFailure:
    def test_worker_error_propagates(self):
        pattern = _camera_pattern()
        backend = ThreadWorkerBackend(_parallel_engine(pattern), feed_batch=1)

        class _Crashing:
            def process(self, event):
                raise RuntimeError("engine exploded")

        backend._engines[0] = _Crashing()
        try:
            with pytest.raises(StreamingError, match="worker failed"):
                for event in make_camera_stream(count=50, seed=1).to_list():
                    backend.submit(event)
                backend.flush()
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------
class TestPipelineWithWorkers:
    def test_worker_pipeline_matches_inline(self, backend_name):
        pattern = _camera_pattern()
        events = make_camera_stream(count=250, seed=10).to_list()

        inline_sink = CollectorSink()
        StreamingPipeline(
            _sequential_engine(pattern), ReplaySource(events), sinks=[inline_sink]
        ).run()
        expected = _signatures(inline_sink.matches)
        assert expected

        worker_sink = CollectorSink()
        backend = _make_backend(
            backend_name, _parallel_engine(pattern), feed_batch=16
        )
        result = StreamingPipeline(
            backend, ReplaySource(events), sinks=[worker_sink]
        ).run()
        assert _signatures(worker_sink.matches) == expected
        assert result.events_processed == len(events)
        assert result.matches_emitted == len(expected)

    def test_worker_lane_metrics_populated(self, backend_name):
        pattern = _camera_pattern()
        events = make_camera_stream(count=120, seed=12).to_list()
        backend = _make_backend(
            backend_name, _parallel_engine(pattern), feed_batch=8
        )
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

    def test_keyed_worker_pipeline(self, backend_name):
        pattern = _camera_pattern()
        events = make_camera_stream(count=250, seed=13).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        sink = CollectorSink()
        backend = _make_backend(
            backend_name,
            _parallel_engine(pattern, partitioner=KeyPartitioner("person_id")),
            feed_batch=4,
        )
        StreamingPipeline(backend, ReplaySource(events), sinks=[sink]).run()
        assert _signatures(sink.matches) == expected

    def test_checkpoint_kill_resume_with_workers(self, backend_name, tmp_path):
        pattern = _camera_pattern()
        events = make_camera_stream(count=400, seed=11).to_list()
        expected = _signatures(_sequential_engine(pattern).run(events).matches)
        assert expected

        sink_path = str(tmp_path / "matches.jsonl")
        store = CheckpointStore(str(tmp_path / "ckpt"))

        from repro.streaming import JSONLMatchWriter

        def build():
            backend = _make_backend(
                backend_name, _parallel_engine(pattern), feed_batch=8
            )
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


# ----------------------------------------------------------------------
# Factory and store clock
# ----------------------------------------------------------------------
class TestFactoryAndClock:
    def test_backend_by_name(self):
        engine = _parallel_engine(_camera_pattern())
        assert backend_by_name("inline", engine).name == "inline"
        assert backend_by_name("thread", engine).name == "thread"
        assert backend_by_name("process", engine).name == "process"
        with pytest.raises(StreamingError, match="unknown backend"):
            backend_by_name("gpu", engine)

    def test_checkpoint_store_uses_injected_clock(self, tmp_path):
        from repro.streaming import Checkpoint

        ticks = iter([111.0, 222.0])
        store = CheckpointStore(str(tmp_path), clock=lambda: next(ticks))
        blob = snapshot_engine(_sequential_engine(_camera_pattern()))
        store.save(Checkpoint(events_processed=1, matches_emitted=0, engine_blob=blob))
        store.save(Checkpoint(events_processed=2, matches_emitted=0, engine_blob=blob))
        assert store.load(0).created_at == 111.0
        assert store.load(1).created_at == 222.0
