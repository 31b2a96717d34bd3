"""Event-time ordering: watermarks, the reorder buffer and late policies.

Unit tests for :mod:`repro.streaming.ordering` plus the integration
surface the tentpole wires it into: the pipeline ordering stage, the
metrics gauges, the checkpointed in-flight reorder buffer, and the
late-sample tolerance of the sliding-window statistics.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.engine import AdaptiveCEPEngine
from repro.engine.state import (
    is_ordering_snapshot,
    restore_ordering_state,
    snapshot_ordering_state,
)
from repro.errors import CheckpointError, StreamingError
from repro.events import Event, EventType
from repro.optimizer import GreedyOrderPlanner
from repro.streaming import (
    BoundedOutOfOrdernessWatermarks,
    CheckpointStore,
    CollectorSink,
    FILL_CHUNK,
    JSONLMatchWriter,
    PayloadWatermarkExtractor,
    PunctuatedWatermarks,
    ReorderBuffer,
    ReplaySource,
    StreamingPipeline,
    bounded_shuffle,
    reorder_events,
)
from repro.streaming.sinks import match_record
from tests.conftest import make_camera_stream

E = EventType("E")


def _event(ts, seq=None, **payload):
    return Event(E, ts, payload, sequence_number=seq)


def _sequential_engine(pattern):
    return AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())


def _records(matches):
    return sorted(json.dumps(match_record(match)) for match in matches)


# ----------------------------------------------------------------------
# Watermark generators
# ----------------------------------------------------------------------
class TestWatermarkGenerators:
    def test_bounded_trails_max_timestamp(self):
        generator = BoundedOutOfOrdernessWatermarks(2.0)
        assert generator.current_watermark == float("-inf")
        assert generator.observe(_event(10.0)) == 8.0
        # A smaller timestamp never regresses the watermark.
        assert generator.observe(_event(5.0)) is None
        assert generator.current_watermark == 8.0
        assert generator.observe(_event(11.0)) == 9.0

    def test_zero_lateness_asserts_sorted(self):
        generator = BoundedOutOfOrdernessWatermarks(0.0)
        assert generator.observe(_event(3.0)) == 3.0

    def test_negative_lateness_rejected(self):
        with pytest.raises(StreamingError):
            BoundedOutOfOrdernessWatermarks(-1.0)

    def test_punctuated_reads_payload_field(self):
        generator = PunctuatedWatermarks(PayloadWatermarkExtractor("wm"))
        assert generator.observe(_event(5.0)) is None  # no punctuation
        assert generator.observe(_event(6.0, wm=4.0)) == 4.0
        assert generator.observe(_event(7.0, wm=3.0)) is None  # monotone
        assert generator.current_watermark == 4.0

    def test_punctuated_requires_callable(self):
        with pytest.raises(StreamingError):
            PunctuatedWatermarks("not-callable")


# ----------------------------------------------------------------------
# The reorder buffer
# ----------------------------------------------------------------------
class TestReorderBuffer:
    def test_sorted_input_passes_through(self):
        buffer = ReorderBuffer(0.0)
        out = []
        for ts in (1.0, 2.0, 3.0):
            out.extend(buffer.push(_event(ts)))
        out.extend(buffer.flush())
        # Each event is held until the watermark strictly passes it (an
        # equal-timestamp peer could still arrive), so the boundary event
        # comes out one step (or one flush) later — but in exact order.
        assert [event.timestamp for event in out] == [1.0, 2.0, 3.0]
        assert buffer.depth == 0
        assert buffer.late_events == 0

    def test_reorders_within_lateness(self):
        buffer = ReorderBuffer(2.0)
        arrivals = [3.0, 1.5, 2.0, 4.0, 3.5, 6.0]
        released = []
        for ts in arrivals:
            released.extend(buffer.push(_event(ts)))
        released.extend(buffer.flush())
        assert [event.timestamp for event in released] == sorted(arrivals)
        assert buffer.late_events == 0

    def test_equal_timestamps_release_by_sequence_number(self):
        buffer = ReorderBuffer(5.0)
        first = _event(1.0, seq=7)
        second = _event(1.0, seq=3)
        buffer.push(first)
        buffer.push(second)
        assert buffer.flush() == [second, first]

    def test_late_drop_counts(self):
        buffer = ReorderBuffer(1.0)
        buffer.push(_event(10.0))  # watermark -> 9.0
        assert buffer.push(_event(5.0)) == []
        assert buffer.late_events == 1
        assert buffer.depth == 1  # only the on-time event

    def test_late_side_output(self):
        diverted = []
        buffer = ReorderBuffer(1.0, late_policy="side-output", late_sink=diverted.append)
        buffer.push(_event(10.0))
        late = _event(5.0)
        buffer.push(late)
        assert diverted == [late]
        assert buffer.late_events == 1

    def test_late_raise(self):
        buffer = ReorderBuffer(1.0, late_policy="raise")
        buffer.push(_event(10.0))
        with pytest.raises(StreamingError, match="late event"):
            buffer.push(_event(5.0))

    def test_side_output_requires_sink(self):
        with pytest.raises(StreamingError):
            ReorderBuffer(1.0, late_policy="side-output")

    def test_unknown_policy_rejected(self):
        with pytest.raises(StreamingError):
            ReorderBuffer(1.0, late_policy="what")

    def test_max_depth_tracks_occupancy(self):
        buffer = ReorderBuffer(10.0)
        for ts in (1.0, 2.0, 3.0):
            buffer.push(_event(ts))
        assert buffer.max_depth == 3
        buffer.flush()
        assert buffer.max_depth == 3

    def test_pending_is_release_ordered(self):
        buffer = ReorderBuffer(10.0)
        buffer.push(_event(3.0))
        buffer.push(_event(1.0))
        assert [event.timestamp for event in buffer.pending()] == [1.0, 3.0]

    def test_pickle_round_trip_preserves_state(self):
        buffer = ReorderBuffer(2.0)
        buffer.push(_event(10.0))
        buffer.push(_event(9.0))
        buffer.push(_event(1.0))  # late
        clone = pickle.loads(pickle.dumps(buffer))
        assert clone.depth == buffer.depth
        assert clone.watermark == buffer.watermark
        assert clone.late_events == 1
        assert [e.timestamp for e in clone.flush()] == [9.0, 10.0]

    def test_punctuated_holds_until_punctuation(self):
        buffer = ReorderBuffer(
            PunctuatedWatermarks(PayloadWatermarkExtractor("wm"))
        )
        for ts in (5.0, 3.0, 4.0):
            assert buffer.push(_event(ts)) == []
        released = buffer.push(_event(6.0, wm=5.0))
        # ts == watermark is held back (an equal-timestamp straggler could
        # still legally arrive); everything strictly below is released.
        assert [event.timestamp for event in released] == [3.0, 4.0]
        assert [event.timestamp for event in buffer.flush()] == [5.0, 6.0]

    def test_boundary_straggler_keeps_sequence_order(self):
        """An arrival with ts exactly on the watermark still sorts by seq.

        Regression: with release-at-<=, B(ts=6,seq=1) was emitted before
        the straggler A(ts=6,seq=0) whenever a third event pushed the
        watermark to exactly 6 between their arrivals.
        """
        buffer = ReorderBuffer(2.0)
        released = []
        released.extend(buffer.push(_event(6.0, seq=1)))
        released.extend(buffer.push(_event(8.0, seq=2)))  # watermark -> 6.0
        released.extend(buffer.push(_event(6.0, seq=0)))  # not late: 6 !< 6
        released.extend(buffer.flush())
        assert buffer.late_events == 0
        keys = [(event.timestamp, event.sequence_number) for event in released]
        assert keys == [(6.0, 0), (6.0, 1), (8.0, 2)]


# ----------------------------------------------------------------------
# bounded_shuffle + offline reordering
# ----------------------------------------------------------------------
class TestBoundedShuffle:
    def test_is_a_seeded_permutation_within_slack(self):
        events = make_camera_stream(count=150, seed=3).to_list()
        shuffled = bounded_shuffle(events, 1.5, seed=11)
        assert shuffled != events
        assert sorted(shuffled) == events
        assert bounded_shuffle(events, 1.5, seed=11) == shuffled
        # Bounded displacement: nothing arrives more than `slack` of stream
        # time after a later event.
        max_seen = float("-inf")
        for event in shuffled:
            assert event.timestamp > max_seen - 1.5 - 1e-9
            max_seen = max(max_seen, event.timestamp)

    def test_recovered_exactly_by_matching_lateness(self):
        events = make_camera_stream(count=200, seed=4).to_list()
        shuffled = bounded_shuffle(events, 2.0, seed=9)
        assert reorder_events(shuffled, 2.0) == events

    def test_negative_slack_rejected(self):
        with pytest.raises(StreamingError):
            bounded_shuffle([], -0.5)

    def test_zero_slack_is_identity(self):
        events = make_camera_stream(count=40, seed=5).to_list()
        assert bounded_shuffle(events, 0.0, seed=1) == events


# ----------------------------------------------------------------------
# Ordering snapshot framing
# ----------------------------------------------------------------------
class TestOrderingSnapshots:
    def test_round_trip(self):
        buffer = ReorderBuffer(2.0)
        buffer.push(_event(10.0))
        staged = [_event(7.0), _event(7.5)]
        blob = snapshot_ordering_state({"ordering": buffer, "staged": staged})
        assert is_ordering_snapshot(blob)
        state = restore_ordering_state(blob)
        assert state["ordering"].depth == 1
        assert state["staged"] == staged

    def test_requires_ordering_entry(self):
        with pytest.raises(CheckpointError):
            snapshot_ordering_state({"staged": []})

    def test_rejects_foreign_blobs(self):
        assert not is_ordering_snapshot(b"junk")
        with pytest.raises(CheckpointError):
            restore_ordering_state(b"junk")


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------
SLACK = 1.5


class TestPipelineOrdering:
    def _run(self, pattern, events, **kwargs):
        sink = CollectorSink()
        pipeline = StreamingPipeline(
            _sequential_engine(pattern),
            ReplaySource(events),
            sinks=[sink],
            **kwargs,
        )
        result = pipeline.run()
        return sink.matches, result

    def test_disordered_stream_equals_sorted_replay(self, camera_pattern):
        inputs = [
            (250, SLACK),
            # Deep end-of-stream release: the lateness exceeds the stream's
            # whole time span, so every event is still held at end-of-stream
            # and released at once — far more than one fill chunk.
            (3000, 400.0),
        ]
        for count, lateness in inputs:
            events = make_camera_stream(count=count, seed=8).to_list()
            reference, _ = self._run(camera_pattern, events)
            shuffled = bounded_shuffle(events, SLACK, seed=13)
            disordered, result = self._run(
                camera_pattern, shuffled, ordering=ReorderBuffer(lateness)
            )
            assert _records(reference)
            assert _records(disordered) == _records(reference), count
            assert result.events_processed == len(events)
            assert result.metrics.late_events == 0
            assert result.metrics.watermark_lag.observations == len(events)
            assert result.metrics.reorder_depth_high_water > 0
        assert result.metrics.reorder_depth_high_water > FILL_CHUNK

    def test_late_events_dropped_and_counted(self, camera_pattern):
        events = make_camera_stream(count=100, seed=9).to_list()
        # Shuffle beyond the tolerance: some events must arrive late.
        shuffled = bounded_shuffle(events, 4.0, seed=17)
        matches, result = self._run(
            camera_pattern, shuffled, ordering=ReorderBuffer(0.5, late_policy="drop")
        )
        assert result.metrics.late_events > 0
        assert result.events_processed == len(events) - result.metrics.late_events

    def test_late_raise_policy_fails_the_run(self, camera_pattern):
        events = make_camera_stream(count=100, seed=9).to_list()
        shuffled = bounded_shuffle(events, 4.0, seed=17)
        with pytest.raises(StreamingError, match="late event"):
            self._run(
                camera_pattern,
                shuffled,
                ordering=ReorderBuffer(0.5, late_policy="raise"),
            )

    def test_late_side_output_receives_events(self, camera_pattern):
        events = make_camera_stream(count=100, seed=10).to_list()
        shuffled = bounded_shuffle(events, 4.0, seed=23)
        diverted = []
        _, result = self._run(
            camera_pattern,
            shuffled,
            ordering=ReorderBuffer(
                0.5, late_policy="side-output", late_sink=diverted.append
            ),
        )
        assert len(diverted) == result.metrics.late_events > 0

    def test_checkpoint_resume_with_inflight_buffer(self, camera_pattern, tmp_path):
        events = make_camera_stream(count=300, seed=15).to_list()
        expected = _sequential_engine(camera_pattern).run(events).matches
        shuffled = bounded_shuffle(events, SLACK, seed=31)
        sink_path = str(tmp_path / "matches.jsonl")
        store = CheckpointStore(str(tmp_path / "ckpt"))

        def build():
            return StreamingPipeline(
                _sequential_engine(camera_pattern),
                ReplaySource(shuffled),
                sinks=[JSONLMatchWriter(sink_path)],
                checkpoint_store=store,
                checkpoint_every=50,
                ordering=ReorderBuffer(SLACK),
            )

        first = build().run(max_events=137, final_checkpoint=False)
        assert first.stop_reason == "max-events"
        checkpoint = store.latest()
        state = restore_ordering_state(checkpoint.ordering_blob)
        assert state["ordering"].depth > 0, "want in-flight events at the cut"
        assert checkpoint.records_ingested > checkpoint.events_processed

        second = build().run()
        assert second.stop_reason == "source-exhausted"
        assert second.total_events_processed == len(events)
        served = sorted(line for line in open(sink_path).read().splitlines() if line)
        assert served == _records(expected)

    def test_ordering_checkpoint_needs_ordering_stage_to_resume(
        self, camera_pattern, tmp_path
    ):
        events = make_camera_stream(count=120, seed=16).to_list()
        shuffled = bounded_shuffle(events, SLACK, seed=37)
        store = CheckpointStore(str(tmp_path / "ckpt"))
        StreamingPipeline(
            _sequential_engine(camera_pattern),
            ReplaySource(shuffled),
            checkpoint_store=store,
            checkpoint_every=40,
            ordering=ReorderBuffer(SLACK),
        ).run(max_events=90, final_checkpoint=False)
        plain = StreamingPipeline(
            _sequential_engine(camera_pattern),
            ReplaySource(shuffled),
            checkpoint_store=store,
        )
        with pytest.raises(CheckpointError, match="reorder buffer"):
            plain.run()


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------
class TestSourceRateValidation:
    def test_rate_zero_is_rejected(self):
        with pytest.raises(StreamingError):
            ReplaySource([], rate=0)

    def test_negative_rate_is_rejected(self):
        with pytest.raises(StreamingError):
            ReplaySource([], rate=-5.0)

    def test_rate_none_disables_pacing(self):
        source = ReplaySource([_event(1.0)])
        assert [event.timestamp for event in source] == [1.0]


class TestSlidingWindowLateTolerance:
    def test_statistics_survive_disordered_feed(self):
        from repro.statistics import SlidingWindowRateEstimator

        estimator = SlidingWindowRateEstimator(window=10.0)
        for ts in (1.0, 2.0, 1.5, 3.0, 0.5):
            estimator.observe(ts)  # would previously raise StatisticsError
        assert estimator.late_samples == 2
        assert estimator.count(now=3.0) == 5

    def test_selectivity_estimator_counts_late(self):
        from repro.statistics import SlidingSelectivityEstimator

        estimator = SlidingSelectivityEstimator(window=10.0)
        estimator.observe(2.0, True)
        estimator.observe(1.0, False)
        assert estimator.late_samples == 1
        assert 0.0 <= estimator.selectivity() <= 1.0
