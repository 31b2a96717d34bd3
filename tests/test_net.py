"""Tests for the network data plane (repro.streaming.net).

The centrepiece is the loopback differential gate: a workload pushed over
HTTP, detected by the pipeline, and delivered through the acked webhook
sink must produce a match set byte-identical to the same
workload served from a file source into a local JSONL sink — including
through a kill/resume cycle, where re-derived matches are re-sent under
their original idempotency keys and the receiver's dedup absorbs them.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.conditions import AndCondition, EqualityCondition
from repro.engine import AdaptiveCEPEngine
from repro.errors import CheckpointError, StreamingError
from repro.events import EventType
from repro.metrics import NetworkMetrics
from repro.obs import ControlPlane, DecisionLog, network_samples, render_prometheus
from repro.optimizer import GreedyOrderPlanner
from repro.patterns import seq
from repro.streaming import (
    AckedDeliverySink,
    CheckpointStore,
    HTTPEventIngress,
    JSONLFileSource,
    JSONLMatchWriter,
    NetworkEventSource,
    ReplaySource,
    StreamingPipeline,
    WebhookMatchSink,
    WebhookReceiver,
    push_events_http,
    read_event_records,
    write_events_jsonl,
)
from repro.streaming.net import (
    PUSH_ACCEPTED,
    PUSH_DUPLICATE,
    PUSH_INVALID,
    PUSH_REJECTED,
    parse_event_payload,
)
from tests.conftest import make_camera_stream

TYPES = {name: EventType(name) for name in ("A", "B", "C")}


def _record(sequence, type_name="A", timestamp=None, **payload):
    record = {
        "type": type_name,
        "timestamp": float(sequence) if timestamp is None else timestamp,
        "sequence": sequence,
    }
    record.update(payload)
    return record


# ----------------------------------------------------------------------
# The push-buffer source
# ----------------------------------------------------------------------
class TestNetworkEventSource:
    def test_push_pull_preserves_order_and_sequences(self):
        source = NetworkEventSource(TYPES)
        for index in range(4):
            assert source.push_record(_record(index)) == PUSH_ACCEPTED
        source.end_of_stream()
        events = list(source)
        assert [event.sequence_number for event in events] == [0, 1, 2, 3]
        assert source.metrics.events_accepted == 4

    def test_push_time_dedup_by_sequence(self):
        source = NetworkEventSource(TYPES)
        assert source.push_record(_record(0)) == PUSH_ACCEPTED
        assert source.push_record(_record(0)) == PUSH_DUPLICATE
        assert source.push_record(_record(5)) == PUSH_ACCEPTED
        assert source.push_record(_record(3)) == PUSH_DUPLICATE
        assert source.metrics.events_duplicate == 2

    def test_invalid_records_counted_not_fatal(self):
        source = NetworkEventSource(TYPES)
        assert source.push_record({"type": "A"}) == PUSH_INVALID  # no timestamp
        assert source.push_record({"type": "Z", "timestamp": 1.0}) == PUSH_INVALID
        assert (
            source.push_record({"type": "A", "timestamp": "soon"}) == PUSH_INVALID
        )
        assert source.push_record("not a mapping") == PUSH_INVALID
        assert source.metrics.events_invalid == 4
        assert source.metrics.events_accepted == 0

    def test_nonblocking_push_rejected_when_full(self):
        source = NetworkEventSource(TYPES, capacity=2)
        assert source.push_record(_record(0)) == PUSH_ACCEPTED
        assert source.push_record(_record(1)) == PUSH_ACCEPTED
        assert source.push_record(_record(2)) == PUSH_REJECTED
        assert source.metrics.events_rejected == 1

    def test_skip_drops_buffered_and_future_duplicates(self):
        source = NetworkEventSource(TYPES)
        for index in range(4):
            source.push_record(_record(index))
        source.skip(2)  # resume floor: events 0-1 are already checkpointed
        assert source.push_record(_record(1)) == PUSH_DUPLICATE
        source.push_record(_record(4))
        source.end_of_stream()
        assert [event.sequence_number for event in source] == [2, 3, 4]
        assert source.metrics.events_duplicate == 3  # 0, 1 buffered + 1 re-push

    def test_idle_timeout_ends_the_stream(self):
        source = NetworkEventSource(TYPES, poll_interval=0.01, idle_timeout=0.05)
        source.push_record(_record(0))
        assert [event.sequence_number for event in source] == [0]

    def test_stop_following_ends_a_blocked_pull(self):
        source = NetworkEventSource(TYPES, poll_interval=0.01)
        collected = []

        def consume():
            collected.extend(source)

        thread = threading.Thread(target=consume)
        thread.start()
        source.push_record(_record(0))
        source.stop_following()  # what pipeline.stop() calls
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert [event.sequence_number for event in collected] == [0]

    def test_rejects_bad_configuration(self):
        with pytest.raises(StreamingError):
            NetworkEventSource({})
        with pytest.raises(StreamingError):
            NetworkEventSource(TYPES, capacity=0)
        source = NetworkEventSource(TYPES)
        with pytest.raises(StreamingError):
            source.skip(-1)


# ----------------------------------------------------------------------
# Wire ingestion
# ----------------------------------------------------------------------
class TestHTTPEventIngress:
    def test_push_helper_round_trip(self):
        source = NetworkEventSource(TYPES)
        with HTTPEventIngress(source) as ingress:
            totals = push_events_http(
                ingress.url, [_record(i) for i in range(5)], end=True
            )
        assert totals[PUSH_ACCEPTED] == 5
        assert [event.sequence_number for event in source] == list(range(5))

    def test_bad_body_answers_400(self):
        source = NetworkEventSource(TYPES)
        with HTTPEventIngress(source) as ingress:
            request = urllib.request.Request(
                ingress.url + "/events", data=b"{not json", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(request)
            assert failure.value.code == 400

    def test_backpressure_answers_429_and_reports_progress(self):
        source = NetworkEventSource(TYPES, capacity=2)
        with HTTPEventIngress(source) as ingress:
            body = "\n".join(json.dumps(_record(i)) for i in range(4)).encode()
            request = urllib.request.Request(
                ingress.url + "/events", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(request)
            assert failure.value.code == 429
            reply = json.loads(failure.value.read())
            assert reply["retry_from"] == 2  # first two records were admitted
        assert source.metrics.events_accepted == 2
        assert source.metrics.events_rejected == 1

    def test_push_helper_retries_through_backpressure(self):
        source = NetworkEventSource(TYPES, capacity=2, poll_interval=0.01)
        drained = []

        def consume():
            drained.extend(source)

        consumer = threading.Thread(target=consume)
        consumer.start()
        with HTTPEventIngress(source) as ingress:
            totals = push_events_http(
                ingress.url,
                [_record(i) for i in range(10)],
                batch=4,
                end=True,
                retry_wait=0.005,
            )
        consumer.join(timeout=5.0)
        assert totals[PUSH_ACCEPTED] == 10
        assert len(drained) == 10

    def test_stats_endpoint(self):
        source = NetworkEventSource(TYPES)
        source.push_record(_record(0))
        with HTTPEventIngress(source) as ingress:
            stats = json.loads(
                urllib.request.urlopen(ingress.url + "/stats").read()
            )
        assert stats["pending"] == 1
        assert stats["next_sequence"] == 1

    def test_parse_event_payload_shapes(self):
        one = parse_event_payload(b'{"type": "A", "timestamp": 1.0}')
        assert len(one) == 1
        array = parse_event_payload(b'[{"a": 1}, {"b": 2}]')
        assert len(array) == 2
        lines = parse_event_payload(b'{"a": 1}\n\n{"b": 2}\n')
        assert len(lines) == 2
        with pytest.raises(StreamingError):
            parse_event_payload(b"")
        with pytest.raises(StreamingError):
            parse_event_payload(b"[1, 2]")


# ----------------------------------------------------------------------
# Acked delivery
# ----------------------------------------------------------------------
def _matches(count):
    stream = make_camera_stream(count=400, seed=3)
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
    engine = AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())
    matches = engine.run(stream).matches
    assert len(matches) >= count
    return matches[:count]


class FlakySink(AckedDeliverySink):
    """Test sink: fails the first ``fail`` sends, then records the rest."""

    name = "flaky"

    def __init__(self, fail=0, **kwargs):
        kwargs.setdefault("backoff_base", 0.001)
        super().__init__(**kwargs)
        self.failures_left = fail
        self.sent = []

    def _send(self, key, record):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise StreamingError("injected delivery failure")
        self.sent.append((key, record))


class TestAckedDeliverySink:
    def test_retry_with_backoff_then_success(self):
        sleeps = []
        sink = FlakySink(fail=2, sleep=sleeps.append)
        sink.emit(_matches(1)[0])
        sink.flush()
        assert len(sink.sent) == 1
        assert sink.state() == {"acked": 1}
        assert sink.metrics.delivery_retries == 2
        assert sleeps == [0.001, 0.002]  # exponential

    def test_backoff_is_capped(self):
        sleeps = []
        sink = FlakySink(
            fail=4, max_attempts=5, backoff_base=1.0, backoff_cap=2.0,
            sleep=sleeps.append,
        )
        sink.emit(_matches(1)[0])
        sink.flush()
        assert sleeps == [1.0, 2.0, 2.0, 2.0]

    def test_exhausted_retries_without_dead_letter_raise(self):
        sink = FlakySink(fail=99, max_attempts=2, sleep=lambda _s: None)
        sink.emit(_matches(1)[0])
        with pytest.raises(StreamingError, match="after 2 attempts"):
            sink.flush()

    def test_exhausted_retries_spill_to_dead_letter(self, tmp_path):
        spill = str(tmp_path / "dead.jsonl")
        decisions = []
        sink = FlakySink(
            fail=99,
            max_attempts=2,
            dead_letter_path=spill,
            sleep=lambda _s: None,
        )
        sink.on_decision = lambda type, **detail: decisions.append((type, detail))
        sink.emit(_matches(1)[0])
        sink.flush()
        assert sink.state() == {"acked": 1}  # resolved: the spill is durable
        assert sink.metrics.dead_letters == 1
        spilled = [json.loads(line) for line in open(spill)]
        assert spilled[0]["key"] == sink.idempotency_key(0)
        assert "injected delivery failure" in spilled[0]["error"]
        types = [entry[0] for entry in decisions]
        assert "delivery_retry" in types and "dead_letter" in types

    def test_bounded_in_flight_forces_delivery(self):
        sink = FlakySink(max_in_flight=2)
        for match in _matches(3):
            sink.emit(match)
        assert len(sink.sent) == 1  # the third emit pushed one out
        sink.flush()
        assert len(sink.sent) == 3

    def test_restore_rewinds_to_acked_and_replays_same_keys(self):
        matches = _matches(2)
        sink = FlakySink()
        sink.emit(matches[0])
        sink.flush()
        state = sink.state()
        sink.emit(matches[1])  # in flight, never flushed: "lost" by the kill
        resumed = FlakySink()
        resumed.restore(state)
        assert resumed.emitted == 1 and resumed.acked == 1
        resumed.emit(matches[1])  # the re-derived match
        resumed.flush()
        assert resumed.sent[0][0] == sink.idempotency_key(1)

    def test_restore_rejects_malformed_state(self):
        sink = FlakySink()
        with pytest.raises(CheckpointError, match="malformed checkpoint state"):
            sink.restore({"wrong": 1})
        with pytest.raises(CheckpointError, match="malformed checkpoint state"):
            sink.restore({"acked": "many"})
        with pytest.raises(CheckpointError, match="malformed checkpoint state"):
            sink.restore({"acked": -3})
        sink.restore(None)  # empty state = fresh start, not an error

    def test_rejects_bad_configuration(self):
        with pytest.raises(StreamingError):
            FlakySink(max_in_flight=0)
        with pytest.raises(StreamingError):
            FlakySink(max_attempts=0)

    def test_pipeline_routes_sink_decisions_to_the_log(self):
        log = DecisionLog()
        sink = FlakySink(fail=1, sleep=lambda _s: None)
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
        engine = AdaptiveCEPEngine(
            pattern, GreedyOrderPlanner(), InvariantBasedPolicy()
        )
        events = make_camera_stream(count=400, seed=3).to_list()
        StreamingPipeline(
            engine, ReplaySource(events), sinks=[sink], decision_log=log
        ).run()
        retries = log.query(type="delivery_retry")
        assert retries and retries[0].detail["sink"] == "flaky"


class TestWebhookDelivery:
    def test_deliveries_survive_injected_failures(self, tmp_path):
        out = str(tmp_path / "delivered.jsonl")
        matches = _matches(2)
        with WebhookReceiver(out, fail_first=2) as receiver:
            sink = WebhookMatchSink(receiver.url, backoff_base=0.001)
            for match in matches:
                sink.emit(match)
            sink.flush()
            assert receiver.stats()["received"] == 2
        assert sink.metrics.delivery_retries == 2
        assert sink.metrics.matches_delivered == 2
        assert len(open(out).read().splitlines()) == 2

    def test_receiver_dedups_redelivery_by_idempotency_key(self, tmp_path):
        out = str(tmp_path / "delivered.jsonl")
        match = _matches(1)[0]
        with WebhookReceiver(out) as receiver:
            sink = WebhookMatchSink(receiver.url)
            sink.emit(match)
            sink.flush()
            # Simulate a kill after the send but before its checkpoint: the
            # resumed sink re-derives the match under the same key.
            resumed = WebhookMatchSink(receiver.url)
            resumed.restore({"acked": 0})
            resumed.emit(match)
            resumed.flush()
            stats = receiver.stats()
        assert stats["received"] == 1
        assert stats["duplicates"] == 1
        assert len(open(out).read().splitlines()) == 1


# ----------------------------------------------------------------------
# Observability wiring
# ----------------------------------------------------------------------
class TestNetworkObservability:
    def test_network_samples_render_net_series(self):
        metrics = NetworkMetrics()
        metrics.events_accepted = 7
        metrics.matches_delivered = 3
        metrics.delivery.observe(0.002)
        body = render_prometheus(network_samples(metrics))
        assert 'repro_net_events_accepted_total{pipeline="pipeline"} 7' in body
        assert 'repro_net_matches_delivered_total{pipeline="pipeline"} 3' in body
        assert "repro_net_delivery_seconds_count" in body

    def test_control_plane_serves_network_snapshot(self):
        metrics = NetworkMetrics()
        metrics.events_accepted = 5
        with ControlPlane(_idle_pipeline(), network=metrics) as control:
            body = json.loads(
                urllib.request.urlopen(control.url + "/network").read()
            )
            scrape = urllib.request.urlopen(control.url + "/metrics").read().decode()
        assert body["events_accepted"] == 5
        assert 'repro_net_events_accepted_total{pipeline="pipeline"} 5' in scrape

    def test_control_plane_404s_without_network(self):
        with ControlPlane(_idle_pipeline()) as control:
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(control.url + "/network")
            assert failure.value.code == 404


# ----------------------------------------------------------------------
# The loopback differential gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wire_workload(tmp_path_factory):
    """Event file + the file-source reference match lines."""
    directory = tmp_path_factory.mktemp("wire")
    events_path = str(directory / "events.jsonl")
    events = make_camera_stream(count=400, seed=31).to_list()
    write_events_jsonl(events, events_path)

    reference_path = str(directory / "reference.jsonl")
    pipeline = StreamingPipeline(
        _fresh_engine(),
        JSONLFileSource(events_path, TYPES),
        sinks=[JSONLMatchWriter(reference_path)],
    )
    pipeline.run()
    reference = sorted(
        line for line in open(reference_path).read().splitlines() if line
    )
    assert reference, "differential workload must produce matches"
    return events_path, reference


def _idle_pipeline():
    return StreamingPipeline(_fresh_engine(), ReplaySource([]))


def _fresh_engine():
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
    return AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())


def _sorted_lines(path):
    return sorted(line for line in open(path).read().splitlines() if line)


class TestLoopbackDifferential:
    def test_http_push_webhook_delivery_matches_file_run(
        self, wire_workload, tmp_path
    ):
        events_path, reference = wire_workload
        delivered = str(tmp_path / "delivered.jsonl")
        source = NetworkEventSource(TYPES)
        with WebhookReceiver(delivered) as receiver:
            sink = WebhookMatchSink(receiver.url)
            with HTTPEventIngress(source) as ingress:
                totals = push_events_http(
                    ingress.url, read_event_records(events_path), end=True
                )
                StreamingPipeline(_fresh_engine(), source, sinks=[sink]).run()
        assert totals[PUSH_ACCEPTED] == 400
        assert _sorted_lines(delivered) == reference

    def test_kill_resume_over_the_wire_stays_exactly_once(
        self, wire_workload, tmp_path
    ):
        """Kill between webhook sends and the next checkpoint, then resume.

        The first run stops mid-stream without a final checkpoint (the
        SIGKILL simulation the crash-recovery suite uses), *after* its
        sink has delivered matches the checkpoint never recorded.  The
        resumed run re-pushes the whole event file (the client's replay),
        relies on the source's sequence floor to drop the checkpointed
        prefix, re-derives the post-checkpoint matches, and re-sends them
        under their original idempotency keys — which the receiver must
        absorb as duplicates, leaving the delivered file byte-identical
        to the uninterrupted file-source run.
        """
        events_path, reference = wire_workload
        delivered = str(tmp_path / "delivered.jsonl")
        store = CheckpointStore(str(tmp_path / "ckpt"))
        with WebhookReceiver(delivered) as receiver:

            def build():
                source = NetworkEventSource(TYPES)
                sink = WebhookMatchSink(receiver.url)
                pipeline = StreamingPipeline(
                    _fresh_engine(),
                    source,
                    sinks=[sink],
                    checkpoint_store=store,
                    checkpoint_every=100,
                )
                return source, pipeline

            source, pipeline = build()
            with HTTPEventIngress(source) as ingress:
                push_events_http(
                    ingress.url, read_event_records(events_path), end=True
                )
                first = pipeline.run(max_events=250, final_checkpoint=False)
            assert first.stop_reason == "max-events"
            # The kill window is real: matches were delivered after the
            # last checkpoint (events 200-250) and will be re-derived.
            assert store.latest().events_processed == 200

            source, pipeline = build()
            with HTTPEventIngress(source) as ingress:
                totals = push_events_http(
                    ingress.url, read_event_records(events_path), end=True
                )
                second = pipeline.run()
            stats = receiver.stats()

        assert second.resumed_from == 200
        assert totals[PUSH_ACCEPTED] == 400  # push-side replay is complete
        assert source.metrics.events_duplicate >= 200  # floor dropped prefix
        assert stats["duplicates"] >= 1, (
            "the resume must have re-sent at least one match under its "
            "original idempotency key"
        )
        assert _sorted_lines(delivered) == reference, (
            "wire-delivered matches diverge from the file-source run "
            "across kill/resume (lost or duplicated deliveries)"
        )
