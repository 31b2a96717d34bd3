"""Tests for the observability layer: metrics export, decision log,
tracing, and the HTTP control plane.

The Prometheus exposition is locked down with a golden file
(``tests/data/metrics_golden.prom``): the metric names, label sets, HELP
text, and value formatting are an external contract with a scraping
Prometheus, so any change to them must be a deliberate golden update.
The control-plane tests exercise the real HTTP server end-to-end against
a live pipeline, including the readiness transitions a load balancer
depends on across a kill/resume cycle.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import AdaptiveCEPEngine
from repro.errors import StreamingError
from repro.metrics.stage_metrics import PipelineMetrics
from repro.obs import (
    ControlPlane,
    CoalescingEmitter,
    DecisionLog,
    DecisionRecord,
    Sample,
    pipeline_samples,
    read_decision_records,
    render_json,
    render_prometheus,
    verify_continuity,
)
from repro.obs.exposition import uptime_sample
from repro.optimizer import GreedyOrderPlanner
from repro.adaptive import InvariantBasedPolicy
from repro.parallel import BroadcastPartitioner, ParallelCEPEngine
from repro.streaming import (
    CheckpointStore,
    CollectorSink,
    InlineBackend,
    ProcessWorkerBackend,
    ReorderBuffer,
    ReplaySource,
    StreamingPipeline,
    bounded_shuffle,
)
from repro.streaming import pipeline as pipeline_module

from tests.conftest import make_camera_stream

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "metrics_golden.prom")


def _fixed_metrics() -> PipelineMetrics:
    """The deterministic metrics object the golden file was rendered from.

    Every value is exactly representable in binary floating point, so the
    rendering is byte-stable across platforms.
    """
    m = PipelineMetrics()
    m.events_ingested = 1200
    m.events_processed = 1000
    m.late_events = 7
    m.matches_emitted = 42
    m.checkpoints_written = 3
    m.checkpoint_bytes_written = 6144
    m.last_checkpoint_bytes = 2048
    m.queue_high_water = 17
    m.reorder_depth_high_water = 5
    m.partial_matches_high_water = 9
    m.source.observe(0.25)
    m.source.observe(0.75)
    m.engine.observe(0.5)
    m.sink.observe(0.125)
    m.checkpoint.observe(1.5)
    m.watermark_lag.observe(2.0)
    lane = m.worker_lane(0)
    lane.observe_batch(500, 0.5)
    lane.observe_queue_depth(3)
    return m


def _fresh_engine(pattern):
    return AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())


def _http_get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def _http_post(url: str):
    request = urllib.request.Request(url, data=b"", method="POST")
    try:
        with urllib.request.urlopen(request, timeout=15) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def _fixed_samples():
    """The sample list the golden file was rendered from: a control plane
    created this instant over :func:`_fixed_metrics`, no engine frame."""
    return [uptime_sample(0.0), *pipeline_samples(_fixed_metrics())]


class TestPrometheusRendering:
    def test_golden_file(self):
        body = render_prometheus(_fixed_samples())
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert body == golden

    def test_exposition_is_well_formed(self):
        """Every line is a comment or `name{labels} value`, and every
        sample's TYPE is declared before the sample appears."""
        body = render_prometheus(_fixed_samples())
        sample_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9].*$'
        )
        typed = set()
        for line in body.splitlines():
            if line.startswith("# TYPE "):
                name, kind = line.split()[2:4]
                assert kind in ("counter", "gauge")
                typed.add(name)
                continue
            if line.startswith("#"):
                continue
            assert sample_re.match(line), f"malformed sample line: {line!r}"
            name = line.split("{")[0].split(" ")[0]
            assert name in typed, f"sample {name} before its TYPE declaration"

    def test_counters_end_in_total_or_timing_suffix(self):
        for sample in _fixed_samples():
            assert sample.name.startswith("repro_")
            if sample.type == "counter":
                assert sample.name.endswith(("_total", "_sum", "_count"))

    def test_label_escaping(self):
        body = render_prometheus(
            [Sample("repro_x", 1.0, {"k": 'a"b\\c\nd'}, "", "gauge")]
        )
        assert 'k="a\\"b\\\\c\\nd"' in body

    def test_json_format(self):
        payload = json.loads(render_json(_fixed_samples()))
        by_name = {entry["name"]: entry for entry in payload["metrics"]}
        assert by_name["repro_events_ingested_total"]["value"] == 1200.0
        assert by_name["repro_late_events_total"]["labels"] == {
            "pipeline": "pipeline"
        }


class TestDecisionLog:
    def test_record_and_query_filters(self):
        clock = iter(float(i) for i in range(1, 100))
        log = DecisionLog(clock=lambda: next(clock))
        log.record("late_event_policy", count=5)
        log.record("replan", reason="invariant")
        log.record("late_event_policy", count=2)
        assert [r.type for r in log.query(type="late_event_policy")] == [
            "late_event_policy",
            "late_event_policy",
        ]
        assert [r.seq for r in log.query(limit=2)] == [2, 3]
        assert [r.seq for r in log.query(since=2.0, until=2.5)] == [2]
        assert log.counts_by_type() == {"late_event_policy": 2, "replan": 1}
        assert log.last_seq == 3

    def test_seq_continues_across_reopen(self, tmp_path):
        path = str(tmp_path / "decisions.jsonl")
        first = DecisionLog(path)
        for _ in range(5):
            first.record("checkpoint_cut", kind="full")
        first.close()
        second = DecisionLog(path)
        assert second.last_seq == 5
        second.record("replan")
        second.close()
        records = read_decision_records(path)
        assert [r.seq for r in records] == [1, 2, 3, 4, 5, 6]
        assert verify_continuity(records) == []

    def test_reopen_skips_torn_final_line(self, tmp_path):
        path = str(tmp_path / "decisions.jsonl")
        log = DecisionLog(path)
        log.record("late_event_policy", count=1)
        log.record("late_event_policy", count=2)
        log.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "type": "late_event_policy"')  # kill -9 mid-write
        resumed = DecisionLog(path)
        # The torn record never got durable, so its seq is reused.
        assert resumed.last_seq == 2
        resumed.record("late_event_policy", count=3)
        resumed.close()
        # The new record starts on its own line (not appended onto the
        # torn garbage), so the persisted trail stays continuous.
        records = read_decision_records(path)
        assert [r.seq for r in records] == [1, 2, 3]
        assert verify_continuity(records) == []

    def test_rotation(self, tmp_path):
        path = str(tmp_path / "decisions.jsonl")
        log = DecisionLog(path, max_bytes=1024)
        for i in range(64):
            log.record("late_event_policy", count=i, padding="x" * 64)
        log.close()
        assert os.path.exists(path + ".1")
        # Post-rotation records are still continuous with the rotated file.
        all_records = read_decision_records(path + ".1") + read_decision_records(path)
        assert verify_continuity(all_records) == []
        assert all_records[-1].seq == 64

    def test_verify_continuity_detects_problems(self):
        def rec(seq):
            return DecisionRecord(type="late_event_policy", time=0.0, seq=seq)

        assert verify_continuity([rec(1), rec(2), rec(3)]) == []
        assert "gap" in verify_continuity([rec(1), rec(3)])[0]
        assert "duplicate" in verify_continuity([rec(1), rec(1)])[0]
        assert "duplicate" in verify_continuity([rec(2), rec(1)])[0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(StreamingError):
            DecisionLog(tail=0)
        with pytest.raises(StreamingError):
            DecisionLog(max_bytes=10)


class TestCoalescingEmitter:
    def test_flushes_on_count(self):
        log = DecisionLog()
        emitter = CoalescingEmitter(
            log, "late_event_policy", flush_every=3, flush_interval=1e9
        )
        for i in range(7):
            emitter.observe(sample={"event": i}, policy="drop")
        assert len(log.query(type="late_event_policy")) == 2
        emitter.flush()
        records = log.query(type="late_event_policy")
        assert [r.detail["count"] for r in records] == [3, 3, 1]
        assert records[0].detail["policy"] == "drop"
        assert records[0].detail["last"] == {"event": 2}

    def test_flushes_on_interval(self):
        now = [0.0]
        log = DecisionLog()
        emitter = CoalescingEmitter(
            log, "late_event_policy", flush_every=10**6, flush_interval=1.0,
            clock=lambda: now[0],
        )
        emitter.observe()
        now[0] = 2.0
        emitter.observe()  # 2 s after the burst began -> flush
        assert len(log.query()) == 1
        assert log.query()[0].detail["count"] == 2

    def test_empty_flush_is_a_noop(self):
        log = DecisionLog()
        assert CoalescingEmitter(log, "late_event_policy").flush() is None
        assert len(log.query()) == 0


class TestPipelineObservability:
    """Decision records emitted by a real pipeline run."""

    def _run_pipeline(self, camera_pattern, tmp_path, **kwargs):
        log = DecisionLog()
        store = CheckpointStore(str(tmp_path / "ckpt"))
        pipeline = StreamingPipeline(
            _fresh_engine(camera_pattern),
            # Not a multiple of the cadence, so the run ends with a
            # final reason="shutdown" cut after the last periodic one.
            ReplaySource(make_camera_stream(count=1100).to_list()),
            sinks=[CollectorSink()],
            checkpoint_store=store,
            checkpoint_every=400,
            decision_log=log,
            **kwargs,
        )
        result = pipeline.run()
        return pipeline, result, log, store

    def test_checkpoint_cut_records_and_reasons(self, camera_pattern, tmp_path):
        _, result, log, store = self._run_pipeline(camera_pattern, tmp_path)
        cuts = log.query(type="checkpoint_cut")
        assert len(cuts) == result.metrics.checkpoints_written
        assert cuts[-1].detail["reason"] == "shutdown"
        assert all(cut.detail["reason"] == "periodic" for cut in cuts[:-1])
        assert all(cut.detail["bytes"] > 0 for cut in cuts)
        reasons = store.stats()["reasons"]
        assert reasons.get("shutdown") == 1

    def test_late_event_decisions_account_for_every_late_event(self, camera_pattern):
        # Disorder beyond the lateness bound: some arrivals must be late.
        events = bounded_shuffle(make_camera_stream(count=600).to_list(), 4.0, seed=17)
        log = DecisionLog()
        result = StreamingPipeline(
            _fresh_engine(camera_pattern),
            ReplaySource(events),
            sinks=[CollectorSink()],
            ordering=ReorderBuffer(0.5),
            decision_log=log,
        ).run()
        late = log.query(type="late_event_policy")
        assert result.metrics.late_events > 0
        assert sum(r.detail["count"] for r in late) == result.metrics.late_events
        assert {r.detail["policy"] for r in late} == {"drop"}

    def test_manual_checkpoint_requires_running_pipeline(
        self, camera_pattern, tmp_path
    ):
        pipeline, _, _, _ = self._run_pipeline(camera_pattern, tmp_path)
        with pytest.raises(StreamingError):
            pipeline.request_checkpoint()


def _idle_pipeline(pattern, **kwargs) -> StreamingPipeline:
    return StreamingPipeline(_fresh_engine(pattern), ReplaySource([]), **kwargs)


class TestControlPlane:
    def test_endpoints_of_an_idle_pipeline(self, camera_pattern):
        with ControlPlane(_idle_pipeline(camera_pattern)) as control:
            status, body = _http_get(f"{control.url}/health")
            assert status == 200
            assert json.loads(body) == {"status": "ok", "pipeline": "created"}
            status, body = _http_get(f"{control.url}/ready")
            assert status == 503
            with urllib.request.urlopen(f"{control.url}/metrics", timeout=5) as response:
                assert response.headers["Content-Type"] == (
                    "text/plain; version=0.0.4; charset=utf-8"
                )
                body = response.read().decode("utf-8")
            assert "repro_uptime_seconds" in body
            assert 'repro_events_processed_total{pipeline="pipeline"} 0' in body
            status, body = _http_get(f"{control.url}/decisions")
            assert status == 404
            status, body = _http_post(f"{control.url}/checkpoint")
            assert status == 503
            status, body = _http_get(f"{control.url}/nonsense")
            assert status == 404

    def test_raising_engine_frame_does_not_break_scrape(self, camera_pattern):
        pipeline = _idle_pipeline(camera_pattern)

        def explode():
            raise RuntimeError("workers mid-restart")

        pipeline.engine_introspection = explode
        with ControlPlane(pipeline) as control:
            status, body = _http_get(f"{control.url}/metrics")
            assert status == 200
            assert "repro_events_processed_total" in body
            assert "repro_plan_predicted_cost" not in body
            status, body = _http_get(f"{control.url}/engine")
            assert status == 503
            assert "workers mid-restart" in json.loads(body)["error"]

    def test_decisions_endpoint_filters_and_validation(self, camera_pattern):
        log = DecisionLog()
        log.record("late_event_policy", count=3)
        log.record("replan", reason="invariant")
        with ControlPlane(_idle_pipeline(camera_pattern, decision_log=log)) as control:
            status, body = _http_get(f"{control.url}/decisions?type=replan")
            assert status == 200
            payload = json.loads(body)
            assert payload["count"] == 1
            assert payload["records"][0]["type"] == "replan"
            status, _ = _http_get(f"{control.url}/decisions?limit=notanumber")
            assert status == 400

    def test_live_pipeline_full_surface(self, camera_pattern, tmp_path):
        """Serve a real pipeline; hit every endpoint mid-run; then kill,
        resume, and assert the readiness transitions and decision-log
        continuity an orchestrator depends on."""
        from repro.streaming import JSONLMatchWriter

        events = make_camera_stream(count=3000).to_list()
        decisions_path = str(tmp_path / "decisions.jsonl")
        matches_path = str(tmp_path / "matches.jsonl")
        store = CheckpointStore(str(tmp_path / "ckpt"))

        log = DecisionLog(decisions_path)
        pipeline = StreamingPipeline(
            _fresh_engine(camera_pattern),
            ReplaySource(events, rate=6000.0),
            sinks=[JSONLMatchWriter(matches_path)],
            checkpoint_store=store,
            checkpoint_every=1000,
            decision_log=log,
        )

        with ControlPlane(pipeline) as control:
            base = control.url
            # Not yet running: alive but not ready.
            assert _http_get(f"{base}/health")[0] == 200
            assert _http_get(f"{base}/ready")[0] == 503

            runner = threading.Thread(
                # Kill without a final checkpoint, as a crash would.
                target=lambda: pipeline.run(max_events=2000, final_checkpoint=False)
            )
            runner.start()
            try:
                deadline = time.time() + 5.0
                while pipeline.state != "running" and time.time() < deadline:
                    time.sleep(0.005)
                assert pipeline.state == "running"

                status, body = _http_get(f"{base}/ready")
                assert (status, json.loads(body)["ready"]) == (200, True)

                status, body = _http_get(f"{base}/metrics")
                assert status == 200
                assert "# TYPE repro_events_processed_total counter" in body

                status, body = _http_post(f"{base}/checkpoint")
                assert status == 200
                payload = json.loads(body)
                assert payload["status"] == "ok"
                assert payload["last_checkpoint_bytes"] > 0
            finally:
                runner.join(timeout=30.0)
            assert not runner.is_alive()

            # Dead again: alive but not ready.
            assert _http_get(f"{base}/ready")[0] == 503
        log.close()

        manual = [
            r
            for r in read_decision_records(decisions_path)
            if r.type == "checkpoint_cut" and r.detail["reason"] == "manual"
        ]
        assert manual, "POST /checkpoint must leave a manual checkpoint_cut record"

        # Resume against the same store and decision log: the trail stays
        # continuous across the kill/resume boundary.
        resumed_log = DecisionLog(decisions_path)
        resumed = StreamingPipeline(
            _fresh_engine(camera_pattern),
            ReplaySource(events),
            sinks=[JSONLMatchWriter(matches_path)],
            checkpoint_store=store,
            checkpoint_every=1000,
            decision_log=resumed_log,
        )
        result = resumed.run()
        resumed_log.close()
        assert result.resumed_from > 0
        records = read_decision_records(decisions_path)
        assert verify_continuity(records) == []

    def test_metrics_json_format_over_http(self, camera_pattern):
        with ControlPlane(_idle_pipeline(camera_pattern)) as control:
            url = f"{control.url}/metrics?format=json"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == "application/json"
                payload = json.loads(response.read())
            names = {entry["name"] for entry in payload["metrics"]}
            assert "repro_events_processed_total" in names


class TestCheckpointReasons:
    def test_reasons_survive_reopen(self, camera_pattern, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        pipeline = StreamingPipeline(
            _fresh_engine(camera_pattern),
            ReplaySource(make_camera_stream(count=950).to_list()),
            sinks=[CollectorSink()],
            checkpoint_store=store,
            checkpoint_every=300,
        )
        pipeline.run()
        # The store keeps no index of its own: the reasons are read back
        # from the retained records (the 600 and 900 periodic cuts were
        # pruned; 900 and the 950 shutdown cut remain).
        reopened = CheckpointStore(str(tmp_path / "ckpt"))
        assert reopened.stats()["reasons"] == {"periodic": 1, "shutdown": 1}
        assert reopened.latest().reason == "shutdown"


class TestDeltaDegradationGauges:
    """``checkpoint_cut`` records report the frame each cut wrote."""

    def _backend(self, kind, camera_pattern):
        if kind == "inline":
            return InlineBackend(_fresh_engine(camera_pattern))
        return ProcessWorkerBackend(
            ParallelCEPEngine(
                camera_pattern,
                GreedyOrderPlanner(),
                InvariantBasedPolicy(),
                shards=2,
                partitioner=BroadcastPartitioner(),
            )
        )

    @pytest.mark.parametrize("kind", ["inline", "process"])
    def test_cuts_report_their_own_frame(self, kind, camera_pattern, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline_module, "CHECKPOINT_FULL_EVERY", 2)
        backend = self._backend(kind, camera_pattern)
        log = DecisionLog()
        StreamingPipeline(
            backend,
            ReplaySource(make_camera_stream(count=600).to_list()),
            checkpoint_store=CheckpointStore(str(tmp_path / "ckpt")),
            checkpoint_every=100,
            checkpoint_mode="delta",
            decision_log=log,
        ).run()
        cuts = [
            (cut.detail["kind"], cut.detail["last_kind"], cut.detail["degraded_encodes"])
            for cut in log.query(type="checkpoint_cut")
        ]
        assert cuts == [("full", None, 0), ("delta", "delta", 0), ("delta", "delta", 0)] * 2

        # A delta forced against an epoch the trackers never saw degrades
        # to a self-contained base, and counts once.
        backend.start()
        try:
            backend.snapshot_base(10)
            backend.snapshot_delta(7, 11)
            assert (backend.last_kind, backend.degraded_encodes) == ("base", 1)
            backend.snapshot_delta(11, 12)
            assert (backend.last_kind, backend.degraded_encodes) == ("delta", 1)
        finally:
            backend.close()


def test_every_traced_layer_target_is_defined_where_the_tracer_wraps_it():
    """The benchmark's traced pass wraps each layer boundary by
    ``owner.__dict__[attribute]``: a method moved to a base class, a
    helper or another module would break that pass only.  Every target
    must be defined on its owner itself, and be callable."""
    from bench.tracing import layer_targets

    targets = layer_targets()
    assert targets
    for owner, attribute, span in targets:
        assert attribute in vars(owner), f"{span}: {owner.__name__}.{attribute} moved"
        assert callable(vars(owner)[attribute]), span
