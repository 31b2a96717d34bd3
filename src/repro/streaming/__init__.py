"""Streaming I/O and long-running service runtime.

Turns the batch-oriented engines into a deployable pipeline over unbounded
streams::

    from repro.streaming import (
        StreamingPipeline, ReplaySource, JSONLMatchWriter, CheckpointStore,
    )

    pipeline = StreamingPipeline(
        engine,                               # AdaptiveCEPEngine / Parallel…
        ReplaySource(recorded, rate=5000.0),  # or a JSONL/CSV file tail
        sinks=[JSONLMatchWriter("matches.jsonl")],
        checkpoint_store=CheckpointStore("ckpt/"),
        checkpoint_every=10_000,
    )
    result = pipeline.run()                   # resumes from ckpt/ if present

The building blocks:

* **sources** (:mod:`~repro.streaming.sources`) — lazy, single-pass event
  producers: rate-controlled replay, JSONL/CSV file tailing, iterable and
  callback adapters;
* **sinks** (:mod:`~repro.streaming.sinks`) — match consumers with
  checkpointable positions: JSONL writer, in-memory collector, counters;
* **event-time ordering** (:mod:`~repro.streaming.ordering`) — watermark
  generators (bounded out-of-orderness, punctuated), a heap-based reorder
  buffer releasing out-of-order arrivals in timestamp order, and
  drop/side-output/raise late-event policies
  (``ordering=ReorderBuffer(max_lateness, late_policy=…)`` on the
  pipeline, ``--max-lateness``/``--late-policy`` on the CLI);
* **checkpointing** (:mod:`~repro.streaming.checkpoint`) — atomic
  snapshots of engine state + source offset + sink positions — plus the
  in-flight reorder buffer when ordering is active — giving kill/resume
  with no lost and no duplicated matches;
* **incremental (delta) checkpoints** (:mod:`~repro.streaming.delta`) —
  ``checkpoint_mode="delta"`` writes a full base every
  :data:`~repro.streaming.pipeline.CHECKPOINT_FULL_EVERY` checkpoints and
  CRC-framed append-only deltas of only the changed state between
  (``--checkpoint-mode delta`` on the CLI); the execution backend owns the
  :class:`~repro.streaming.delta.DeltaTracker` that diffs its engine
  (a worker backend's is the engine its workers' replicas fold back into)
  and restore replays base + deltas;
* **the network data plane** (:mod:`~repro.streaming.net`) — HTTP event
  ingestion into a bounded source the pipeline pulls (a full source
  answers 429) and acked webhook match delivery (idempotency keys, retry
  with capped backoff, dead-letter spill) that stays exactly-once through
  kill/resume (``--listen-port`` / ``--webhook-url`` on the CLI);
* **the pipeline** (:mod:`~repro.streaming.pipeline`) — the run loop
  wiring it all together: it pulls the source, the only way events
  enter the service, with per-stage latency/queue metrics and graceful
  shutdown;
* **execution backends** (:mod:`~repro.streaming.workers`) — where the
  detection runs: inline in the pipeline thread, or one worker process
  per shard replica fed by bounded queues for true multi-core serving
  (``--backend process --shards N`` on the CLI).

The CLI front-end is ``python -m repro.experiments.cli serve``.
"""

from repro.streaming.checkpoint import Checkpoint, CheckpointStore, DeltaCheckpoint
from repro.streaming.delta import DeltaTracker, materialize_engine_blob
from repro.streaming.net import (
    AckedDeliverySink,
    HTTPEventIngress,
    NetworkEventSource,
    WebhookMatchSink,
    WebhookReceiver,
    push_events_http,
    read_event_records,
)
from repro.streaming.ordering import (
    LATE_POLICIES,
    BoundedOutOfOrdernessWatermarks,
    PayloadWatermarkExtractor,
    PunctuatedWatermarks,
    ReorderBuffer,
    WatermarkGenerator,
    bounded_shuffle,
    reorder_events,
)
from repro.streaming.pipeline import (
    CHECKPOINT_MODES,
    FILL_CHUNK,
    PipelineResult,
    StreamingPipeline,
)
from repro.streaming.sinks import (
    CollectorSink,
    JSONLMatchWriter,
    MatchSink,
    MetricsSink,
    match_record,
)
from repro.streaming.sources import (
    NO_EVENT,
    CallbackSource,
    CSVFileSource,
    EventSource,
    JSONLFileSource,
    RateLimiter,
    ReplaySource,
    event_record,
    write_events_csv,
    write_events_jsonl,
)
from repro.streaming.workers import (
    ExecutionBackend,
    InlineBackend,
    ProcessWorkerBackend,
)

__all__ = [
    # pipeline
    "StreamingPipeline",
    "PipelineResult",
    "FILL_CHUNK",
    # sources
    "EventSource",
    "CallbackSource",
    "NO_EVENT",
    "ReplaySource",
    "JSONLFileSource",
    "CSVFileSource",
    "RateLimiter",
    "event_record",
    "write_events_jsonl",
    "write_events_csv",
    # sinks
    "MatchSink",
    "CollectorSink",
    "JSONLMatchWriter",
    "MetricsSink",
    "match_record",
    # network data plane
    "NetworkEventSource",
    "HTTPEventIngress",
    "AckedDeliverySink",
    "WebhookMatchSink",
    "WebhookReceiver",
    "push_events_http",
    "read_event_records",
    # event-time ordering
    "WatermarkGenerator",
    "BoundedOutOfOrdernessWatermarks",
    "PunctuatedWatermarks",
    "PayloadWatermarkExtractor",
    "ReorderBuffer",
    "reorder_events",
    "bounded_shuffle",
    "LATE_POLICIES",
    # checkpointing
    "Checkpoint",
    "CheckpointStore",
    "DeltaCheckpoint",
    "CHECKPOINT_MODES",
    # incremental (delta) snapshots
    "DeltaTracker",
    "materialize_engine_blob",
    # execution backends (multi-core streaming)
    "ExecutionBackend",
    "InlineBackend",
    "ProcessWorkerBackend",
]
