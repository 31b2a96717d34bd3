"""Per-stage metrics of the streaming pipeline.

The streaming runtime (:mod:`repro.streaming`) is a staged dataflow —
``source → buffer → engine → sinks`` — and each stage is instrumented
separately so an operator can see *where* a slow pipeline spends its time:
a source-bound pipeline (waiting on rate limiting or file tailing) looks
completely different from an engine-bound one, and a growing queue depth is
the early warning sign of sustained overload.

:class:`StageTiming` is a tiny streaming aggregator (count / total / max)
rather than a histogram: it costs two floats per observation, which matters
on the per-event hot path, while still answering the questions the
experiments report (mean and worst-case stage latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class StageTiming:
    """Streaming latency aggregate for one pipeline stage."""

    observations: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def observe(self, seconds: float) -> None:
        self.observations += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def observe_many(self, count: int, total_seconds: float, max_seconds: float) -> None:
        """Account ``count`` observations at once, given their sum and maximum."""
        self.observations += count
        self.total_seconds += total_seconds
        if max_seconds > self.max_seconds:
            self.max_seconds = max_seconds

    @property
    def mean_seconds(self) -> float:
        if self.observations == 0:
            return 0.0
        return self.total_seconds / self.observations

    def merge(self, other: "StageTiming") -> "StageTiming":
        return StageTiming(
            observations=self.observations + other.observations,
            total_seconds=self.total_seconds + other.total_seconds,
            max_seconds=max(self.max_seconds, other.max_seconds),
        )

    def __repr__(self) -> str:
        return (
            f"StageTiming(n={self.observations}, "
            f"mean={self.mean_seconds * 1e3:.3f}ms, "
            f"max={self.max_seconds * 1e3:.3f}ms)"
        )


@dataclass
class WorkerLaneMetrics:
    """Per-worker gauges of a multi-core streaming backend.

    One lane per shard worker: how many events/batches the worker consumed,
    the high-water mark of its bounded hand-off queue (in batches) and the
    worker-side batch-processing latency.  A skewed partitioner shows up as
    one lane doing most of the events; an overloaded worker shows up as its
    queue high-water pinned at capacity while the others stay shallow.
    """

    shard_id: int
    events_processed: int = 0
    batches_consumed: int = 0
    queue_high_water: int = 0
    processing: StageTiming = field(default_factory=StageTiming)

    def observe_queue_depth(self, depth: int) -> None:
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    def observe_batch(self, events: int, seconds: float) -> None:
        self.events_processed += events
        self.batches_consumed += 1
        self.processing.observe(seconds)

    def __repr__(self) -> str:
        return (
            f"WorkerLaneMetrics(shard={self.shard_id}, "
            f"events={self.events_processed}, "
            f"batches={self.batches_consumed}, "
            f"queue_hw={self.queue_high_water})"
        )


@dataclass
class NetworkMetrics:
    """Counters of the network data plane (ingestion and match delivery).

    One object is shared by every network endpoint of a pipeline — the
    HTTP ingress counts arrivals (accepted into the push queue, rejected
    with a 429 because the queue is full or the stream has ended, dropped
    as duplicates of an already-ingested sequence number, or invalid), and
    the webhook sink counts deliveries, retries and dead-letter spills.
    ``delivery`` aggregates the wall time of each successful receiver
    round trip.
    """

    events_accepted: int = 0
    events_rejected: int = 0
    events_duplicate: int = 0
    events_invalid: int = 0
    matches_delivered: int = 0
    delivery_retries: int = 0
    dead_letters: int = 0
    delivery: StageTiming = field(default_factory=StageTiming)

    def snapshot(self) -> Dict[str, float]:
        """Flat dictionary of the counters (the ``/network`` endpoint body)."""
        return {
            "events_accepted": self.events_accepted,
            "events_rejected": self.events_rejected,
            "events_duplicate": self.events_duplicate,
            "events_invalid": self.events_invalid,
            "matches_delivered": self.matches_delivered,
            "delivery_retries": self.delivery_retries,
            "dead_letters": self.dead_letters,
            "delivery_ms_mean": self.delivery.mean_seconds * 1e3,
            "delivery_ms_max": self.delivery.max_seconds * 1e3,
        }

    def __repr__(self) -> str:
        return (
            f"NetworkMetrics(accepted={self.events_accepted}, "
            f"rejected={self.events_rejected}, "
            f"delivered={self.matches_delivered}, "
            f"retries={self.delivery_retries}, "
            f"dead_letters={self.dead_letters})"
        )


@dataclass
class PipelineMetrics:
    """Counters and per-stage timings of one pipeline run.

    ``source`` measures time spent pulling events (including any rate-limit
    sleeps and file-tail polling), ``engine`` the per-event detection work
    (for worker backends: the hand-off into the shard queues), ``sink`` the
    per-event match emission, and ``checkpoint`` each state snapshot.  Queue
    metrics describe the events staged between the source and the engine;
    ``workers`` holds one :class:`WorkerLaneMetrics` per shard worker when a
    multi-core backend is attached.
    """

    source: StageTiming = field(default_factory=StageTiming)
    engine: StageTiming = field(default_factory=StageTiming)
    sink: StageTiming = field(default_factory=StageTiming)
    checkpoint: StageTiming = field(default_factory=StageTiming)
    #: Event-time lag of each arrival behind the stream's high-water mark
    #: (the maximum timestamp seen so far), in stream-time units (not
    #: seconds) — the actual disorder the ordering stage is absorbing: 0
    #: for an in-order arrival, up to ``max_lateness`` (and beyond, for
    #: late events) under disorder.  Only populated when an ordering stage
    #: is configured.
    watermark_lag: StageTiming = field(default_factory=StageTiming)
    events_ingested: int = 0
    events_processed: int = 0
    #: Always 0: the pipeline has no load-shedding path any more (events
    #: enter only through the pull loop, which never drops one).  Kept only
    #: because ``bench/`` still reads it; remove with that reader.
    events_shed: int = 0
    #: Events that arrived behind the watermark (dropped or side-routed by
    #: the configured late policy).
    late_events: int = 0
    matches_emitted: int = 0
    checkpoints_written: int = 0
    #: Bytes persisted by checkpointing (total and most recent file): the
    #: gauge the full-vs-delta checkpoint comparison is measured by.
    checkpoint_bytes_written: int = 0
    last_checkpoint_bytes: int = 0
    queue_high_water: int = 0
    reorder_depth_high_water: int = 0
    #: High-water mark of the engine's live partial-match population —
    #: the memory-pressure quantity the paper's cost model minimises.
    #: Sampled at checkpoint cuts and end-of-run (never per event).
    partial_matches_high_water: int = 0
    workers: Dict[int, WorkerLaneMetrics] = field(default_factory=dict)

    def observe_queue_depth(self, depth: int) -> None:
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    def observe_partial_matches(self, count: int) -> None:
        """Record one sample of the live partial-match population."""
        if count > self.partial_matches_high_water:
            self.partial_matches_high_water = count

    def observe_checkpoint_bytes(self, size: int) -> None:
        """Account one persisted checkpoint (or delta) file."""
        self.checkpoint_bytes_written += int(size)
        self.last_checkpoint_bytes = int(size)

    @property
    def checkpoint_bytes_mean(self) -> float:
        """Mean bytes per persisted checkpoint file."""
        if self.checkpoints_written == 0:
            return 0.0
        return self.checkpoint_bytes_written / self.checkpoints_written

    def observe_watermark_lags(
        self, arrivals: int, lag_total: float, lag_max: float, reorder_depth: int
    ) -> None:
        """Record a run of arrivals: the sum and maximum of their event-time
        lags, and the highest reorder occupancy any of them left behind."""
        self.watermark_lag.observe_many(arrivals, lag_total, lag_max)
        if reorder_depth > self.reorder_depth_high_water:
            self.reorder_depth_high_water = reorder_depth

    def worker_lane(self, shard_id: int) -> WorkerLaneMetrics:
        """The (created-on-first-use) lane gauges for one shard worker."""
        lane = self.workers.get(shard_id)
        if lane is None:
            lane = self.workers[shard_id] = WorkerLaneMetrics(shard_id=shard_id)
        return lane

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary representation used by report tables.

        The column set is **stable**: every key is present in every row,
        zero-filled when the corresponding feature (checkpointing,
        event-time ordering, worker lanes) was not active — so the rows of
        one sweep always agree on headers and concatenate into a
        rectangular CSV.
        """
        lanes = list(self.workers.values())
        return {
            "events_ingested": float(self.events_ingested),
            "events": float(self.events_processed),
            "matches": float(self.matches_emitted),
            "late_events": float(self.late_events),
            "queue_high_water": float(self.queue_high_water),
            "checkpoints": float(self.checkpoints_written),
            "source_ms_mean": self.source.mean_seconds * 1e3,
            "engine_ms_mean": self.engine.mean_seconds * 1e3,
            "engine_ms_max": self.engine.max_seconds * 1e3,
            "sink_ms_mean": self.sink.mean_seconds * 1e3,
            "checkpoint_bytes": float(self.checkpoint_bytes_written),
            "checkpoint_bytes_mean": self.checkpoint_bytes_mean,
            "checkpoint_ms_mean": self.checkpoint.mean_seconds * 1e3,
            "checkpoint_ms_max": self.checkpoint.max_seconds * 1e3,
            "watermark_lag_mean": self.watermark_lag.mean_seconds,
            "watermark_lag_max": self.watermark_lag.max_seconds,
            "reorder_depth_hw": float(self.reorder_depth_high_water),
            "partial_matches_high_water": float(self.partial_matches_high_water),
            "workers": float(len(lanes)),
            "worker_queue_hw_max": float(
                max((lane.queue_high_water for lane in lanes), default=0)
            ),
            "worker_batch_ms_mean": (
                sum(lane.processing.total_seconds for lane in lanes)
                / max(1, sum(lane.processing.observations for lane in lanes))
            )
            * 1e3,
        }

    def __repr__(self) -> str:
        return (
            f"PipelineMetrics(processed={self.events_processed}, "
            f"matches={self.matches_emitted}, "
            f"queue_hw={self.queue_high_water}, "
            f"engine={self.engine!r})"
        )
