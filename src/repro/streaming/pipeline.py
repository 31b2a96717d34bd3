"""The streaming pipeline runtime.

:class:`StreamingPipeline` wires ``source → engine → sinks`` into a
long-running, incrementally-fed service:

* events are staged through a :class:`~repro.streaming.buffer.BoundedBuffer`
  whose overflow policy decides between backpressure and load shedding;
* with an event-time ordering stage (``max_lateness`` or an explicit
  :class:`~repro.streaming.ordering.ReorderBuffer`), out-of-order arrivals
  are buffered and released in timestamp order before they reach the
  engine, late events are dropped/side-routed/raised per the configured
  policy, and the event-time low watermark is propagated to worker
  backends so their deduplication eviction clock follows event time;
* the engine is fed event-at-a-time (the paper's detection–adaptation loop
  is untouched — the pipeline only changes *how events arrive*, never how
  they are evaluated), so a pipeline over a recorded stream produces
  exactly the matches of a batch :meth:`~repro.engine.AdaptiveCEPEngine.run`;
* matches are delivered to every sink as they are emitted;
* with a :class:`~repro.streaming.checkpoint.CheckpointStore`, the engine
  state, source offset and sink positions are snapshotted every
  ``checkpoint_every`` events, and a new pipeline pointed at the same
  store resumes from the latest checkpoint — re-processing only the
  post-checkpoint suffix, with sinks rolled back so nothing is lost or
  duplicated;
* :meth:`~StreamingPipeline.stop` requests a graceful shutdown: the loop
  finishes the in-flight event, writes a final checkpoint and flushes the
  sinks.

Two ingestion styles are supported: the pull-driven :meth:`run` loop
(sources) and the push-style :meth:`submit` / :meth:`drain` pair (for
callers that receive events from elsewhere and cannot be pulled from).

Where the detection work happens is pluggable: passing an
:class:`~repro.streaming.workers.ExecutionBackend` instead of a bare
engine routes events to per-shard worker threads or processes (see
:mod:`repro.streaming.workers`); a bare engine is wrapped in the
single-threaded :class:`~repro.streaming.workers.InlineBackend`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from repro.engine import Match
from repro.engine.state import restore_ordering_state, snapshot_ordering_state
from repro.errors import CheckpointError, StreamingError
from repro.events import Event, EventStream
from repro.metrics import PipelineMetrics
from repro.obs.decisions import CoalescingEmitter, DecisionLog
from repro.streaming.buffer import Backpressure, BoundedBuffer, OverflowPolicy
from repro.streaming.checkpoint import Checkpoint, CheckpointStore, DeltaCheckpoint
from repro.streaming.delta import tracker_degradation
from repro.streaming.ordering import ReorderBuffer
from repro.streaming.sinks import MatchSink
from repro.streaming.sources import EventSource, IterableSource
from repro.streaming.workers import ExecutionBackend, InlineBackend

#: How many events one fill phase pulls at most (bounds per-iteration latency).
DEFAULT_FILL_CHUNK = 256

#: Deltas between two full base snapshots in ``checkpoint_mode="delta"``.
DEFAULT_CHECKPOINT_FULL_EVERY = 8

#: Valid ``checkpoint_mode`` values.
CHECKPOINT_MODES = ("full", "delta")


@dataclass
class PipelineResult:
    """Outcome of one :meth:`StreamingPipeline.run` invocation."""

    events_processed: int
    matches_emitted: int
    duration_seconds: float
    metrics: PipelineMetrics
    stop_reason: str = "source-exhausted"
    resumed_from: int = 0
    total_events_processed: int = 0
    total_matches_emitted: int = 0
    plan_history: List[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Events processed per wall-clock second of this run."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.events_processed / self.duration_seconds

    def __repr__(self) -> str:
        return (
            f"PipelineResult(events={self.events_processed}, "
            f"matches={self.matches_emitted}, "
            f"throughput={self.throughput:,.0f} ev/s, "
            f"stop={self.stop_reason!r}, resumed_from={self.resumed_from})"
        )


class StreamingPipeline:
    """A deployable detection pipeline over one engine.

    Parameters
    ----------
    engine:
        Any engine exposing ``process(event) -> List[Match]`` — the
        sequential :class:`~repro.engine.AdaptiveCEPEngine`, the
        :class:`~repro.engine.MultiPatternEngine`, or the sharded
        :class:`~repro.parallel.ParallelCEPEngine` in streaming mode —
        or an :class:`~repro.streaming.workers.ExecutionBackend` (e.g. a
        :class:`~repro.streaming.workers.ProcessWorkerBackend` for true
        multi-core detection).  A bare engine runs inline.
    source:
        An :class:`~repro.streaming.sources.EventSource`, any
        :class:`~repro.events.EventStream`, or a plain iterable of events
        (wrapped into an :class:`IterableSource` automatically).
    sinks:
        Zero or more :class:`~repro.streaming.sinks.MatchSink` objects.
    checkpoint_store / checkpoint_every:
        Enable fault tolerance: snapshot the pipeline every
        ``checkpoint_every`` processed events into the store.  ``run`` then
        resumes from the latest checkpoint unless told otherwise.
    checkpoint_mode / checkpoint_full_every:
        ``"full"`` (default) pickles the whole engine state at every
        checkpoint.  ``"delta"`` writes ``checkpoint_full_every``
        append-only incremental deltas between consecutive full base
        snapshots — each delta only the state changed since the previous
        epoch (see :mod:`repro.streaming.delta`) — which keeps
        high-cadence checkpointing cheap and shrinks worker-barrier
        hand-offs from O(total state) to O(changed state).  Either mode
        resumes from a store written by the other.
    buffer_capacity / overflow_policy:
        The staging buffer between source and engine; the policy decides
        between backpressure and load shedding when it is full (only
        reachable through push-style :meth:`submit` — the pull loop stops
        pulling instead).
    ordering / max_lateness / late_policy / late_sink:
        Event-time out-of-order tolerance.  ``max_lateness`` builds a
        bounded-out-of-orderness :class:`~repro.streaming.ordering.ReorderBuffer`
        in front of the engine (``late_policy`` one of ``drop`` /
        ``side-output`` / ``raise``; ``late_sink`` receives side-routed
        events); pass ``ordering`` directly for punctuated or custom
        watermarking.  Without either, the source must already be
        timestamp-ordered (the original contract).
    """

    def __init__(
        self,
        engine,
        source: "EventSource | EventStream | Iterable[Event]",
        sinks: Sequence[MatchSink] = (),
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_every: int = 0,
        checkpoint_mode: str = "full",
        checkpoint_full_every: int = DEFAULT_CHECKPOINT_FULL_EVERY,
        buffer_capacity: int = 1024,
        overflow_policy: Optional[OverflowPolicy] = None,
        fill_chunk: int = DEFAULT_FILL_CHUNK,
        clock: Callable[[], float] = time.perf_counter,
        ordering: Optional[ReorderBuffer] = None,
        max_lateness: Optional[float] = None,
        late_policy: str = "drop",
        late_sink: Optional[Callable[[Event], None]] = None,
        decision_log: Optional[DecisionLog] = None,
    ):
        self._backend = (
            engine if isinstance(engine, ExecutionBackend) else InlineBackend(engine)
        )
        if checkpoint_every < 0:
            raise StreamingError(
                f"checkpoint_every must be non-negative, got {checkpoint_every!r}"
            )
        if checkpoint_every and checkpoint_store is None:
            raise StreamingError(
                "checkpoint_every requires a checkpoint_store"
            )
        if checkpoint_mode not in CHECKPOINT_MODES:
            raise StreamingError(
                f"checkpoint_mode must be one of {CHECKPOINT_MODES}, "
                f"got {checkpoint_mode!r}"
            )
        if checkpoint_full_every < 1:
            raise StreamingError(
                f"checkpoint_full_every must be positive, "
                f"got {checkpoint_full_every!r}"
            )
        if fill_chunk < 1:
            raise StreamingError(f"fill_chunk must be positive, got {fill_chunk!r}")
        self._source = (
            source if isinstance(source, EventSource) else IterableSource(source)
        )
        self._sinks: List[MatchSink] = list(sinks)
        self._store = checkpoint_store
        self._checkpoint_every = int(checkpoint_every)
        self._checkpoint_mode = checkpoint_mode
        self._full_every = int(checkpoint_full_every)
        # Delta-chain bookkeeping: the epoch the next delta diffs against,
        # the store index of the current chain's base, and how many deltas
        # the chain holds so far.  ``None`` forces the next checkpoint to
        # be a full base (fresh pipeline, or right after a restore —
        # trackers only know state they were primed with in this process).
        self._delta_epoch: Optional[int] = None
        self._base_index: Optional[int] = None
        self._chain_deltas = 0
        self._epoch_seq = 0
        self._buffer = BoundedBuffer(buffer_capacity, overflow_policy)
        self._fill_chunk = int(fill_chunk)
        self._clock = clock
        if ordering is not None and max_lateness is not None:
            raise StreamingError(
                "pass either an ordering buffer or max_lateness, not both"
            )
        if ordering is None and max_lateness is not None:
            ordering = ReorderBuffer(
                max_lateness, late_policy=late_policy, late_sink=late_sink
            )
        self._ordering = ordering
        # Event-time high-water mark (max timestamp pulled); the reference
        # the watermark-lag gauge measures disorder against.
        self._max_event_time = float("-inf")

        self.metrics = PipelineMetrics()
        self._backend.bind_metrics(self.metrics)
        self._events_processed_total = 0
        self._matches_emitted_total = 0
        self._records_ingested_total = 0
        self._events_at_last_checkpoint = 0
        self._stop_requested = False
        self._running = False

        # Observability: the decision log receives a typed record for every
        # runtime action (coalesced for the per-event shed/late decisions so
        # the overload path never pays a file write per event).  It is
        # optional and the hot path only ever pays ``is not None`` checks
        # for it.
        self.decision_log = decision_log
        self._shed_emitter: Optional[CoalescingEmitter] = None
        self._late_emitter: Optional[CoalescingEmitter] = None
        if decision_log is not None:
            self._shed_emitter = CoalescingEmitter(decision_log, "shed")
            self._late_emitter = CoalescingEmitter(decision_log, "late_event_policy")
        self._attach_observers()
        # Lifecycle state backing the control plane's /ready endpoint:
        # created → restoring → running → stopped.
        self._state = "created"
        # Manual checkpoint requests (control-plane POST /checkpoint): the
        # run loop performs the cut between batches and sets the events.
        self._manual_requests: "deque[threading.Event]" = deque()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The live engine (replaced by the restored one after a resume).

        With a worker backend this is the backend's template engine —
        process-backend replicas are refreshed from the workers at every
        checkpoint and on shutdown.
        """
        return self._backend.engine

    @property
    def backend(self) -> ExecutionBackend:
        """Where detection runs: inline, thread workers or process workers."""
        return self._backend

    @property
    def source(self) -> EventSource:
        return self._source

    @property
    def sinks(self) -> List[MatchSink]:
        return list(self._sinks)

    @property
    def buffer(self) -> BoundedBuffer:
        return self._buffer

    @property
    def ordering(self) -> Optional[ReorderBuffer]:
        """The event-time ordering stage, or ``None`` for sorted sources."""
        return self._ordering

    @property
    def events_processed(self) -> int:
        """Total events processed, including any resumed prefix."""
        return self._events_processed_total

    @property
    def records_ingested(self) -> int:
        """Source records pulled, including events still held in flight."""
        return self._records_ingested_total

    @property
    def matches_emitted(self) -> int:
        return self._matches_emitted_total

    def engine_introspection(self) -> dict:
        """One frame of engine internals (plan, operator stats, drift).

        Delegates to the execution backend, which merges per-shard frames
        for worker backends; see :mod:`repro.obs.introspect` and the
        control plane's ``/engine`` endpoint.
        """
        return self._backend.engine_introspection()

    def _sample_partial_matches(self) -> None:
        """Record the live partial-match population into the metrics.

        Called only at checkpoint cuts and end-of-run — a deliberate
        low-frequency gauge so the per-event hot path never pays for it.
        """
        count = getattr(self._backend.engine, "partial_match_count", None)
        if callable(count):
            try:
                self.metrics.observe_partial_matches(count())
            except Exception:  # pragma: no cover - engine mid-teardown
                pass

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Lifecycle state: ``created`` / ``restoring`` / ``running`` / ``stopped``."""
        return self._state

    def readiness(self) -> "tuple[bool, str]":
        """Whether the pipeline should receive traffic, and why (not).

        Distinct from liveness: a pipeline replaying a checkpoint chain or
        saturated under backpressure is *alive* but not *ready* — the
        control plane's ``/ready`` endpoint answers 503 from this signal
        so a load balancer routes around the instance without killing it.
        """
        if self._state == "restoring":
            return False, "restoring from checkpoint"
        if not self._running:
            return False, f"pipeline is not running (state={self._state})"
        if self._buffer.full and isinstance(self._buffer.policy, Backpressure):
            return False, "backpressure: staging buffer saturated"
        return True, "ok"

    def request_checkpoint(self) -> threading.Event:
        """Request a manual checkpoint cut (thread-safe; ``POST /checkpoint``).

        The run loop performs the cut between batches — through the same
        barrier a cadence-triggered cut uses — and sets the returned event
        when it lands.  Raises when no store is configured or the pipeline
        is not running (nothing would ever service the request).
        """
        if self._store is None:
            raise StreamingError("no checkpoint store configured")
        if not self._running:
            raise StreamingError("pipeline is not running")
        done = threading.Event()
        self._manual_requests.append(done)
        return done

    def _record_decision(self, type: str, **detail) -> None:
        if self.decision_log is not None:
            self.decision_log.record(type, **detail)

    def _on_shed(self, event: Event, policy: str) -> None:
        self._shed_emitter.observe(
            sample={"type": event.type_name, "timestamp": event.timestamp},
            policy=policy,
        )

    def _on_late(self, event: Event, policy: str) -> None:
        self._late_emitter.observe(
            sample={
                "type": event.type_name,
                "timestamp": event.timestamp,
                "watermark": self._ordering.watermark if self._ordering else None,
            },
            policy=policy,
        )

    def _on_replan(self, record) -> None:
        self._record_decision(
            "replan",
            reason=record.reason,
            previous_cost=record.previous_cost,
            new_cost=record.new_cost,
            plan=record.plan_description,
            events_processed=self._events_processed_total,
            trigger_distance=getattr(record, "trigger_distance", None),
            drift=getattr(record, "drift", None),
        )

    def _iter_controllers(self, engine=None) -> Iterator[object]:
        """Every live AdaptationController reachable from the engine.

        Walks the engine shapes duck-typed: a bare adaptive engine's
        ``controller``, a multi-pattern engine's ``sub_engines()``, and a
        sharded parallel engine's per-shard engines.  Process-worker
        replicas live out-of-process and cannot be walked — their replan
        records are unavailable (a documented best-effort boundary).
        """
        if engine is None:
            engine = self._backend.engine
        controller = getattr(engine, "controller", None)
        if controller is not None:
            yield controller
        sub_engines = getattr(engine, "sub_engines", None)
        if sub_engines is not None:
            # MultiPatternEngine exposes sub_engines as a property (a
            # list); older engine shapes exposed a method.
            subs = sub_engines() if callable(sub_engines) else sub_engines
            for sub in subs:
                if sub is not engine:
                    yield from self._iter_controllers(sub)
        sharded = getattr(engine, "sharded_engine", None)
        if sharded is not None:
            for shard in getattr(sharded, "shards", ()) or ():
                inner = getattr(shard, "engine", None)
                if inner is not None and inner is not engine:
                    yield from self._iter_controllers(inner)

    def _attach_observers(self) -> None:
        """(Re-)attach decision hooks to the live buffer/ordering/engine.

        Called at construction and again after a checkpoint restore — the
        restore replaces the ordering buffer and the engine state, and the
        hooks are process-local attributes deliberately excluded from
        pickled state.
        """
        if self.decision_log is None:
            return
        self._buffer.on_shed = self._on_shed
        if self._ordering is not None:
            self._ordering.on_late = self._on_late
        for controller in self._iter_controllers():
            controller.decision_sink = self._on_replan
        if self._store is not None:
            self._store.observer = self._record_decision
        for sink in self._sinks:
            if hasattr(sink, "on_decision"):
                sink.on_decision = self._record_decision

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request a graceful stop.

        Safe to call from a signal handler or another thread: the run loop
        finishes the event in flight, writes a final checkpoint and flushes
        the sinks before returning.  A tailing (``follow=True``) file source
        is told to stop following, so a loop blocked on an EOF poll wakes at
        the next poll interval instead of waiting out its idle timeout.
        """
        self._stop_requested = True
        stop_following = getattr(self._source, "stop_following", None)
        if callable(stop_following):
            stop_following()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _restore_from(self, checkpoint: Checkpoint) -> None:
        pattern_name = getattr(self._backend.pattern, "name", "")
        if (
            checkpoint.pattern_name
            and pattern_name
            and checkpoint.pattern_name != pattern_name
        ):
            raise CheckpointError(
                f"checkpoint belongs to pattern {checkpoint.pattern_name!r} "
                f"but this pipeline runs {pattern_name!r}; clear the store "
                "or point it elsewhere"
            )
        self._backend.restore(checkpoint.engine_blob)
        self._events_processed_total = checkpoint.events_processed
        self._matches_emitted_total = checkpoint.matches_emitted
        self._events_at_last_checkpoint = checkpoint.events_processed
        # Delta trackers only know state primed in this process: rebase so
        # the first checkpoint after a resume is a fresh full base.
        self._delta_epoch = None
        self._base_index = None
        self._chain_deltas = 0
        if checkpoint.sink_states:
            if len(checkpoint.sink_states) != len(self._sinks):
                raise CheckpointError(
                    f"checkpoint has {len(checkpoint.sink_states)} sink states "
                    f"but the pipeline has {len(self._sinks)} sinks; resume "
                    "with the same sink configuration"
                )
            for sink, state in zip(self._sinks, checkpoint.sink_states):
                sink.restore(state)
        # With an ordering stage, the processed events are not a prefix of
        # the source: the checkpoint carries the in-flight difference (the
        # reorder heap and the staged-but-unprocessed events) and the raw
        # source offset.  getattr() keeps checkpoints from older builds
        # (which predate both fields) loading.
        ordering_blob = getattr(checkpoint, "ordering_blob", None)
        if ordering_blob is not None:
            if self._ordering is None:
                raise CheckpointError(
                    "checkpoint holds an in-flight reorder buffer; resume "
                    "with an ordering stage (max_lateness / ordering) or "
                    "clear the store"
                )
            state = restore_ordering_state(ordering_blob)
            self._ordering = state["ordering"]
            for event in state.get("staged", ()):
                self._buffer.force_append(event)
            self._max_event_time = float(state.get("high_water", float("-inf")))
            self.metrics.late_events = self._ordering.late_events
            records = int(getattr(checkpoint, "records_ingested", -1))
            if records < checkpoint.events_processed:
                raise CheckpointError(
                    "checkpoint with ordering state lacks a valid source "
                    "offset (records_ingested)"
                )
            self._records_ingested_total = records
            self._source.skip(records)
        else:
            self._records_ingested_total = checkpoint.events_processed
            self._source.skip(checkpoint.events_processed)
        # The restore replaced the ordering buffer and the engine state;
        # decision hooks are process-local and must be re-attached.
        self._attach_observers()

    def _write_checkpoint(self, reason: str = "periodic") -> None:
        if self._store is None:
            return
        started = self._clock()
        # Barrier first: with a worker backend the snapshot below is only a
        # consistent cut once every submitted event has been processed and
        # its matches have reached the sinks.
        self._emit(self._backend.flush())
        for sink in self._sinks:
            sink.flush()
        ordering_blob = None
        if self._ordering is not None:
            ordering_blob = snapshot_ordering_state(
                {
                    "ordering": self._ordering,
                    "staged": self._buffer.snapshot_events(),
                    "high_water": self._max_event_time,
                }
            )
        common = dict(
            events_processed=self._events_processed_total,
            matches_emitted=self._matches_emitted_total,
            sink_states=[sink.state() for sink in self._sinks],
            pattern_name=getattr(self._backend.pattern, "name", ""),
            records_ingested=self._records_ingested_total,
            ordering_blob=ordering_blob,
            reason=reason,
        )
        use_delta = (
            self._checkpoint_mode == "delta"
            and self._delta_epoch is not None
            and self._base_index is not None
            and self._chain_deltas < self._full_every
        )
        if use_delta:
            epoch = self._epoch_seq + 1
            frame = self._backend.snapshot_delta(self._delta_epoch, epoch)
            path = self._store.save_delta(
                DeltaCheckpoint(
                    frame=frame,
                    base_index=self._base_index,
                    epoch=epoch,
                    since_epoch=self._delta_epoch,
                    **common,
                )
            )
            self._chain_deltas += 1
        else:
            epoch = self._epoch_seq + 1
            if self._checkpoint_mode == "delta":
                engine_blob = self._backend.snapshot_base(epoch)
                delta_epoch = epoch
            else:
                engine_blob = self._backend.snapshot()
                delta_epoch = None
            checkpoint = Checkpoint(
                engine_blob=engine_blob, delta_epoch=delta_epoch, **common
            )
            path = self._store.save(checkpoint)
            self._base_index = checkpoint.index
            self._chain_deltas = 0
        if self._checkpoint_mode == "delta":
            self._delta_epoch = epoch
            self._epoch_seq = epoch
        self._events_at_last_checkpoint = self._events_processed_total
        # The snapshot above refreshed worker-owned replicas, so the
        # population gauge sees current state even on process backends.
        self._sample_partial_matches()
        pause = self._clock() - started
        self.metrics.checkpoint.observe(pause)
        self.metrics.checkpoints_written += 1
        size = 0
        try:
            size = os.path.getsize(path)
            self.metrics.observe_checkpoint_bytes(size)
        except OSError:  # pragma: no cover - racing an external prune
            pass
        if self.decision_log is not None:
            detail = dict(
                kind="delta" if use_delta else "full",
                reason=reason,
                bytes=size,
                pause_ms=pause * 1e3,
                epoch=self._epoch_seq if self._checkpoint_mode == "delta" else None,
                events_processed=self._events_processed_total,
                matches_emitted=self._matches_emitted_total,
            )
            if self._checkpoint_mode == "delta":
                # Whether the tracker actually delivered a delta or silently
                # degraded to a self-contained base frame.
                detail.update(tracker_degradation(self._backend.engine))
            self.decision_log.record("checkpoint_cut", **detail)

    # ------------------------------------------------------------------
    # Ingestion (shared by the pull loop and push-style submit)
    # ------------------------------------------------------------------
    def _stage_released(self, events: Sequence[Event]) -> None:
        """Move ordering-stage releases into the staging buffer.

        A released event already left the source *and* the reorder buffer,
        so under the backpressure policy a full staging buffer cannot refuse
        it — the buffer transiently exceeds its capacity instead (bounded by
        the reorder occupancy; the pull loop's fill budget still keeps the
        source from running further ahead).  Drop policies shed per policy,
        as for sorted ingestion.
        """
        for event in events:
            if not self._buffer.offer(event):
                self._buffer.force_append(event)

    def _ingest(self, event: Event) -> None:
        """Route one arrival through the (optional) ordering stage."""
        self._records_ingested_total += 1
        self.metrics.events_ingested += 1
        if self._ordering is None:
            self._buffer.offer(event)
            return
        # Lag behind the event-time high-water mark = this arrival's actual
        # disorder (0 when in order) — measured before the event itself can
        # raise the mark.
        lag = (
            max(0.0, self._max_event_time - event.timestamp)
            if self._max_event_time != float("-inf")
            else 0.0
        )
        if event.timestamp > self._max_event_time:
            self._max_event_time = event.timestamp
        watermark_before = self._ordering.watermark
        released = self._ordering.push(event)
        watermark = self._ordering.watermark
        self.metrics.observe_watermark_lag(lag, self._ordering.depth)
        self.metrics.late_events = self._ordering.late_events
        if released:
            self._stage_released(released)
        if watermark > watermark_before:
            self._backend.advance_watermark(watermark)

    # ------------------------------------------------------------------
    # Push-style ingestion
    # ------------------------------------------------------------------
    def submit(self, event: Event) -> bool:
        """Offer one event for later processing (push-style ingestion).

        Returns ``False`` when the buffer is full under the backpressure
        policy — the producer must retry after :meth:`drain`.  Drop
        policies always return ``True`` and account shed events in
        :attr:`metrics`.  With an ordering stage the event is always
        consumed (the reorder buffer absorbs it; shedding applies when the
        watermark releases it).
        """
        if self._ordering is not None:
            self._ingest(event)
            self.metrics.observe_queue_depth(self._buffer.depth)
            return True
        consumed = self._buffer.offer(event)
        if consumed:
            self._records_ingested_total += 1
            self.metrics.events_ingested += 1
            self.metrics.observe_queue_depth(self._buffer.depth)
        return consumed

    def flush_ordering(self) -> int:
        """Declare end-of-stream to the ordering stage (push-style callers).

        Releases every event still held by the reorder buffer into the
        staging buffer — in timestamp order — and returns how many were
        released; a following :meth:`drain` processes them.  The pull-driven
        :meth:`run` loop does this automatically when the source runs dry.
        No-op without an ordering stage.
        """
        if self._ordering is None or not self._ordering.depth:
            return 0
        released = self._ordering.flush()
        self._stage_released(released)
        self.metrics.observe_queue_depth(self._buffer.depth)
        return len(released)

    def drain(self, max_events: Optional[int] = None) -> List[Match]:
        """Process buffered events now; returns the matches they produced.

        With a worker backend this includes a barrier, so every drained
        event's matches are returned (not just the ones ready so far).
        """
        collected: List[Match] = []
        processed = 0
        while len(self._buffer) > 0:
            if max_events is not None and processed >= max_events:
                break
            collected.extend(self._process_one(self._buffer.pop()))
            processed += 1
        tail = self._backend.flush()
        self._emit(tail)
        collected.extend(tail)
        self.metrics.events_shed += self._buffer.events_shed
        self._buffer.events_shed = 0
        return collected

    def close(self) -> None:
        """Release backend workers (push-style callers; run() does this)."""
        self._backend.close()

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def _emit(self, matches: List[Match]) -> None:
        """Deliver matches to every sink and account for them."""
        if not matches:
            return
        sink_started = self._clock()
        for sink in self._sinks:
            for match in matches:
                sink.emit(match)
        self.metrics.sink.observe(self._clock() - sink_started)
        self._matches_emitted_total += len(matches)
        self.metrics.matches_emitted += len(matches)

    def _process_one(self, event: Event) -> List[Match]:
        started = self._clock()
        self._backend.submit(event)
        self.metrics.engine.observe(self._clock() - started)
        self._events_processed_total += 1
        self.metrics.events_processed += 1
        matches = self._backend.collect()
        self._emit(matches)
        if (
            self._checkpoint_every
            and self._events_processed_total - self._events_at_last_checkpoint
            >= self._checkpoint_every
        ):
            self._write_checkpoint()
        return matches

    def run(
        self,
        max_events: Optional[int] = None,
        resume: bool = True,
        final_checkpoint: bool = True,
    ) -> PipelineResult:
        """Pull the source dry (or up to ``max_events``) through the engine.

        Parameters
        ----------
        max_events:
            Stop after processing this many events *in this run* (the
            bounded-service mode used by smoke tests and experiments).
        resume:
            When a checkpoint store is configured and holds a checkpoint,
            restore engine/sinks/offset from it before processing.
        final_checkpoint:
            Write one last checkpoint when the loop ends (set ``False`` to
            simulate a hard kill in tests).
        """
        if self._running:
            raise StreamingError("pipeline is already running")
        self._running = True
        self._stop_requested = False
        resumed_from = 0
        try:
            if resume and self._store is not None:
                checkpoint = self._store.latest()
                if checkpoint is not None:
                    self._state = "restoring"
                    self._restore_from(checkpoint)
                    resumed_from = checkpoint.events_processed
            for sink in self._sinks:
                sink.open()
            self._backend.start()
            self._state = "running"
            if self._ordering is not None:
                # A restored reorder buffer re-seeds the backend's
                # event-time clock before any new arrival advances it.
                self._backend.advance_watermark(self._ordering.watermark)

            started = self._clock()
            events_before = self.metrics.events_processed
            matches_before = self.metrics.matches_emitted
            iterator = iter(self._source)
            exhausted = False
            stop_reason = "source-exhausted"
            processed_this_run = 0

            while True:
                if self._stop_requested:
                    stop_reason = "stopped"
                    break
                if max_events is not None and processed_this_run >= max_events:
                    stop_reason = "max-events"
                    break
                # Manual checkpoint requests (control plane) are serviced at
                # the batch boundary — the same consistent cut point a
                # cadence-triggered checkpoint uses.
                if self._manual_requests:
                    self._service_manual_checkpoints()

                # Fill phase: stage a chunk of events from the source.  The
                # buffer bounds how far the source can run ahead of the
                # engine — with the backpressure policy this *is* the
                # backpressure (we simply stop pulling).
                budget = min(self._fill_chunk, self._buffer.free)
                if max_events is not None:
                    budget = min(
                        budget,
                        max_events - processed_this_run - len(self._buffer),
                    )
                if budget > 0 and not exhausted:
                    fill_started = self._clock()
                    for _ in range(budget):
                        # Honour stop() mid-fill: a rate-limited source paces
                        # every pull, so finishing the chunk could stall the
                        # shutdown for seconds.
                        if self._stop_requested:
                            break
                        try:
                            event = next(iterator)
                        except StopIteration:
                            exhausted = True
                            break
                        self._ingest(event)
                    fill_elapsed = self._clock() - fill_started
                    self.metrics.source.observe(fill_elapsed)
                    self.metrics.observe_queue_depth(self._buffer.depth)

                if len(self._buffer) == 0:
                    if exhausted:
                        # End-of-stream: no more watermarks will arrive, so
                        # release whatever the ordering stage still holds.
                        if self.flush_ordering():
                            continue
                        break
                    continue

                # Drain phase: feed the staged events to the engine.
                while (
                    len(self._buffer) > 0
                    and not self._stop_requested
                    and (max_events is None or processed_this_run < max_events)
                ):
                    self._process_one(self._buffer.pop())
                    processed_this_run += 1

            # Barrier: with a worker backend, matches for the last submitted
            # events may still be in flight — wait for them and deliver.
            self._emit(self._backend.flush())
            duration = self._clock() - started
            if final_checkpoint and self._store is not None:
                if self._events_processed_total > self._events_at_last_checkpoint:
                    self._write_checkpoint(reason="shutdown")
            for sink in self._sinks:
                sink.flush()
            # Stop the workers before reading plan history: the process
            # backend only ships its replicas' final state (including the
            # plans they adapted to) back on close.  Idempotent — the
            # finally-block close becomes a no-op.
            self._backend.close()
            self._sample_partial_matches()

            self.metrics.events_shed += self._buffer.events_shed
            self._buffer.events_shed = 0
            return PipelineResult(
                events_processed=self.metrics.events_processed - events_before,
                matches_emitted=self.metrics.matches_emitted - matches_before,
                duration_seconds=duration,
                metrics=self.metrics,
                stop_reason=stop_reason,
                resumed_from=resumed_from,
                total_events_processed=self._events_processed_total,
                total_matches_emitted=self._matches_emitted_total,
                plan_history=self._backend.plan_history(),
            )
        finally:
            self._running = False
            self._state = "stopped"
            self._backend.close()
            for sink in self._sinks:
                sink.close()
            # Emit the final partial shed/late bursts and unblock any HTTP
            # thread still waiting on a manual cut the loop will never
            # service (the run is over; the final checkpoint covered it).
            if self._shed_emitter is not None:
                self._shed_emitter.flush()
            if self._late_emitter is not None:
                self._late_emitter.flush()
            while self._manual_requests:
                self._manual_requests.popleft().set()

    def _service_manual_checkpoints(self) -> None:
        """Perform one cut for every pending ``request_checkpoint`` call."""
        pending: List[threading.Event] = []
        while self._manual_requests:
            pending.append(self._manual_requests.popleft())
        if not pending:
            return
        # One cut satisfies every request queued up to this boundary.
        self._write_checkpoint(reason="manual")
        for done in pending:
            done.set()

    def __repr__(self) -> str:
        return (
            f"<StreamingPipeline backend={self._backend.name} "
            f"engine={type(self._backend.engine).__name__} "
            f"source={self._source.name} sinks={len(self._sinks)} "
            f"processed={self._events_processed_total}>"
        )
