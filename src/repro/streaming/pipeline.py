"""The streaming pipeline runtime.

:class:`StreamingPipeline` wires ``source → engine → sinks`` into a
long-running, incrementally-fed service:

* :meth:`~StreamingPipeline.run` is the only way in: it alternates one
  *fill* pass, which pulls at most :data:`FILL_CHUNK` events from the
  source (through the ordering stage, if any) into a staging queue, with
  one *drain* pass, which submits the staged events; how far the source
  runs ahead of the engine is bounded by *not pulling* — a push-style
  producer goes through a bounded source instead (e.g.
  :class:`~repro.streaming.net.NetworkEventSource`, whose HTTP ingress
  answers 429 when full).  Per-arrival gauges (watermark lag, reorder
  depth) are summed during a fill and written once at its end; file
  sources decode their input a block of lines at a time
  (:mod:`repro.streaming.sources`);
* with an event-time ordering stage (a
  :class:`~repro.streaming.ordering.ReorderBuffer`), out-of-order arrivals
  are buffered and released in timestamp order before they reach the
  engine, late events are dropped/side-routed/raised per the buffer's
  policy, and the event-time low watermark is propagated to worker
  backends so their deduplication eviction clock follows event time;
* the drain still feeds the engine event-at-a-time (the paper's
  detection–adaptation loop is untouched — the pipeline only changes *how
  events arrive*, never how they are evaluated), so a pipeline over a
  recorded stream produces exactly the matches of a batch
  :meth:`~repro.engine.AdaptiveCEPEngine.run`;
* matches are delivered to every sink as they are emitted, before the next
  event is submitted;
* with a :class:`~repro.streaming.checkpoint.CheckpointStore`, the engine
  state, source offset and sink positions are snapshotted every
  ``checkpoint_every`` events, and a new pipeline pointed at the same
  store resumes from the latest checkpoint — re-processing only the
  post-checkpoint suffix, with sinks rolled back so nothing is lost or
  duplicated;
* :meth:`~StreamingPipeline.stop` requests a graceful shutdown: the loop
  finishes the in-flight event, writes a final checkpoint and flushes the
  sinks.

Where the detection work happens is pluggable: passing a
:class:`~repro.streaming.workers.ProcessWorkerBackend` instead of a bare
engine routes events to one worker process per shard replica (see
:mod:`repro.streaming.workers`); a bare engine is wrapped in the
single-threaded :class:`~repro.streaming.workers.InlineBackend`.  Either
way each replica is fed by the same per-event ``process`` call.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine import Match
from repro.engine.state import restore_ordering_state, snapshot_ordering_state
from repro.errors import CheckpointError, StreamingError
from repro.events import Event, EventStream
from repro.metrics import PipelineMetrics
from repro.obs.decisions import CoalescingEmitter, DecisionLog
from repro.streaming.checkpoint import Checkpoint, CheckpointStore, DeltaCheckpoint
from repro.streaming.ordering import ReorderBuffer
from repro.streaming.sinks import MatchSink
from repro.streaming.sources import EventSource, ReplaySource
from repro.streaming.workers import ExecutionBackend, InlineBackend

#: How many events one fill phase pulls at most (bounds per-iteration latency
#: and how far the source runs ahead of the engine).
FILL_CHUNK = 256

#: Deltas between two full base snapshots in ``checkpoint_mode="delta"``
#: (the chain length a restore has to replay).
CHECKPOINT_FULL_EVERY = 8

#: Valid ``checkpoint_mode`` values.
CHECKPOINT_MODES = ("full", "delta")

#: Seconds an introspection request from another thread waits for the run
#: loop of a worker-backend pipeline to reach a batch boundary.
FRAME_WAIT_SECONDS = 5.0


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
        (wrapped into a :class:`ReplaySource` automatically).
    sinks:
        Zero or more :class:`~repro.streaming.sinks.MatchSink` objects.
    checkpoint_store / checkpoint_every:
        Enable fault tolerance: snapshot the pipeline every
        ``checkpoint_every`` processed events into the store.  ``run`` then
        resumes from the latest checkpoint unless told otherwise.
    checkpoint_mode:
        ``"full"`` (default) pickles the whole engine state at every
        checkpoint.  ``"delta"`` writes :data:`CHECKPOINT_FULL_EVERY`
        append-only incremental deltas between consecutive full base
        snapshots — each delta only the state changed since the previous
        epoch (see :mod:`repro.streaming.delta`) — which keeps
        high-cadence checkpoint files small.  Either mode resumes from a
        store written by the other, and either backend from a store
        written by the other backend.
    ordering:
        Event-time out-of-order tolerance: a
        :class:`~repro.streaming.ordering.ReorderBuffer` in front of the
        engine (``ReorderBuffer(max_lateness, late_policy=…, late_sink=…)``
        for bounded disorder, or one built on punctuated/custom
        watermarks).  Without it the source must already be
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
        clock: Callable[[], float] = time.perf_counter,
        ordering: Optional[ReorderBuffer] = None,
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
        self._source = (
            source if isinstance(source, EventSource) else ReplaySource(source)
        )
        self._sinks: List[MatchSink] = list(sinks)
        self._store = checkpoint_store
        self._checkpoint_every = int(checkpoint_every)
        self._checkpoint_mode = checkpoint_mode
        # Delta-chain bookkeeping: the epoch the next delta diffs against,
        # the store index of the current chain's base, and how many deltas
        # the chain holds so far.  ``None`` forces the next checkpoint to
        # be a full base (fresh pipeline, or right after a restore —
        # trackers only know state they were primed with in this process).
        self._delta_epoch: Optional[int] = None
        self._base_index: Optional[int] = None
        self._chain_deltas = 0
        self._epoch_seq = 0
        # Events pulled (and released by the ordering stage) but not yet
        # processed; ordering checkpoints snapshot it as ``staged``.
        self._staged: Deque[Event] = deque()
        self._clock = clock
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
        # runtime action (coalesced for the per-event late decisions so
        # heavy disorder never pays a file write per event).  It is
        # optional and the hot path only ever pays ``is not None`` checks
        # for it.
        self.decision_log = decision_log
        self._late_emitter: Optional[CoalescingEmitter] = None
        if decision_log is not None:
            self._late_emitter = CoalescingEmitter(decision_log, "late_event_policy")
        self._attach_observers()
        # Lifecycle state backing the control plane's /ready endpoint:
        # created → restoring → running → stopped.
        self._state = "created"
        # Manual checkpoint requests (control-plane POST /checkpoint): the
        # run loop performs the cut between batches and sets the events.
        self._manual_requests: "deque[threading.Event]" = deque()
        # Introspection requests (GET /engine, /metrics) on a running worker
        # backend: the run loop takes the frame between batches, puts it in
        # the request's reply dict and sets its event.
        self._frame_requests: "deque[Tuple[threading.Event, dict]]" = deque()

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
        """Where detection runs: inline or in worker processes."""
        return self._backend

    @property
    def source(self) -> EventSource:
        return self._source

    @property
    def sinks(self) -> List[MatchSink]:
        return list(self._sinks)

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
        """One frame of engine internals (plan, populations, drift).

        Delegates to the execution backend, which merges per-shard frames
        for worker backends; see :mod:`repro.obs.introspect` and the
        control plane's ``/engine`` endpoint.  A worker backend refreshes
        its replicas through the hand-off queues that ``submit`` feeds, so
        while such a pipeline runs the frame is taken by the run loop
        between batches — like a manual checkpoint — and this call waits
        up to :data:`FRAME_WAIT_SECONDS` for it.
        """
        if not self._running or isinstance(self._backend, InlineBackend):
            return self._backend.engine_introspection()
        done, reply = threading.Event(), {}
        self._frame_requests.append((done, reply))
        if not done.wait(FRAME_WAIT_SECONDS) or "frame" not in reply:
            raise StreamingError(
                "the run loop took no introspection frame (it is blocked on "
                "its source or has stopped)"
            )
        return reply["frame"]

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

        Distinct from liveness: a pipeline replaying a checkpoint chain is
        *alive* but not *ready* — the control plane's ``/ready`` endpoint
        answers 503 from this signal so a load balancer routes around the
        instance without killing it.
        """
        if self._state == "restoring":
            return False, "restoring from checkpoint"
        if not self._running:
            return False, f"pipeline is not running (state={self._state})"
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
        ``controller``, a multi-pattern engine's ``sub_engines``, and a
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
            for sub in sub_engines:
                if sub is not engine:
                    yield from self._iter_controllers(sub)
        sharded = getattr(engine, "sharded_engine", None)
        if sharded is not None:
            for shard in getattr(sharded, "shards", ()) or ():
                inner = getattr(shard, "engine", None)
                if inner is not None and inner is not engine:
                    yield from self._iter_controllers(inner)

    def _attach_observers(self) -> None:
        """(Re-)attach decision hooks to the live ordering stage and engine.

        Called at construction and again after a checkpoint restore — the
        restore replaces the ordering buffer and the engine state, and the
        hooks are process-local attributes deliberately excluded from
        pickled state.
        """
        if self.decision_log is None:
            return
        if self._ordering is not None:
            self._ordering.on_late = self._on_late
        for controller in self._iter_controllers():
            controller.decision_sink = self._on_replan
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
                    "with an ordering stage (ordering=ReorderBuffer(...)) or "
                    "clear the store"
                )
            state = restore_ordering_state(ordering_blob)
            self._ordering = state["ordering"]
            self._staged.extend(state.get("staged", ()))
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
                    "staged": list(self._staged),
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
            and self._chain_deltas < CHECKPOINT_FULL_EVERY
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
                # Whether this cut's frame really was a delta or silently
                # degraded to a self-contained base frame.
                detail.update(
                    last_kind=self._backend.last_kind,
                    degraded_encodes=self._backend.degraded_encodes,
                )
            self.decision_log.record("checkpoint_cut", **detail)

    # ------------------------------------------------------------------
    # Fill and drain
    # ------------------------------------------------------------------
    def _fill(self, iterator: Iterator[Event], budget: int) -> bool:
        """Pull up to ``budget`` arrivals through the (optional) ordering
        stage into the staging queue; returns whether the source ran dry.

        No event is submitted during a fill, so the arrivals' lag and
        reorder-depth gauges, the late count and the backend's event-time
        watermark are written once, when the fill ends: every submit still
        sees the watermark a per-arrival update would have given it.
        """
        staged = self._staged
        ordering = self._ordering
        if ordering is not None:
            push = ordering.push
            watermark_before = ordering.watermark
        high = self._max_event_time
        lag_total = lag_max = 0.0
        depth_high = 0
        pulled = 0
        exhausted = False
        started = self._clock()
        for _ in range(budget):
            # Honour stop() mid-fill: a rate-limited source paces every pull,
            # so finishing the chunk could stall the shutdown for seconds.
            if self._stop_requested:
                break
            try:
                event = next(iterator)
            except StopIteration:
                exhausted = True
                break
            pulled += 1
            if ordering is None:
                staged.append(event)
                continue
            # Lag behind the event-time high-water mark = this arrival's
            # actual disorder (0 when in order) — measured before the event
            # itself can raise the mark.
            timestamp = event.timestamp
            if timestamp < high:
                lag = high - timestamp
                lag_total += lag
                if lag > lag_max:
                    lag_max = lag
            elif timestamp > high:
                high = timestamp
            released = push(event)
            if released:
                staged.extend(released)
            depth = ordering.depth
            if depth > depth_high:
                depth_high = depth
        if ordering is not None:
            self._max_event_time = high
            self.metrics.observe_watermark_lags(pulled, lag_total, lag_max, depth_high)
            self.metrics.late_events = ordering.late_events
            watermark = ordering.watermark
            if watermark > watermark_before:
                self._backend.advance_watermark(watermark)
        self._records_ingested_total += pulled
        self.metrics.events_ingested += pulled
        self.metrics.source.observe(self._clock() - started)
        self.metrics.observe_queue_depth(len(staged))
        return exhausted

    def _drain(self, limit: int) -> int:
        """Submit the first ``limit`` staged events (at most as many as are
        staged) to the backend, one at a time; returns how many were
        submitted — fewer when :meth:`stop` interrupts the drain.

        Every event's matches reach the sinks before the next event is
        submitted, and a checkpoint is cut as soon as the cadence is due.
        """
        staged = self._staged
        submit = self._backend.submit
        collect = self._backend.collect
        clock = self._clock
        every = self._checkpoint_every
        due = self._events_at_last_checkpoint + every
        engine_total = engine_max = 0.0
        fed = 0
        for _ in range(limit):
            if self._stop_requested:
                break
            event = staged.popleft()
            started = clock()
            submit(event)
            elapsed = clock() - started
            engine_total += elapsed
            if elapsed > engine_max:
                engine_max = elapsed
            fed += 1
            self._events_processed_total += 1
            matches = collect()
            if matches:
                self._emit(matches)
            if every and self._events_processed_total >= due:
                self._write_checkpoint()
                due = self._events_at_last_checkpoint + every
        self.metrics.engine.observe_many(fed, engine_total, engine_max)
        self.metrics.events_processed += fed
        return fed

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

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
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
                if self._frame_requests:
                    self._service_frame_requests()

                # Fill phase: stage a chunk of events from the source.  The
                # chunk bounds how far the source can run ahead of the
                # engine — the loop simply stops pulling until it is drained.
                budget = FILL_CHUNK
                if max_events is not None:
                    budget = min(
                        budget,
                        max_events - processed_this_run - len(self._staged),
                    )
                if budget > 0 and not exhausted:
                    exhausted = self._fill(iterator, budget)

                if not self._staged:
                    if exhausted:
                        # End-of-stream: no more watermarks will arrive, so
                        # release whatever the ordering stage still holds.
                        if self._ordering is not None and self._ordering.depth:
                            self._staged.extend(self._ordering.flush())
                            self.metrics.observe_queue_depth(len(self._staged))
                            continue
                        break
                    continue

                # Drain phase: feed the staged events to the engine.
                limit = len(self._staged)
                if max_events is not None:
                    limit = min(limit, max_events - processed_this_run)
                processed_this_run += self._drain(limit)

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
            # Emit the final partial late burst and unblock any HTTP thread
            # still waiting on a manual cut the loop will never service
            # (the run is over; the final checkpoint covered it).
            if self._late_emitter is not None:
                self._late_emitter.flush()
            while self._manual_requests:
                self._manual_requests.popleft().set()
            while self._frame_requests:
                self._frame_requests.popleft()[0].set()

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

    def _service_frame_requests(self) -> None:
        """Take one introspection frame for every pending request."""
        pending = []
        while self._frame_requests:
            pending.append(self._frame_requests.popleft())
        frame = self._backend.engine_introspection()
        for done, reply in pending:
            reply["frame"] = frame
            done.set()

    def __repr__(self) -> str:
        return (
            f"<StreamingPipeline backend={self._backend.name} "
            f"engine={type(self._backend.engine).__name__} "
            f"source={self._source.name} sinks={len(self._sinks)} "
            f"processed={self._events_processed_total}>"
        )
