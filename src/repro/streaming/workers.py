"""Execution backends for the streaming pipeline.

The :class:`~repro.streaming.StreamingPipeline` run loop is a single
writer: it pulls events from the source and hands them to an *execution
backend*.  The backend decides where the detection work actually happens:

* :class:`InlineBackend` — evaluate in the pipeline thread (fully
  deterministic, zero hand-off cost).  It hosts any engine, including
  ones whose user-supplied conditions are not picklable
  (closures/lambdas).
* :class:`ProcessWorkerBackend` — one worker **process** per shard replica
  of a :class:`~repro.parallel.ParallelCEPEngine`, for real CPU
  parallelism.  Replicas are shipped to the workers as
  :func:`~repro.engine.state.snapshot_engine` blobs; events flow in
  partitioned hand-off batches of :data:`FEED_BATCH` over bounded
  ``multiprocessing`` queues, and each worker folds ``engine.process``
  over its batch one event at a time — the same call the inline
  :class:`~repro.parallel.ParallelCEPEngine` makes — so a worker replica
  adapts exactly like the inline replica it copies.  The coordinator
  pays per batch, not per event: a batch crosses as plain rows with each
  :class:`~repro.events.EventType` sent once per worker session
  (:func:`_encode_batch` / :func:`_decode_batch`), and ``submit`` takes
  no lock — the failure check runs as each batch is queued.

Both expose the same contract, so both produce the *same match set* for
the same input (the property ``tests/test_equivalence.py`` enforces):

* ``submit(event)`` routes one event through the partitioner into the
  shard queues (blocking when a queue is full — natural backpressure; a
  worker failure raises here within :data:`FEED_BATCH` submits per shard);
* ``collect()`` returns the matches that are ready *now* (non-blocking);
* ``flush()`` is the barrier: it waits until every submitted event has
  been fully processed and returns the remaining matches;
* ``snapshot()`` / ``restore(blob)`` capture/restore a consistent cut —
  the barrier runs first, so the per-shard engine states, the routing
  state (partitioner) and the deduplication filter all agree on exactly
  which events have been processed.  That is what preserves the
  pipeline's kill/resume zero-loss guarantee across worker processes.
  Both backends write the cut as one
  :func:`~repro.engine.state.snapshot_engine` frame of the hosted engine,
  so either resumes the other's checkpoints.

Shard outputs travel back on one unbounded output queue consumed by a
**merger thread**, which applies the window-bounded
:class:`~repro.parallel.StreamingMatchDeduplicator` (duplicates arise when
a replicating partitioner makes every shard find the same match) and
maintains the per-worker lane metrics.  Because the merger always drains
the output queue, a worker can never be blocked on a full output queue
while the pipeline blocks on a full input queue — the classic two-queue
deadlock is impossible by construction.

Duplicate eviction uses a *low watermark*: the slowest shard's stream
clock.  A shard that has drained everything fed to it advances to the
global feed clock, so an idle or starved shard never pins the watermark
and the deduplicator's memory stays window-bounded.  When the pipeline
runs an event-time ordering stage it additionally propagates the true
event-time low watermark via :meth:`ExecutionBackend.advance_watermark`;
the eviction clock is then clamped to it, so under out-of-order ingestion
duplicate signatures are evicted on *event time* rather than on the
arrival-order feed clock (which disorder would otherwise let run ahead).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from queue import Empty, Full
from typing import Dict, List, Optional, Set

from repro.engine import Match
from repro.engine.state import restore_engine, snapshot_engine
from repro.errors import CheckpointError, StreamingError
from repro.streaming.delta import DeltaTracker
from repro.events import Event, EventType
from repro.metrics import PipelineMetrics
from repro.parallel import ParallelCEPEngine, StreamingMatchDeduplicator

#: Events per hand-off batch (amortises queue/pickle overhead per event).
FEED_BATCH = 32

#: Batches each shard input queue may hold before ``submit`` blocks.
QUEUE_CAPACITY = 8

#: Seconds a barrier, snapshot or shutdown waits for every worker.
BARRIER_TIMEOUT_S = 120.0


class ExecutionBackend:
    """Where (and with how much parallelism) the pipeline evaluates events."""

    name: str = "backend"

    @property
    def engine(self):
        """The engine this backend evaluates with (may lag for workers)."""
        raise NotImplementedError

    @property
    def pattern(self):
        """The detected pattern (used for checkpoint compatibility checks)."""
        return getattr(self.engine, "pattern", None)

    def bind_metrics(self, metrics: PipelineMetrics) -> None:
        """Adopt the pipeline's metrics object for lane gauges."""

    def start(self) -> None:
        """Bring up workers (idempotent; called lazily on first submit)."""

    def submit(self, event: Event) -> None:
        """Route one event towards its shard(s); may block (backpressure)."""
        raise NotImplementedError

    def advance_watermark(self, watermark: float) -> None:
        """Adopt the pipeline's event-time low watermark (monotone).

        Called by a pipeline with an ordering stage whenever its watermark
        advances.  Backends that keep cross-shard state keyed by stream
        time (the match deduplicator) clamp their eviction clocks to it;
        the default is a no-op (an inline engine sees events in order and
        needs no separate clock).
        """

    def collect(self) -> List[Match]:
        """Matches that are ready now, without waiting (non-blocking)."""
        raise NotImplementedError

    def flush(self) -> List[Match]:
        """Barrier: process everything submitted, return remaining matches."""
        raise NotImplementedError

    def snapshot(self) -> bytes:
        """A consistent state blob (implies a barrier for worker backends)."""
        raise NotImplementedError

    #: Delta-degradation gauges for ``checkpoint_cut`` decision records:
    #: the kind of engine frame the last cut wrote — ``"delta"``, ``"base"``
    #: when a requested delta degraded to a self-contained frame because
    #: continuity could not be proven, ``None`` after a full cut — and how
    #: many delta cuts have degraded so far (a cut counts once, however many
    #: of its streams degraded).  A climbing count on a long-running service
    #: means the chain is silently paying full-snapshot costs.
    last_kind: Optional[str] = None
    degraded_encodes: int = 0

    def _note_cut(self, kind: Optional[str]) -> None:
        self.last_kind = kind
        if kind == "base":
            self.degraded_encodes += 1

    def snapshot_base(self, epoch: int) -> bytes:
        """A full snapshot that also anchors delta epoch ``epoch``.

        Like :meth:`snapshot`, but the backend's delta tracker remembers
        this state as the base the next :meth:`snapshot_delta` diffs
        against.
        """
        raise StreamingError(
            f"{type(self).__name__} does not support incremental checkpoints"
        )

    def snapshot_delta(self, since_epoch: int, epoch: int) -> bytes:
        """A framed delta of only the state changed since ``since_epoch``.

        Implies the same barrier as :meth:`snapshot`; the result is a
        :func:`~repro.engine.state.snapshot_delta_state` frame replayable
        by :func:`repro.streaming.delta.materialize_engine_blob`.
        """
        raise StreamingError(
            f"{type(self).__name__} does not support incremental checkpoints"
        )

    #: Change tracking for incremental checkpoints over the hosted engine:
    #: created when a base is cut, dropped when a restore replaces the engine.
    _tracker: Optional[DeltaTracker] = None

    def _base_frame(self, engine, epoch: int) -> bytes:
        blob = snapshot_engine(engine)
        self._tracker = DeltaTracker(engine)
        self._tracker.prime(epoch)
        self._note_cut(None)
        return blob

    def _delta_frame(self, engine, since_epoch: int, epoch: int) -> bytes:
        if self._tracker is None:
            # Never primed: the frame degrades to a self-contained base.
            self._tracker = DeltaTracker(engine)
        frame = self._tracker.encode_frame(since_epoch, epoch)
        self._note_cut(self._tracker.last_kind)
        return frame

    def restore(self, blob: bytes) -> None:
        """Apply a :meth:`snapshot` blob (before the backend is started)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop workers and reclaim their state (idempotent)."""

    def plan_history(self) -> List[str]:
        """Plan descriptions accumulated by the engine(s), best effort."""
        return []

    def engine_introspection(self) -> dict:
        """One frame of engine internals (see :mod:`repro.obs.introspect`)."""
        from repro.obs.introspect import engine_introspection_frame

        return engine_introspection_frame(self.engine)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class InlineBackend(ExecutionBackend):
    """Evaluate events in the calling thread (the classic pipeline loop)."""

    name = "inline"

    def __init__(self, engine):
        if not callable(getattr(engine, "process", None)):
            raise StreamingError(
                f"engine {type(engine).__name__} has no process() method"
            )
        self._engine = engine
        self._ready: List[Match] = []

    @property
    def engine(self):
        return self._engine

    def submit(self, event: Event) -> None:
        self._ready.extend(self._engine.process(event))

    def collect(self) -> List[Match]:
        ready, self._ready = self._ready, []
        return ready

    def flush(self) -> List[Match]:
        return self.collect()

    def snapshot(self) -> bytes:
        return snapshot_engine(self._engine)

    def snapshot_base(self, epoch: int) -> bytes:
        return self._base_frame(self._engine, epoch)

    def snapshot_delta(self, since_epoch: int, epoch: int) -> bytes:
        return self._delta_frame(self._engine, since_epoch, epoch)

    def restore(self, blob: bytes) -> None:
        self._engine = restore_engine(blob)
        self._tracker = None

    def plan_history(self) -> List[str]:
        return list(getattr(self._engine, "plan_history", []))


# ----------------------------------------------------------------------
# The worker protocol
# ----------------------------------------------------------------------
# Input-queue messages  (pipeline → worker):
#   ("events", new_types, rows)   process a partitioned batch: each row is
#                                 (type_name, timestamp, sequence_number,
#                                 payload); new_types holds the EventTypes
#                                 this worker session has not received yet
#                                 (see _encode_batch / _decode_batch)
#   ("mark", token)               barrier: reply once every earlier batch
#                                 has been processed
#   ("snapshot", token)           the same barrier, replying with the
#                                 replica's snapshot_engine() blob
#   ("stop",)                     reply ("stopped", ...) and exit
# Output-queue messages (worker → merger):
#   ("matches", shard_id, last_ts, (match, ...), n_events, seconds)
#   ("reply", shard_id, token, blob_or_None)
#   ("stopped", shard_id, final_blob)
#   ("error", shard_id, traceback_text)
def _encode_batch(events: List[Event], sent_types: Set[str]) -> tuple:
    """The ``events`` message for one hand-off batch, as plain rows.

    A row pickles as a small tuple rather than through the generic slot
    state of an :class:`~repro.events.Event`, and each
    :class:`~repro.events.EventType` (schema included) crosses to a worker
    once per session: ``sent_types`` holds the names already shipped and is
    updated here.
    """
    rows = tuple(
        (event.event_type.name, event.timestamp, event.sequence_number, event.payload)
        for event in events
    )
    new_types: Dict[str, EventType] = {}
    if not sent_types.issuperset([row[0] for row in rows]):
        new_types = {
            event.event_type.name: event.event_type
            for event in events
            if event.event_type.name not in sent_types
        }
        sent_types.update(new_types)
    return ("events", tuple(new_types.values()), rows)


def _decode_batch(types: Dict[str, EventType], message: tuple) -> List[Event]:
    """The events of an ``events`` message; ``types`` is the worker's
    name → :class:`~repro.events.EventType` table, extended in place.

    Events are rebuilt with slot stores, as
    :meth:`~repro.engine.match.PartialMatch.of` builds partial matches, so
    a rebuilt event equals the submitted one field by field.
    """
    _, new_types, rows = message
    for event_type in new_types:
        types[event_type.name] = event_type
    new = Event.__new__
    events = []
    for type_name, timestamp, sequence_number, payload in rows:
        event = new(Event)
        event.event_type = types[type_name]
        event.timestamp = timestamp
        event.sequence_number = sequence_number
        event.payload = payload
        events.append(event)
    return events


def _worker_loop(shard_id: int, engine, in_queue, out_queue) -> None:
    """Host one shard replica: consume batches, ship match deltas back.

    Each ``events`` message is decoded and folded through
    ``engine.process`` one event at a time, exactly as the inline sharded
    engine feeds its replicas; the replica keeps its partial matches and
    adaptation state for the next batch.  Events arrive in non-decreasing
    timestamp order (a pipeline over a disordered source restores the
    order upstream with its :mod:`~repro.streaming.ordering` stage).
    """
    process = engine.process
    types: Dict[str, EventType] = {}
    try:
        while True:
            message = in_queue.get()
            kind = message[0]
            if kind == "events":
                events = _decode_batch(types, message)
                started = time.perf_counter()
                matches = []
                for event in events:
                    matches.extend(process(event))
                elapsed = time.perf_counter() - started
                last_ts = events[-1].timestamp if events else None
                out_queue.put(
                    ("matches", shard_id, last_ts, tuple(matches), len(events), elapsed)
                )
            elif kind == "mark":
                out_queue.put(("reply", shard_id, message[1], None))
            elif kind == "snapshot":
                out_queue.put(("reply", shard_id, message[1], snapshot_engine(engine)))
            elif kind == "stop":
                out_queue.put(("stopped", shard_id, snapshot_engine(engine)))
                return
            else:  # pragma: no cover - protocol misuse
                raise StreamingError(f"unknown worker message kind {kind!r}")
    except BaseException:
        out_queue.put(("error", shard_id, traceback.format_exc()))


def _process_worker_main(shard_id: int, engine_blob: bytes, in_queue, out_queue) -> None:
    """Process-worker entry point: rebuild the replica, then serve."""
    try:
        engine = restore_engine(engine_blob)
    except BaseException:
        out_queue.put(("error", shard_id, traceback.format_exc()))
        return
    _worker_loop(shard_id, engine, in_queue, out_queue)


class ProcessWorkerBackend(ExecutionBackend):
    """One worker process per shard replica (true multi-core detection).

    The coordinator side — hand-off batching, routing, the merger thread,
    barriers and snapshots — runs in the pipeline's process; each worker
    runs :func:`_worker_loop` over its own copy of one replica.  The
    hosted :class:`~repro.parallel.ParallelCEPEngine` is the one copy of
    everything else: its partitioner routes, its streaming deduplicator
    filters the merged matches, and a checkpoint cut folds the workers'
    replicas back into it and snapshots it as one engine frame — the same
    frame an inline backend writes for the same engine, so a checkpoint
    resumes under either backend.
    """

    name = "process"

    def __init__(self, engine: ParallelCEPEngine):
        if not isinstance(engine, ParallelCEPEngine):
            raise StreamingError(
                f"{type(self).__name__} hosts one engine replica per shard "
                f"and therefore needs a ParallelCEPEngine, got "
                f"{type(engine).__name__}; wrap a sequential engine in a "
                "1-shard ParallelCEPEngine or use the inline backend"
            )
        self._context = multiprocessing.get_context()
        self._template = engine
        self._num_shards = engine.num_shards
        self._metrics = PipelineMetrics()

        self._started = False
        self._workers: List = []
        self._in_queues: List = []
        self._out_queue = None
        self._merger: Optional[threading.Thread] = None
        self._merger_stop = threading.Event()

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # Guarded by _lock:
        self._ready: List[Match] = []
        self._error: Optional[str] = None
        self._replies: Dict[int, Dict[int, Optional[bytes]]] = {}
        self._stopped_workers: set = set()
        self._fed_counts = [0] * self._num_shards
        self._done_counts = [0] * self._num_shards
        self._shard_clock = [float("-inf")] * self._num_shards
        self._fed_clock = float("-inf")
        # Event-time low watermark pushed down by an ordering pipeline
        # (monotone; -inf until one arrives).  Not reset by start(): event
        # time survives worker restarts within one backend lifetime.
        self._event_time_watermark = float("-inf")

        self._pending: List[List[Event]] = [[] for _ in range(self._num_shards)]
        # Names of the event types each worker session has received.
        self._sent_types: List[Set[str]] = [set() for _ in range(self._num_shards)]
        self._next_token = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The template :class:`ParallelCEPEngine`.

        Its shard replicas are refreshed from the workers on every
        snapshot and on :meth:`close`.
        """
        return self._template

    @property
    def pattern(self):
        return self._template.pattern

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def deduplicator(self) -> StreamingMatchDeduplicator:
        return self._template._streaming_dedup

    def _replicas(self) -> List:
        return [shard.engine for shard in self._template.sharded_engine.shards]

    def bind_metrics(self, metrics: PipelineMetrics) -> None:
        self._metrics = metrics

    def plan_history(self) -> List[str]:
        history: List[str] = []
        for shard_id, engine in enumerate(self._replicas()):
            history.extend(
                f"shard {shard_id}: {plan}"
                for plan in getattr(engine, "plan_history", [])
            )
        return history

    def engine_introspection(self) -> dict:
        """Per-shard introspection frames merged into one cross-shard view.

        The replicas are refreshed here through the same cut a checkpoint
        takes, so the frames — drift included — describe the workers'
        current truth, not a stale template.  The cut drives the hand-off
        queues, so while workers run only the thread that submits may call
        this; a running :class:`~repro.streaming.StreamingPipeline` hands
        other threads' requests to its run loop.
        """
        from repro.obs.introspect import (
            engine_introspection_frame,
            merge_introspection_frames,
        )

        self._cut()
        return merge_introspection_frames(
            [engine_introspection_frame(engine) for engine in self._replicas()]
        )

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _spawn_worker(self, shard_id: int, engine, in_queue, out_queue):
        try:
            blob = snapshot_engine(engine)
        except CheckpointError as exc:
            raise StreamingError(
                f"shard {shard_id} engine cannot be shipped to a worker "
                f"process ({exc}); run engines with unpicklable conditions "
                "on the inline backend (--backend inline)"
            ) from exc
        worker = self._context.Process(
            target=_process_worker_main,
            args=(shard_id, blob, in_queue, out_queue),
            name=f"shard-{shard_id}-worker",
            daemon=True,
        )
        worker.start()
        return worker

    def _worker_alive(self, shard_id: int) -> bool:
        return self._workers[shard_id].is_alive()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._merger_stop.clear()
        with self._lock:
            self._ready = []
            self._error = None
            self._replies = {}
            self._stopped_workers = set()
            self._fed_counts = [0] * self._num_shards
            self._done_counts = [0] * self._num_shards
            self._shard_clock = [float("-inf")] * self._num_shards
            self._fed_clock = float("-inf")
        self._pending = [[] for _ in range(self._num_shards)]
        self._sent_types = [set() for _ in range(self._num_shards)]
        self._in_queues = [
            self._context.Queue(maxsize=QUEUE_CAPACITY) for _ in range(self._num_shards)
        ]
        self._out_queue = self._context.Queue()  # unbounded: merger always drains
        self._workers = [
            self._spawn_worker(
                shard_id, engine, self._in_queues[shard_id], self._out_queue
            )
            for shard_id, engine in enumerate(self._replicas())
        ]
        self._merger = threading.Thread(
            target=self._merger_loop, name=f"{self.name}-merger", daemon=True
        )
        self._merger.start()
        self._started = True

    def close(self) -> None:
        if not self._started:
            return
        deadline = time.monotonic() + BARRIER_TIMEOUT_S
        try:
            for shard_id in range(self._num_shards):
                try:
                    self._flush_pending(shard_id)
                    self._put(shard_id, ("stop",), deadline)
                except StreamingError:
                    continue  # dead worker: nothing to stop
            with self._cond:
                while (
                    len(self._stopped_workers) < self._num_shards
                    and self._error is None
                    and time.monotonic() < deadline
                ):
                    self._cond.wait(0.25)
        finally:
            self._merger_stop.set()
            if self._merger is not None:
                self._merger.join(timeout=5.0)
            for worker in self._workers:
                worker.join(timeout=2.0)
                if worker.is_alive():  # pragma: no cover - stragglers
                    worker.terminate()
                    worker.join(timeout=1.0)
            self._workers = []
            self._in_queues = []
            self._out_queue = None
            self._merger = None
            self._started = False

    # ------------------------------------------------------------------
    # The merger thread
    # ------------------------------------------------------------------
    def _watermark_locked(self) -> float:
        """The dedup eviction clock: the slowest shard's stream clock.

        Idle shards ride the feed clock.  When the pipeline propagates an
        event-time low watermark (ordering stage active), the clock is
        clamped to it — with out-of-order ingestion the feed clock is an
        arrival-order maximum that may overtake events still admissible
        within the lateness bound, so eviction must follow event time.
        """
        clocks = []
        for shard_id in range(self._num_shards):
            if self._done_counts[shard_id] >= self._fed_counts[shard_id]:
                clocks.append(self._fed_clock)
            else:
                clocks.append(self._shard_clock[shard_id])
        watermark = min(clocks) if clocks else float("-inf")
        if self._event_time_watermark != float("-inf"):
            watermark = min(watermark, self._event_time_watermark)
        return watermark

    def advance_watermark(self, watermark: float) -> None:
        with self._lock:
            if watermark > self._event_time_watermark:
                self._event_time_watermark = watermark

    def _merger_loop(self) -> None:
        """Drain shard outputs: dedup matches, track barriers and lanes.

        Any unexpected failure is recorded as the backend error (and wakes
        barrier waiters) rather than silently killing the thread — a dead
        merger would otherwise turn every later barrier into a timeout.
        """
        try:
            self._merger_loop_inner()
        except BaseException:
            with self._cond:
                if self._error is None:
                    self._error = (
                        "the match-merger thread crashed:\n" + traceback.format_exc()
                    )
                self._cond.notify_all()

    def _merger_loop_inner(self) -> None:
        while True:
            try:
                message = self._out_queue.get(timeout=0.05)
            except Empty:
                if self._merger_stop.is_set():
                    return
                continue
            kind = message[0]
            with self._cond:
                if kind == "matches":
                    _, shard_id, last_ts, matches, n_events, elapsed = message
                    # The eviction watermark must be computed *before*
                    # crediting this delta: any delta still unprocessed (this
                    # one included) only carries detections at or above the
                    # pre-update watermark, so the horizon can never overtake
                    # a duplicate that is still in flight from another shard.
                    watermark = self._watermark_locked()
                    self._done_counts[shard_id] += n_events
                    if last_ts is not None:
                        self._shard_clock[shard_id] = last_ts
                    self._metrics.worker_lane(shard_id).observe_batch(
                        n_events, elapsed
                    )
                    if matches:
                        admitted = self.deduplicator.filter(matches, now=watermark)
                        self._ready.extend(admitted)
                elif kind == "reply":
                    _, shard_id, token, blob = message
                    self._replies.setdefault(token, {})[shard_id] = blob
                elif kind == "stopped":
                    _, shard_id, final_blob = message
                    self._adopt_engine(shard_id, restore_engine(final_blob))
                    self._stopped_workers.add(shard_id)
                elif kind == "error":
                    _, shard_id, text = message
                    if self._error is None:
                        self._error = f"shard {shard_id} worker failed:\n{text}"
                self._cond.notify_all()

    def _adopt_engine(self, shard_id: int, engine) -> None:
        """Fold a worker's engine state back into the template."""
        self._template.sharded_engine.shards[shard_id].engine = engine

    def _raise_if_failed_locked(self) -> None:
        if self._error is not None:
            raise StreamingError(self._error)

    def _raise_if_failed(self) -> None:
        with self._lock:
            self._raise_if_failed_locked()

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def _put(self, shard_id: int, message, deadline: Optional[float] = None) -> None:
        """Blocking bounded put with worker-liveness checks (backpressure)."""
        queue = self._in_queues[shard_id]
        while True:
            self._raise_if_failed()
            try:
                queue.put(message, timeout=0.25)
                return
            except Full:
                if not self._worker_alive(shard_id):
                    # The worker's dying act is an ("error", ...) message; give
                    # the merger a moment to dequeue it so the caller gets the
                    # real traceback rather than this generic symptom.
                    with self._cond:
                        self._cond.wait_for(
                            lambda: self._error is not None, timeout=2.0
                        )
                        self._raise_if_failed_locked()
                    raise StreamingError(
                        f"shard {shard_id} worker died with a full input queue"
                    ) from None
                if deadline is not None and time.monotonic() >= deadline:
                    raise StreamingError(
                        f"timed out handing work to shard {shard_id}"
                    ) from None

    def _flush_pending(self, shard_id: int) -> None:
        pending = self._pending[shard_id]
        if not pending:
            return
        message = _encode_batch(pending, self._sent_types[shard_id])
        last_ts = pending[-1].timestamp
        n_events = len(pending)
        pending.clear()
        # Credit the feed state *before* the put: once the batch is on the
        # queue a worker may process it and the merger may handle its delta;
        # if the shard were still uncredited at that point it would be
        # misclassified as drained and ride the (already-raised) feed clock,
        # inflating the dedup watermark past a duplicate still in flight.
        # Crediting early is safe in the other direction — the shard is
        # classified as busy and contributes its (lagging) processed clock.
        with self._lock:
            self._fed_counts[shard_id] += n_events
            if last_ts > self._fed_clock:
                self._fed_clock = last_ts
        self._put(shard_id, message)
        with self._lock:
            try:
                depth = self._in_queues[shard_id].qsize()
            except NotImplementedError:  # pragma: no cover - macOS qsize
                depth = 0
            self._metrics.worker_lane(shard_id).observe_queue_depth(depth)

    def submit(self, event: Event) -> None:
        # No lock and no failure check per event: both happen once per
        # batch, in _put, so a worker failure surfaces within FEED_BATCH
        # submits per shard.
        if not self._started:
            self.start()
        for shard_id in self._template.partitioner.route(event, self._num_shards):
            pending = self._pending[shard_id]
            pending.append(event)
            if len(pending) >= FEED_BATCH:
                self._flush_pending(shard_id)

    def collect(self) -> List[Match]:
        if not self._ready:  # read without the lock; the swap takes it
            return []
        with self._lock:
            ready, self._ready = self._ready, []
        return ready

    # ------------------------------------------------------------------
    # Barrier, flush, snapshot
    # ------------------------------------------------------------------
    def _barrier(self, kind: str = "mark") -> List[Optional[bytes]]:
        """Send every worker a ``kind`` message behind everything fed so far
        and wait for all replies (returned in shard order).

        A worker replies only after processing every earlier batch, and the
        merger handles a worker's matches before its reply, so once this
        returns the deduplicator has seen every match of every fed event.
        """
        self._next_token += 1
        token = self._next_token
        for shard_id in range(self._num_shards):
            self._flush_pending(shard_id)
        for shard_id in range(self._num_shards):
            self._put(shard_id, (kind, token))
        deadline = time.monotonic() + BARRIER_TIMEOUT_S
        with self._cond:
            while len(self._replies.get(token, ())) < self._num_shards:
                self._raise_if_failed_locked()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise StreamingError(
                        f"barrier timed out after {BARRIER_TIMEOUT_S:g}s "
                        f"({len(self._replies.get(token, ()))}/"
                        f"{self._num_shards} workers reached it)"
                    )
                self._cond.wait(min(remaining, 0.25))
            by_shard = self._replies.pop(token)
        return [by_shard[shard_id] for shard_id in range(self._num_shards)]

    def flush(self) -> List[Match]:
        if not self._started:
            return self.collect()
        self._barrier()
        return self.collect()

    def _cut(self) -> ParallelCEPEngine:
        """The template at a consistent cut.

        With workers running, each ships its replica through a snapshot
        barrier and the replica replaces the template's shard engine, so
        the replicas, the partitioner and the deduplicator all agree on
        exactly which events have been processed.
        """
        if self._started:
            for shard_id, blob in enumerate(self._barrier("snapshot")):
                self._adopt_engine(shard_id, restore_engine(blob))
        return self._template

    def snapshot(self) -> bytes:
        return snapshot_engine(self._cut())

    def snapshot_base(self, epoch: int) -> bytes:
        return self._base_frame(self._cut(), epoch)

    def snapshot_delta(self, since_epoch: int, epoch: int) -> bytes:
        """A delta of the template against the last cut.

        The workers ship whole replicas, as at a full cut; the tracker
        diffs the template's keyed collections (every shard's and the
        deduplicator's) exactly as an inline backend diffs its engine.
        """
        return self._delta_frame(self._cut(), since_epoch, epoch)

    def restore(self, blob: bytes) -> None:
        if self._started:
            raise StreamingError(
                "restore() must run before the worker backend is started "
                "(a resuming pipeline restores first, then starts workers)"
            )
        engine = restore_engine(blob)
        if not isinstance(engine, ParallelCEPEngine):
            raise CheckpointError(
                f"checkpoint holds a {type(engine).__name__}; a worker "
                "backend can only resume a ParallelCEPEngine"
            )
        if engine.num_shards != self._num_shards:
            raise CheckpointError(
                f"checkpoint engine has {engine.num_shards} shards but this "
                f"backend runs {self._num_shards} workers; resume with the "
                "same worker count"
            )
        self._template = engine
        self._tracker = None

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} shards={self._num_shards} "
            f"started={self._started}>"
        )

