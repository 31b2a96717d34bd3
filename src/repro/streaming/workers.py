"""Multi-core execution backends for the streaming pipeline.

The :class:`~repro.streaming.StreamingPipeline` run loop is a single
writer: it pulls events from the source and hands them to an *execution
backend*.  The backend decides where the detection work actually happens:

* :class:`InlineBackend` — evaluate in the pipeline thread (the original
  behaviour; fully deterministic, zero hand-off cost).
* :class:`ThreadWorkerBackend` — one worker **thread** per shard, fed by
  bounded queues.  Threads share the GIL, so this backend does not speed
  up pure-Python detection; it exists as the fallback for engines whose
  user-supplied conditions are not picklable (closures/lambdas), and to
  overlap engine work with blocking sources.
* :class:`ProcessWorkerBackend` — one worker **process** per shard for
  real CPU parallelism.  Engine replicas are shipped to the workers as
  :func:`~repro.engine.state.snapshot_engine` blobs; events flow in
  partitioned batches over bounded ``multiprocessing`` queues.

All three expose the same contract, so every mode produces the *same
match set* for the same input (the property ``tests/test_equivalence.py``
enforces):

* ``submit(event)`` routes one event through the partitioner into the
  shard queues (blocking when a queue is full — natural backpressure);
* ``collect()`` returns the matches that are ready *now* (non-blocking);
* ``flush()`` is the barrier: it waits until every submitted event has
  been fully processed and returns the remaining matches;
* ``snapshot()`` / ``restore(blob)`` capture/restore a consistent cut —
  the barrier runs first, so the per-shard engine states, the routing
  state (partitioner) and the deduplication filter all agree on exactly
  which events have been processed.  That is what preserves the
  pipeline's kill/resume zero-loss guarantee across worker processes.

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

import pickle
import threading
import time
import traceback
from queue import Empty, Full
from typing import Dict, List, Optional

from repro.engine import Match
from repro.engine.state import (
    is_shard_snapshot,
    restore_delta_state,
    restore_engine,
    restore_shard_states,
    snapshot_delta_state,
    snapshot_engine,
    snapshot_shard_states,
)
from repro.errors import CheckpointError, StreamingError
from repro.streaming.delta import DeltaTracker
from repro.events import Event
from repro.metrics import PipelineMetrics
from repro.parallel import (
    UNBOUNDED_DEDUP_WINDOW,
    ParallelCEPEngine,
    Shard,
    StreamingMatchDeduplicator,
)

#: Events per hand-off batch (amortises queue/pickle overhead per event).
DEFAULT_FEED_BATCH = 32

#: Batches each shard input queue may hold before ``submit`` blocks.
DEFAULT_QUEUE_CAPACITY = 8


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

    def snapshot_base(self, epoch: int) -> bytes:
        """A full snapshot that also anchors delta epoch ``epoch``.

        Like :meth:`snapshot`, but every delta tracker (worker-side for
        shard replicas, coordinator-side for the dedup filter) remembers
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
        from repro.streaming.delta import prime_engine_tracker

        blob = snapshot_engine(self._engine)
        prime_engine_tracker(self._engine, epoch)
        return blob

    def snapshot_delta(self, since_epoch: int, epoch: int) -> bytes:
        from repro.streaming.delta import engine_snapshot_delta

        return engine_snapshot_delta(self._engine, since_epoch, epoch)

    def restore(self, blob: bytes) -> None:
        if is_shard_snapshot(blob):
            raise CheckpointError(
                "this checkpoint was written by a multi-worker backend; "
                "resume it with a thread/process worker backend (e.g. "
                "--backend process) or clear the checkpoint store"
            )
        self._engine = restore_engine(blob)

    def plan_history(self) -> List[str]:
        return list(getattr(self._engine, "plan_history", []))


# ----------------------------------------------------------------------
# The shared worker protocol
# ----------------------------------------------------------------------
# Input-queue messages  (pipeline → worker):
#   ("events", (event, ...))      process a partitioned batch
#   ("mark", token)               barrier: echo the token back when reached
#   ("snapshot", token, mode)     reply with a state blob; mode is None for
#                                 a plain full snapshot, ("base", epoch) to
#                                 also prime the worker's delta tracker, or
#                                 ("delta", since_epoch, epoch) for a framed
#                                 incremental snapshot (changed state only)
#   ("stop", ship_state)          reply ("stopped", ...) and exit
# Output-queue messages (worker → merger):
#   ("matches", shard_id, last_ts, (match, ...), n_events, seconds)
#   ("mark", shard_id, token)
#   ("snapshot", shard_id, token, blob)
#   ("stopped", shard_id, final_blob_or_None)
#   ("error", shard_id, traceback_text)
def _worker_loop(shard_id: int, engine, in_queue, out_queue) -> None:
    """Host one shard replica: consume batches, ship match deltas back.

    Each ``events`` message is one :meth:`~repro.parallel.Shard.feed` call:
    the replica processes the batch incrementally and keeps its partial
    matches and adaptation state for the next one.  For incremental
    checkpoints the worker owns its shard's
    :class:`~repro.streaming.delta.DeltaTracker`, so only the changed
    state crosses the output queue at a delta barrier.
    """
    shard = Shard(shard_id, engine)
    tracker: Optional[DeltaTracker] = None
    try:
        while True:
            message = in_queue.get()
            kind = message[0]
            if kind == "events":
                events = message[1]
                started = time.perf_counter()
                matches = shard.feed(events)
                elapsed = time.perf_counter() - started
                last_ts = events[-1].timestamp if events else None
                out_queue.put(
                    ("matches", shard_id, last_ts, tuple(matches), len(events), elapsed)
                )
            elif kind == "mark":
                out_queue.put(("mark", shard_id, message[1]))
            elif kind == "snapshot":
                token, mode = message[1], message[2]
                if mode is None:
                    blob = snapshot_engine(shard.engine)
                elif mode[0] == "base":
                    blob = snapshot_engine(shard.engine)
                    if tracker is None:
                        tracker = DeltaTracker(shard.engine)
                    tracker.prime(mode[1])
                elif mode[0] == "delta":
                    if tracker is None:
                        # Never primed (e.g. a restarted worker): the frame
                        # degrades to a self-contained base for this shard.
                        tracker = DeltaTracker(shard.engine)
                    blob = tracker.encode_frame(mode[1], mode[2])
                else:  # pragma: no cover - protocol misuse
                    raise StreamingError(f"unknown snapshot mode {mode!r}")
                out_queue.put(("snapshot", shard_id, token, blob))
            elif kind == "stop":
                final_blob = snapshot_engine(shard.engine) if message[1] else None
                out_queue.put(("stopped", shard_id, final_blob))
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


class _WorkerBackendBase(ExecutionBackend):
    """Queue plumbing shared by the thread and process worker backends.

    Subclasses provide the queue factory and the worker spawner; everything
    else — batching, routing, the merger thread, barriers, snapshots — is
    identical, which is what keeps the two modes behaviourally equivalent.
    """

    #: Whether workers own private copies of the engines (processes) and
    #: must ship state back on snapshot/stop.
    _workers_own_state = False

    def __init__(
        self,
        engine: ParallelCEPEngine,
        feed_batch: int = DEFAULT_FEED_BATCH,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        barrier_timeout: float = 120.0,
    ):
        if not isinstance(engine, ParallelCEPEngine):
            raise StreamingError(
                f"{type(self).__name__} hosts one engine replica per shard "
                f"and therefore needs a ParallelCEPEngine, got "
                f"{type(engine).__name__}; wrap a sequential engine in a "
                "1-shard ParallelCEPEngine or use the inline backend"
            )
        if feed_batch < 1:
            raise StreamingError(f"feed_batch must be positive, got {feed_batch!r}")
        if queue_capacity < 1:
            raise StreamingError(
                f"queue_capacity must be positive, got {queue_capacity!r}"
            )
        self._template = engine
        self._engines = [shard.engine for shard in engine.sharded_engine.shards]
        self._partitioner = engine.partitioner
        self._num_shards = engine.num_shards
        self._feed_batch = int(feed_batch)
        self._queue_capacity = int(queue_capacity)
        self._barrier_timeout = float(barrier_timeout)
        window = engine.pattern.window
        self._dedup = StreamingMatchDeduplicator(
            window=window if window != float("inf") else UNBOUNDED_DEDUP_WINDOW
        )
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
        self._mark_acks: Dict[int, set] = {}
        self._snapshot_blobs: Dict[int, Dict[int, bytes]] = {}
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
        self._next_token = 0
        # Coordinator-side change tracking for the dedup filter (the shard
        # replicas are tracked worker-side); rebuilt when restore() swaps
        # the filter object.
        self._delta_tracker: Optional[DeltaTracker] = None
        self._delta_tracker_target = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The template :class:`ParallelCEPEngine`.

        For the thread backend its shard replicas are the live worker
        engines; for the process backend they are refreshed from the
        workers on every snapshot and on :meth:`close`.
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
        return self._dedup

    def bind_metrics(self, metrics: PipelineMetrics) -> None:
        self._metrics = metrics

    def plan_history(self) -> List[str]:
        history: List[str] = []
        for shard_id, engine in enumerate(self._engines):
            history.extend(
                f"shard {shard_id}: {plan}"
                for plan in getattr(engine, "plan_history", [])
            )
        return history

    def engine_introspection(self) -> dict:
        """Per-shard introspection frames merged into one cross-shard view.

        The thread backend's shard replicas are the live worker engines;
        the process backend's replicas are refreshed here through the same
        snapshot barrier a checkpoint uses (workers ship their state back
        and the coordinator adopts it), so the profile frames describe the
        workers' current truth, not a stale template.
        """
        from repro.obs.introspect import (
            engine_introspection_frame,
            merge_introspection_frames,
        )

        if self._started and self._workers_own_state:
            self._full_snapshot(None)
        return merge_introspection_frames(
            [engine_introspection_frame(engine) for engine in self._engines]
        )

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _make_queue(self, capacity: int):  # pragma: no cover - abstract
        raise NotImplementedError

    def _spawn_worker(self, shard_id: int, engine, in_queue, out_queue):
        raise NotImplementedError  # pragma: no cover - abstract

    def _worker_alive(self, shard_id: int) -> bool:
        worker = self._workers[shard_id]
        return worker is not None and worker.is_alive()

    def _terminate_worker(self, shard_id: int) -> None:
        """Forcefully stop a straggler (only possible for processes)."""

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
            self._mark_acks = {}
            self._snapshot_blobs = {}
            self._stopped_workers = set()
            self._fed_counts = [0] * self._num_shards
            self._done_counts = [0] * self._num_shards
            self._shard_clock = [float("-inf")] * self._num_shards
            self._fed_clock = float("-inf")
        self._pending = [[] for _ in range(self._num_shards)]
        self._in_queues = [
            self._make_queue(self._queue_capacity) for _ in range(self._num_shards)
        ]
        self._out_queue = self._make_queue(0)  # unbounded: merger always drains
        self._workers = [
            self._spawn_worker(
                shard_id, self._engines[shard_id], self._in_queues[shard_id], self._out_queue
            )
            for shard_id in range(self._num_shards)
        ]
        self._merger = threading.Thread(
            target=self._merger_loop, name=f"{self.name}-merger", daemon=True
        )
        self._merger.start()
        self._started = True

    def close(self) -> None:
        if not self._started:
            return
        deadline = time.monotonic() + self._barrier_timeout
        try:
            for shard_id in range(self._num_shards):
                try:
                    self._flush_pending(shard_id)
                    self._put(shard_id, ("stop", self._workers_own_state), deadline)
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
            for shard_id, worker in enumerate(self._workers):
                if hasattr(worker, "join"):
                    worker.join(timeout=2.0)
                if self._worker_alive(shard_id):
                    self._terminate_worker(shard_id)
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
                        admitted = self._dedup.filter(matches, now=watermark)
                        self._ready.extend(admitted)
                elif kind == "mark":
                    _, shard_id, token = message
                    self._mark_acks.setdefault(token, set()).add(shard_id)
                elif kind == "snapshot":
                    _, shard_id, token, blob = message
                    self._snapshot_blobs.setdefault(token, {})[shard_id] = blob
                elif kind == "stopped":
                    _, shard_id, final_blob = message
                    if final_blob is not None:
                        self._adopt_engine(shard_id, restore_engine(final_blob))
                    self._stopped_workers.add(shard_id)
                elif kind == "error":
                    _, shard_id, text = message
                    if self._error is None:
                        self._error = f"shard {shard_id} worker failed:\n{text}"
                self._cond.notify_all()

    def _adopt_engine(self, shard_id: int, engine) -> None:
        """Fold a worker's final engine state back into the template."""
        self._engines[shard_id] = engine
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
        batch = tuple(pending)
        pending.clear()
        # Credit the feed state *before* the put: once the batch is on the
        # queue a worker may process it and the merger may handle its delta;
        # if the shard were still uncredited at that point it would be
        # misclassified as drained and ride the (already-raised) feed clock,
        # inflating the dedup watermark past a duplicate still in flight.
        # Crediting early is safe in the other direction — the shard is
        # classified as busy and contributes its (lagging) processed clock.
        with self._lock:
            self._fed_counts[shard_id] += len(batch)
            if batch[-1].timestamp > self._fed_clock:
                self._fed_clock = batch[-1].timestamp
        self._put(shard_id, ("events", batch))
        with self._lock:
            try:
                depth = self._in_queues[shard_id].qsize()
            except NotImplementedError:  # pragma: no cover - macOS qsize
                depth = 0
            self._metrics.worker_lane(shard_id).observe_queue_depth(depth)

    def submit(self, event: Event) -> None:
        self.start()
        self._raise_if_failed()
        for shard_id in self._partitioner.route(event, self._num_shards):
            pending = self._pending[shard_id]
            pending.append(event)
            if len(pending) >= self._feed_batch:
                self._flush_pending(shard_id)

    def collect(self) -> List[Match]:
        with self._lock:
            ready, self._ready = self._ready, []
        return ready

    # ------------------------------------------------------------------
    # Barrier, flush, snapshot
    # ------------------------------------------------------------------
    def _barrier(self) -> int:
        """Wait until every worker has consumed everything fed so far."""
        self._next_token += 1
        token = self._next_token
        for shard_id in range(self._num_shards):
            self._flush_pending(shard_id)
        for shard_id in range(self._num_shards):
            self._put(shard_id, ("mark", token))
        deadline = time.monotonic() + self._barrier_timeout
        with self._cond:
            while len(self._mark_acks.get(token, ())) < self._num_shards:
                self._raise_if_failed_locked()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise StreamingError(
                        f"barrier timed out after {self._barrier_timeout:g}s "
                        f"({len(self._mark_acks.get(token, ()))}/"
                        f"{self._num_shards} workers reached it)"
                    )
                self._cond.wait(min(remaining, 0.25))
            self._mark_acks.pop(token, None)
        return token

    def flush(self) -> List[Match]:
        if not self._started:
            return self.collect()
        self._barrier()
        return self.collect()

    def _request_shard_blobs(self, mode) -> List[bytes]:
        """Barrier, then one state blob per worker (full or delta framed)."""
        token = self._barrier()
        for shard_id in range(self._num_shards):
            self._put(shard_id, ("snapshot", token, mode))
        deadline = time.monotonic() + self._barrier_timeout
        with self._cond:
            while len(self._snapshot_blobs.get(token, {})) < self._num_shards:
                self._raise_if_failed_locked()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise StreamingError(
                        f"snapshot timed out after {self._barrier_timeout:g}s"
                    )
                self._cond.wait(min(remaining, 0.25))
            by_shard = self._snapshot_blobs.pop(token)
        return [by_shard[shard_id] for shard_id in range(self._num_shards)]

    def _coordinator_meta(self, include_dedup: bool = True) -> Dict:
        meta = {
            "backend": self.name,
            "num_shards": self._num_shards,
            "partitioner": self._partitioner,
            "event_time_watermark": self._event_time_watermark,
            "queue_high_water": {
                shard_id: lane.queue_high_water
                for shard_id, lane in self._metrics.workers.items()
            },
        }
        if include_dedup:
            meta["dedup"] = self._dedup
        return meta

    def _full_snapshot(self, mode) -> bytes:
        if not self._started:
            # Nothing in flight: snapshot the local replicas directly.
            blobs = [snapshot_engine(engine) for engine in self._engines]
        else:
            blobs = self._request_shard_blobs(mode)
            if self._workers_own_state:
                # Keep the local replicas coherent with the workers' truth.
                with self._lock:
                    for shard_id, blob in enumerate(blobs):
                        self._adopt_engine(shard_id, restore_engine(blob))
        with self._lock:
            meta = self._coordinator_meta()
        return snapshot_shard_states(blobs, meta)

    def snapshot(self) -> bytes:
        return self._full_snapshot(None)

    def snapshot_base(self, epoch: int) -> bytes:
        """Full shard snapshot that anchors delta epoch ``epoch``.

        Workers prime their shard trackers against exactly the state they
        ship, and the coordinator primes the dedup-filter tracker, so the
        next :meth:`snapshot_delta` diffs against this base.
        """
        blob = self._full_snapshot(("base", int(epoch)))
        with self._lock:
            if self._delta_tracker is None or self._delta_tracker_target is not self._dedup:
                self._delta_tracker = DeltaTracker(self._dedup)
                self._delta_tracker_target = self._dedup
            self._delta_tracker.prime(epoch)
        return blob

    def snapshot_delta(self, since_epoch: int, epoch: int) -> bytes:
        """Per-shard deltas shipped through the existing snapshot barrier.

        Each worker diffs its replica against the last primed epoch and
        ships only the changed state over the output queue — at high
        worker counts the checkpoint hand-off shrinks from O(total state)
        to O(changed state).  The coordinator folds the per-shard frames,
        its own dedup-filter delta and the (small) routing metadata into
        one CRC-framed chain link.
        """
        if not self._started:
            raise StreamingError(
                "snapshot_delta() requires running workers; take a base "
                "snapshot instead"
            )
        shard_frames = self._request_shard_blobs(("delta", int(since_epoch), int(epoch)))
        streams: Dict[str, Dict] = {}
        for shard_id, frame in enumerate(shard_frames):
            payload = restore_delta_state(frame)
            streams[f"shard:{shard_id}"] = payload["streams"]["engine"]
        with self._lock:
            if self._delta_tracker is None or self._delta_tracker_target is not self._dedup:
                self._delta_tracker = DeltaTracker(self._dedup)
                self._delta_tracker_target = self._dedup
            streams["dedup"] = self._delta_tracker.encode_payload(since_epoch, epoch)
            meta_blob = pickle.dumps(
                self._coordinator_meta(include_dedup=False),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        return snapshot_delta_state(
            {
                "streams": streams,
                "meta": meta_blob,
                "epoch": int(epoch),
                "since_epoch": int(since_epoch),
            }
        )

    def restore(self, blob: bytes) -> None:
        if self._started:
            raise StreamingError(
                "restore() must run before the worker backend is started "
                "(a resuming pipeline restores first, then starts workers)"
            )
        if is_shard_snapshot(blob):
            shard_blobs, meta = restore_shard_states(blob)
            if len(shard_blobs) != self._num_shards:
                raise CheckpointError(
                    f"checkpoint holds {len(shard_blobs)} shard states but "
                    f"this backend runs {self._num_shards} workers; resume "
                    "with the same worker count"
                )
            engines = [restore_engine(shard_blob) for shard_blob in shard_blobs]
            for shard_id, engine in enumerate(engines):
                self._adopt_engine(shard_id, engine)
            partitioner = meta.get("partitioner")
            if partitioner is not None:
                self._partitioner = partitioner
            dedup = meta.get("dedup")
            if dedup is not None:
                self._dedup = dedup
            watermark = meta.get("event_time_watermark")
            if watermark is not None:
                self._event_time_watermark = float(watermark)
            return
        # An inline-backend checkpoint of a ParallelCEPEngine can be adopted
        # shard by shard, so a service can be upgraded from --backend inline
        # to a worker backend without discarding its checkpoints.
        engine = restore_engine(blob)
        if not isinstance(engine, ParallelCEPEngine):
            raise CheckpointError(
                f"checkpoint holds a {type(engine).__name__}; a worker "
                "backend can only resume a ParallelCEPEngine (inline) or a "
                "shard-state (worker) checkpoint"
            )
        if engine.num_shards != self._num_shards:
            raise CheckpointError(
                f"checkpoint engine has {engine.num_shards} shards but this "
                f"backend runs {self._num_shards} workers; resume with the "
                "same worker count"
            )
        for shard_id, shard in enumerate(engine.sharded_engine.shards):
            self._adopt_engine(shard_id, shard.engine)
        self._partitioner = engine.partitioner
        self._dedup = engine._streaming_dedup

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} shards={self._num_shards} "
            f"feed_batch={self._feed_batch} started={self._started}>"
        )


class ThreadWorkerBackend(_WorkerBackendBase):
    """Per-shard worker threads (GIL-bound; the unpicklable-engine fallback)."""

    name = "thread"
    _workers_own_state = False

    def _make_queue(self, capacity: int):
        import queue as queue_module

        return queue_module.Queue(maxsize=capacity)

    def _spawn_worker(self, shard_id: int, engine, in_queue, out_queue):
        worker = threading.Thread(
            target=_worker_loop,
            args=(shard_id, engine, in_queue, out_queue),
            name=f"shard-{shard_id}-worker",
            daemon=True,
        )
        worker.start()
        return worker


class ProcessWorkerBackend(_WorkerBackendBase):
    """Per-shard worker processes (true multi-core detection)."""

    name = "process"
    _workers_own_state = True

    def __init__(self, engine: ParallelCEPEngine, **kwargs):
        super().__init__(engine, **kwargs)
        import multiprocessing

        self._context = multiprocessing.get_context()

    def _make_queue(self, capacity: int):
        return self._context.Queue(maxsize=capacity) if capacity else self._context.Queue()

    def _spawn_worker(self, shard_id: int, engine, in_queue, out_queue):
        try:
            blob = snapshot_engine(engine)
        except CheckpointError as exc:
            raise StreamingError(
                f"shard {shard_id} engine cannot be shipped to a worker "
                f"process ({exc}); use the thread backend for unpicklable "
                "conditions"
            ) from exc
        worker = self._context.Process(
            target=_process_worker_main,
            args=(shard_id, blob, in_queue, out_queue),
            name=f"shard-{shard_id}-worker",
            daemon=True,
        )
        worker.start()
        return worker

    def _terminate_worker(self, shard_id: int) -> None:
        worker = self._workers[shard_id]
        if worker is not None and worker.is_alive():  # pragma: no cover - stragglers
            worker.terminate()
            worker.join(timeout=1.0)


#: CLI names → backend classes (``inline`` is handled by the pipeline itself).
WORKER_BACKENDS = {
    ThreadWorkerBackend.name: ThreadWorkerBackend,
    ProcessWorkerBackend.name: ProcessWorkerBackend,
}


def backend_by_name(
    name: str,
    engine,
    feed_batch: int = DEFAULT_FEED_BATCH,
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
) -> ExecutionBackend:
    """Factory used by the ``serve`` CLI.

    ``inline`` wraps any engine; ``thread``/``process`` require a
    :class:`~repro.parallel.ParallelCEPEngine` (one replica per worker).
    """
    if name == InlineBackend.name:
        return InlineBackend(engine)
    try:
        backend_cls = WORKER_BACKENDS[name]
    except KeyError:
        raise StreamingError(
            f"unknown backend {name!r}; expected one of "
            f"{sorted([InlineBackend.name, *WORKER_BACKENDS])}"
        ) from None
    return backend_cls(engine, feed_batch=feed_batch, queue_capacity=queue_capacity)
