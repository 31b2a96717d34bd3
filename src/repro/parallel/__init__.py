"""Partitioned (sharded) execution of adaptive CEP.

Scales the single-threaded :class:`~repro.engine.AdaptiveCEPEngine` out by
data partitioning: each arriving event is routed by a partitioner to one
or more of ``N`` independent engine replicas (each with its own statistics
collector and adaptation controller), evaluated there immediately, and the
replicas' matches are merged through an online, window-bounded
deduplicator.  The paper's per-shard algorithm is untouched — a single
shard is exactly the sequential engine.

Quick start::

    from repro.parallel import ParallelCEPEngine, KeyPartitioner

    engine = ParallelCEPEngine(
        pattern, GreedyOrderPlanner(), InvariantBasedPolicy(),
        shards=4,
        partitioner=KeyPartitioner("entity_id"),
    )
    result = engine.run(stream)   # same RunResult as AdaptiveCEPEngine.run

:class:`ParallelCEPEngine` evaluates its replicas in the calling thread;
to put each replica on its own core, host the same engine in a worker
backend of the streaming pipeline
(``StreamingPipeline(ProcessWorkerBackend(engine), ReplaySource(events))``,
see :mod:`repro.streaming.workers`).

The partitioner is validated against the pattern before anything runs:
key partitioning is refused when the pattern's conditions could correlate
events across partition keys (see
:meth:`~repro.parallel.partitioner.KeyPartitioner.validate`).
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.adaptive import ReoptimizationPolicy
from repro.engine import Match, RunResult
from repro.engine.cep_engine import fold_run
from repro.errors import ParallelExecutionError
from repro.events import Event, EventStream
from repro.metrics import RunMetrics, aggregate_metrics
from repro.optimizer import PlanGenerator
from repro.parallel.merger import (
    UNBOUNDED_DEDUP_WINDOW,
    StreamingMatchDeduplicator,
    match_signature,
)
from repro.parallel.partitioner import (
    BroadcastPartitioner,
    KeyPartitioner,
    Partitioner,
    RoundRobinPartitioner,
)
from repro.parallel.shard import Shard, ShardedEngine, build_replica
from repro.multi.registry import PatternSet
from repro.patterns import CompositePattern, Pattern
from repro.statistics import StatisticsProvider, StatisticsSnapshot

PatternLike = Union[Pattern, CompositePattern, PatternSet]


class ParallelCEPEngine:
    """Sharded adaptive CEP over one pattern (mirrors ``AdaptiveCEPEngine.run``).

    Parameters
    ----------
    pattern / planner / policy:
        Exactly as for :class:`~repro.engine.AdaptiveCEPEngine`; each shard
        receives its own deep copy of the planner and policy.
    shards:
        Number of independent engine replicas.
    partitioner:
        Event-routing strategy; defaults to the always-correct
        :class:`BroadcastPartitioner`.
    statistics_provider / initial_snapshot / monitoring_interval / introspect /
    compile_mode:
        Forwarded to every shard's engine replica.
    validate_partitioning:
        When true (default), the partitioner's safety check runs against
        the pattern before any event is routed.
    """

    def __init__(
        self,
        pattern: PatternLike,
        planner: PlanGenerator,
        policy: ReoptimizationPolicy,
        shards: int = 1,
        partitioner: Optional[Partitioner] = None,
        statistics_provider: Optional[StatisticsProvider] = None,
        initial_snapshot: Optional[StatisticsSnapshot] = None,
        monitoring_interval: float = 1.0,
        validate_partitioning: bool = True,
        introspect: bool = False,
        compile_mode: str = "interpreted",
    ):
        self.pattern = pattern
        self._partitioner = partitioner or BroadcastPartitioner()
        if validate_partitioning:
            self._partitioner.validate(pattern, shards)
        self._sharded = ShardedEngine(
            pattern,
            planner,
            policy,
            num_shards=shards,
            statistics_provider=statistics_provider,
            initial_snapshot=initial_snapshot,
            monitoring_interval=monitoring_interval,
            introspect=introspect,
            compile_mode=compile_mode,
        )
        self._streaming_dedup = StreamingMatchDeduplicator(
            window=pattern.window
            if pattern.window != float("inf")
            else UNBOUNDED_DEDUP_WINDOW
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self._sharded.num_shards

    @property
    def partitioner(self) -> Partitioner:
        return self._partitioner

    @property
    def sharded_engine(self) -> ShardedEngine:
        return self._sharded

    def partial_match_count(self) -> int:
        """Live partial matches summed across every shard replica."""
        return sum(
            shard.engine.partial_match_count() for shard in self._sharded.shards
        )

    @property
    def plan_history(self) -> "list[str]":
        """Installed-plan descriptions across all shard replicas, in shard
        order (replicas adapt independently)."""
        history: "list[str]" = []
        for shard in self._sharded.shards:
            history.extend(shard.engine.plan_history)
        return history

    def introspection(self) -> dict:
        """Per-shard introspection frames under one facade-level dict."""
        return {
            "pattern": self.pattern.name,
            "shards": {
                shard.shard_id: shard.engine.introspection()
                for shard in self._sharded.shards
            },
            "partitioner": type(self._partitioner).__name__,
            "partial_matches": {"live": self.partial_match_count()},
        }

    # ------------------------------------------------------------------
    # Event-at-a-time API
    # ------------------------------------------------------------------
    def process(self, event: Event) -> "list[Match]":
        """Route one event through the partitioner and evaluate it now.

        Events flow through the partitioner to the shard replicas *as they
        arrive* and matches are returned immediately.  Replicating
        partitioners (broadcast) make every shard report the same
        detections, so an online deduplicator — with memory bounded by the
        pattern window — suppresses repeats before they reach the caller.

        Runs the shards in the calling thread (the streaming pipeline's
        single-writer loop); the worker backends host the same replicas
        one per thread or process.
        """
        matches = self._sharded.process_event(event, self._partitioner)
        if not matches:
            return []
        return self._streaming_dedup.filter(matches, now=event.timestamp)

    def process_batch(self, events: "list[Event]") -> "list[Match]":
        """Events are routed in stream order through :meth:`process`, so
        the concatenated output matches event-at-a-time processing exactly
        (the unified :class:`~repro.engine.CEPEngine` surface)."""
        matches: "list[Match]" = []
        for event in events:
            matches.extend(self.process(event))
        return matches

    # ------------------------------------------------------------------
    # State snapshot / restore (checkpointing support)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> bytes:
        """Serialize every shard replica plus the partitioner/deduplication
        state; see :func:`repro.engine.state.snapshot_engine`."""
        from repro.engine.state import snapshot_engine

        return snapshot_engine(self)

    @classmethod
    def restore_state(cls, blob: bytes) -> "ParallelCEPEngine":
        """Rebuild a sharded engine from a :meth:`snapshot_state` blob."""
        from repro.engine.state import restore_engine

        engine = restore_engine(blob)
        if not isinstance(engine, cls):
            raise ParallelExecutionError(
                f"snapshot holds a {type(engine).__name__}, not a {cls.__name__}"
            )
        return engine

    def _delta_keyed_state(self):
        """Change-tracked collections of every shard replica plus the
        streaming deduplicator (incremental-snapshot hook)."""
        slots = []
        for shard in self._sharded.shards:
            slots.extend(
                (f"shard{shard.shard_id}.{name}", holder, attr)
                for name, holder, attr in shard.engine._delta_keyed_state()
            )
        slots.extend(
            (f"dedup.{name}", holder, attr)
            for name, holder, attr in self._streaming_dedup._delta_keyed_state()
        )
        return slots

    def _delta_frozen_state(self):
        """Immutable roots across the facade and its shard replicas."""
        roots = [self.pattern]
        for shard in self._sharded.shards:
            roots.extend(shard.engine._delta_frozen_state())
        return roots

    def snapshot_delta(self, since_epoch=None, epoch=None) -> bytes:
        """Framed incremental snapshot of every shard's state changed since
        ``since_epoch``; see :func:`repro.streaming.delta.engine_snapshot_delta`."""
        from repro.streaming.delta import engine_snapshot_delta

        return engine_snapshot_delta(self, since_epoch, epoch)

    # ------------------------------------------------------------------
    # Whole-stream API
    # ------------------------------------------------------------------
    def work_metrics(self) -> RunMetrics:
        """Work counters so far, summed over the shard replicas."""
        return aggregate_metrics(
            shard.engine.work_metrics() for shard in self._sharded.shards
        )

    def run(self, stream: "EventStream | Iterable[Event]") -> RunResult:
        """The sharded counterpart of :meth:`AdaptiveCEPEngine.run`: the same
        fold of :meth:`process` over the stream.

        ``events_processed`` counts distinct input events (broadcast
        replication does not inflate it; ``extra["events_dispatched"]``
        counts every hand-off to a replica), ``duration_seconds`` is the
        wall-clock time of the whole run, and each ``plan_history`` entry
        names the shard whose replica installed the plan.
        """
        result = fold_run(self, stream)
        result.metrics.extra.update(
            shards=float(self.num_shards),
            events_dispatched=float(self._sharded.events_dispatched),
            duplicates_dropped=float(self._streaming_dedup.duplicates_dropped),
        )
        result.plan_history = [
            f"shard {shard.shard_id}: {plan}"
            for shard in self._sharded.shards
            for plan in shard.engine.plan_history
        ]
        return result


__all__ = [
    "ParallelCEPEngine",
    # partitioning
    "Partitioner",
    "KeyPartitioner",
    "RoundRobinPartitioner",
    "BroadcastPartitioner",
    # sharding
    "Shard",
    "ShardedEngine",
    "build_replica",
    # merging
    "match_signature",
    "StreamingMatchDeduplicator",
    "UNBOUNDED_DEDUP_WINDOW",
]
