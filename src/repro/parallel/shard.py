"""Sharded engine replicas.

A :class:`Shard` owns one independent engine replica (a full
:class:`~repro.engine.AdaptiveCEPEngine` — or
:class:`~repro.engine.MultiPatternEngine` for composite patterns — with
its own statistics collector and adaptation controller).
:class:`ShardedEngine` builds ``N`` such shards from one
pattern/planner/policy specification and routes each arriving event to
its shards through a partitioner.

The per-shard algorithm is exactly the paper's ACEP loop — sharding only
decides *which* events each replica sees, never *how* they are evaluated.
Every host feeds a replica through the same per-event ``process`` call, so
a replica adapts identically whether it runs inline or in a worker process
(``tests/test_workers.py`` checks plan histories, adaptation statistics
and work counters shard by shard), and a single shard fed the whole stream
behaves like the unsharded engine.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Union

from repro.adaptive import ReoptimizationPolicy
from repro.engine import AdaptiveCEPEngine, Match, MultiPatternEngine
from repro.errors import ParallelExecutionError
from repro.events import Event
from repro.optimizer import PlanGenerator
from repro.parallel.partitioner import Partitioner
from repro.patterns import CompositePattern, Pattern
from repro.statistics import StatisticsSnapshot

PatternLike = Union[Pattern, CompositePattern]
EngineLike = Union[AdaptiveCEPEngine, MultiPatternEngine]


class Shard:
    """One engine replica and its place in the sharded engine.

    The sharded engine evaluates routed events on :attr:`engine` directly;
    :class:`~repro.streaming.ProcessWorkerBackend` hosts the replica in its
    own process and calls the same ``engine.process`` once per event of
    each partitioned hand-off batch.
    """

    def __init__(self, shard_id: int, engine: EngineLike):
        self.shard_id = shard_id
        self.engine = engine

    def __repr__(self) -> str:
        return f"<Shard id={self.shard_id}>"


class ShardedEngine:
    """``N`` independent engine replicas over one pattern.

    Each replica gets its *own* deep copy of the planner and the decision
    policy: policies are stateful (invariants, reference snapshots), and
    every shard adapts independently to the statistics of its sub-stream.
    """

    def __init__(
        self,
        pattern: PatternLike,
        planner: PlanGenerator,
        policy: ReoptimizationPolicy,
        num_shards: int,
        initial_snapshot: Optional[StatisticsSnapshot] = None,
        monitoring_interval: float = 1.0,
        compile_mode: str = "interpreted",
    ):
        if num_shards < 1:
            raise ParallelExecutionError(
                f"num_shards must be a positive integer, got {num_shards!r}"
            )
        self.pattern = pattern
        self._num_shards = int(num_shards)
        self._shards = [
            Shard(
                shard_id,
                build_replica(
                    pattern,
                    planner,
                    policy,
                    initial_snapshot,
                    monitoring_interval,
                    compile_mode=compile_mode,
                ),
            )
            for shard_id in range(self._num_shards)
        ]
        #: Events handed to replicas so far (a broadcast event counts once
        #: per shard).
        self.events_dispatched = 0

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def shards(self) -> List[Shard]:
        return list(self._shards)

    def process_event(self, event: Event, partitioner: Partitioner) -> List[Match]:
        """Route one event and evaluate it immediately.

        Each routed shard's replica processes the event in-process and the
        matches it completes are returned now, in shard order; the caller
        is responsible for cross-shard deduplication (see
        :class:`~repro.parallel.merger.StreamingMatchDeduplicator`) when
        the partitioner replicates events.
        """
        routed = partitioner.route(event, self._num_shards)
        self.events_dispatched += len(routed)
        matches: List[Match] = []
        for shard_id in routed:
            matches.extend(self._shards[shard_id].engine.process(event))
        return matches


def build_replica(
    pattern: PatternLike,
    planner: PlanGenerator,
    policy: ReoptimizationPolicy,
    initial_snapshot: Optional[StatisticsSnapshot],
    monitoring_interval: float,
    compile_mode: str = "interpreted",
) -> EngineLike:
    """One fresh engine with private planner/policy copies."""
    replica_planner = copy.deepcopy(planner)
    replica_policy = copy.deepcopy(policy)
    if not isinstance(pattern, Pattern) and hasattr(pattern, "subpatterns"):
        # CompositePattern or PatternSet.
        return MultiPatternEngine(
            pattern,
            replica_planner,
            policy_factory=lambda: copy.deepcopy(replica_policy),
            initial_snapshot=initial_snapshot,
            monitoring_interval=monitoring_interval,
            compile_mode=compile_mode,
        )
    return AdaptiveCEPEngine(
        pattern,
        replica_planner,
        replica_policy,
        initial_snapshot=initial_snapshot,
        monitoring_interval=monitoring_interval,
        compile_mode=compile_mode,
    )
