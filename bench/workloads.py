"""The four benchmark workloads: streams, patterns and serving jobs.

Each workload fixes everything about its job except the random draws —
event count, rate schedule, patterns, planner, policy, compile mode,
backend — so a pass on any seed asks the program for the same kind and
amount of work.  ``why`` records what the workload is for; the longer
rationale is in ``bench/README.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from bench.inputs import StreamSpec, steps_for
from repro.adaptive import InvariantBasedPolicy, StaticPolicy
from repro.conditions import (
    AttributeComparisonCondition,
    AttributeThresholdCondition,
    ConditionSet,
)
from repro.datasets import StockDatasetSimulator, TrafficDatasetSimulator
from repro.engine import AdaptiveCEPEngine, MultiPatternEngine
from repro.events import Event, EventType
from repro.multi import PatternSet
from repro.optimizer import GreedyOrderPlanner, ZStreamTreePlanner
from repro.parallel import KeyPartitioner, ParallelCEPEngine
from repro.patterns import Pattern, PatternItem, PatternOperator
from repro.statistics import StatisticsSnapshot
from repro.streaming import (
    CheckpointStore,
    JSONLFileSource,
    JSONLMatchWriter,
    ProcessWorkerBackend,
    ReorderBuffer,
    StreamingPipeline,
)
from repro.workloads import WorkloadGenerator

#: Minimal relative distance of every invariant (the paper's ``d``).
INVARIANT_DISTANCE = 0.1

#: Share of the stream treated as warm-up by the stationarity checks.
WARMUP_SHARE = 0.1

#: Step of the golden-ratio (Kronecker) sequence: any run of its terms is
#: spread nearly evenly over [0, 1).
GOLDEN_STEP = (5 ** 0.5 - 1) / 2

_VARIABLES = "abcdefgh"


def _policy() -> InvariantBasedPolicy:
    return InvariantBasedPolicy(distance=INVARIANT_DISTANCE)


def _ranked_type_names(dataset) -> List[str]:
    """Type names rarest first, by the dataset's own rates at time 0 — the
    ordering ``WorkloadGenerator`` picks pattern types from."""
    return sorted(dataset.type_names(), key=lambda n: dataset.true_rate(n, 0.0))


def _rates_by_dataset_rank(dataset, rates_by_rank: np.ndarray) -> np.ndarray:
    """Per-type rates (in ``dataset.event_types`` order) from a by-rank table."""
    rate_of = dict(zip(_ranked_type_names(dataset), rates_by_rank))
    return np.array([rate_of[t.name] for t in dataset.event_types])


def _chain(dataset, variables: Sequence[str]) -> ConditionSet:
    conditions = ConditionSet()
    for first, second in zip(variables, variables[1:]):
        conditions.add(dataset.condition_between(first, second))
    return conditions


@dataclass
class Job:
    """One built serving job: what a measured pass runs and then inspects."""

    pipeline: StreamingPipeline
    engine: object
    store: Optional[CheckpointStore] = None
    match_path: Optional[str] = None


class Workload:
    """Base class: a stream, a pattern set and a way to serve them."""

    name: str = ""
    why: str = ""
    #: Events per measured pass (fixed, so per-layer counts repeat per seed).
    events: int = 0
    #: The on-the-fly reference is computed over ``reference_slices`` evenly
    #: spaced stretches of the sorted stream, ``reference_events`` in all.
    reference_events: int = 0
    reference_slices: int = 4
    #: Whether the arrival order differs from timestamp order.
    disordered = False

    def spec(self, count: int) -> StreamSpec:
        raise NotImplementedError

    def patterns(self) -> List[Pattern]:
        raise NotImplementedError

    def shift_times(self, count: int) -> List[float]:
        """Stream times at which the rate schedule changes regime."""
        return []

    def build(self, source, sinks, workdir: str, count: int) -> Job:
        raise NotImplementedError

    def build_inline(self, source, sinks, workdir: str, count: int) -> Job:
        """The job with no worker processes (traced pass, harness tests):
        the same job, unless the workload spawns workers."""
        return self.build(source, sinks, workdir, count)


# ----------------------------------------------------------------------
# serve_drift_seq
# ----------------------------------------------------------------------
class ServeDriftSeq(Workload):
    name = "serve_drift_seq"
    why = (
        "the paper's scenario on the full single-process service path: SEQ-5 with "
        "opaque predicates, 8 rate-regime shifts, disordered JSONL in, delta checkpoints"
    )
    events = 85_000
    disordered = True

    WINDOW = 0.5
    #: Estimation window of the engine's collector.  Twenty pattern windows:
    #: the rarest pattern type then has ~40 arrivals in it, so between
    #: shifts its estimate never wanders across an invariant.
    STATISTICS_WINDOW = 10.0
    #: Disorder: every event is displaced by less than SLACK stream-time
    #: units, and the reorder buffer tolerates MAX_LATENESS > SLACK.
    SLACK = 0.2
    MAX_LATENESS = 0.25
    MONITORING_INTERVAL = 0.5
    CHECKPOINTS = 24
    #: Sixteen observation points with Zipf(1) rates; the pattern's five
    #: points sit at ranks 1, 2, 4, 8 and 16, and each regime hands those
    #: ranks to the five points in another order.
    TOP_RATE = 64.0
    PATTERN_RANKS = (1, 2, 4, 8, 16)
    REGIMES = (
        (0, 1, 2, 3, 4),
        (4, 3, 2, 1, 0),
        (2, 0, 4, 1, 3),
        (1, 4, 0, 3, 2),
        (3, 2, 1, 4, 0),
        (0, 3, 4, 2, 1),
        (4, 1, 3, 0, 2),
        (2, 4, 1, 0, 3),
        (1, 0, 3, 2, 4),
    )
    #: One reference stretch per regime, from its first event on and nine
    #: stream-time units long (the first replan after a shift falls inside
    #: it), so every shift's migration is checked on every seed.
    reference_slices = len(REGIMES)
    reference_events = 18_000
    OSCILLATION = 0.05
    OSCILLATION_PERIOD = 7.0

    def __init__(self) -> None:
        self._dataset = TrafficDatasetSimulator(num_types=16, seed=7)
        self._types = self._dataset.event_types

    def _rank_rates(self) -> np.ndarray:
        return self.TOP_RATE / np.arange(1, 17)

    def shift_times(self, count: int) -> List[float]:
        horizon = count / float(self._rank_rates().sum())
        return [horizon * k / len(self.REGIMES) for k in range(1, len(self.REGIMES))]

    def spec(self, count: int) -> StreamSpec:
        rank_rates = self._rank_rates()
        steps = steps_for(count, float(rank_rates.sum()))
        ladder = rank_rates[[rank - 1 for rank in self.PATTERN_RANKS]]
        background = np.delete(rank_rates, [rank - 1 for rank in self.PATTERN_RANKS])
        rates = np.empty((steps, 16))
        rates[:, 5:] = background
        time = np.arange(steps) + 0.5
        regime_of_step = np.searchsorted(np.asarray(self.shift_times(count)), time)
        for index, order in enumerate(self.REGIMES):
            rates[regime_of_step == index, :5] = ladder[list(order)]
        phases = np.arange(16) * 0.9
        wobble = 1.0 + self.OSCILLATION * np.sin(
            2 * np.pi * time[:, None] / self.OSCILLATION_PERIOD + phases[None, :]
        )
        return StreamSpec(self._types, rates * wobble, _traffic_payload)

    def patterns(self) -> List[Pattern]:
        variables = list(_VARIABLES[:5])
        items = [PatternItem(v, t) for v, t in zip(variables, self._types[:5])]
        return [
            Pattern(
                PatternOperator.SEQUENCE,
                items,
                condition=_chain(self._dataset, variables),
                window=self.WINDOW,
                name="serve-drift-seq5",
            )
        ]

    def build(self, source, sinks, workdir: str, count: int) -> Job:
        engine = AdaptiveCEPEngine(
            self.patterns()[0],
            GreedyOrderPlanner(),
            _policy(),
            monitoring_interval=self.MONITORING_INTERVAL,
            statistics_window=self.STATISTICS_WINDOW,
            compile_mode="compiled",
        )
        match_path = os.path.join(workdir, "matches.jsonl")
        store = CheckpointStore(os.path.join(workdir, "checkpoints"))
        pipeline = StreamingPipeline(
            engine,
            source,
            sinks=[JSONLMatchWriter(match_path), *sinks],
            checkpoint_store=store,
            checkpoint_every=max(1, count // self.CHECKPOINTS),
            checkpoint_mode="delta",
            ordering=ReorderBuffer(self.MAX_LATENESS, late_policy="drop"),
        )
        return Job(pipeline, engine, store=store, match_path=match_path)

    def file_source(self, path: str) -> JSONLFileSource:
        return JSONLFileSource(path, {t.name: t for t in self._types})


#: Spread of the traffic readings; against the dataset's fixed 12-unit
#: margins it sets the chain predicate's selectivity (about 0.3 per pair).
SPEED_STD = 24.0
COUNT_STD = 24.0


def _traffic_payload(rng: np.random.Generator, type_index: np.ndarray):
    count = len(type_index)
    return {
        "avg_speed": np.maximum(1.0, rng.normal(90.0, SPEED_STD, size=count)),
        "vehicle_count": np.maximum(0.0, rng.normal(90.0, COUNT_STD, size=count)),
        "point_id": type_index,
    }


# ----------------------------------------------------------------------
# stable_conj_tree
# ----------------------------------------------------------------------
class StableConjTree(Workload):
    name = "stable_conj_tree"
    why = (
        "the tree planner/engine family on a stationary stream: AND-4 with declarative "
        "conditions only, so kernels do the work and the adaptive layers must do none"
    )
    events = 350_000
    reference_events = 100_000

    WINDOW = 1.0
    #: Constant rates, 3x apart, so no better plan ever exists.  The time
    #: unit is the pattern window: the planner's cost model multiplies rates
    #: without a window factor, and with rates far above one per window it
    #: scores every tree shape within a percent of every other.
    RATES = np.array([0.5, 1.5, 4.5, 13.5])
    BACKGROUND_RATE = 2.0
    MONITORING_INTERVAL = 25.0
    #: Share of each type's events its threshold condition admits.  High, and
    #: the window short, so that thousands of events of even the rarest type
    #: reach the joins: match counts then repeat across seeds to a few
    #: percent (with a tenth of them, one pass's work moved by +-15 %).
    ADMIT = 0.5
    #: Estimation window of the engine's collector: long enough that the
    #: rarest type's admitted share is estimated from hundreds of events.
    STATISTICS_WINDOW = 1000.0

    def __init__(self) -> None:
        self._types = [EventType(f"S{i}") for i in range(5)]

    def spec(self, count: int) -> StreamSpec:
        per_step = np.append(self.RATES, self.BACKGROUND_RATE)
        steps = steps_for(count, float(per_step.sum()))
        return StreamSpec(self._types, np.tile(per_step, (steps, 1)), _sensor_payload)

    def patterns(self) -> List[Pattern]:
        variables = list(_VARIABLES[:4])
        items = [PatternItem(v, t) for v, t in zip(variables, self._types[:4])]
        conditions = ConditionSet()
        for variable in variables:
            conditions.add(AttributeThresholdCondition(variable, "load", "<", self.ADMIT))
        # Each pair compares an attribute of its own: were the chain to reuse
        # one attribute, a pair's selectivity would depend on which pairs the
        # plan evaluated before it, and no snapshot could state it up front.
        for index, (first, second) in enumerate(zip(variables, variables[1:])):
            attribute = f"level{index}"
            conditions.add(
                AttributeComparisonCondition(first, attribute, "<", second, attribute)
            )
        return [
            Pattern(
                PatternOperator.CONJUNCTION,
                items,
                condition=conditions,
                window=self.WINDOW,
                name="stable-conj-and4",
            )
        ]

    def true_statistics(self) -> StatisticsSnapshot:
        """The stream's actual rates and selectivities.

        The engine starts from them, so its first plan is already the best
        one and its invariants are drawn from settled numbers: any firing
        of the decision function afterwards is a false positive.
        """
        variables = _VARIABLES[:4]
        rates = {t.name: float(r) for t, r in zip(self._types, self.RATES)}
        selectivities = {(v, v): self.ADMIT for v in variables}
        selectivities.update({pair: 0.5 for pair in zip(variables, variables[1:])})
        return StatisticsSnapshot(rates, selectivities)

    def build(self, source, sinks, workdir: str, count: int) -> Job:
        engine = AdaptiveCEPEngine(
            self.patterns()[0],
            ZStreamTreePlanner(),
            _policy(),
            initial_snapshot=self.true_statistics(),
            monitoring_interval=self.MONITORING_INTERVAL,
            statistics_window=self.STATISTICS_WINDOW,
            compile_mode="compiled",
        )
        return Job(StreamingPipeline(engine, source, sinks=list(sinks)), engine)


def _sensor_payload(rng: np.random.Generator, type_index: np.ndarray):
    count = len(type_index)
    columns = {f"level{index}": rng.normal(50.0, 20.0, size=count) for index in range(3)}
    columns["load"] = rng.random(count)
    return columns


# ----------------------------------------------------------------------
# multi_mixed_64
# ----------------------------------------------------------------------
class MultiMixed64(Workload):
    name = "multi_mixed_64"
    why = (
        "64 users' SEQ-3/4 patterns in one pass: 24 share a declared prefix, 24 share only "
        "an interior/suffix pair, 16 are disjoint, so sharing gain and its cost show together"
    )
    events = 30_000
    reference_events = 4_000

    WINDOW = 1.0
    #: Estimation window of the shared statistics hub (30 pattern windows,
    #: so neighbouring ranks' estimates rarely cross).
    STATISTICS_WINDOW = 30.0
    #: Per-type rates by rank of the stocks dataset's own rate ordering
    #: (rarest first, 18 % apart), so ``similar_sequence_patterns`` opens
    #: with rare types as it does on the dataset's own stream.
    RATES_BY_RANK = 1.2 * 1.18 ** np.arange(16)

    def __init__(self) -> None:
        self._dataset = StockDatasetSimulator(num_types=16, seed=11)
        self._workload = WorkloadGenerator(self._dataset, seed=0, window=self.WINDOW)
        self._ranked = _ranked_type_names(self._dataset)
        self._types = self._dataset.event_types

    def spec(self, count: int) -> StreamSpec:
        per_step = _rates_by_dataset_rank(self._dataset, self.RATES_BY_RANK)
        steps = steps_for(count, float(per_step.sum()))
        return StreamSpec(self._types, np.tile(per_step, (steps, 1)), _stock_payload)

    def patterns(self) -> List[Pattern]:
        dataset = self._dataset
        patterns = list(self._workload.similar_sequence_patterns(24, size=3))
        window = self.WINDOW
        by_rank = [dataset.event_type(name) for name in self._ranked]

        # Interior/suffix family: every pattern ends with the same two items
        # joined by the *same condition instance*, behind its own opener —
        # overlap that prefix sharing cannot use.
        pair = (by_rank[4], by_rank[5])
        closer = by_rank[6]
        shared_pair = dataset.condition_between("b", "c")
        shared_tail = dataset.condition_between("c", "d")
        openers = by_rank[7:15] + by_rank[0:4]
        for index, opener in enumerate(openers):
            for size in (3, 4):
                variables = list(_VARIABLES[:size])
                types = [opener, *pair] + ([closer] if size == 4 else [])
                conditions = ConditionSet()
                conditions.add(dataset.condition_between("a", "b"))
                conditions.add(shared_pair)
                if size == 4:
                    conditions.add(shared_tail)
                patterns.append(
                    Pattern(
                        PatternOperator.SEQUENCE,
                        [PatternItem(v, t) for v, t in zip(variables, types)],
                        condition=conditions,
                        window=window,
                        name=f"stocks-interior-{size}-{index}",
                    )
                )

        # Disjoint family: type triples spread as far apart as 16 types
        # allow, each with condition instances of its own.
        for index in range(16):
            variables = list(_VARIABLES[:3])
            types = [self._types[(index + offset) % 16] for offset in (0, 5, 10)]
            patterns.append(
                Pattern(
                    PatternOperator.SEQUENCE,
                    [PatternItem(v, t) for v, t in zip(variables, types)],
                    condition=_chain(dataset, variables),
                    window=window,
                    name=f"stocks-disjoint-3-{index}",
                )
            )
        return patterns

    def build(self, source, sinks, workdir: str, count: int) -> Job:
        engine = MultiPatternEngine(
            PatternSet(self.patterns()),
            GreedyOrderPlanner(),
            policy_factory=_policy,
            compile_mode="compiled",
            statistics_window=self.STATISTICS_WINDOW,
        )
        return Job(StreamingPipeline(engine, source, sinks=list(sinks)), engine)


def _stock_payload(rng: np.random.Generator, type_index: np.ndarray):
    diff = rng.normal(0.0, 1.0, size=len(type_index))
    return {"price": np.maximum(0.01, 100.0 + diff), "diff": diff}


# ----------------------------------------------------------------------
# sharded_skew_2w
# ----------------------------------------------------------------------
class ShardedSkew2w(Workload):
    name = "sharded_skew_2w"
    why = (
        "the scale-out and batch path: keyed SEQ-4, indexed kernels, two pinned worker "
        "processes, Zipf(1.1) keys with the three hottest on one shard (a straggler lane)"
    )
    events = 170_000
    reference_events = 12_000

    WORKERS = 2
    WINDOW = 0.75
    #: Spread of the price differences; against the dataset's fixed 1.2
    #: margin it sets the chain predicate's selectivity (about 0.4 per pair).
    DIFF_STD = 3.0
    CHAIN_SELECTIVITY = 0.39
    ENTITIES = 64
    KEY_SKEW = 1.1
    KEY = "entity_id"
    #: Per-type rates by rank of the stocks dataset's own rate ordering, so
    #: ``select_types`` spreads the pattern across them as it does on the
    #: dataset's own stream.  Only 1.2x apart: the plan is pinned, and with a
    #: wide ladder the hottest key saw a few hundred events of the rarest
    #: pattern type per pass, whose count alone moved a pass by +-10 %.
    RATES_BY_RANK = 24.0 * 1.2 ** np.arange(8)

    def __init__(self) -> None:
        self._dataset = StockDatasetSimulator(num_types=8, seed=11)
        self._workload = WorkloadGenerator(self._dataset, seed=0, window=self.WINDOW)
        self._types = self._dataset.event_types

    def spec(self, count: int) -> StreamSpec:
        per_step = _rates_by_dataset_rank(self._dataset, self.RATES_BY_RANK)
        steps = steps_for(count, float(per_step.sum()))
        entity_ids = self.entity_ids_by_rank()
        weights = 1.0 / np.arange(1, self.ENTITIES + 1) ** self.KEY_SKEW
        weights /= weights.sum()

        def payload(rng: np.random.Generator, type_index: np.ndarray):
            diff = rng.normal(0.0, self.DIFF_STD, size=len(type_index))
            columns = {"price": np.maximum(0.01, 100.0 + diff), "diff": diff}
            # Stratified keys: each type's events walk a golden-ratio sequence
            # through the key distribution from a seeded start, so every
            # stretch of a type's events holds each key in its own share.
            position = np.empty(len(type_index))
            for index in range(len(self._types)):
                of_type = np.flatnonzero(type_index == index)
                position[of_type] = rng.random() + GOLDEN_STEP * np.arange(len(of_type))
            ranks = np.searchsorted(np.cumsum(weights), position % 1.0, side="right")
            columns[self.KEY] = entity_ids[np.minimum(ranks, self.ENTITIES - 1)]
            return columns

        return StreamSpec(self._types, np.tile(per_step, (steps, 1)), payload)

    def entity_ids_by_rank(self) -> np.ndarray:
        """Entity ids hottest first, the three hottest routed to shard 0.

        The partitioner's own routing decides the assignment, so the skew
        survives any change to its hash.
        """
        partitioner = KeyPartitioner(self.KEY)
        probe = self._types[0]
        shard_of = {
            entity: partitioner.route(Event(probe, 0.0, {self.KEY: entity}), self.WORKERS)[0]
            for entity in range(self.ENTITIES)
        }
        hot = [e for e in range(self.ENTITIES) if shard_of[e] == 0][:3]
        rest = [e for e in range(self.ENTITIES) if e not in hot]
        return np.array(hot + rest, dtype=np.int64)

    def patterns(self) -> List[Pattern]:
        return [self._workload.keyed_sequence_pattern(4, key=self.KEY)]

    def true_statistics(self, pattern: Pattern) -> StatisticsSnapshot:
        """The stream's actual rates and pair selectivities."""
        rates = dict(
            zip(
                (t.name for t in self._types),
                _rates_by_dataset_rank(self._dataset, self.RATES_BY_RANK).tolist(),
            )
        )
        weights = 1.0 / np.arange(1, self.ENTITIES + 1) ** self.KEY_SKEW
        same_key = float(((weights / weights.sum()) ** 2).sum())
        selectivities = {
            pair: self.CHAIN_SELECTIVITY * same_key
            for pair in pattern.conditions.variable_pairs()
        }
        return StatisticsSnapshot(rates, selectivities)

    def parallel_engine(self) -> ParallelCEPEngine:
        # One plan, drawn from the true statistics and never replaced: on this
        # pattern the orders the planner scores within estimate noise of each
        # other differ 2x in real work, and an adaptive replica wanders among
        # them differently on every seed.  This workload is about the
        # scale-out path; serve_drift_seq measures adaptation.
        pattern = self.patterns()[0]
        return ParallelCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            StaticPolicy(),
            shards=self.WORKERS,
            partitioner=KeyPartitioner(self.KEY),
            initial_snapshot=self.true_statistics(pattern),
            compile_mode="indexed",
        )

    def build(self, source, sinks, workdir: str, count: int) -> Job:
        engine = self.parallel_engine()
        backend = ProcessWorkerBackend(engine)
        return Job(StreamingPipeline(backend, source, sinks=list(sinks)), engine)

    def build_inline(self, source, sinks, workdir: str, count: int) -> Job:
        """The same job single-threaded: the traced pass and the baseline."""
        engine = self.parallel_engine()
        return Job(StreamingPipeline(engine, source, sinks=list(sinks)), engine)


WORKLOADS: Tuple[type, ...] = (ServeDriftSeq, StableConjTree, MultiMixed64, ShardedSkew2w)

NAMES: Tuple[str, ...] = tuple(cls.name for cls in WORKLOADS)


def by_name(name: str) -> Workload:
    """A fresh instance of the named workload."""
    for cls in WORKLOADS:
        if cls.name == name:
            return cls()
    raise KeyError(f"unknown workload {name!r}; expected one of {list(NAMES)}")
