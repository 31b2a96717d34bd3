"""repro — adaptive complex event processing with invariant-based reoptimization.

A from-scratch reproduction of *"Efficient Adaptive Detection of Complex
Event Patterns"* (Kolchinsky & Schuster, 2018): a complete adaptive CEP
stack — pattern language, statistics estimation, plan generation (greedy
order-based and ZStream tree-based), runtime engines (lazy NFA and tree
evaluation), plan migration — plus the paper's contribution, the
invariant-based reoptimizing decision method, and the baselines it is
compared against.

Quick start::

    from repro import (
        EventType, PatternBuilder, EqualityCondition,
        GreedyOrderPlanner, InvariantBasedPolicy, AdaptiveCEPEngine,
    )

    camera_a, camera_b, camera_c = EventType("A"), EventType("B"), EventType("C")
    pattern = (
        PatternBuilder.sequence()
        .event(camera_a, "a").event(camera_b, "b").event(camera_c, "c")
        .where(EqualityCondition("a", "b", "person_id"))
        .where(EqualityCondition("b", "c", "person_id"))
        .within(600)
        .build()
    )
    engine = AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())
    for event in my_stream:
        for match in engine.process(event):
            print(match)

Scaling out
-----------
The :mod:`repro.parallel` subsystem shards detection by data partitioning
while leaving the per-shard ACEP algorithm untouched: a
:class:`~repro.parallel.ParallelCEPEngine` routes each event to one or more
of N independent engine replicas (each with its own statistics collector
and adaptation controller) and merges their matches through an online
deduplicator into the same detection-ordered
:class:`~repro.engine.RunResult`.  Partitioning strategies:
:class:`~repro.parallel.KeyPartitioner` (hash an event attribute; refused
when the pattern's conditions could correlate events across keys),
:class:`~repro.parallel.RoundRobinPartitioner` (single-event patterns
only) and the always-correct :class:`~repro.parallel.BroadcastPartitioner`::

    from repro.parallel import ParallelCEPEngine, KeyPartitioner

    engine = ParallelCEPEngine(
        pattern, GreedyOrderPlanner(), InvariantBasedPolicy(),
        shards=4,
        partitioner=KeyPartitioner("person_id"),
    )
    result = engine.run(my_stream)   # same matches as AdaptiveCEPEngine.run

``run`` evaluates the replicas in the calling thread; for one replica per
core, host the same engine in a worker backend
(``StreamingPipeline(ProcessWorkerBackend(engine), ReplaySource(events))``,
see below).  With ``shards=1`` the parallel engine is bit-for-bit identical
to :class:`AdaptiveCEPEngine` — sharding only decides *which* events each
replica sees, never *how* they are evaluated.

Serving streams
---------------
The :mod:`repro.streaming` subsystem turns either engine into a deployable,
continuously-ingesting service: lazy single-pass **sources** (rate-controlled
replay, JSONL/CSV file tailing, iterable/callback adapters), **sinks**
(JSONL match writer, collector, counters), a run loop that pulls the source
— the only way events enter the service — in bounded chunks, and
**checkpointing** that snapshots engine state + source offset + sink
positions so a killed pipeline resumes with no lost and no duplicated
matches::

    from repro.streaming import (
        StreamingPipeline, ReplaySource, JSONLMatchWriter, CheckpointStore,
    )

    pipeline = StreamingPipeline(
        engine,
        ReplaySource(recorded, rate=5000.0),
        sinks=[JSONLMatchWriter("matches.jsonl")],
        checkpoint_store=CheckpointStore("ckpt/"),
        checkpoint_every=10_000,
    )
    pipeline.run()   # resumes from ckpt/ when it holds a checkpoint

The command-line front-end is ``python -m repro.experiments.cli serve``.
"""

from repro.errors import (
    ReproError,
    SchemaError,
    PatternError,
    PlanError,
    StatisticsError,
    OptimizerError,
    AdaptationError,
    EngineError,
    PartitionError,
    ParallelExecutionError,
    DatasetError,
    ExperimentError,
    StreamingError,
    CheckpointError,
)
from repro.events import (
    Event,
    EventType,
    EventSchema,
    AttributeSpec,
    GeneratorEventStream,
    InMemoryEventStream,
)
from repro.conditions import (
    Condition,
    TrueCondition,
    AndCondition,
    OrCondition,
    NotCondition,
    AttributeComparisonCondition,
    AttributeThresholdCondition,
    EqualityCondition,
    PredicateCondition,
    ConditionSet,
)
from repro.patterns import (
    Pattern,
    PatternItem,
    PatternOperator,
    CompositePattern,
    PatternBuilder,
    seq,
    conjunction,
    disjunction,
)
from repro.statistics import (
    StatisticsSnapshot,
    StatisticsCollector,
)
from repro.plans import OrderBasedPlan, TreeBasedPlan
from repro.optimizer import (
    GreedyOrderPlanner,
    ZStreamTreePlanner,
    PlanGenerationResult,
)
from repro.adaptive import (
    AdaptationController,
    InvariantBasedPolicy,
    ConstantThresholdPolicy,
    UnconditionalPolicy,
    StaticPolicy,
    build_invariant_set,
    average_relative_difference,
    AverageRelativeDifferenceDistance,
)
from repro.engine import (
    AdaptiveCEPEngine,
    MultiPatternEngine,
    LazyNFAEngine,
    TreeEvaluationEngine,
    Match,
    RunResult,
)
from repro.datasets import TrafficDatasetSimulator, StockDatasetSimulator
from repro.workloads import WorkloadGenerator
from repro.metrics import RunMetrics
from repro.parallel import (
    ParallelCEPEngine,
    KeyPartitioner,
    RoundRobinPartitioner,
    BroadcastPartitioner,
)
from repro.streaming import (
    StreamingPipeline,
    PipelineResult,
    ReplaySource,
    CallbackSource,
    JSONLFileSource,
    CSVFileSource,
    CollectorSink,
    JSONLMatchWriter,
    MetricsSink,
    CheckpointStore,
)
from repro.obs import (
    ControlPlane,
    DecisionLog,
    DecisionRecord,
    MetricsRegistry,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SchemaError",
    "PatternError",
    "PlanError",
    "StatisticsError",
    "OptimizerError",
    "AdaptationError",
    "EngineError",
    "PartitionError",
    "ParallelExecutionError",
    "DatasetError",
    "ExperimentError",
    "StreamingError",
    "CheckpointError",
    # events
    "Event",
    "EventType",
    "EventSchema",
    "AttributeSpec",
    "GeneratorEventStream",
    "InMemoryEventStream",
    # conditions
    "Condition",
    "TrueCondition",
    "AndCondition",
    "OrCondition",
    "NotCondition",
    "AttributeComparisonCondition",
    "AttributeThresholdCondition",
    "EqualityCondition",
    "PredicateCondition",
    "ConditionSet",
    # patterns
    "Pattern",
    "PatternItem",
    "PatternOperator",
    "CompositePattern",
    "PatternBuilder",
    "seq",
    "conjunction",
    "disjunction",
    # statistics
    "StatisticsSnapshot",
    "StatisticsCollector",
    # plans
    "OrderBasedPlan",
    "TreeBasedPlan",
    # optimizer
    "GreedyOrderPlanner",
    "ZStreamTreePlanner",
    "PlanGenerationResult",
    # adaptive
    "AdaptationController",
    "InvariantBasedPolicy",
    "ConstantThresholdPolicy",
    "UnconditionalPolicy",
    "StaticPolicy",
    "build_invariant_set",
    "average_relative_difference",
    "AverageRelativeDifferenceDistance",
    # engine
    "AdaptiveCEPEngine",
    "MultiPatternEngine",
    "LazyNFAEngine",
    "TreeEvaluationEngine",
    "Match",
    "RunResult",
    # datasets & workloads
    "TrafficDatasetSimulator",
    "StockDatasetSimulator",
    "WorkloadGenerator",
    # metrics
    "RunMetrics",
    # parallel execution
    "ParallelCEPEngine",
    "KeyPartitioner",
    "RoundRobinPartitioner",
    "BroadcastPartitioner",
    # streaming service runtime
    "StreamingPipeline",
    "PipelineResult",
    "ReplaySource",
    "CallbackSource",
    "JSONLFileSource",
    "CSVFileSource",
    "CollectorSink",
    "JSONLMatchWriter",
    "MetricsSink",
    "CheckpointStore",
    # observability
    "ControlPlane",
    "DecisionLog",
    "DecisionRecord",
    "MetricsRegistry",
]
