"""Shared machinery for running one (dataset, pattern, algorithm, policy) cell."""

from __future__ import annotations

from typing import Optional

from repro.adaptive import (
    AverageRelativeDifferenceDistance,
    ConstantThresholdPolicy,
    InvariantBasedPolicy,
    ReoptimizationPolicy,
    StaticPolicy,
    UnconditionalPolicy,
)
from repro.datasets import DatasetSimulator, dataset_by_name
from repro.errors import ExperimentError
from repro.events import InMemoryEventStream
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.metrics import RunMetrics
from repro.multi import PatternSet
from repro.optimizer import GreedyOrderPlanner, PlanGenerator, ZStreamTreePlanner
from repro.parallel import (
    BroadcastPartitioner,
    KeyPartitioner,
    ParallelCEPEngine,
    build_replica,
)
from repro.patterns import Pattern
from repro.streaming import ProcessWorkerBackend
from repro.workloads import WorkloadGenerator


def build_partitioner(partition_by: Optional[str]):
    """Key partitioner when an attribute is named, broadcast otherwise."""
    if partition_by:
        return KeyPartitioner(partition_by)
    return BroadcastPartitioner()


def build_planner(algorithm: str) -> PlanGenerator:
    """Planner factory: ``"greedy"`` or ``"zstream"``."""
    if algorithm == "greedy":
        return GreedyOrderPlanner()
    if algorithm == "zstream":
        return ZStreamTreePlanner()
    raise ExperimentError(f"unknown algorithm {algorithm!r}")


def build_policy(spec: PolicySpec) -> ReoptimizationPolicy:
    """Policy factory from a declarative :class:`PolicySpec`."""
    if spec.kind == "invariant":
        distance: "float | AverageRelativeDifferenceDistance"
        if spec.use_davg_distance:
            distance = AverageRelativeDifferenceDistance()
        else:
            distance = spec.distance
        return InvariantBasedPolicy(k=spec.k, distance=distance)
    if spec.kind == "threshold":
        return ConstantThresholdPolicy(spec.threshold)
    if spec.kind == "unconditional":
        return UnconditionalPolicy()
    if spec.kind == "static":
        return StaticPolicy()
    raise ExperimentError(f"unknown policy kind {spec.kind!r}")


def build_dataset(config: ExperimentConfig) -> DatasetSimulator:
    return dataset_by_name(config.dataset, **config.dataset_kwargs())


def build_workload(config: ExperimentConfig, dataset: DatasetSimulator) -> WorkloadGenerator:
    return WorkloadGenerator(dataset, seed=config.workload_seed, window=config.window)


def make_stream(
    dataset: DatasetSimulator, config: ExperimentConfig
) -> InMemoryEventStream:
    """Generate the shared input stream for one experiment configuration."""
    return dataset.generate(
        duration=config.duration,
        seed=config.stream_seed,
        max_events=config.max_events,
    )


def build_streaming_engine(
    config: ExperimentConfig, pattern: Pattern | PatternSet, spec: PolicySpec
):
    """A fresh engine (or worker backend) for one run.

    The one place the CLI and the experiment drivers build an engine, so
    every engine setting of ``config`` (replicas, partitioning, compile
    mode) reaches whichever engine the config selects.
    With ``backend="process"`` the result is a
    :class:`~repro.streaming.ProcessWorkerBackend` hosting
    ``config.shards`` engine replicas, one per worker process; otherwise a
    bare engine, sharded in-process when the config asks for it, else the
    one :func:`~repro.parallel.build_replica` makes for the pattern.
    """
    planner = build_planner(config.algorithm)
    policy = build_policy(spec)
    settings = dict(
        monitoring_interval=config.monitoring_interval,
        compile_mode=config.compile_mode,
    )
    if config.backend != "inline" or config.shards > 1:
        engine = ParallelCEPEngine(
            pattern,
            planner,
            policy,
            shards=config.shards,
            partitioner=build_partitioner(config.partition_by),
            **settings,
        )
        if config.backend == "inline":
            return engine
        return ProcessWorkerBackend(engine)
    return build_replica(pattern, planner, policy, None, **settings)


def run_single(
    pattern: Pattern | PatternSet,
    stream: InMemoryEventStream,
    config: ExperimentConfig,
    policy_spec: PolicySpec,
) -> RunMetrics:
    """Run one adaptation method on one pattern over one stream.

    Every method starts from the same *uninformed* plan (Algorithm 1 invoked
    with an empty/default ``in_stat``: uniform rates yield the pattern-order
    plan).  The static method keeps this predefined plan for the whole run;
    adaptive methods may replace it as statistics are estimated on-line.
    This mirrors the paper's motivation that a-priori statistics are rarely
    available in practice.

    The engine comes from :func:`build_streaming_engine`: with
    ``config.shards > 1`` the stream is partitioned (``config.partition_by``
    selects key partitioning, otherwise broadcast) across that many engine
    replicas and the merged metrics are returned.
    """
    if config.backend != "inline":
        raise ExperimentError(
            "batch experiments run in-process; worker backends "
            f"({config.backend!r}) only serve streaming pipelines"
        )
    return build_streaming_engine(config, pattern, policy_spec).run(stream).metrics
