"""Sharded ingestion of a keyed workload with the parallel engine.

A stock-ticker stream is tagged with an ``entity_id`` (think: one logical
sub-stream per customer portfolio) and the pattern requires all of its
events to belong to the same entity — the same shape as the paper's
``person_id`` joins in Example 1.  Because every match lives entirely
within one key, the stream can be hash-partitioned by ``entity_id`` across
independent engine replicas without losing a single match.

The script runs the same workload three ways and prints the comparison:

1. the sequential :class:`AdaptiveCEPEngine` (baseline),
2. :class:`ParallelCEPEngine` with 4 key-partitioned shards evaluated in
   this thread (shows the partial-match-state savings of partitioning
   alone),
3. the same sharded engine hosted by a :class:`ProcessWorkerBackend` — one
   replica per worker process, fed by the streaming pipeline (adds real
   CPU parallelism; queue and pickle cost only pays off on larger streams).

Run with::

    PYTHONPATH=src python examples/parallel_throughput.py
"""

from __future__ import annotations

from repro import (
    AdaptiveCEPEngine,
    CollectorSink,
    GreedyOrderPlanner,
    InvariantBasedPolicy,
    KeyPartitioner,
    ParallelCEPEngine,
    ReplaySource,
    StreamingPipeline,
)
from repro.datasets import StockDatasetSimulator
from repro.parallel import match_signature
from repro.streaming import ProcessWorkerBackend
from repro.workloads import WorkloadGenerator

SHARDS = 4
ENTITIES = 6
DURATION = 400.0
MAX_EVENTS = 16000


def build_workload():
    dataset = StockDatasetSimulator(duration_hint=DURATION)
    workload = WorkloadGenerator(dataset, seed=1)
    return workload.keyed_workload(
        3, duration=DURATION, entities=ENTITIES, max_events=MAX_EVENTS
    )


def sharded_engine(pattern):
    return ParallelCEPEngine(
        pattern,
        GreedyOrderPlanner(),
        InvariantBasedPolicy(),
        shards=SHARDS,
        partitioner=KeyPartitioner("entity_id"),
    )


def run_sequential(pattern, stream):
    engine = AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())
    result = engine.run(stream)
    return result.matches, result.metrics.throughput


def run_sharded(pattern, stream):
    result = sharded_engine(pattern).run(stream)
    return result.matches, result.metrics.throughput


def run_process_workers(pattern, stream):
    sink = CollectorSink()
    backend = ProcessWorkerBackend(sharded_engine(pattern))
    result = StreamingPipeline(backend, ReplaySource(stream), sinks=[sink]).run()
    return sink.matches, result.throughput


def main() -> None:
    pattern, stream = build_workload()
    print(f"pattern: {pattern.name}  (window {pattern.window:g})")
    print(f"stream:  {len(stream)} events, {ENTITIES} entities\n")

    runs = [
        ("sequential", *run_sequential(pattern, stream)),
        ("sharded/inline", *run_sharded(pattern, stream)),
        ("sharded/process-workers", *run_process_workers(pattern, stream)),
    ]

    baseline = runs[0][2]
    header = f"{'mode':<25}{'matches':>8}{'throughput':>14}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for label, matches, throughput in runs:
        speedup = throughput / baseline if baseline > 0 else float("inf")
        print(f"{label:<25}{len(matches):>8}{throughput:>11,.0f} ev/s{speedup:>8.2f}x")

    match_sets = {
        tuple(sorted(match_signature(match) for match in matches))
        for _, matches, _ in runs
    }
    assert len(match_sets) == 1, "sharding must not change the match set"
    print("\nall modes detected the identical match set — partitioning is lossless")


if __name__ == "__main__":
    main()
