"""Cross-engine equivalence: every execution mode finds the same matches.

The paper's correctness invariant — plan adaptation, sharding and the
streaming runtime change *how fast* detection runs, never *what* is
detected — is enforced here as a differential harness.  One seeded
workload is pushed through every execution mode the library offers:

1. sequential ``AdaptiveCEPEngine.run`` (the reference),
2. sharded ``ParallelCEPEngine.run`` (the same fold of ``process()``),
3. streaming pipeline, inline backend, sequential engine,
4. streaming pipeline, inline backend, sharded engine (``process()``),
5. streaming pipeline, thread worker backend,
6. streaming pipeline, process worker backend,

— six modes over five code paths (2 and 4 both fold the sharded
``process()``, directly and through the pipeline) — and the *byte-identical* sorted JSON records of the match sets are
compared.  Sorting removes the one legitimate difference (emission order
across shards); everything else — bindings, timestamps, sequence numbers,
detection times — must agree exactly.

The compile-mode differential re-runs all six execution modes with
``compile_mode="compiled"`` and ``"indexed"`` (see :mod:`repro.compile`):
lowering conditions into specialized kernels and pruning join candidates
through equality indexes must leave every byte of the match set alone.

The disorder differential extends the same invariant to out-of-order
arrival: each workload is shuffled within a bounded slack
(:func:`~repro.streaming.bounded_shuffle`) and re-run through every mode
with the event-time reordering layer absorbing the disorder — the
streaming modes via the pipeline's ``max_lateness`` ordering stage, the
whole-stream modes via offline :func:`~repro.streaming.reorder_events`.  The
sorted match records must still equal the sorted-replay reference byte
for byte.
"""

from __future__ import annotations

import json

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.conditions import AndCondition, EqualityCondition
from repro.datasets import StockDatasetSimulator
from repro.engine import AdaptiveCEPEngine
from repro.events import EventType
from repro.optimizer import GreedyOrderPlanner
from repro.parallel import (
    BroadcastPartitioner,
    KeyPartitioner,
    ParallelCEPEngine,
)
from repro.patterns import seq
from repro.streaming import (
    CollectorSink,
    ProcessWorkerBackend,
    ReplaySource,
    StreamingPipeline,
    ThreadWorkerBackend,
    bounded_shuffle,
    reorder_events,
)
from repro.streaming.sinks import match_record
from repro.workloads import WorkloadGenerator
from tests.conftest import make_camera_stream

SHARDS = 2

#: Stream-time slack of the disorder differential (must stay below the
#: workloads' pattern windows so reordered detection is meaningful).
DISORDER_SLACK = 1.5
DISORDER_SEED = 97


def _records(matches):
    """Byte-comparable canonical form: sorted JSON lines."""
    return sorted(json.dumps(match_record(match)) for match in matches)


def _planner():
    return GreedyOrderPlanner()


def _policy():
    return InvariantBasedPolicy()


def _parallel(pattern, partitioner, compile_mode="interpreted"):
    return ParallelCEPEngine(
        pattern,
        _planner(),
        _policy(),
        shards=SHARDS,
        partitioner=partitioner,
        compile_mode=compile_mode,
    )


# ----------------------------------------------------------------------
# Execution modes
# ----------------------------------------------------------------------
def run_sequential(pattern, events, partitioner, compile_mode="interpreted"):
    engine = AdaptiveCEPEngine(
        pattern, _planner(), _policy(), compile_mode=compile_mode
    )
    return engine.run(events).matches


def run_sharded(pattern, events, partitioner, compile_mode="interpreted"):
    engine = _parallel(pattern, partitioner, compile_mode=compile_mode)
    return engine.run(events).matches


def run_pipeline_inline(
    pattern, events, partitioner, compile_mode="interpreted", **pipeline_kwargs
):
    sink = CollectorSink()
    engine = AdaptiveCEPEngine(
        pattern, _planner(), _policy(), compile_mode=compile_mode
    )
    StreamingPipeline(
        engine, ReplaySource(events), sinks=[sink], **pipeline_kwargs
    ).run()
    return sink.matches


def run_pipeline_inline_sharded(
    pattern, events, partitioner, compile_mode="interpreted", **pipeline_kwargs
):
    sink = CollectorSink()
    engine = _parallel(pattern, partitioner, compile_mode=compile_mode)
    StreamingPipeline(
        engine, ReplaySource(events), sinks=[sink], **pipeline_kwargs
    ).run()
    return sink.matches


def run_pipeline_thread_workers(
    pattern, events, partitioner, compile_mode="interpreted", **pipeline_kwargs
):
    sink = CollectorSink()
    backend = ThreadWorkerBackend(
        _parallel(pattern, partitioner, compile_mode=compile_mode), feed_batch=16
    )
    StreamingPipeline(
        backend, ReplaySource(events), sinks=[sink], **pipeline_kwargs
    ).run()
    return sink.matches


def run_pipeline_process_workers(
    pattern, events, partitioner, compile_mode="interpreted", **pipeline_kwargs
):
    sink = CollectorSink()
    backend = ProcessWorkerBackend(
        _parallel(pattern, partitioner, compile_mode=compile_mode), feed_batch=16
    )
    StreamingPipeline(
        backend, ReplaySource(events), sinks=[sink], **pipeline_kwargs
    ).run()
    return sink.matches


MODES = {
    "sharded-run": run_sharded,
    "pipeline-inline": run_pipeline_inline,
    "pipeline-inline-sharded": run_pipeline_inline_sharded,
    "pipeline-thread-workers": run_pipeline_thread_workers,
    "pipeline-process-workers": run_pipeline_process_workers,
}

#: Modes whose disorder handling is the pipeline's event-time ordering
#: stage; the rest (sequential / sharded run) reorder offline before ingesting.
STREAMING_MODES = frozenset(
    name for name in MODES if name.startswith("pipeline-")
)


# ----------------------------------------------------------------------
# Workloads (seeded, deterministic)
# ----------------------------------------------------------------------
def _camera_workload():
    """Broadcast-partitioned workload: the paper's Example 1 pattern."""
    a, b, c = EventType("A"), EventType("B"), EventType("C")
    condition = AndCondition(
        [
            EqualityCondition("a", "b", "person_id"),
            EqualityCondition("b", "c", "person_id"),
        ]
    )
    pattern = seq([a, b, c], condition=condition, window=10.0)
    events = make_camera_stream(count=300, seed=21).to_list()
    return pattern, events, BroadcastPartitioner()


def _keyed_workload():
    """Key-partitioned workload: multi-entity stocks stream."""
    dataset = StockDatasetSimulator(duration_hint=60.0)
    workload = WorkloadGenerator(dataset, seed=1)
    pattern, stream = workload.keyed_workload(
        3, duration=60.0, entities=4, max_events=2000
    )
    return pattern, stream.to_list(), KeyPartitioner("entity_id")


WORKLOADS = {
    "camera-broadcast": _camera_workload,
    "stocks-keyed": _keyed_workload,
}


@pytest.fixture(scope="module")
def references():
    """Reference match records per workload (computed once)."""
    cache = {}
    for name, build in WORKLOADS.items():
        pattern, events, partitioner = build()
        reference = _records(run_sequential(pattern, events, partitioner))
        assert reference, f"workload {name} must produce matches"
        cache[name] = (pattern, events, partitioner, reference)
    return cache


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("mode_name", sorted(MODES))
def test_mode_equals_sequential_reference(references, workload_name, mode_name):
    pattern, events, partitioner, reference = references[workload_name]
    matches = MODES[mode_name](pattern, events, partitioner)
    assert _records(matches) == reference, (
        f"{mode_name} diverged from the sequential reference on "
        f"{workload_name}: {len(matches)} matches vs {len(reference)}"
    )


# ----------------------------------------------------------------------
# Compile-mode differential: compiled kernels change speed, never matches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("mode_name", ["sequential"] + sorted(MODES))
@pytest.mark.parametrize("compile_mode", ["compiled", "indexed"])
def test_compile_mode_equals_interpreted_reference(
    references, workload_name, mode_name, compile_mode
):
    """3 compile modes x 6 execution modes, one byte-identical match set.

    The interpreted reference is the module fixture; this parametrization
    re-runs every execution mode with plan-compiled kernels (and, in
    ``indexed`` mode, equality-index pruning) and demands the exact same
    sorted JSON records.  The worker-backend modes double as a pickling
    check: compiled engines cross the process boundary by shipping the
    compilation *recipe* and rebuilding kernels on the other side.
    """
    pattern, events, partitioner, reference = references[workload_name]
    runner = run_sequential if mode_name == "sequential" else MODES[mode_name]
    matches = runner(pattern, events, partitioner, compile_mode=compile_mode)
    assert _records(matches) == reference, (
        f"{mode_name} in {compile_mode} mode diverged from the interpreted "
        f"reference on {workload_name}: {len(matches)} matches vs "
        f"{len(reference)}"
    )


def test_reference_is_nonempty_and_deterministic(references):
    """Re-running the sequential reference reproduces itself byte-for-byte."""
    for name, (pattern, events, partitioner, reference) in references.items():
        again = _records(run_sequential(pattern, events, partitioner))
        assert again == reference, f"sequential reference for {name} is unstable"


# ----------------------------------------------------------------------
# Disorder differential: shuffled-within-slack arrival must change nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("mode_name", sorted(MODES))
def test_disordered_arrival_equals_sorted_reference(
    references, workload_name, mode_name
):
    pattern, events, partitioner, reference = references[workload_name]
    shuffled = bounded_shuffle(events, DISORDER_SLACK, seed=DISORDER_SEED)
    assert shuffled != events, "the disorder workload must actually be disordered"
    if mode_name in STREAMING_MODES:
        matches = MODES[mode_name](
            pattern, shuffled, partitioner, max_lateness=DISORDER_SLACK
        )
    else:
        matches = MODES[mode_name](
            pattern, reorder_events(shuffled, DISORDER_SLACK), partitioner
        )
    assert _records(matches) == reference, (
        f"{mode_name} diverged from the sorted-replay reference on the "
        f"disordered {workload_name} workload"
    )


def test_disordered_sequential_equals_sorted_reference(references):
    """The reference engine itself, fed an offline-reordered shuffle."""
    for name, (pattern, events, partitioner, reference) in references.items():
        shuffled = bounded_shuffle(events, DISORDER_SLACK, seed=DISORDER_SEED)
        restored = reorder_events(shuffled, DISORDER_SLACK)
        assert restored == list(events)
        matches = run_sequential(pattern, restored, partitioner)
        assert _records(matches) == reference, name
