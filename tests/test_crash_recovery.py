"""Crash-recovery fuzz: kill the multi-worker pipeline anywhere, lose nothing.

The pipeline's contract is exactly-once match delivery across a hard kill:
a killed service resumes from its last checkpoint, re-processes only the
post-checkpoint suffix, and the sink rollback withdraws matches the resume
will re-derive.  This suite fuzzes that contract for the process worker
backend by killing the pipeline at seeded, randomized event offsets
(`final_checkpoint=False` simulates the kill: the in-memory state is
discarded without a final snapshot, exactly as SIGKILL would) and checking
that the served match file always ends up byte-identical to an
uninterrupted sequential run.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.conditions import AndCondition, EqualityCondition
from repro.engine import AdaptiveCEPEngine
from repro.engine.state import restore_ordering_state
from repro.events import EventType
from repro.optimizer import GreedyOrderPlanner, ZStreamTreePlanner
from repro.parallel import BroadcastPartitioner, KeyPartitioner, ParallelCEPEngine
from repro.patterns import seq
from repro.streaming import (
    CheckpointStore,
    JSONLMatchWriter,
    ProcessWorkerBackend,
    ReorderBuffer,
    ReplaySource,
    StreamingPipeline,
    bounded_shuffle,
)
from repro.streaming import pipeline, workers
from repro.streaming.sinks import match_record
from tests.conftest import make_camera_stream

EVENT_COUNT = 400
CHECKPOINT_EVERY = 40
KILL_POINTS = 10
FUZZ_SEED = 20260730


def _pattern():
    a, b, c = EventType("A"), EventType("B"), EventType("C")
    condition = AndCondition(
        [
            EqualityCondition("a", "b", "person_id"),
            EqualityCondition("b", "c", "person_id"),
        ]
    )
    return seq([a, b, c], condition=condition, window=10.0)


@pytest.fixture(scope="module")
def workload():
    pattern = _pattern()
    events = make_camera_stream(count=EVENT_COUNT, seed=31).to_list()
    expected = sorted(
        json.dumps(match_record(match))
        for match in AdaptiveCEPEngine(
            pattern, GreedyOrderPlanner(), InvariantBasedPolicy()
        )
        .run(events)
        .matches
    )
    assert expected, "fuzz workload must produce matches"
    return pattern, events, expected


#: Delta-mode chain length used by the fuzz (short, so random kill points
#: frequently land *between* a base and its deltas).
FULL_EVERY = 3


@pytest.fixture(autouse=True)
def small_hand_offs(monkeypatch):
    """Several worker hand-offs per checkpoint interval, so kills and
    barriers land with batches both queued and in flight; short delta
    chains."""
    monkeypatch.setattr(workers, "FEED_BATCH", 8)
    monkeypatch.setattr(pipeline, "CHECKPOINT_FULL_EVERY", FULL_EVERY)


def _build_pipeline(
    pattern,
    events,
    sink_path,
    store,
    partitioner,
    checkpoint_mode="full",
):
    engine = ParallelCEPEngine(
        pattern,
        GreedyOrderPlanner(),
        InvariantBasedPolicy(),
        shards=2,
        partitioner=partitioner,
    )
    return StreamingPipeline(
        ProcessWorkerBackend(engine),
        ReplaySource(events),
        sinks=[JSONLMatchWriter(sink_path)],
        checkpoint_store=store,
        checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_mode=checkpoint_mode,
    )


def _kill_resume_verify(
    pattern,
    events,
    expected,
    tmp_path,
    label,
    kill_at,
    partitioner,
    checkpoint_mode="full",
):
    sink_path = str(tmp_path / f"matches-{label}.jsonl")
    store = CheckpointStore(str(tmp_path / f"ckpt-{label}"))

    def build():
        return _build_pipeline(
            pattern,
            events,
            sink_path,
            store,
            partitioner,
            checkpoint_mode=checkpoint_mode,
        )

    # Kill: process exactly `kill_at` events, then drop all in-memory state
    # without a final checkpoint — the worker engines, the dedup filter and
    # the pipeline counters are lost; only the store and the sink file stay.
    first = build().run(max_events=kill_at, final_checkpoint=False)
    assert first.stop_reason == "max-events"

    second = build().run()
    assert second.stop_reason == "source-exhausted"
    expected_resume = (kill_at // CHECKPOINT_EVERY) * CHECKPOINT_EVERY
    assert second.resumed_from == expected_resume
    assert second.total_events_processed == len(events)

    served = sorted(
        line for line in open(sink_path).read().splitlines() if line
    )
    assert served == expected, (
        f"kill at event {kill_at}: served {len(served)} matches, "
        f"expected {len(expected)} (lost or duplicated across the resume)"
    )


def _fuzz_offsets():
    rng = random.Random(FUZZ_SEED)
    # Strictly between the first checkpoint and the end, so every kill has
    # a checkpoint to resume from and a suffix left to re-process.
    return sorted(rng.sample(range(CHECKPOINT_EVERY + 1, EVENT_COUNT - 5), KILL_POINTS))


@pytest.mark.parametrize(
    "kill_at", _fuzz_offsets()[:: max(1, KILL_POINTS // 3)][:3]
)
def test_process_worker_kill_resume_fuzz(workload, tmp_path, kill_at):
    pattern, events, expected = workload
    _kill_resume_verify(
        pattern,
        events,
        expected,
        tmp_path,
        f"process-{kill_at}",
        kill_at,
        BroadcastPartitioner(),
    )


@pytest.mark.parametrize("kill_at", _fuzz_offsets()[::2][:5])
def test_delta_checkpoint_kill_resume_fuzz(workload, tmp_path, kill_at):
    """Incremental checkpoints keep the exactly-once contract under kills.

    ``checkpoint_every=40`` with ``CHECKPOINT_FULL_EVERY=3`` makes every
    fourth checkpoint a base, so these randomized kill points land at
    every chain position — on a fresh base, mid-chain between a base and
    its deltas, and on the last delta before a rebase.
    """
    pattern, events, expected = workload
    _kill_resume_verify(
        pattern,
        events,
        expected,
        tmp_path,
        f"delta-{kill_at}",
        kill_at,
        BroadcastPartitioner(),
        checkpoint_mode="delta",
    )


def test_delta_kill_lands_between_base_and_deltas(workload, tmp_path):
    """A kill whose recovery point is provably a base + deltas chain."""
    pattern, events, expected = workload
    sink_path = str(tmp_path / "matches-midchain.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt-midchain"))

    def build():
        return _build_pipeline(
            pattern,
            events,
            sink_path,
            store,
                BroadcastPartitioner(),
            checkpoint_mode="delta",
        )

    # 2 checkpoints fit before the kill: a base (40) and one delta (80) —
    # the resume must replay the chain, not just a full snapshot.
    kill_at = 2 * CHECKPOINT_EVERY + CHECKPOINT_EVERY // 2
    first = build().run(max_events=kill_at, final_checkpoint=False)
    assert first.stop_reason == "max-events"
    stats = store.stats()
    assert stats["checkpoints"] >= 1 and stats["deltas"] >= 1, (
        "the kill point must leave a base plus at least one delta behind "
        "for this test to exercise chain replay"
    )
    assert store.latest().events_processed == 2 * CHECKPOINT_EVERY

    second = build().run()
    assert second.resumed_from == 2 * CHECKPOINT_EVERY
    assert second.total_events_processed == len(events)
    served = sorted(line for line in open(sink_path).read().splitlines() if line)
    assert served == expected


def test_delta_process_worker_kill_resume(workload, tmp_path):
    """Per-shard deltas over the process-worker barrier survive a kill."""
    pattern, events, expected = workload
    _kill_resume_verify(
        pattern,
        events,
        expected,
        tmp_path,
        "delta-process",
        EVENT_COUNT // 2 + 7,
        BroadcastPartitioner(),
        checkpoint_mode="delta",
    )


def test_delta_double_kill_resume(workload, tmp_path):
    """kill → resume → kill → resume with incremental checkpoints."""
    pattern, events, expected = workload
    sink_path = str(tmp_path / "matches-delta-double.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt-delta-double"))

    def build():
        return _build_pipeline(
            pattern,
            events,
            sink_path,
            store,
                BroadcastPartitioner(),
            checkpoint_mode="delta",
        )

    build().run(max_events=130, final_checkpoint=False)
    build().run(max_events=150, final_checkpoint=False)  # resumes at 120, dies again
    final = build().run()
    assert final.total_events_processed == len(events)
    served = sorted(line for line in open(sink_path).read().splitlines() if line)
    assert served == expected


def test_delta_kill_with_nonempty_reorder_buffer(workload, tmp_path):
    """Disorder + incremental checkpoints + kill: ordering state survives."""
    pattern, events, expected = workload
    slack = 1.5
    shuffled = bounded_shuffle(events, slack, seed=47)
    sink_path = str(tmp_path / "matches-delta-reorder.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt-delta-reorder"))

    def build():
        engine = ParallelCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            shards=2,
            partitioner=BroadcastPartitioner(),
        )
        return StreamingPipeline(
            ProcessWorkerBackend(engine),
            ReplaySource(shuffled),
            sinks=[JSONLMatchWriter(sink_path)],
            checkpoint_store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            checkpoint_mode="delta",
            ordering=ReorderBuffer(slack),
        )

    first = build().run(max_events=173, final_checkpoint=False)
    assert first.stop_reason == "max-events"
    checkpoint = store.latest()
    state = restore_ordering_state(checkpoint.ordering_blob)
    assert state["ordering"].depth > 0

    second = build().run()
    assert second.total_events_processed == len(events)
    served = sorted(line for line in open(sink_path).read().splitlines() if line)
    assert served == expected


def test_full_mode_resumes_delta_mode_store(workload, tmp_path):
    """Mode downgrade: a full-mode pipeline resumes a delta-mode store."""
    pattern, events, expected = workload
    sink_path = str(tmp_path / "matches-downgrade.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt-downgrade"))

    def build(mode):
        return _build_pipeline(
            pattern,
            events,
            sink_path,
            store,
                BroadcastPartitioner(),
            checkpoint_mode=mode,
        )

    build("delta").run(max_events=170, final_checkpoint=False)
    assert store.stats()["deltas"] >= 1
    final = build("full").run()
    assert final.resumed_from == 160
    assert final.total_events_processed == len(events)
    served = sorted(line for line in open(sink_path).read().splitlines() if line)
    assert served == expected


def test_key_partitioned_kill_resume(workload, tmp_path):
    """Key partitioning (no duplicate suppression in play) survives a kill."""
    pattern, events, expected = workload
    _kill_resume_verify(
        pattern,
        events,
        expected,
        tmp_path,
        "keyed",
        EVENT_COUNT // 2,
        KeyPartitioner("person_id"),
    )


def test_double_kill_resume(workload, tmp_path):
    """Two consecutive kills (kill → resume → kill → resume) stay lossless."""
    pattern, events, expected = workload
    sink_path = str(tmp_path / "matches-double.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt-double"))

    def build():
        return _build_pipeline(
            pattern,
            events,
            sink_path,
            store,
                BroadcastPartitioner(),
        )

    build().run(max_events=130, final_checkpoint=False)
    build().run(max_events=150, final_checkpoint=False)  # resumes at 120, dies again
    final = build().run()
    assert final.total_events_processed == len(events)
    served = sorted(line for line in open(sink_path).read().splitlines() if line)
    assert served == expected


def test_kill_with_nonempty_reorder_buffer(workload, tmp_path):
    """Disorder + kill: in-flight reorder-buffer events survive the resume.

    The stream is shuffled within a bounded slack and served through a
    worker backend with the event-time ordering stage in front.  The kill
    lands while the reorder buffer holds admitted-but-unreleased events
    (asserted against the recovered checkpoint), so the resume exercises
    the ordering-state restore path — and the served file must still be
    byte-identical to the uninterrupted *sorted* reference.
    """
    pattern, events, expected = workload
    slack = 1.5
    shuffled = bounded_shuffle(events, slack, seed=47)
    assert shuffled != events
    sink_path = str(tmp_path / "matches-reorder.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt-reorder"))

    def build():
        engine = ParallelCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            shards=2,
            partitioner=BroadcastPartitioner(),
        )
        return StreamingPipeline(
            ProcessWorkerBackend(engine),
            ReplaySource(shuffled),
            sinks=[JSONLMatchWriter(sink_path)],
            checkpoint_store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            ordering=ReorderBuffer(slack),
        )

    first = build().run(max_events=173, final_checkpoint=False)
    assert first.stop_reason == "max-events"
    checkpoint = store.latest()
    state = restore_ordering_state(checkpoint.ordering_blob)
    assert state["ordering"].depth > 0, (
        "the kill point must leave events in the reorder buffer for this "
        "test to exercise the in-flight restore path"
    )
    assert checkpoint.records_ingested > checkpoint.events_processed

    second = build().run()
    assert second.stop_reason == "source-exhausted"
    assert second.total_events_processed == len(events)
    served = sorted(line for line in open(sink_path).read().splitlines() if line)
    assert served == expected, (
        f"served {len(served)} matches, expected {len(expected)} "
        "(lost or duplicated across a resume with a non-empty reorder buffer)"
    )


def test_double_kill_with_reorder_buffer(workload, tmp_path):
    """Two kills with an ordering stage stay lossless end to end."""
    pattern, events, expected = workload
    slack = 1.5
    shuffled = bounded_shuffle(events, slack, seed=53)
    sink_path = str(tmp_path / "matches-reorder-double.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt-reorder-double"))

    def build():
        engine = AdaptiveCEPEngine(
            pattern, GreedyOrderPlanner(), InvariantBasedPolicy()
        )
        return StreamingPipeline(
            engine,
            ReplaySource(shuffled),
            sinks=[JSONLMatchWriter(sink_path)],
            checkpoint_store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            ordering=ReorderBuffer(slack),
        )

    build().run(max_events=130, final_checkpoint=False)
    build().run(max_events=150, final_checkpoint=False)
    final = build().run()
    assert final.total_events_processed == len(events)
    served = sorted(line for line in open(sink_path).read().splitlines() if line)
    assert served == expected


def test_inline_checkpoint_resumes_on_worker_backend(workload, tmp_path):
    """Backend upgrade mid-life: inline checkpoints feed a worker resume."""
    pattern, events, expected = workload
    sink_path = str(tmp_path / "matches-upgrade.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt-upgrade"))

    inline_engine = ParallelCEPEngine(
        pattern,
        GreedyOrderPlanner(),
        InvariantBasedPolicy(),
        shards=2,
        partitioner=BroadcastPartitioner(),
    )
    StreamingPipeline(
        inline_engine,
        ReplaySource(events),
        sinks=[JSONLMatchWriter(sink_path)],
        checkpoint_store=store,
        checkpoint_every=CHECKPOINT_EVERY,
    ).run(max_events=200, final_checkpoint=False)

    second = _build_pipeline(
        pattern, events, sink_path, store, BroadcastPartitioner()
    ).run()
    assert second.resumed_from == 200 - (200 % CHECKPOINT_EVERY)
    served = sorted(line for line in open(sink_path).read().splitlines() if line)
    assert served == expected


@pytest.mark.parametrize("checkpoint_mode", ["full", "delta"])
def test_worker_checkpoint_resumes_inline(workload, tmp_path, checkpoint_mode):
    """Backend downgrade mid-life: worker checkpoints feed an inline resume.

    The kill lands after a base and three deltas in delta mode, so the
    inline resume replays a chain the worker backend wrote.
    """
    pattern, events, expected = workload
    sink_path = str(tmp_path / "matches-downgrade.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt-downgrade"))
    kill_at = 4 * CHECKPOINT_EVERY + CHECKPOINT_EVERY // 4

    first = _build_pipeline(
        pattern,
        events,
        sink_path,
        store,
        BroadcastPartitioner(),
        checkpoint_mode=checkpoint_mode,
    ).run(max_events=kill_at, final_checkpoint=False)
    assert first.stop_reason == "max-events"
    if checkpoint_mode == "delta":
        assert store.stats()["deltas"] == FULL_EVERY

    inline_engine = ParallelCEPEngine(
        pattern,
        GreedyOrderPlanner(),
        InvariantBasedPolicy(),
        shards=2,
        partitioner=BroadcastPartitioner(),
    )
    second = StreamingPipeline(
        inline_engine,
        ReplaySource(events),
        sinks=[JSONLMatchWriter(sink_path)],
        checkpoint_store=store,
        checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_mode=checkpoint_mode,
    ).run()
    assert second.resumed_from == 4 * CHECKPOINT_EVERY
    assert second.total_events_processed == len(events)
    served = sorted(line for line in open(sink_path).read().splitlines() if line)
    assert served == expected


@pytest.mark.parametrize(
    "checkpoint_mode, kill_at",
    [("full", offset) for offset in _fuzz_offsets()[:3]]
    + [("delta", offset) for offset in _fuzz_offsets()[3::3]],
)
def test_tree_planner_kill_resume(workload, tmp_path, checkpoint_mode, kill_at):
    """The tree engine's node stores survive a kill and resume.

    Served through an inline adaptive engine on the ZStream tree planner:
    the resumed engine is an unpickled one, so every store must be reached
    through the restored tree, not through pre-kill object identities.
    """
    pattern, events, expected = workload
    sink_path = str(tmp_path / "matches-tree.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt-tree"))

    def engine():
        return AdaptiveCEPEngine(
            pattern, ZStreamTreePlanner(), InvariantBasedPolicy(), compile_mode="compiled"
        )

    tree_expected = sorted(
        json.dumps(match_record(match)) for match in engine().run(events).matches
    )
    assert tree_expected == expected

    def build():
        return StreamingPipeline(
            engine(),
            ReplaySource(events),
            sinks=[JSONLMatchWriter(sink_path)],
            checkpoint_store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            checkpoint_mode=checkpoint_mode,
        )

    first = build().run(max_events=kill_at, final_checkpoint=False)
    assert first.stop_reason == "max-events"
    second = build().run()
    assert second.resumed_from == (kill_at // CHECKPOINT_EVERY) * CHECKPOINT_EVERY
    assert second.total_events_processed == len(events)
    served = sorted(line for line in open(sink_path).read().splitlines() if line)
    assert served == expected
