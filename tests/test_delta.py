"""Incremental (delta) checkpoints: framing, chains, the store's epoch log.

The contract under test is the one the crash-recovery suite relies on:
replaying ``base + deltas`` rebuilds exactly the engine state of the
newest epoch — same tracked collections, same forward behaviour — while
writing measurably fewer bytes than a full snapshot at the same cadence.
Torn files must fail loudly (CRC) and degrade to the longest intact
prefix, chains are read off the files alone (a stray delta is cut off by
its lineage), orphaned temp files must be swept on store open, and
directories written by the pre-delta store format must keep restoring.
"""

from __future__ import annotations

import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.adaptive import InvariantBasedPolicy
from repro.engine import AdaptiveCEPEngine
from repro.engine.state import (
    is_delta_snapshot,
    restore_delta_state,
    restore_engine,
    snapshot_delta_state,
    snapshot_engine,
)
from repro.errors import CheckpointError
from repro.optimizer import GreedyOrderPlanner
from repro.parallel import BroadcastPartitioner, ParallelCEPEngine
from repro.streaming import (
    Checkpoint,
    CheckpointStore,
    DeltaCheckpoint,
    DeltaTracker,
    materialize_engine_blob,
)
from repro.streaming.delta import extract_keyed_state
from tests.conftest import make_camera_stream

SETTINGS = settings(max_examples=20, deadline=None)


def _build_engine(camera_pattern):
    return AdaptiveCEPEngine(
        camera_pattern, GreedyOrderPlanner(), InvariantBasedPolicy()
    )


def _normalized_collections(engine):
    _skeleton, collections = extract_keyed_state(engine)
    return {
        name: (set(value) if isinstance(value, set) else dict(value))
        for name, value in collections.items()
    }


# ----------------------------------------------------------------------
# Frame format
# ----------------------------------------------------------------------
class TestDeltaFraming:
    def test_roundtrip(self):
        payload = {"streams": {"engine": {"kind": "base"}}, "epoch": 3}
        frame = snapshot_delta_state(payload)
        assert is_delta_snapshot(frame)
        assert restore_delta_state(frame)["epoch"] == 3

    def test_crc_detects_corruption(self):
        frame = bytearray(snapshot_delta_state({"streams": {}, "epoch": 0}))
        frame[-1] ^= 0xFF
        with pytest.raises(CheckpointError, match="CRC"):
            restore_delta_state(bytes(frame))

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError, match="magic"):
            restore_delta_state(b"not-a-delta-frame-at-all")

    def test_requires_streams(self):
        with pytest.raises(CheckpointError, match="streams"):
            snapshot_delta_state({"epoch": 1})


# ----------------------------------------------------------------------
# Engine delta chains (a host-owned DeltaTracker)
# ----------------------------------------------------------------------
class TestEngineDeltaChains:
    def test_chain_replay_equals_full_snapshot_state(self, camera_pattern):
        engine = _build_engine(camera_pattern)
        events = make_camera_stream(count=900, seed=7).to_list()
        for event in events[:300]:
            engine.process(event)
        base = snapshot_engine(engine)
        tracker = DeltaTracker(engine)
        tracker.prime(0)
        frames = []
        for epoch, (lo, hi) in enumerate(
            ((300, 450), (450, 600), (600, 750)), start=1
        ):
            for event in events[lo:hi]:
                engine.process(event)
            frames.append(tracker.encode_frame(epoch - 1, epoch))
            restored = restore_engine(materialize_engine_blob(base, frames))
            assert _normalized_collections(restored) == _normalized_collections(
                engine
            ), f"state diverged at epoch {epoch}"

    def test_replayed_engine_behaves_identically(self, camera_pattern):
        engine = _build_engine(camera_pattern)
        events = make_camera_stream(count=900, seed=11).to_list()
        for event in events[:400]:
            engine.process(event)
        base = snapshot_engine(engine)
        tracker = DeltaTracker(engine)
        tracker.prime(0)
        for event in events[400:600]:
            engine.process(event)
        frame = tracker.encode_frame(0, 1)
        restored = restore_engine(materialize_engine_blob(base, [frame]))
        suffix = events[600:900]
        original_matches = [m for e in suffix for m in engine.process(e)]
        restored_matches = [m for e in suffix for m in restored.process(e)]
        assert len(original_matches) == len(restored_matches)
        assert [m.detection_time for m in original_matches] == [
            m.detection_time for m in restored_matches
        ]

    def test_delta_without_base_is_self_contained(self, camera_pattern):
        engine = _build_engine(camera_pattern)
        for event in make_camera_stream(count=200, seed=3):
            engine.process(event)
        frame = DeltaTracker(engine).encode_frame(None, 0)  # never primed
        payload = restore_delta_state(frame)
        assert payload["streams"]["engine"]["kind"] == "base"

    def test_deltas_smaller_than_full_on_aged_engine(self, camera_pattern):
        engine = _build_engine(camera_pattern)
        events = make_camera_stream(count=1200, seed=5).to_list()
        for event in events[:600]:
            engine.process(event)
        tracker = DeltaTracker(engine)
        tracker.prime(0)
        for event in events[600:800]:
            engine.process(event)
        frame = tracker.encode_frame(0, 1)
        full = snapshot_engine(engine)
        assert len(frame) < len(full), (
            f"delta frame ({len(frame)}B) is not smaller than the full "
            f"snapshot ({len(full)}B)"
        )

    def test_parallel_engine_delta_chain(self, camera_pattern):
        engine = ParallelCEPEngine(
            camera_pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            shards=2,
            partitioner=BroadcastPartitioner(),
        )
        events = make_camera_stream(count=600, seed=13).to_list()
        for event in events[:200]:
            engine.process(event)
        base = snapshot_engine(engine)
        tracker = DeltaTracker(engine)
        tracker.prime(0)
        for event in events[200:400]:
            engine.process(event)
        frame = tracker.encode_frame(0, 1)
        restored = restore_engine(materialize_engine_blob(base, [frame]))
        assert _normalized_collections(restored) == _normalized_collections(engine)

    def test_tracker_epoch_mismatch_degrades_to_base(self, camera_pattern):
        engine = _build_engine(camera_pattern)
        for event in make_camera_stream(count=200, seed=17):
            engine.process(event)
        tracker = DeltaTracker(engine)
        tracker.prime(0)
        payload = tracker.encode_payload(since_epoch=99, epoch=100)
        assert payload["kind"] == "base"
        # And a matching epoch after the mismatch chains normally again.
        payload = tracker.encode_payload(since_epoch=100, epoch=101)
        assert payload["kind"] == "delta"


def _camera_pattern():
    from repro.conditions import AndCondition, EqualityCondition
    from repro.events import EventType
    from repro.patterns import seq

    a, b, c = EventType("A"), EventType("B"), EventType("C")
    condition = AndCondition(
        [
            EqualityCondition("a", "b", "person_id"),
            EqualityCondition("b", "c", "person_id"),
        ]
    )
    return seq([a, b, c], condition=condition, window=10.0)


@SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    prefix=st.integers(min_value=50, max_value=250),
    step=st.integers(min_value=30, max_value=120),
    epochs=st.integers(min_value=1, max_value=4),
)
def test_chain_replay_property(seed, prefix, step, epochs):
    """replay(base + deltas) == full state at *every* epoch (Hypothesis)."""
    engine = AdaptiveCEPEngine(
        _camera_pattern(), GreedyOrderPlanner(), InvariantBasedPolicy()
    )
    events = make_camera_stream(count=prefix + step * epochs, seed=seed).to_list()
    for event in events[:prefix]:
        engine.process(event)
    base = snapshot_engine(engine)
    tracker = DeltaTracker(engine)
    tracker.prime(0)
    frames = []
    for epoch in range(1, epochs + 1):
        lo = prefix + step * (epoch - 1)
        for event in events[lo : lo + step]:
            engine.process(event)
        frames.append(tracker.encode_frame(epoch - 1, epoch))
        restored = restore_engine(materialize_engine_blob(base, frames))
        assert _normalized_collections(restored) == _normalized_collections(engine)


# ----------------------------------------------------------------------
# The checkpoint store as an epoch log
# ----------------------------------------------------------------------
def _checkpoint(engine, events_processed, delta_epoch=None):
    return Checkpoint(
        events_processed=events_processed,
        matches_emitted=0,
        engine_blob=snapshot_engine(engine),
        delta_epoch=delta_epoch,
    )


def _delta_record(frame, base_index, epoch, events_processed):
    return DeltaCheckpoint(
        events_processed=events_processed,
        matches_emitted=0,
        frame=frame,
        base_index=base_index,
        epoch=epoch,
        since_epoch=epoch - 1,
    )


class TestEpochLogStore:
    def _chain(self, tmp_path, camera_pattern, deltas=2):
        """A store holding base + ``deltas`` chained records; returns both."""
        store = CheckpointStore(str(tmp_path / "ckpt"))
        engine = _build_engine(camera_pattern)
        events = make_camera_stream(count=800, seed=23).to_list()
        for event in events[:200]:
            engine.process(event)
        base = _checkpoint(engine, 200, delta_epoch=0)
        store.save(base)
        tracker = DeltaTracker(engine)
        tracker.prime(0)
        step = 150
        for epoch in range(1, deltas + 1):
            lo = 200 + step * (epoch - 1)
            for event in events[lo : lo + step]:
                engine.process(event)
            frame = tracker.encode_frame(epoch - 1, epoch)
            store.save_delta(
                _delta_record(frame, base.index, epoch, lo + step)
            )
        return store, engine

    def test_latest_replays_base_plus_deltas(self, tmp_path, camera_pattern):
        store, engine = self._chain(tmp_path, camera_pattern)
        checkpoint = store.latest()
        assert checkpoint.events_processed == 500
        restored = restore_engine(checkpoint.engine_blob)
        assert _normalized_collections(restored) == _normalized_collections(engine)

    def test_corrupt_delta_truncates_to_intact_prefix(self, tmp_path, camera_pattern):
        store, _engine = self._chain(tmp_path, camera_pattern)
        newest = store._delta_indices()[-1]
        path = store._delta_path(newest)
        with open(path, "r+b") as handle:
            handle.seek(max(0, os.path.getsize(path) // 2))
            handle.write(b"\x00" * 64)
        checkpoint = store.latest()
        assert checkpoint.events_processed == 350  # base + first delta only

    def test_chains_are_derived_from_the_files(self, tmp_path, camera_pattern):
        # A killed run leaves base + 2 deltas; the resume starts its own
        # chain with a fresh base and appends 2 more deltas.  The files
        # alone say which deltas belong to which base.
        store, _killed = self._chain(tmp_path, camera_pattern)
        resumed = store.latest()
        assert resumed.events_processed == 500
        engine = restore_engine(resumed.engine_blob)
        base = _checkpoint(engine, 500, delta_epoch=3)
        store.save(base)
        tracker = DeltaTracker(engine)
        tracker.prime(3)
        events = make_camera_stream(count=800, seed=23).to_list()
        for epoch, (lo, hi) in enumerate(((500, 600), (600, 700)), start=4):
            for event in events[lo:hi]:
                engine.process(event)
            store.save_delta(
                _delta_record(tracker.encode_frame(epoch - 1, epoch), base.index, epoch, hi)
            )

        assert sorted(os.listdir(store.directory)) == [
            "checkpoint-000000000.pkl",
            "checkpoint-000000003.pkl",
            "delta-000000001.pkl",
            "delta-000000002.pkl",
            "delta-000000004.pkl",
            "delta-000000005.pkl",
        ]
        assert store.stats()["chains"] == 2
        checkpoint = CheckpointStore(store.directory).latest()
        assert (checkpoint.index, checkpoint.events_processed) == (5, 700)
        restored = restore_engine(checkpoint.engine_blob)
        assert _normalized_collections(restored) == _normalized_collections(engine)

    def test_stray_delta_from_an_older_base_is_cut_off(self, tmp_path, camera_pattern):
        store, engine = self._chain(tmp_path, camera_pattern, deltas=1)
        newer = _checkpoint(engine, 400, delta_epoch=0)
        store.save(newer)
        # Written after the newer base but naming the older one: by position
        # it lands in the newer base's chain, where its lineage is wrong.
        stray = DeltaTracker(engine).encode_frame(None, 2)
        store.save_delta(_delta_record(stray, base_index=0, epoch=2, events_processed=450))
        assert store._delta_indices()[-1] > newer.index
        checkpoint = store.latest()
        assert (checkpoint.index, checkpoint.events_processed) == (newer.index, 400)

    def test_save_delta_without_base_fails(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "empty"))
        with pytest.raises(CheckpointError, match="no such base"):
            store.save_delta(_delta_record(b"frame", base_index=0, epoch=1, events_processed=10))

    def test_prune_retires_whole_chains(self, tmp_path, camera_pattern):
        store, engine = self._chain(tmp_path, camera_pattern)
        # Two more bases push the delta chain out of the KEEP_CHAINS=2 horizon.
        store.save(_checkpoint(engine, 600))
        store.save(_checkpoint(engine, 700))
        assert store.stats()["deltas"] == 0
        assert store.stats()["checkpoints"] == 2
        assert store.latest().events_processed == 700

    def test_legacy_full_checkpoints_still_restore(self, tmp_path, camera_pattern):
        """A directory written by the pre-delta format keeps loading."""
        engine = _build_engine(camera_pattern)
        for event in make_camera_stream(count=200, seed=29):
            engine.process(event)
        directory = tmp_path / "legacy"
        directory.mkdir()
        legacy = Checkpoint(
            events_processed=200,
            matches_emitted=4,
            engine_blob=snapshot_engine(engine),
        )
        legacy.index = 7
        with open(directory / "checkpoint-000000007.pkl", "wb") as handle:
            pickle.dump(legacy, handle, protocol=pickle.HIGHEST_PROTOCOL)
        store = CheckpointStore(str(directory))
        checkpoint = store.latest()
        assert checkpoint.events_processed == 200
        assert restore_engine(checkpoint.engine_blob) is not None

    def test_open_sweeps_orphaned_temp_files(self, tmp_path, camera_pattern):
        directory = tmp_path / "swept"
        directory.mkdir()
        orphans = [".checkpoint-deadbeef.tmp", ".delta-cafebabe.tmp"]
        for name in orphans:
            (directory / name).write_bytes(b"torn write")
        keeper = directory / "checkpoint-000000000.pkl"
        engine = _build_engine(camera_pattern)
        with open(keeper, "wb") as handle:
            pickle.dump(
                _checkpoint(engine, 1), handle, protocol=pickle.HIGHEST_PROTOCOL
            )
        unrelated = directory / "notes.tmp"
        unrelated.write_bytes(b"user file with an unlucky suffix")
        CheckpointStore(str(directory))
        remaining = sorted(os.listdir(directory))
        assert remaining == ["checkpoint-000000000.pkl", "notes.tmp"], (
            "store open must sweep its own orphaned temp files and nothing else"
        )
