"""Engine state snapshot & restore.

The streaming runtime (:mod:`repro.streaming`) periodically checkpoints a
running engine so a killed pipeline can resume without re-reading the
stream.  An engine snapshot must capture *everything* the detection loop
depends on: open partial matches, the draining engines of an in-flight plan
migration, the sliding-window statistics collector, the adaptation
controller's policy state (invariants, reference snapshots) and the work
counters — otherwise a resumed run would diverge from an uninterrupted one.

Rather than enumerating that state field by field (and silently corrupting
resumes whenever a component grows a new field), snapshots serialize the
engine object graph wholesale with :mod:`pickle`.  Every component shipped
with the library is picklable — the multiprocess shard executor already
relies on this — and the same caveat applies: user-supplied conditions must
be module-level classes or functions, not closures.

The blob is framed with a magic string and a format version so that a
checkpoint written by an incompatible library version fails loudly instead
of unpickling garbage state.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckpointError

#: Frame prefix identifying an engine-state blob.
SNAPSHOT_MAGIC = b"repro-engine-state"

#: Bumped whenever the snapshot layout changes incompatibly.
SNAPSHOT_VERSION = 1

#: Frame prefix identifying a multi-shard state blob (one engine blob per
#: worker replica plus coordinator metadata — see :func:`snapshot_shard_states`).
SHARD_SNAPSHOT_MAGIC = b"repro-shard-states"

#: Bumped whenever the shard-frame layout changes incompatibly.
SHARD_SNAPSHOT_VERSION = 1

#: Frame prefix identifying a multi-pattern state blob (one engine blob per
#: registered pattern plus the shared meta state — see
#: :func:`snapshot_multi_state`).
MULTI_SNAPSHOT_MAGIC = b"repro-multi-state"

#: Bumped whenever the multi-pattern frame layout changes incompatibly.
MULTI_SNAPSHOT_VERSION = 1

#: Frame prefix identifying an in-flight ordering-stage blob (the reorder
#: buffer plus staged events — see :func:`snapshot_ordering_state`).
ORDERING_SNAPSHOT_MAGIC = b"repro-ordering-state"

#: Bumped whenever the ordering-frame layout changes incompatibly.
ORDERING_SNAPSHOT_VERSION = 1

#: Frame prefix identifying an incremental (delta) state blob: the keyed
#: collections changed since the previous epoch plus the re-pickled
#: skeleton — see :func:`snapshot_delta_state` and :mod:`repro.streaming.delta`.
DELTA_SNAPSHOT_MAGIC = b"repro-delta-state"

#: Bumped whenever the delta-frame layout changes incompatibly.
DELTA_SNAPSHOT_VERSION = 1


def snapshot_engine(engine: object) -> bytes:
    """Serialize a runtime engine (and all of its mutable state) to bytes.

    Works for any of the engine facades — sequential, multi-pattern or the
    parallel sharded engine — because the whole object graph is captured.
    Engines exposing ``multi_state_frames()`` (the multi-pattern engine)
    are framed as per-pattern snapshots instead — see
    :func:`snapshot_multi_state` — so individual pattern states stay
    independently restorable.
    """
    if not callable(getattr(engine, "process", None)):
        raise CheckpointError(
            f"cannot snapshot {type(engine).__name__}: not an engine "
            "(no process() method)"
        )
    frames_hook = getattr(engine, "multi_state_frames", None)
    if callable(frames_hook):
        meta_blob, frames = frames_hook()
        return snapshot_multi_state(meta_blob, frames)
    try:
        payload = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"engine state is not picklable (user-supplied conditions must "
            f"be module-level classes or functions, not closures): {exc}"
        ) from exc
    header = SNAPSHOT_MAGIC + bytes([SNAPSHOT_VERSION])
    return header + payload


def restore_engine(blob: bytes) -> object:
    """Rebuild an engine from a :func:`snapshot_engine` blob."""
    if not isinstance(blob, (bytes, bytearray)):
        raise CheckpointError(
            f"engine snapshot must be bytes, got {type(blob).__name__}"
        )
    if is_multi_snapshot(blob):
        # Multi-pattern frames restore through the multi-pattern engine,
        # which re-wires the shared-prefix groups and statistics hub.
        from repro.engine.multi_pattern import MultiPatternEngine

        return MultiPatternEngine.restore_state(bytes(blob))
    prefix_length = len(SNAPSHOT_MAGIC) + 1
    if len(blob) <= prefix_length or not blob.startswith(SNAPSHOT_MAGIC):
        raise CheckpointError(
            "not an engine snapshot (bad magic); was this blob produced by "
            "snapshot_engine()?"
        )
    version = blob[len(SNAPSHOT_MAGIC)]
    if version != SNAPSHOT_VERSION:
        raise CheckpointError(
            f"engine snapshot version {version} is not supported by this "
            f"library build (expected {SNAPSHOT_VERSION})"
        )
    try:
        engine = pickle.loads(bytes(blob[prefix_length:]))
    except Exception as exc:
        raise CheckpointError(f"corrupt engine snapshot: {exc}") from exc
    if not callable(getattr(engine, "process", None)):
        raise CheckpointError(
            f"snapshot decoded to {type(engine).__name__}, which is not an "
            "engine (no process() method)"
        )
    return engine


# ----------------------------------------------------------------------
# Multi-pattern framing (per-pattern state frames inside one snapshot)
# ----------------------------------------------------------------------
def is_multi_snapshot(blob: bytes) -> bool:
    """Whether ``blob`` is a :func:`snapshot_multi_state` frame."""
    return isinstance(blob, (bytes, bytearray)) and bytes(blob).startswith(
        MULTI_SNAPSHOT_MAGIC
    )


def snapshot_multi_state(meta_blob: bytes, frames: Dict[str, bytes]) -> bytes:
    """Frame per-pattern engine blobs plus shared meta state into one blob.

    ``frames`` maps each registered pattern's id to a
    :func:`snapshot_engine` frame of its adaptive engine, so a single
    pattern's state stays individually restorable with
    :func:`restore_engine`.  ``meta_blob`` is the multi-pattern engine's
    opaque shared state (pattern registry, shared-prefix groups with their
    prefix engines, the statistics hub).
    """
    if not isinstance(meta_blob, (bytes, bytearray)):
        raise CheckpointError(
            f"multi snapshot meta must be bytes, got {type(meta_blob).__name__}"
        )
    frames = {key: bytes(frame) for key, frame in frames.items()}
    for key, frame in frames.items():
        if not frame.startswith(SNAPSHOT_MAGIC):
            raise CheckpointError(
                f"pattern frame {key!r} is not a snapshot_engine() frame"
            )
    try:
        payload = pickle.dumps(
            (bytes(meta_blob), frames), protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception as exc:  # pragma: no cover - frames are already bytes
        raise CheckpointError(f"multi snapshot is not picklable: {exc}") from exc
    header = MULTI_SNAPSHOT_MAGIC + bytes([MULTI_SNAPSHOT_VERSION])
    return header + payload


def restore_multi_state(blob: bytes) -> Tuple[bytes, Dict[str, bytes]]:
    """Unframe a :func:`snapshot_multi_state` blob → ``(meta_blob, frames)``."""
    if not isinstance(blob, (bytes, bytearray)):
        raise CheckpointError(
            f"multi snapshot must be bytes, got {type(blob).__name__}"
        )
    blob = bytes(blob)
    prefix_length = len(MULTI_SNAPSHOT_MAGIC) + 1
    if len(blob) <= prefix_length or not blob.startswith(MULTI_SNAPSHOT_MAGIC):
        raise CheckpointError(
            "not a multi-pattern snapshot (bad magic); was this blob produced "
            "by snapshot_multi_state()?"
        )
    version = blob[len(MULTI_SNAPSHOT_MAGIC)]
    if version != MULTI_SNAPSHOT_VERSION:
        raise CheckpointError(
            f"multi-pattern snapshot version {version} is not supported by "
            f"this library build (expected {MULTI_SNAPSHOT_VERSION})"
        )
    try:
        meta_blob, frames = pickle.loads(blob[prefix_length:])
    except Exception as exc:
        raise CheckpointError(f"corrupt multi-pattern snapshot: {exc}") from exc
    if not isinstance(meta_blob, bytes) or not isinstance(frames, dict):
        raise CheckpointError(
            "multi-pattern snapshot decoded to an unexpected layout"
        )
    return meta_blob, frames


# ----------------------------------------------------------------------
# Multi-shard framing (the multi-core streaming worker backends)
# ----------------------------------------------------------------------
def is_shard_snapshot(blob: bytes) -> bool:
    """Whether ``blob`` is a :func:`snapshot_shard_states` frame."""
    return isinstance(blob, (bytes, bytearray)) and bytes(blob).startswith(
        SHARD_SNAPSHOT_MAGIC
    )


def snapshot_shard_states(
    shard_blobs: Sequence[bytes], meta: Optional[Dict[str, Any]] = None
) -> bytes:
    """Frame per-shard engine blobs (plus coordinator metadata) into one blob.

    The multi-core streaming backends checkpoint one engine replica per
    worker; a consistent cut is the *set* of replica snapshots taken at a
    queue barrier, together with the coordinator state that routes events
    and deduplicates matches (partitioner, dedup filter, queue high-water
    marks).  Each entry of ``shard_blobs`` must itself be a
    :func:`snapshot_engine` frame, so a shard can be restored individually
    with :func:`restore_engine`.
    """
    blobs = [bytes(blob) for blob in shard_blobs]
    if not blobs:
        raise CheckpointError("a shard snapshot needs at least one shard blob")
    for index, blob in enumerate(blobs):
        if not blob.startswith(SNAPSHOT_MAGIC) and not blob.startswith(
            MULTI_SNAPSHOT_MAGIC
        ):
            raise CheckpointError(
                f"shard {index} blob is not a snapshot_engine() frame"
            )
    try:
        payload = pickle.dumps(
            (blobs, dict(meta or {})), protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception as exc:
        raise CheckpointError(
            f"shard snapshot metadata is not picklable: {exc}"
        ) from exc
    header = SHARD_SNAPSHOT_MAGIC + bytes([SHARD_SNAPSHOT_VERSION])
    return header + payload


def restore_shard_states(blob: bytes) -> Tuple[List[bytes], Dict[str, Any]]:
    """Unframe a :func:`snapshot_shard_states` blob → ``(shard_blobs, meta)``."""
    if not isinstance(blob, (bytes, bytearray)):
        raise CheckpointError(
            f"shard snapshot must be bytes, got {type(blob).__name__}"
        )
    blob = bytes(blob)
    prefix_length = len(SHARD_SNAPSHOT_MAGIC) + 1
    if len(blob) <= prefix_length or not blob.startswith(SHARD_SNAPSHOT_MAGIC):
        raise CheckpointError(
            "not a shard snapshot (bad magic); was this blob produced by "
            "snapshot_shard_states()?"
        )
    version = blob[len(SHARD_SNAPSHOT_MAGIC)]
    if version != SHARD_SNAPSHOT_VERSION:
        raise CheckpointError(
            f"shard snapshot version {version} is not supported by this "
            f"library build (expected {SHARD_SNAPSHOT_VERSION})"
        )
    try:
        blobs, meta = pickle.loads(blob[prefix_length:])
    except Exception as exc:
        raise CheckpointError(f"corrupt shard snapshot: {exc}") from exc
    if not isinstance(blobs, list) or not isinstance(meta, dict):
        raise CheckpointError("shard snapshot decoded to an unexpected layout")
    return blobs, meta


# ----------------------------------------------------------------------
# Ordering-stage framing (event-time watermarks & the reorder buffer)
# ----------------------------------------------------------------------
def is_ordering_snapshot(blob: bytes) -> bool:
    """Whether ``blob`` is a :func:`snapshot_ordering_state` frame."""
    return isinstance(blob, (bytes, bytearray)) and bytes(blob).startswith(
        ORDERING_SNAPSHOT_MAGIC
    )


def snapshot_ordering_state(state: Dict[str, Any]) -> bytes:
    """Frame a pipeline's in-flight ordering state into one durable blob.

    A pipeline with an event-time ordering stage holds events *outside* the
    engine at a checkpoint cut: the reorder buffer's pending heap (admitted
    but not yet released by the watermark) and the staging buffer's released
    but not yet processed events.  Both must survive a kill, or the resumed
    run would either lose them (the source offset is past them) or replay
    them out of order — so they are framed here and carried inside the
    :class:`~repro.streaming.checkpoint.Checkpoint`.  ``state`` maps
    ``"ordering"`` to the :class:`~repro.streaming.ordering.ReorderBuffer`
    and ``"staged"`` to the staged event list.
    """
    if "ordering" not in state:
        raise CheckpointError("ordering snapshot requires an 'ordering' entry")
    try:
        payload = pickle.dumps(dict(state), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"ordering state is not picklable (watermark extractors and late "
            f"side-output sinks must be module-level callables or methods of "
            f"picklable objects, not closures over open files): {exc}"
        ) from exc
    header = ORDERING_SNAPSHOT_MAGIC + bytes([ORDERING_SNAPSHOT_VERSION])
    return header + payload


def restore_ordering_state(blob: bytes) -> Dict[str, Any]:
    """Unframe a :func:`snapshot_ordering_state` blob back into its state dict."""
    if not isinstance(blob, (bytes, bytearray)):
        raise CheckpointError(
            f"ordering snapshot must be bytes, got {type(blob).__name__}"
        )
    blob = bytes(blob)
    prefix_length = len(ORDERING_SNAPSHOT_MAGIC) + 1
    if len(blob) <= prefix_length or not blob.startswith(ORDERING_SNAPSHOT_MAGIC):
        raise CheckpointError(
            "not an ordering snapshot (bad magic); was this blob produced by "
            "snapshot_ordering_state()?"
        )
    version = blob[len(ORDERING_SNAPSHOT_MAGIC)]
    if version != ORDERING_SNAPSHOT_VERSION:
        raise CheckpointError(
            f"ordering snapshot version {version} is not supported by this "
            f"library build (expected {ORDERING_SNAPSHOT_VERSION})"
        )
    try:
        state = pickle.loads(blob[prefix_length:])
    except Exception as exc:
        raise CheckpointError(f"corrupt ordering snapshot: {exc}") from exc
    if not isinstance(state, dict) or "ordering" not in state:
        raise CheckpointError("ordering snapshot decoded to an unexpected layout")
    return state


# ----------------------------------------------------------------------
# Delta framing (incremental checkpoints — repro.streaming.delta)
# ----------------------------------------------------------------------
def is_delta_snapshot(blob: bytes) -> bool:
    """Whether ``blob`` is a :func:`snapshot_delta_state` frame."""
    return isinstance(blob, (bytes, bytearray)) and bytes(blob).startswith(
        DELTA_SNAPSHOT_MAGIC
    )


def snapshot_delta_state(payload: Dict[str, Any]) -> bytes:
    """Frame one incremental-checkpoint delta into a durable blob.

    ``payload`` is the per-epoch delta produced by
    :class:`repro.streaming.delta.DeltaTracker`: a ``streams`` map of
    per-stream skeleton blobs and keyed-collection diffs, the epoch lineage
    (``epoch`` / ``since_epoch``) and optional coordinator metadata.  The
    frame is ``magic + version + CRC32 + pickled payload``; the CRC covers
    the payload, so a torn append-only delta file fails loudly on restore
    (and the chain falls back to its longest intact prefix) instead of
    unpickling garbage state.
    """
    if not isinstance(payload, dict) or "streams" not in payload:
        raise CheckpointError("a delta frame requires a 'streams' entry")
    try:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(f"delta payload is not picklable: {exc}") from exc
    header = DELTA_SNAPSHOT_MAGIC + bytes([DELTA_SNAPSHOT_VERSION])
    return header + struct.pack("<I", zlib.crc32(body)) + body


def restore_delta_state(blob: bytes) -> Dict[str, Any]:
    """Unframe (and CRC-check) a :func:`snapshot_delta_state` blob."""
    if not isinstance(blob, (bytes, bytearray)):
        raise CheckpointError(
            f"delta snapshot must be bytes, got {type(blob).__name__}"
        )
    blob = bytes(blob)
    prefix_length = len(DELTA_SNAPSHOT_MAGIC) + 1 + 4
    if len(blob) <= prefix_length or not blob.startswith(DELTA_SNAPSHOT_MAGIC):
        raise CheckpointError(
            "not a delta snapshot (bad magic); was this blob produced by "
            "snapshot_delta_state()?"
        )
    version = blob[len(DELTA_SNAPSHOT_MAGIC)]
    if version != DELTA_SNAPSHOT_VERSION:
        raise CheckpointError(
            f"delta snapshot version {version} is not supported by this "
            f"library build (expected {DELTA_SNAPSHOT_VERSION})"
        )
    crc_offset = len(DELTA_SNAPSHOT_MAGIC) + 1
    (expected_crc,) = struct.unpack_from("<I", blob, crc_offset)
    body = blob[prefix_length:]
    if zlib.crc32(body) != expected_crc:
        raise CheckpointError(
            "delta snapshot failed its CRC check (torn or corrupted frame)"
        )
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(f"corrupt delta snapshot: {exc}") from exc
    if not isinstance(payload, dict) or "streams" not in payload:
        raise CheckpointError("delta snapshot decoded to an unexpected layout")
    return payload
