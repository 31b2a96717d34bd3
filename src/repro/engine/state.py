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
with the library is picklable — the process worker backend ships its shard
replicas the same way — and the same caveat applies: user-supplied
conditions must be module-level classes or functions, not closures.

Every blob is framed as ``magic + one version byte [+ CRC32] + pickled
payload`` so that a checkpoint written by an incompatible library version
fails loudly instead of unpickling garbage state.  Five frame kinds share
that one layout (:func:`_frame` / :func:`_unframe`); a kind's version is
bumped whenever its payload layout changes incompatibly.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckpointError

#: One engine's whole object graph — :func:`snapshot_engine`.
SNAPSHOT_MAGIC = b"repro-engine-state"
SNAPSHOT_VERSION = 1

#: One engine blob per worker replica plus coordinator metadata —
#: :func:`snapshot_shard_states`.
SHARD_SNAPSHOT_MAGIC = b"repro-shard-states"
SHARD_SNAPSHOT_VERSION = 1

#: One engine blob per registered pattern plus the shared meta state —
#: :func:`snapshot_multi_state`.
MULTI_SNAPSHOT_MAGIC = b"repro-multi-state"
MULTI_SNAPSHOT_VERSION = 1

#: The reorder buffer plus staged events — :func:`snapshot_ordering_state`.
ORDERING_SNAPSHOT_MAGIC = b"repro-ordering-state"
ORDERING_SNAPSHOT_VERSION = 1

#: The keyed collections changed since the previous epoch plus the
#: re-pickled skeleton, CRC-protected — :func:`snapshot_delta_state` and
#: :mod:`repro.streaming.delta`.
DELTA_SNAPSHOT_MAGIC = b"repro-delta-state"
DELTA_SNAPSHOT_VERSION = 1


def _dumps(payload: object, complaint: str) -> bytes:
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(f"{complaint}: {exc}") from exc


def _frame(magic: bytes, version: int, body: bytes, crc: bool = False) -> bytes:
    header = magic + bytes([version])
    if crc:
        header += struct.pack("<I", zlib.crc32(body))
    return header + body


def _unframe(
    kind: str, magic: bytes, version: int, blob: bytes, crc: bool = False
) -> Any:
    """Validate one frame (type, magic, version, CRC32) and unpickle its payload."""
    if not isinstance(blob, (bytes, bytearray)):
        raise CheckpointError(
            f"{kind} snapshot must be bytes, got {type(blob).__name__}"
        )
    body_offset = len(magic) + 1 + (4 if crc else 0)
    if len(blob) <= body_offset or not blob.startswith(magic):
        raise CheckpointError(
            f"not a valid {kind} snapshot (bad magic or truncated header)"
        )
    if blob[len(magic)] != version:
        raise CheckpointError(
            f"{kind} snapshot version {blob[len(magic)]} is not supported by "
            f"this library build (expected {version})"
        )
    body = memoryview(blob)[body_offset:]
    if crc and zlib.crc32(body) != struct.unpack_from("<I", blob, len(magic) + 1)[0]:
        raise CheckpointError(
            f"{kind} snapshot failed its CRC check (torn or corrupted frame)"
        )
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(f"corrupt {kind} snapshot: {exc}") from exc


def _has_magic(blob: bytes, magic: bytes) -> bool:
    return isinstance(blob, (bytes, bytearray)) and blob.startswith(magic)


def _pair(kind: str, payload: Any, first: type, second: type) -> Tuple[Any, Any]:
    """The ``(first, second)`` payload of the multi-pattern and shard frames."""
    if not (
        isinstance(payload, tuple)
        and len(payload) == 2
        and isinstance(payload[0], first)
        and isinstance(payload[1], second)
    ):
        raise CheckpointError(f"{kind} snapshot decoded to an unexpected layout")
    return payload


def _require_engine(engine: object, complaint: str) -> None:
    if not callable(getattr(engine, "process", None)):
        raise CheckpointError(
            f"{complaint} {type(engine).__name__}: not an engine "
            "(no process() method)"
        )


def snapshot_engine(engine: object) -> bytes:
    """Serialize a runtime engine (and all of its mutable state) to bytes.

    Works for any of the engine facades — sequential, multi-pattern or the
    parallel sharded engine — because the whole object graph is captured.
    Engines exposing ``multi_state_frames()`` (the multi-pattern engine)
    are framed as per-pattern snapshots instead — see
    :func:`snapshot_multi_state` — so individual pattern states stay
    independently restorable.
    """
    _require_engine(engine, "cannot snapshot")
    frames_hook = getattr(engine, "multi_state_frames", None)
    if callable(frames_hook):
        return snapshot_multi_state(*frames_hook())
    body = _dumps(
        engine,
        "engine state is not picklable (user-supplied conditions must be "
        "module-level classes or functions, not closures)",
    )
    return _frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, body)


def restore_engine(blob: bytes) -> object:
    """Rebuild an engine from a :func:`snapshot_engine` blob."""
    if is_multi_snapshot(blob):
        # Multi-pattern frames restore through the multi-pattern engine,
        # which re-wires the shared-prefix groups and statistics hub.
        from repro.engine.multi_pattern import MultiPatternEngine

        return MultiPatternEngine.restore_state(bytes(blob))
    engine = _unframe("engine", SNAPSHOT_MAGIC, SNAPSHOT_VERSION, blob)
    _require_engine(engine, "snapshot decoded to")
    return engine


def is_multi_snapshot(blob: bytes) -> bool:
    """Whether ``blob`` is a :func:`snapshot_multi_state` frame."""
    return _has_magic(blob, MULTI_SNAPSHOT_MAGIC)


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
    body = _dumps((bytes(meta_blob), frames), "multi snapshot is not picklable")
    return _frame(MULTI_SNAPSHOT_MAGIC, MULTI_SNAPSHOT_VERSION, body)


def restore_multi_state(blob: bytes) -> Tuple[bytes, Dict[str, bytes]]:
    """Unframe a :func:`snapshot_multi_state` blob → ``(meta_blob, frames)``."""
    payload = _unframe(
        "multi-pattern", MULTI_SNAPSHOT_MAGIC, MULTI_SNAPSHOT_VERSION, blob
    )
    return _pair("multi-pattern", payload, bytes, dict)


def is_shard_snapshot(blob: bytes) -> bool:
    """Whether ``blob`` is a :func:`snapshot_shard_states` frame."""
    return _has_magic(blob, SHARD_SNAPSHOT_MAGIC)


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
        if not blob.startswith((SNAPSHOT_MAGIC, MULTI_SNAPSHOT_MAGIC)):
            raise CheckpointError(
                f"shard {index} blob is not a snapshot_engine() frame"
            )
    body = _dumps(
        (blobs, dict(meta or {})), "shard snapshot metadata is not picklable"
    )
    return _frame(SHARD_SNAPSHOT_MAGIC, SHARD_SNAPSHOT_VERSION, body)


def restore_shard_states(blob: bytes) -> Tuple[List[bytes], Dict[str, Any]]:
    """Unframe a :func:`snapshot_shard_states` blob → ``(shard_blobs, meta)``."""
    payload = _unframe("shard", SHARD_SNAPSHOT_MAGIC, SHARD_SNAPSHOT_VERSION, blob)
    return _pair("shard", payload, list, dict)


def is_ordering_snapshot(blob: bytes) -> bool:
    """Whether ``blob`` is a :func:`snapshot_ordering_state` frame."""
    return _has_magic(blob, ORDERING_SNAPSHOT_MAGIC)


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
    body = _dumps(
        dict(state),
        "ordering state is not picklable (watermark extractors and late "
        "side-output sinks must be module-level callables or methods of "
        "picklable objects, not closures over open files)",
    )
    return _frame(ORDERING_SNAPSHOT_MAGIC, ORDERING_SNAPSHOT_VERSION, body)


def restore_ordering_state(blob: bytes) -> Dict[str, Any]:
    """Unframe a :func:`snapshot_ordering_state` blob back into its state dict."""
    state = _unframe(
        "ordering", ORDERING_SNAPSHOT_MAGIC, ORDERING_SNAPSHOT_VERSION, blob
    )
    if not isinstance(state, dict) or "ordering" not in state:
        raise CheckpointError("ordering snapshot decoded to an unexpected layout")
    return state


def is_delta_snapshot(blob: bytes) -> bool:
    """Whether ``blob`` is a :func:`snapshot_delta_state` frame."""
    return _has_magic(blob, DELTA_SNAPSHOT_MAGIC)


def snapshot_delta_state(payload: Dict[str, Any]) -> bytes:
    """Frame one incremental-checkpoint delta into a durable blob.

    ``payload`` is the per-epoch delta produced by
    :class:`repro.streaming.delta.DeltaTracker`: a ``streams`` map of
    per-stream skeleton blobs and keyed-collection diffs, the epoch lineage
    (``epoch`` / ``since_epoch``) and optional coordinator metadata.  The
    CRC covers the pickled payload, so a torn append-only delta file fails
    loudly on restore (and the chain falls back to its longest intact
    prefix) instead of unpickling garbage state.
    """
    if not isinstance(payload, dict) or "streams" not in payload:
        raise CheckpointError("a delta frame requires a 'streams' entry")
    body = _dumps(payload, "delta payload is not picklable")
    return _frame(DELTA_SNAPSHOT_MAGIC, DELTA_SNAPSHOT_VERSION, body, crc=True)


def restore_delta_state(blob: bytes) -> Dict[str, Any]:
    """Unframe (and CRC-check) a :func:`snapshot_delta_state` blob."""
    payload = _unframe(
        "delta", DELTA_SNAPSHOT_MAGIC, DELTA_SNAPSHOT_VERSION, blob, crc=True
    )
    if not isinstance(payload, dict) or "streams" not in payload:
        raise CheckpointError("delta snapshot decoded to an unexpected layout")
    return payload
