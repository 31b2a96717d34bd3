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
conditions must be module-level classes or functions, not closures.  Every
backend checkpoints its engine as one engine frame: a worker backend
folds its workers' replicas back into the
:class:`~repro.parallel.ParallelCEPEngine` it hosts and snapshots that, so
a checkpoint resumes under either backend.

Every blob is framed as ``magic + one version byte [+ CRC32] + pickled
payload`` so that a checkpoint written by an incompatible library version
fails loudly instead of unpickling garbage state.  Three frame kinds —
engine, ordering and delta — share that one layout (:func:`_frame` /
:func:`_unframe`); a kind's version is bumped whenever its payload layout
changes incompatibly.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Dict

from repro.errors import CheckpointError

#: One engine's whole object graph — :func:`snapshot_engine`.
SNAPSHOT_MAGIC = b"repro-engine-state"
SNAPSHOT_VERSION = 1

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


def _require_engine(engine: object, complaint: str) -> None:
    if not callable(getattr(engine, "process", None)):
        raise CheckpointError(
            f"{complaint} {type(engine).__name__}: not an engine "
            "(no process() method)"
        )


def snapshot_engine(engine: object) -> bytes:
    """Serialize a runtime engine (and all of its mutable state) to bytes.

    Works for any of the engine facades — sequential, multi-pattern or the
    parallel sharded engine — because the whole object graph is captured;
    a multi-pattern engine's ``__setstate__`` re-wires its shared-prefix
    groups and statistics hub on restore.
    """
    _require_engine(engine, "cannot snapshot")
    body = _dumps(
        engine,
        "engine state is not picklable (user-supplied conditions must be "
        "module-level classes or functions, not closures)",
    )
    return _frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, body)


def restore_engine(blob: bytes) -> object:
    """Rebuild an engine from a :func:`snapshot_engine` blob."""
    engine = _unframe("engine", SNAPSHOT_MAGIC, SNAPSHOT_VERSION, blob)
    _require_engine(engine, "snapshot decoded to")
    return engine


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
    (``epoch`` / ``since_epoch``) and an unused ``meta`` entry.  The
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
