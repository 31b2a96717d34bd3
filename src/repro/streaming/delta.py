"""Incremental (differential) engine-state snapshots.

A full checkpoint pickles the whole engine object graph (see
:mod:`repro.engine.state`).  That is simple and correct, but at a high
checkpoint cadence it is wasteful: profiling shows the overwhelming
majority of a long-running engine's state lives in a handful of *keyed
collections* that evolve incrementally — the emitted-match signature sets
of the evaluation engines and the duplicate-suppression signature map of
the sharded merger — while everything else (pattern, plans, statistics
buckets, partial-match buffers, adaptation state) is small.

Byte-level diffing of the full pickle does **not** work: removing one
element early in the object graph renumbers every later pickle memo
reference, so consecutive snapshots share almost no bytes (measured ~0%
chunk reuse under sliding-window eviction).  Instead, a delta snapshot is
taken at the object level:

* every engine exposes ``_delta_keyed_state()`` — the change-tracking API
  listing its big keyed collections as ``(name, holder, attribute)``
  slots (nested engines prefix their children's names, so a sharded
  engine exposes ``shard0.active.emitted`` and so on);
* the tracked collections are swapped out for a sentinel and the
  remaining object graph — the *skeleton* — is pickled whole (cheap, and
  aliasing inside the skeleton is preserved exactly because it is one
  pickle);
* each tracked collection is diffed against the copy remembered at the
  previous epoch: the delta ships only added/removed set elements and
  inserted/updated/deleted map entries.

The remembered copies live in a :class:`DeltaTracker`, and the tracker
belongs to whatever hosts the tracked object — the execution backend
creates one when it cuts a base and drops it when it restores — so the
engines themselves carry no delta API and no tracking state.

Replaying a chain — the base snapshot's collections plus every delta in
epoch order, injected into the newest delta's skeleton — rebuilds the
exact engine state of the newest epoch (a property the Hypothesis suite
enforces at every epoch).  Frames are written with a magic string, a
format version and a CRC32 (:func:`repro.engine.state.snapshot_delta_state`),
so torn or corrupted delta files fail loudly and the checkpoint store can
fall back to the longest intact chain prefix.
"""

from __future__ import annotations

import io
import pickle
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.state import (
    is_shard_snapshot,
    restore_delta_state,
    restore_engine,
    restore_shard_states,
    snapshot_delta_state,
    snapshot_engine,
    snapshot_shard_states,
)
from repro.errors import CheckpointError


class _ExtractedSlot:
    """Sentinel standing in for a tracked collection inside a skeleton."""

    _instance: Optional["_ExtractedSlot"] = None

    def __new__(cls) -> "_ExtractedSlot":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self):
        return (_ExtractedSlot, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<extracted delta slot>"


EXTRACTED = _ExtractedSlot()


def delta_keyed_slots(target: object) -> List[Tuple[str, object, str]]:
    """The change-tracked collection slots of an engine (or merger) object.

    Resolved through the ``_delta_keyed_state()`` hook; every slot is a
    ``(name, holder, attribute)`` triple where ``getattr(holder, attribute)``
    is a ``set`` or ``dict``.  Names must be unique and deterministic for
    the same logical state — they key the per-epoch diffs.
    """
    hook = getattr(target, "_delta_keyed_state", None)
    if hook is None:
        raise CheckpointError(
            f"{type(target).__name__} does not support incremental snapshots "
            "(no _delta_keyed_state() change-tracking hook)"
        )
    # A collection reachable under several names (a shared prefix group's
    # selectivity estimators, which its members' collectors also hold) is
    # tracked once, under the first name that reaches it.
    slots: List[Tuple[str, object, str]] = []
    seen: set = set()
    for name, holder, attr in hook():
        if (id(holder), attr) not in seen:
            seen.add((id(holder), attr))
            slots.append((name, holder, attr))
    names = [name for name, _holder, _attr in slots]
    if len(set(names)) != len(names):
        raise CheckpointError(
            f"{type(target).__name__} reported duplicate delta slot names: "
            f"{sorted(names)}"
        )
    return slots


def supports_delta(target: object) -> bool:
    """Whether ``target`` implements the change-tracking hook."""
    return callable(getattr(target, "_delta_keyed_state", None))


def frozen_roots(target: object) -> List[object]:
    """The engine's immutable configuration roots, deduplicated by identity.

    Resolved through the optional ``_delta_frozen_state()`` hook: objects
    (pattern, evaluation plans, the stateless planner) that never mutate
    after construction.  Delta skeletons pickle references to them as tiny
    persistent-id tokens instead of re-serializing the objects at every
    epoch; restore resolves the tokens against the same enumeration over
    the restored base engine.  Enumeration must therefore be deterministic
    attribute navigation — never iteration over a set — and listing a
    *mutable* object here would silently resurrect its base-time state on
    restore.
    """
    hook = getattr(target, "_delta_frozen_state", None)
    roots: List[object] = []
    seen: set = set()
    if hook is not None:
        for obj in hook():
            if obj is not None and id(obj) not in seen:
                seen.add(id(obj))
                roots.append(obj)
    return roots


def extract_keyed_state(
    target: object, cold_ids: Optional[Dict[int, Tuple[str, int]]] = None
) -> Tuple[bytes, Dict[str, Any]]:
    """Split ``target`` into ``(skeleton_blob, collections)``.

    The tracked collections are swapped out for a sentinel, the remaining
    graph is pickled as one blob (so aliasing between skeleton components
    — e.g. the statistics collector shared by the migration engines — is
    preserved exactly), and the original collections are swapped back in
    before returning.  With ``cold_ids`` (object id → persistent token),
    references to the registered immutable roots are pickled as tokens
    instead of the objects themselves.  The returned collections are the
    *live* objects; callers must copy before retaining them.
    """
    slots = delta_keyed_slots(target)
    saved: List[Tuple[object, str, Any]] = []
    try:
        for _name, holder, attr in slots:
            value = getattr(holder, attr)
            if isinstance(value, _ExtractedSlot):
                raise CheckpointError(
                    f"slot {attr!r} of {type(holder).__name__} is already "
                    "extracted (re-entrant delta snapshot?)"
                )
            if not isinstance(value, (set, dict, deque)):
                raise CheckpointError(
                    f"delta slot {attr!r} of {type(holder).__name__} must be "
                    f"a set, dict or bucket deque, got {type(value).__name__}"
                )
            saved.append((holder, attr, value))
            setattr(holder, attr, EXTRACTED)
        try:
            if cold_ids:
                buffer = io.BytesIO()
                pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
                pickler.persistent_id = lambda obj: cold_ids.get(id(obj))
                pickler.dump(target)
                skeleton = buffer.getvalue()
            else:
                skeleton = pickle.dumps(target, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                f"engine skeleton is not picklable: {exc}"
            ) from exc
    finally:
        for holder, attr, value in saved:
            setattr(holder, attr, value)
    collections = {name: getattr(holder, attr) for name, holder, attr in slots}
    return skeleton, collections


def inject_keyed_state(
    skeleton: bytes,
    collections: Dict[str, Any],
    cold_objects: Optional[List[object]] = None,
    kinds: Optional[Dict[str, str]] = None,
) -> object:
    """Rebuild an object from a skeleton blob plus materialized collections."""

    def resolve(token):
        if (
            not isinstance(token, tuple)
            or len(token) != 2
            or token[0] != "cold"
            or cold_objects is None
            or not 0 <= token[1] < len(cold_objects)
        ):
            raise CheckpointError(
                f"delta skeleton references unknown cold object {token!r}; "
                "was the chain's base produced by an incompatible build?"
            )
        return cold_objects[token[1]]

    try:
        unpickler = pickle.Unpickler(io.BytesIO(skeleton))
        unpickler.persistent_load = resolve
        target = unpickler.load()
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"corrupt delta skeleton: {exc}") from exc
    slots = delta_keyed_slots(target)
    slot_names = {name for name, _holder, _attr in slots}
    missing = slot_names - set(collections)
    extra = set(collections) - slot_names
    if missing or extra:
        raise CheckpointError(
            "delta chain is inconsistent with the skeleton's slots "
            f"(missing={sorted(missing)}, unexpected={sorted(extra)})"
        )
    for name, holder, attr in slots:
        value = collections[name]
        kind = (kinds or {}).get(name) or _collection_kind(value)
        setattr(holder, attr, _restore_native(kind, value))
    return target


def _collection_kind(value: Any) -> str:
    if isinstance(value, set):
        return "set"
    if isinstance(value, deque):
        return "buckets"
    return "map"


def _as_mapping(value: Any) -> Any:
    """Normalize a tracked collection for diffing.

    Sets diff as sets; dicts as key→value maps; bucket deques — the
    sliding-window statistics counters' ``(bucket_start, count)`` runs,
    which append at the tail, update the newest bucket in place and expire
    at the head — normalize to a ``start → count`` map (starts are unique
    and ascending, so the deque reassembles exactly by sorting).
    """
    if isinstance(value, set):
        return set(value)
    if isinstance(value, deque):
        return dict(value)
    return dict(value)


def _restore_native(kind: str, value: Any) -> Any:
    if kind == "set":
        return set(value)
    if kind == "buckets":
        return deque(sorted(value.items()))
    return dict(value)


def _copy_collection(value: Any) -> Any:
    return _as_mapping(value)


def _diff_collection(prev: Optional[Any], current: Any) -> Dict[str, Any]:
    """One collection's per-epoch diff entry.

    Sets ship added/removed elements; maps (and bucket deques, normalized
    to maps) ship inserted-or-updated pairs and deleted keys.  When a diff
    would be larger than the collection itself (e.g. the positional slot
    name now refers to a different engine after a plan switch), the entry
    degrades to a self-contained ``reset``.
    """
    kind = _collection_kind(current)
    current_map = _as_mapping(current)
    if isinstance(current_map, set):
        if prev is None or not isinstance(prev, set):
            adds, dels, reset = list(current_map), [], True
        else:
            adds = list(current_map - prev)
            dels = list(prev - current_map)
            if len(adds) + len(dels) >= max(1, len(current_map)):
                adds, dels, reset = list(current_map), [], True
            else:
                reset = False
    else:
        if prev is None or isinstance(prev, set):
            adds, dels, reset = list(current_map.items()), [], True
        else:
            adds = [
                (key, value)
                for key, value in current_map.items()
                if key not in prev or prev[key] != value
            ]
            dels = [key for key in prev.keys() if key not in current_map]
            if len(adds) + len(dels) >= max(1, len(current_map)):
                adds, dels, reset = list(current_map.items()), [], True
            else:
                reset = False
    try:
        adds_blob = pickle.dumps(adds, protocol=pickle.HIGHEST_PROTOCOL)
        dels_blob = pickle.dumps(dels, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"delta collection elements are not picklable: {exc}"
        ) from exc
    return {"kind": kind, "reset": reset, "adds": adds_blob, "dels": dels_blob}


def _apply_collection(entry: Dict[str, Any], current: Optional[Any]) -> Any:
    adds = pickle.loads(entry["adds"])
    dels = pickle.loads(entry["dels"])
    if entry["kind"] == "set":
        value = set() if (entry["reset"] or not isinstance(current, set)) else current
        value.difference_update(dels)
        value.update(adds)
        return value
    value = {} if (entry["reset"] or not isinstance(current, dict)) else current
    for key in dels:
        value.pop(key, None)
    value.update(adds)
    return value


class DeltaTracker:
    """Change tracking for one live engine (or merger) object.

    One tracker accompanies one object through its life between two base
    snapshots: :meth:`prime` remembers the keyed-collection contents at a
    base epoch, and every :meth:`encode_payload` call ships the diff since
    the previous epoch and advances the remembered state.  Trackers live
    *outside* the tracked object, owned by whatever hosts it — the inline
    backend for its engine, the worker process for its shard replica, the
    process coordinator for the dedup filter — so full snapshots of the
    object never carry tracking state.
    """

    def __init__(self, target: object):
        delta_keyed_slots(target)  # validate the hook up front
        self._target = target
        self.epoch: Optional[int] = None
        self._prev: Optional[Dict[str, Any]] = None
        # Immutable roots captured at the base: strong references (so the
        # identity tokens stay valid) and their id → token map.
        self._cold_objects: List[object] = []
        self._cold_ids: Dict[int, Tuple[str, int]] = {}
        #: How the last encode came out: ``"delta"``, or ``"base"`` when
        #: continuity could not be proven (the host's degradation gauge).
        self.last_kind: Optional[str] = None

    def prime(self, epoch: int) -> None:
        """Remember the current collection contents as epoch ``epoch``."""
        self._prev = {
            name: _copy_collection(getattr(holder, attr))
            for name, holder, attr in delta_keyed_slots(self._target)
        }
        self._cold_objects = frozen_roots(self._target)
        self._cold_ids = {
            id(obj): ("cold", index)
            for index, obj in enumerate(self._cold_objects)
        }
        self.epoch = int(epoch)

    def encode_payload(self, since_epoch: Optional[int], epoch: int) -> Dict[str, Any]:
        """One stream's delta payload for ``since_epoch → epoch``.

        When the tracker cannot prove continuity (never primed, or
        ``since_epoch`` is not the epoch it last encoded) the payload is a
        self-contained ``base`` carrying the full collections — the chain
        stays correct, just bigger for that one frame.
        """
        continuous = (
            since_epoch is not None
            and self._prev is not None
            and self.epoch == since_epoch
        )
        self.last_kind = "delta" if continuous else "base"
        skeleton, collections = extract_keyed_state(
            self._target, self._cold_ids if continuous else None
        )
        entries = {}
        for name, value in collections.items():
            prev = self._prev.get(name) if continuous else None
            if prev is not None and isinstance(prev, set) != isinstance(value, set):
                prev = None
            entries[name] = _diff_collection(prev, value)
        payload = {
            "kind": "delta" if continuous else "base",
            "since_epoch": since_epoch if continuous else None,
            "epoch": int(epoch),
            "skeleton": skeleton,
            "cold": bool(continuous and self._cold_ids),
            "collections": entries,
        }
        self._prev = {name: _copy_collection(value) for name, value in collections.items()}
        self.epoch = int(epoch)
        return payload

    def encode_frame(
        self, since_epoch: Optional[int], epoch: int, stream: str = "engine"
    ) -> bytes:
        """A framed single-stream delta of the tracked object."""
        payload = self.encode_payload(since_epoch, epoch)
        return snapshot_delta_state(
            {
                "streams": {stream: payload},
                "meta": None,
                "epoch": int(epoch),
                "since_epoch": since_epoch,
            }
        )


# ----------------------------------------------------------------------
# Chain replay (the checkpoint store's restore path)
# ----------------------------------------------------------------------
class DeltaChainMaterializer:
    """Replays ``base + deltas`` back into a full engine-state blob."""

    def __init__(self) -> None:
        self._streams: Dict[str, Dict[str, Any]] = {}
        self._meta_blob: Optional[bytes] = None

    def seed(self, stream: str, target: object) -> None:
        """Adopt a restored base object's collections as the chain start.

        The restored base graph has exactly the aliasing of the live engine
        the tracker primed on (pickle preserves identity within one blob),
        so enumerating its frozen roots yields the same token numbering the
        deltas' skeletons were encoded with.
        """
        _skeleton, collections = extract_keyed_state(target)
        self._streams[stream] = {
            "collections": {
                name: _copy_collection(value) for name, value in collections.items()
            },
            "kinds": {
                name: _collection_kind(value) for name, value in collections.items()
            },
            "skeleton": None,
            "cold_objects": frozen_roots(target),
            "cold": False,
        }

    def apply_frame(self, frame: bytes) -> Dict[str, Any]:
        payload = restore_delta_state(frame)
        for stream, stream_payload in payload["streams"].items():
            self._apply_stream(stream, stream_payload)
        meta_blob = payload.get("meta")
        if meta_blob is not None:
            self._meta_blob = meta_blob
        return payload

    def _apply_stream(self, stream: str, payload: Dict[str, Any]) -> None:
        entry = self._streams.setdefault(
            stream,
            {
                "collections": {},
                "kinds": {},
                "skeleton": None,
                "cold_objects": [],
                "cold": False,
            },
        )
        if payload.get("kind") == "base":
            entry["collections"] = {}
        previous = entry["collections"]
        updated: Dict[str, Any] = {}
        kinds: Dict[str, str] = {}
        for name, collection_entry in payload["collections"].items():
            updated[name] = _apply_collection(collection_entry, previous.get(name))
            kinds[name] = collection_entry["kind"]
        # Names absent from this epoch (e.g. a drained migration engine)
        # are dropped — the skeleton no longer has a slot for them.
        entry["collections"] = updated
        entry["kinds"] = kinds
        entry["skeleton"] = payload["skeleton"]
        entry["cold"] = bool(payload.get("cold"))

    def materialize(self, stream: str) -> object:
        entry = self._streams.get(stream)
        if entry is None or entry["skeleton"] is None:
            raise CheckpointError(
                f"delta chain holds no skeleton for stream {stream!r}"
            )
        cold_objects = entry["cold_objects"] if entry["cold"] else None
        if entry["cold"] and not cold_objects:
            raise CheckpointError(
                f"delta chain for stream {stream!r} references cold objects "
                "but its base provided none"
            )
        return inject_keyed_state(
            entry["skeleton"], entry["collections"], cold_objects, entry["kinds"]
        )

    @property
    def streams(self) -> List[str]:
        return sorted(self._streams)

    @property
    def meta_blob(self) -> Optional[bytes]:
        return self._meta_blob


def materialize_engine_blob(base_engine_blob: bytes, frames: List[bytes]) -> bytes:
    """Fold a base engine blob plus chained delta frames into a full blob.

    The result is a plain :func:`~repro.engine.state.snapshot_engine` (or
    :func:`~repro.engine.state.snapshot_shard_states`) frame — exactly what
    an execution backend's ``restore()`` already understands, so resuming
    from a delta chain needs no new restore paths downstream.
    """
    if not frames:
        return base_engine_blob
    materializer = DeltaChainMaterializer()
    if is_shard_snapshot(base_engine_blob):
        shard_blobs, meta = restore_shard_states(base_engine_blob)
        for shard_id, shard_blob in enumerate(shard_blobs):
            materializer.seed(f"shard:{shard_id}", restore_engine(shard_blob))
        dedup = meta.get("dedup")
        if dedup is not None and supports_delta(dedup):
            materializer.seed("dedup", dedup)
        num_shards: Optional[int] = len(shard_blobs)
        base_meta: Optional[Dict[str, Any]] = meta
    else:
        materializer.seed("engine", restore_engine(base_engine_blob))
        num_shards = None
        base_meta = None
    for frame in frames:
        materializer.apply_frame(frame)
    shard_streams = [s for s in materializer.streams if s.startswith("shard:")]
    if not shard_streams:
        return snapshot_engine(materializer.materialize("engine"))
    if num_shards is None:
        num_shards = len(shard_streams)
    blobs = [
        snapshot_engine(materializer.materialize(f"shard:{shard_id}"))
        for shard_id in range(num_shards)
    ]
    if materializer.meta_blob is not None:
        try:
            meta = pickle.loads(materializer.meta_blob)
        except Exception as exc:
            raise CheckpointError(f"corrupt delta coordinator meta: {exc}") from exc
    else:
        meta = dict(base_meta or {})
    if "dedup" in materializer.streams:
        meta["dedup"] = materializer.materialize("dedup")
    return snapshot_shard_states(blobs, meta)
