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
belongs to the execution backend hosting the engine: it creates one when
it cuts a base and drops it when it restores, so the engines themselves
carry no delta API and no tracking state.  A worker backend tracks the
:class:`~repro.parallel.ParallelCEPEngine` it folds its workers' replicas
back into, so worker processes hold no tracker and both backends write the
same frames.

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
    restore_delta_state,
    restore_engine,
    snapshot_delta_state,
    snapshot_engine,
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
    *outside* the tracked object, owned by the execution backend hosting
    it (a worker backend tracks its template
    :class:`~repro.parallel.ParallelCEPEngine`, whose slots cover every
    shard replica and the deduplicator), so full snapshots of the object
    never carry tracking state.
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

    def encode_frame(self, since_epoch: Optional[int], epoch: int) -> bytes:
        """A framed delta of the tracked object (its one ``engine`` stream).

        The ``streams`` map and the empty ``meta`` entry keep the layout
        every stored delta frame has.
        """
        payload = self.encode_payload(since_epoch, epoch)
        return snapshot_delta_state(
            {
                "streams": {"engine": payload},
                "meta": None,
                "epoch": int(epoch),
                "since_epoch": since_epoch,
            }
        )


# ----------------------------------------------------------------------
# Chain replay (the checkpoint store's restore path)
# ----------------------------------------------------------------------
def materialize_engine_blob(base_engine_blob: bytes, frames: List[bytes]) -> bytes:
    """Fold a base engine blob plus chained delta frames into a full blob.

    The base's collections are the chain start; every frame's diffs apply
    in epoch order and the newest frame's skeleton receives the result.
    The restored base graph has exactly the aliasing of the live engine
    the tracker primed on (pickle preserves identity within one blob), so
    enumerating its frozen roots yields the same token numbering the
    deltas' skeletons were encoded with.  The result is a plain
    :func:`~repro.engine.state.snapshot_engine` frame — exactly what an
    execution backend's ``restore()`` already understands.
    """
    if not frames:
        return base_engine_blob
    base = restore_engine(base_engine_blob)
    cold_objects = frozen_roots(base)
    _skeleton, live = extract_keyed_state(base)
    collections = {name: _copy_collection(value) for name, value in live.items()}
    for frame in frames:
        stream = restore_delta_state(frame)["streams"].get("engine")
        if stream is None:
            raise CheckpointError("delta frame holds no engine stream")
        previous = {} if stream["kind"] == "base" else collections
        # Names absent from this epoch (e.g. a drained migration engine)
        # are dropped — the skeleton no longer has a slot for them.
        collections = {
            name: _apply_collection(entry, previous.get(name))
            for name, entry in stream["collections"].items()
        }
    kinds = {name: entry["kind"] for name, entry in stream["collections"].items()}
    engine = inject_keyed_state(
        stream["skeleton"],
        collections,
        cold_objects if stream["cold"] else None,
        kinds,
    )
    return snapshot_engine(engine)
