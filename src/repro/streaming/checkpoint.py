"""Durable pipeline checkpoints (full snapshots and incremental chains).

A checkpoint captures a consistent cut of the pipeline at an event
boundary: the number of source records consumed, the serialized engine
state (open partial matches, statistics, adaptation state — see
:mod:`repro.engine.state`) and each sink's position marker.  A resumed
pipeline restores all three and asks the source to skip the consumed
prefix, so a kill between checkpoints costs only the re-processing of the
post-checkpoint suffix — never lost or duplicated matches.

Pipelines with an event-time ordering stage additionally capture the
in-flight reorder state (``ordering_blob``: the watermark, the pending
reorder heap and the released-but-unprocessed staged events) together with
the raw source offset ``records_ingested`` — with out-of-order ingestion
the processed events are no longer a prefix of the source, so the buffered
difference must travel inside the checkpoint for kill/resume to stay
exactly-once.  Both fields default to their pre-ordering values, so
checkpoints written by older pipelines keep loading.

The store is an **epoch log** of two file kinds.  In full mode every save
is a self-contained ``checkpoint-NNNNNNNNN.pkl`` (the original behaviour —
and pre-existing directories restore unchanged).  In delta mode the
pipeline writes a full *base* checkpoint every K deltas and append-only
``delta-NNNNNNNNN.pkl`` records between them, each holding a CRC-framed
:mod:`repro.streaming.delta` frame of only the state changed since the
previous epoch.  The files are the chain: indices grow monotonically, so
each delta belongs to the nearest preceding base, and the ``base_index`` /
epoch lineage every delta carries is checked at replay.  ``latest()``
replays ``base + deltas`` back into a plain checkpoint (falling back
chain-by-chain, and within a chain to the longest intact,
lineage-consistent prefix, when files are torn, corrupt or stray), and
pruning retires whole chains oldest-first.

All files are written atomically (temp file + ``os.replace``); temp files
orphaned by a death mid-write are swept when the store is opened.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import CheckpointError
from repro.streaming.delta import materialize_engine_blob

_CHECKPOINT_PATTERN = re.compile(r"^checkpoint-(\d{9})\.pkl$")
_DELTA_PATTERN = re.compile(r"^delta-(\d{9})\.pkl$")
_TEMP_PREFIXES = (".checkpoint-", ".delta-")

#: How many most-recent checkpoint *chains* a store retains (in full mode a
#: chain is a single checkpoint; in delta mode a base plus its deltas).
KEEP_CHAINS = 2


@dataclass
class Checkpoint:
    """A consistent pipeline snapshot at an event boundary."""

    events_processed: int
    matches_emitted: int
    engine_blob: bytes
    sink_states: List[Any] = field(default_factory=list)
    pattern_name: str = ""
    created_at: float = 0.0
    index: int = 0
    #: Source records pulled at the cut (>= events_processed once an
    #: ordering stage holds events in flight; -1 = legacy checkpoint).
    records_ingested: int = -1
    #: Framed in-flight ordering state (see
    #: :func:`repro.engine.state.snapshot_ordering_state`), or ``None``.
    ordering_blob: Optional[bytes] = None
    #: Delta epoch this full snapshot anchors (``None`` outside delta mode).
    delta_epoch: Optional[int] = None
    #: Why this checkpoint was cut: ``"periodic"`` (cadence), ``"manual"``
    #: (control-plane ``POST /checkpoint``) or ``"shutdown"`` (final cut).
    reason: str = "periodic"

    def describe(self) -> str:
        in_flight = ""
        ordering_blob = getattr(self, "ordering_blob", None)
        if ordering_blob is not None:
            in_flight = f", {len(ordering_blob)} ordering-state bytes"
        return (
            f"checkpoint #{self.index}: {self.events_processed} events, "
            f"{self.matches_emitted} matches, "
            f"{len(self.engine_blob)} state bytes{in_flight}"
        )


@dataclass
class DeltaCheckpoint:
    """One append-only delta record in an incremental checkpoint chain.

    Carries the CRC-framed state delta plus full copies of the small
    bookkeeping the pipeline needs at restore (counters, sink positions,
    in-flight ordering state) — only the engine state, which dominates
    checkpoint size, is delta-encoded.
    """

    events_processed: int
    matches_emitted: int
    frame: bytes
    base_index: int
    epoch: int
    since_epoch: int
    sink_states: List[Any] = field(default_factory=list)
    pattern_name: str = ""
    created_at: float = 0.0
    index: int = 0
    records_ingested: int = -1
    ordering_blob: Optional[bytes] = None
    #: Why this delta was cut (same vocabulary as :attr:`Checkpoint.reason`).
    reason: str = "periodic"

    def describe(self) -> str:
        return (
            f"delta #{self.index} (epoch {self.since_epoch}→{self.epoch}, "
            f"base #{self.base_index}): {self.events_processed} events, "
            f"{len(self.frame)} delta bytes"
        )


class CheckpointStore:
    """Directory-backed checkpoint persistence.

    Retains the :data:`KEEP_CHAINS` most recent chains.

    Parameters
    ----------
    directory:
        Where checkpoint files live; created on first save.  Temp files
        orphaned by a crash mid-write are swept when the store is opened.
    clock:
        Wall-clock source stamped into ``created_at`` (injectable for
        deterministic tests, like the sources' and pipeline's clocks).
    """

    def __init__(self, directory: str, clock: Callable[[], float] = time.time):
        self.directory = directory
        self._clock = clock
        self._sweep_temp_files()

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------
    def _sweep_temp_files(self) -> int:
        """Remove temp files orphaned by a death mid-write; returns count.

        Runs on store open: an interrupted atomic write leaves its
        ``.checkpoint-*.tmp`` (or ``.delta-*.tmp``) file behind, and nothing
        else will ever reclaim it — a high-cadence service would slowly
        fill the checkpoint directory with garbage.
        """
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return 0
        removed = 0
        for name in names:
            if name.endswith(".tmp") and name.startswith(_TEMP_PREFIXES):
                try:
                    os.unlink(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def _scan(self, pattern: "re.Pattern[str]") -> List[int]:
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        indices = []
        for name in names:
            matched = pattern.match(name)
            if matched:
                indices.append(int(matched.group(1)))
        return sorted(indices)

    def _indices(self) -> List[int]:
        return self._scan(_CHECKPOINT_PATTERN)

    def _delta_indices(self) -> List[int]:
        return self._scan(_DELTA_PATTERN)

    def _path(self, index: int) -> str:
        return os.path.join(self.directory, f"checkpoint-{index:09d}.pkl")

    def _delta_path(self, index: int) -> str:
        return os.path.join(self.directory, f"delta-{index:09d}.pkl")

    def _next_index(self) -> int:
        indices = self._indices() + self._delta_indices()
        return (max(indices) + 1) if indices else 0

    def latest_index(self) -> Optional[int]:
        indices = self._indices()
        return indices[-1] if indices else None

    def _chains(self) -> List[Dict[str, Any]]:
        """Chain membership, derived from the files alone.

        Indices are allocated monotonically, so each delta joins the
        nearest preceding base; a delta that does not belong there (a
        stray from another lineage) is cut off by the ``base_index`` /
        epoch check in :meth:`_chain_records`.  Deltas older than every
        base belong to no chain.
        """
        chains: List[Dict[str, Any]] = [
            {"base": base, "deltas": []} for base in self._indices()
        ]
        for index in self._delta_indices():
            owners = [chain for chain in chains if chain["base"] < index]
            if owners:
                owners[-1]["deltas"].append(index)
        return chains

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _write_pickle(self, path: str, prefix: str, payload: Any) -> None:
        """Temp file + fsync + ``os.replace``: a reader sees all or nothing."""
        os.makedirs(self.directory, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            dir=self.directory, prefix=prefix, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
        except Exception as exc:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise CheckpointError(f"failed to write {path!r}: {exc}") from exc

    def save(self, checkpoint: Checkpoint) -> str:
        """Atomically persist a full (base) checkpoint; returns the path.

        Starts a new chain; older chains beyond :data:`KEEP_CHAINS` are
        pruned (base and deltas together).
        """
        checkpoint.index = self._next_index()
        checkpoint.created_at = self._clock()
        path = self._path(checkpoint.index)
        self._write_pickle(path, ".checkpoint-", checkpoint)
        self._prune()
        return path

    def save_delta(self, record: DeltaCheckpoint) -> str:
        """Append one delta record to its base's chain; returns the path."""
        if record.base_index not in self._indices():
            raise CheckpointError(
                f"cannot append a delta to base #{record.base_index}: no such "
                "base checkpoint in the store (was it pruned?)"
            )
        record.index = self._next_index()
        record.created_at = self._clock()
        path = self._delta_path(record.index)
        self._write_pickle(path, ".delta-", record)
        return path

    def load(self, index: int) -> Checkpoint:
        path = self._path(index)
        try:
            with open(path, "rb") as handle:
                checkpoint = pickle.load(handle)
        except FileNotFoundError:
            raise CheckpointError(f"no checkpoint #{index} in {self.directory!r}") from None
        except Exception as exc:
            raise CheckpointError(f"corrupt checkpoint {path!r}: {exc}") from exc
        if not isinstance(checkpoint, Checkpoint):
            raise CheckpointError(
                f"{path!r} does not contain a Checkpoint "
                f"(got {type(checkpoint).__name__})"
            )
        return checkpoint

    def load_delta(self, index: int) -> DeltaCheckpoint:
        path = self._delta_path(index)
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
        except FileNotFoundError:
            raise CheckpointError(f"no delta #{index} in {self.directory!r}") from None
        except Exception as exc:
            raise CheckpointError(f"corrupt delta {path!r}: {exc}") from exc
        if not isinstance(record, DeltaCheckpoint):
            raise CheckpointError(
                f"{path!r} does not contain a DeltaCheckpoint "
                f"(got {type(record).__name__})"
            )
        return record

    # ------------------------------------------------------------------
    # Restore (chain replay)
    # ------------------------------------------------------------------
    def _chain_records(
        self, base: Checkpoint, chain: Dict[str, Any]
    ) -> List[DeltaCheckpoint]:
        """The longest intact, lineage-consistent delta prefix of a chain."""
        records: List[DeltaCheckpoint] = []
        previous_epoch = base.delta_epoch if getattr(base, "delta_epoch", None) is not None else None
        for index in chain["deltas"]:
            try:
                record = self.load_delta(index)
            except CheckpointError:
                break  # torn tail: replay what is intact
            if record.base_index != chain["base"]:
                break  # stray delta from another lineage
            if previous_epoch is not None and record.since_epoch != previous_epoch:
                break  # epoch gap: a delta in between was lost
            records.append(record)
            previous_epoch = record.epoch
        return records

    def _materialize(
        self, base: Checkpoint, records: List[DeltaCheckpoint]
    ) -> Checkpoint:
        blob = materialize_engine_blob(
            base.engine_blob, [record.frame for record in records]
        )
        last = records[-1]
        return Checkpoint(
            events_processed=last.events_processed,
            matches_emitted=last.matches_emitted,
            engine_blob=blob,
            sink_states=list(last.sink_states),
            pattern_name=last.pattern_name,
            created_at=last.created_at,
            index=last.index,
            records_ingested=last.records_ingested,
            ordering_blob=last.ordering_blob,
            delta_epoch=last.epoch,
            reason=getattr(last, "reason", "periodic"),
        )

    def latest(self) -> Optional[Checkpoint]:
        """The most recent *restorable* checkpoint, or ``None``.

        Delta chains are replayed ``base + deltas``; a corrupt or
        inconsistent delta truncates the replay to the chain's longest
        intact prefix, and a corrupt base falls back to the previous chain
        (resuming further back is always safe — the pipeline just
        re-processes a longer suffix, still exactly-once).
        """
        last_error: Optional[CheckpointError] = None
        for chain in reversed(self._chains()):
            try:
                base = self.load(chain["base"])
            except CheckpointError as exc:
                last_error = exc
                continue
            records = self._chain_records(base, chain)
            while records:
                try:
                    return self._materialize(base, records)
                except CheckpointError as exc:
                    last_error = exc
                    records = records[:-1]
            return base
        if last_error is not None:
            raise last_error
        return None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every checkpoint and delta; returns the count."""
        removed = 0
        for path in [self._path(index) for index in self._indices()] + [
            self._delta_path(index) for index in self._delta_indices()
        ]:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def _prune(self) -> None:
        for chain in self._chains()[:-KEEP_CHAINS]:
            for index in chain["deltas"]:
                try:
                    os.unlink(self._delta_path(index))
                except OSError:
                    pass
            try:
                os.unlink(self._path(chain["base"]))
            except OSError:
                pass

    def stats(self) -> Dict[str, Any]:
        indices = self._indices()
        deltas = self._delta_indices()
        reasons: Dict[str, int] = {}
        for load, retained in ((self.load, indices), (self.load_delta, deltas)):
            for index in retained:
                try:
                    reason = getattr(load(index), "reason", "periodic")
                except CheckpointError:
                    continue  # torn or pruned under us: it has no reason to count
                reasons[reason] = reasons.get(reason, 0) + 1
        return {
            "directory": self.directory,
            "checkpoints": len(indices),
            "deltas": len(deltas),
            "chains": len(self._chains()),
            "latest_index": max(indices + deltas) if indices or deltas else None,
            "reasons": reasons,
        }

    def __repr__(self) -> str:
        return f"<CheckpointStore {self.directory!r}>"
