"""The decision log: a queryable audit trail of runtime actions.

Every consequential action a running pipeline takes — dropping or
side-routing late arrivals, cutting a checkpoint, replacing an
evaluation plan, retrying or dead-lettering a match delivery — is otherwise observable only through aggregate counters.  The
decision log turns each of those actions into a **typed, timestamped
record** (the ProvSQL idea applied to runtime decisions instead of query
results): an operator can ask *which* events arrived late and when,
whether a checkpoint was cut by cadence or by hand, and what statistics
change triggered a re-plan.

Records are structured and append-only:

* a bounded **in-memory tail** (a deque) answers the control plane's
  ``/decisions`` queries without touching the disk;
* an optional **JSONL file** makes the trail durable — one JSON object per
  line, rotated to ``<path>.1`` when it outgrows ``max_bytes`` so a
  long-running service cannot fill the disk;
* every record carries a monotone **sequence number** that *continues
  across restarts* (the log re-reads the tail of an existing file on
  open), which is what lets the CI soak smoke assert that no record was
  lost or duplicated across a kill/resume cycle.

High-frequency decisions (late events under heavy disorder) would flood a
per-event log, so the pipeline routes them through a
:class:`CoalescingEmitter` that aggregates bursts into one
record carrying a count and the first/last timestamps — the hot path pays
one counter bump per event, not one file write.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

from repro.errors import StreamingError

#: The record types the runtime emits (the control plane's ``type=`` filter
#: accepts any string, so forward-compatible readers need no update).
DECISION_TYPES = (
    "late_event_policy",
    "checkpoint_cut",
    "replan",
    "delivery_retry",
    "dead_letter",
)

#: In-memory tail length (records) when the caller does not override it.
DEFAULT_TAIL = 1024

#: Rotation threshold for the on-disk JSONL file.
DEFAULT_MAX_BYTES = 8 * 1024 * 1024


@dataclass
class DecisionRecord:
    """One runtime decision: what was decided, when, and the particulars."""

    type: str
    time: float
    seq: int
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "type": self.type, "time": self.time, **self.detail}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DecisionRecord":
        detail = {
            key: value
            for key, value in payload.items()
            if key not in ("seq", "type", "time")
        }
        return cls(
            type=str(payload.get("type", "")),
            time=float(payload.get("time", 0.0)),
            seq=int(payload.get("seq", 0)),
            detail=detail,
        )


class DecisionLog:
    """Append-only, queryable log of runtime decisions.

    Parameters
    ----------
    path:
        JSONL file for the durable trail (``None`` keeps the log purely in
        memory).  An existing file is *continued*, not truncated: the
        sequence counter resumes after the last persisted record and the
        in-memory tail is pre-loaded from the file, so a resumed service
        presents one uninterrupted trail.
    tail:
        How many records the in-memory tail retains for queries.
    max_bytes:
        Rotate the file to ``<path>.1`` once it exceeds this size.
    clock:
        Wall-clock source stamped into each record (injectable for tests).

    Thread safety: ``record`` and ``query`` may be called concurrently from
    the pipeline thread and the control-plane HTTP threads.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        tail: int = DEFAULT_TAIL,
        max_bytes: int = DEFAULT_MAX_BYTES,
        clock: Callable[[], float] = time.time,
    ):
        if tail < 1:
            raise StreamingError(f"tail must be positive, got {tail!r}")
        if max_bytes < 1024:
            raise StreamingError(f"max_bytes must be >= 1024, got {max_bytes!r}")
        self.path = path
        self.max_bytes = int(max_bytes)
        self._clock = clock
        self._lock = threading.Lock()
        self._tail: Deque[DecisionRecord] = deque(maxlen=int(tail))
        self._seq = 0
        self._handle = None
        self._bytes_written = 0
        if path is not None:
            self._resume_from_file(path)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _resume_from_file(self, path: str) -> None:
        """Continue an existing trail: reload the tail, resume the seq."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except FileNotFoundError:
            lines = []
        for line in lines[-self._tail.maxlen :]:
            if not line.strip():
                continue
            try:
                record = DecisionRecord.from_dict(json.loads(line))
            except (ValueError, TypeError):
                continue  # torn final line after a hard kill
            self._tail.append(record)
            if record.seq > self._seq:
                self._seq = record.seq
        # A record beyond the reloaded tail window may carry a higher seq;
        # scan the remainder cheaply for the true maximum.
        for line in lines[: -self._tail.maxlen or None]:
            try:
                seq = int(json.loads(line).get("seq", 0))
            except (ValueError, TypeError, AttributeError):
                continue
            if seq > self._seq:
                self._seq = seq
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")
        self._bytes_written = self._handle.tell()
        # A hard kill can tear the final line mid-write, leaving no trailing
        # newline; terminate it so the next record starts on its own line
        # instead of being concatenated into the torn garbage (which would
        # lose both records and break continuity).
        if self._bytes_written > 0:
            with open(path, "rb") as tail_check:
                tail_check.seek(-1, os.SEEK_END)
                if tail_check.read(1) != b"\n":
                    self._handle.write("\n")
                    self._handle.flush()
                    self._bytes_written += 1

    def _rotate_locked(self) -> None:
        assert self._handle is not None and self.path is not None
        self._handle.close()
        os.replace(self.path, self.path + ".1")
        self._handle = open(self.path, "a", encoding="utf-8")
        self._bytes_written = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, type: str, **detail: Any) -> DecisionRecord:
        """Append one decision record; returns it (with its seq assigned)."""
        with self._lock:
            self._seq += 1
            record = DecisionRecord(
                type=type, time=self._clock(), seq=self._seq, detail=detail
            )
            self._tail.append(record)
            if self._handle is not None:
                line = json.dumps(record.as_dict(), default=str) + "\n"
                self._handle.write(line)
                self._handle.flush()
                self._bytes_written += len(line)
                if self._bytes_written > self.max_bytes:
                    self._rotate_locked()
            return record

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        type: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[DecisionRecord]:
        """Records from the in-memory tail, oldest first.

        ``type`` filters by record type, ``since``/``until`` bound the
        record wall-clock time (inclusive), ``limit`` keeps only the
        **newest** N of the filtered records.
        """
        with self._lock:
            records = list(self._tail)
        if type is not None:
            records = [record for record in records if record.type == type]
        if since is not None:
            records = [record for record in records if record.time >= since]
        if until is not None:
            records = [record for record in records if record.time <= until]
        if limit is not None and limit >= 0:
            records = records[-limit:] if limit else []
        return records

    def counts_by_type(self) -> Dict[str, int]:
        """How many tail records of each type (the serve summary table)."""
        counts: Dict[str, int] = {}
        with self._lock:
            for record in self._tail:
                counts[record.type] = counts.get(record.type, 0) + 1
        return counts

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._tail)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __repr__(self) -> str:
        return (
            f"<DecisionLog path={self.path!r} tail={len(self)} "
            f"seq={self.last_seq}>"
        )


def read_decision_records(path: str) -> List[DecisionRecord]:
    """Parse a decision-log JSONL file (skipping a torn final line)."""
    records: List[DecisionRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle.read().splitlines():
            if not line.strip():
                continue
            try:
                records.append(DecisionRecord.from_dict(json.loads(line)))
            except (ValueError, TypeError):
                continue
    return records


def verify_continuity(records: Iterable[DecisionRecord]) -> List[str]:
    """Continuity violations in a record sequence (empty = continuous).

    The CI soak smoke's assertion: sequence numbers must be strictly
    increasing with no duplicates — a lost record shows up as a gap only
    when the writer is the single DecisionLog the seq discipline assumes,
    so the check reports both inversions and duplicates, and gaps.
    """
    problems: List[str] = []
    previous: Optional[int] = None
    for record in records:
        if previous is not None:
            if record.seq <= previous:
                problems.append(
                    f"seq {record.seq} after {previous}: duplicate or reordered record"
                )
            elif record.seq != previous + 1:
                problems.append(
                    f"gap between seq {previous} and {record.seq}: lost record(s)"
                )
        previous = record.seq
    return problems


class CoalescingEmitter:
    """Aggregate a burst of identical decisions into one record.

    Late-event decisions fire per *event*; logging each one would put a
    file write on the per-event path exactly when disorder is heaviest.
    The emitter counts observations and
    flushes one aggregate record when ``flush_every`` accumulate or when
    ``flush_interval`` seconds pass between the first and the latest
    observation — whichever comes first.  The final partial burst is
    flushed by :meth:`flush` (the pipeline does this at end of run).
    """

    def __init__(
        self,
        log: DecisionLog,
        type: str,
        flush_every: int = 100,
        flush_interval: float = 1.0,
        clock: Callable[[], float] = time.time,
    ):
        if flush_every < 1:
            raise StreamingError(f"flush_every must be positive, got {flush_every!r}")
        self._log = log
        self._type = type
        self._flush_every = int(flush_every)
        self._flush_interval = float(flush_interval)
        self._clock = clock
        self._count = 0
        self._first_at: Optional[float] = None
        self._static: Dict[str, Any] = {}
        self._sample: Dict[str, Any] = {}

    @property
    def pending(self) -> int:
        return self._count

    def observe(self, sample: Optional[Dict[str, Any]] = None, **static: Any) -> None:
        """Account one decision; ``static`` fields must repeat per burst."""
        now = self._clock()
        if self._count == 0:
            self._first_at = now
        self._count += 1
        self._static.update(static)
        if sample:
            self._sample = dict(sample)
        if self._count >= self._flush_every or (
            self._first_at is not None
            and now - self._first_at >= self._flush_interval
        ):
            self.flush()

    def flush(self) -> Optional[DecisionRecord]:
        """Emit the pending aggregate record, if any."""
        if self._count == 0:
            return None
        detail: Dict[str, Any] = {
            "count": self._count,
            "first_at": self._first_at,
            **self._static,
        }
        if self._sample:
            detail["last"] = self._sample
        record = self._log.record(self._type, **detail)
        self._count = 0
        self._first_at = None
        self._sample = {}
        return record
