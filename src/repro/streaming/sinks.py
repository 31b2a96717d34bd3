"""Match sinks for the streaming runtime.

A sink receives every match the engine emits, as it is emitted.  Three
implementations are provided:

* :class:`CollectorSink` — buffer matches in memory (tests, small jobs);
* :class:`JSONLMatchWriter` — append one JSON object per match to a file,
  the durable output of a long-running service;
* :class:`MetricsSink` — keep only counters (total and per-pattern), for
  deployments where the matches themselves are consumed elsewhere.

Sinks participate in checkpointing through :meth:`MatchSink.state` /
:meth:`MatchSink.restore`: the pipeline snapshots each sink's position
together with the engine state, and a resuming pipeline rolls the sink
back to that position before re-processing post-checkpoint events.  That
rollback is what makes resume *exactly-once* — matches emitted after the
last checkpoint (and about to be re-derived) are withdrawn instead of
duplicated.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import Match
from repro.errors import CheckpointError, StreamingError
from repro.events import Event

#: Events whose JSON encoding a :class:`JSONLMatchWriter` keeps for reuse.
#: Matches of one window share events, so a short memory catches most
#: repeats; the cache is emptied whenever it fills.
FRAGMENT_CACHE = 1024


class MatchSink:
    """Base class for match sinks."""

    name: str = "sink"

    def open(self) -> None:
        """Prepare the sink for emission (idempotent)."""

    def emit(self, match: Match) -> None:
        """Deliver one match."""
        raise NotImplementedError

    def flush(self) -> None:
        """Make everything emitted so far durable."""

    def close(self) -> None:
        """Flush and release resources (idempotent)."""

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state(self) -> Any:
        """Opaque position marker stored inside pipeline checkpoints."""
        return None

    def restore(self, state: Any) -> None:
        """Roll the sink back to a :meth:`state` position (exactly-once resume)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class CollectorSink(MatchSink):
    """Buffer every match in memory."""

    name = "collector"

    def __init__(self) -> None:
        self.matches: List[Match] = []

    def emit(self, match: Match) -> None:
        self.matches.append(match)

    def state(self) -> int:
        return len(self.matches)

    def restore(self, state: Any) -> None:
        try:
            count = int(state or 0)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"collector sink: malformed checkpoint state {state!r}: {exc}"
            ) from None
        if count > len(self.matches):
            raise CheckpointError(
                f"collector sink cannot roll back to {count} matches: only "
                f"{len(self.matches)} collected (was the sink recreated "
                "without its previous contents?)"
            )
        del self.matches[count:]

    def __len__(self) -> int:
        return len(self.matches)


def event_entry(event: Event) -> Dict[str, Any]:
    """The record one bound event is written as inside a match record."""
    return {
        "type": event.type_name,
        "timestamp": event.timestamp,
        "sequence": event.sequence_number,
        "payload": event.payload,
    }


def match_record(match: Match) -> Dict[str, Any]:
    """JSON-serialisable representation of one match.

    Events are written as ``(type, timestamp, sequence, payload)`` records;
    together with the file sources' deterministic sequence numbers this
    makes two runs over the same input byte-comparable.
    """
    bindings: Dict[str, Any] = {}
    for variable in sorted(match.bindings):
        value = match.bindings[variable]
        if isinstance(value, list):
            bindings[variable] = [event_entry(event) for event in value]
        else:
            bindings[variable] = event_entry(value)
    return {
        "pattern": match.pattern_name,
        "pattern_id": getattr(match, "pattern_id", None) or match.pattern_name,
        "detection_time": match.detection_time,
        "bindings": bindings,
    }


class JSONLMatchWriter(MatchSink):
    """Append matches to a JSON-lines file.

    Each line is ``json.dumps(match_record(match))``, assembled from
    per-event JSON fragments: a bound event is encoded once and its
    fragment reused by every later match it appears in, for as long as the
    :data:`FRAGMENT_CACHE`-entry cache remembers it.

    The sink tracks its byte offset after every line; that offset is the
    checkpoint state, and :meth:`restore` truncates the file back to it —
    withdrawing matches that will be re-derived by the resumed pipeline.
    """

    name = "jsonl-writer"

    def __init__(self, path: str, append: bool = False):
        self.path = path
        self._append = bool(append)
        self._handle = None
        self.matches_written = 0
        # Byte offset after the last written line, tracked *across* close():
        # a checkpoint cut after close() must still record the real
        # position, or a later restore would truncate the whole file.
        self._last_offset = 0
        # id(event) -> (event, fragment); holding the event keeps its id
        # from passing to another object while the entry lives.
        self._fragments: Dict[int, Tuple[Event, str]] = {}

    def open(self) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a" if self._append else "w", encoding="utf-8")
            self._last_offset = self._handle.tell()

    def emit(self, match: Match) -> None:
        if self._handle is None:
            raise StreamingError(
                f"JSONLMatchWriter({self.path!r}) is not open; call open() "
                "first (the pipeline does this automatically)"
            )
        self._handle.write(self._line(match))
        self.matches_written += 1

    def _fragment(self, event: Event) -> str:
        """``json.dumps(event_entry(event))``, encoded once per cached event."""
        entry = self._fragments.get(id(event))
        if entry is not None:
            return entry[1]
        if len(self._fragments) >= FRAGMENT_CACHE:
            self._fragments.clear()
        fragment = json.dumps(event_entry(event))
        self._fragments[id(event)] = (event, fragment)
        return fragment

    def _line(self, match: Match) -> str:
        """``json.dumps(match_record(match)) + "\\n"``, from cached fragments."""
        fragment = self._fragment
        bindings = match.bindings
        encoded = []
        for variable in sorted(bindings):
            value = bindings[variable]
            if isinstance(value, list):
                body = "[" + ", ".join([fragment(event) for event in value]) + "]"
            else:
                body = fragment(value)
            encoded.append(encode_basestring_ascii(variable) + ": " + body)
        pattern_id = getattr(match, "pattern_id", None) or match.pattern_name
        return (
            '{"pattern": ' + encode_basestring_ascii(match.pattern_name)
            + ', "pattern_id": ' + encode_basestring_ascii(pattern_id)
            + ', "detection_time": ' + json.dumps(match.detection_time)
            + ', "bindings": {' + ", ".join(encoded) + "}}\n"
        )

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self.flush()
            self._last_offset = self._handle.tell()
            self._handle.close()
            self._handle = None

    def state(self) -> Dict[str, int]:
        if self._handle is None:
            # Closed (or never opened): the last known offset, not 0 — the
            # matches already written must survive a restore from this state.
            return {"offset": self._last_offset, "matches": self.matches_written}
        self._handle.flush()
        self._last_offset = self._handle.tell()
        return {"offset": self._last_offset, "matches": self.matches_written}

    def restore(self, state: Any) -> None:
        if not state:
            return
        try:
            offset = int(state["offset"])
            matches = int(state["matches"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"jsonl-writer sink: malformed checkpoint state {state!r}: {exc}"
            ) from None
        was_open = self._handle is not None
        if was_open:
            self._handle.flush()
            self._handle.close()
            self._handle = None
        try:
            size = os.path.getsize(self.path)
        except OSError as exc:
            if offset == 0:
                size = None  # nothing was written; no file to roll back
            else:
                raise CheckpointError(
                    f"cannot roll back {self.path!r}: {exc}"
                ) from exc
        if size is not None and offset > size:
            raise CheckpointError(
                f"cannot roll back {self.path!r} to byte {offset}: file has "
                f"only {size} bytes (was it rewritten since the checkpoint?)"
            )
        if size is not None:
            with open(self.path, "r+", encoding="utf-8") as handle:
                handle.truncate(offset)
        self.matches_written = matches
        self._last_offset = offset
        # Continue appending after the rollback point.
        self._append = True
        if was_open:
            self.open()

    def __repr__(self) -> str:
        return f"<JSONLMatchWriter path={self.path!r} written={self.matches_written}>"


class MetricsSink(MatchSink):
    """Count matches without retaining them."""

    name = "metrics"

    def __init__(self) -> None:
        self.total = 0
        self.per_pattern: Dict[str, int] = {}
        self.last_detection_time: Optional[float] = None

    def emit(self, match: Match) -> None:
        self.total += 1
        # Key by the registry id when present (multi-pattern provenance);
        # old pickles may predate the attribute.
        key = getattr(match, "pattern_id", None) or match.pattern_name
        self.per_pattern[key] = self.per_pattern.get(key, 0) + 1
        self.last_detection_time = match.detection_time

    def state(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "per_pattern": dict(self.per_pattern),
            "last_detection_time": self.last_detection_time,
        }

    def restore(self, state: Any) -> None:
        if not state:
            return
        try:
            total = int(state["total"])
            per_pattern = dict(state["per_pattern"])
            last_detection_time = state["last_detection_time"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"metrics sink: malformed checkpoint state {state!r}: {exc}"
            ) from None
        self.total = total
        self.per_pattern = per_pattern
        self.last_detection_time = last_detection_time

    def __repr__(self) -> str:
        return f"<MetricsSink total={self.total}>"
