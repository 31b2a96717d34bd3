"""Event sources for the streaming runtime.

A source is a lazy, single-pass :class:`~repro.events.EventStream` that
yields events incrementally instead of materialising a list:

* :class:`ReplaySource` — (optionally rate-controlled) replay of any
  iterable of events, the synthetic-load generator of the throughput
  experiments;
* :class:`CallbackSource` — pull events from a zero-argument callable
  (the adapter for push-style client libraries);
* :class:`JSONLFileSource` / :class:`CSVFileSource` — read (and optionally
  tail) event files, assigning *deterministic* sequence numbers from the
  record index so two reads of one file produce identical events — the
  property checkpoint/resume correctness rests on.

File sources read complete lines in binary blocks of :data:`READ_BYTES`,
and the JSONL source decodes each block with one ``json.loads`` over the
whole block: the conversion from bytes to events happens once per block at
the ingest boundary, while consumers still pull one event at a time.

Every source supports :meth:`~EventSource.skip`, which fast-forwards past
the first ``n`` records without rate-limiting delays — how a resumed
pipeline seeks to its checkpoint offset.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import StreamingError
from repro.events import Event, EventStream, EventType
from repro.events.stream import GeneratorEventStream


class RateLimiter:
    """Paces an event flow to a target rate (events per second).

    The limiter schedules event ``i`` at ``start + i / rate`` and sleeps
    until that deadline, so short hiccups are amortised (the flow catches
    up) rather than compounding.  ``clock`` and ``sleep`` are injectable
    for deterministic tests.
    """

    def __init__(
        self,
        rate: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate <= 0:
            raise StreamingError(f"rate must be positive, got {rate!r}")
        self.rate = float(rate)
        self._clock = clock
        self._sleep = sleep
        self._started: Optional[float] = None
        self._emitted = 0

    def wait(self) -> None:
        """Block until the next event is due, then account for it."""
        now = self._clock()
        if self._started is None:
            self._started = now
        deadline = self._started + self._emitted / self.rate
        if deadline > now:
            self._sleep(deadline - now)
        self._emitted += 1

    def reset(self) -> None:
        self._started = None
        self._emitted = 0

    def __repr__(self) -> str:
        return f"<RateLimiter rate={self.rate:g}/s emitted={self._emitted}>"


class EventSource(GeneratorEventStream):
    """Base class for streaming sources.

    Subclasses implement :meth:`_records`, yielding events lazily.  The
    base class provides single-pass semantics (inherited from
    :class:`~repro.events.GeneratorEventStream` — re-iteration raises),
    skip-ahead for checkpoint resume, optional rate limiting, and an
    ``events_emitted`` counter.
    """

    name: str = "source"

    def __init__(self, rate: Optional[float] = None):
        # `rate is None` means unthrottled; anything else must be a valid
        # positive rate.  (A bare truthiness test would let rate=0 silently
        # disable pacing while RateLimiter itself rejects rate<=0.)
        self._limiter = RateLimiter(rate) if rate is not None else None
        self._skip = 0
        self.events_emitted = 0
        super().__init__(self._iterate(), name=type(self).__name__)

    def _records(self) -> Iterator[Event]:  # pragma: no cover - abstract
        raise NotImplementedError

    def skip(self, count: int) -> None:
        """Fast-forward past the first ``count`` records (no rate limiting).

        Must be called before iteration starts; used by a resuming pipeline
        to seek to its checkpoint offset.
        """
        if count < 0:
            raise StreamingError(f"skip count must be non-negative, got {count!r}")
        if self.consumed:
            raise StreamingError(
                f"{type(self).__name__} is already being consumed; skip() must "
                "be called before iteration starts"
            )
        self._skip = int(count)

    def _iterate(self) -> Iterator[Event]:
        events = self._records()
        if self._skip:
            events = itertools.islice(events, self._skip, None)
        limiter = self._limiter
        if limiter is None:
            for event in events:
                self.events_emitted += 1
                yield event
            return
        for event in events:
            limiter.wait()
            self.events_emitted += 1
            yield event


class _NoEvent:
    """The type of the :data:`NO_EVENT` sentinel (repr-friendly singleton)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NO_EVENT"


#: Sentinel a :class:`CallbackSource` poll may return when it has *no event
#: available yet*.  Distinct from ``None``, which still means end-of-stream:
#: a network poll that comes up empty must be able to say "not yet" without
#: terminating the whole source.
NO_EVENT = _NoEvent()


class CallbackSource(EventSource):
    """Pull events from a zero-argument callable.

    The callable returns the next :class:`~repro.events.Event`, ``None`` to
    signal end-of-stream, or :data:`NO_EVENT` when nothing is available
    *yet* — the natural adapter for client libraries that expose a
    ``poll()``-style API, whether it blocks or not.

    After a :data:`NO_EVENT` the optional ``on_idle`` hook runs (block,
    sleep, or yield there); returning ``False`` from it ends the stream.
    Without ``on_idle`` the source polls again immediately, so a
    non-blocking poller should pass one to avoid a busy loop.
    """

    name = "callback"

    def __init__(
        self,
        poll: Callable[[], Optional[Event]],
        rate: Optional[float] = None,
        on_idle: Optional[Callable[[], Optional[bool]]] = None,
    ):
        if not callable(poll):
            raise StreamingError("CallbackSource requires a callable")
        if on_idle is not None and not callable(on_idle):
            raise StreamingError("CallbackSource on_idle must be callable")
        self._poll = poll
        self._on_idle = on_idle
        super().__init__(rate=rate)

    def _records(self) -> Iterator[Event]:
        while True:
            event = self._poll()
            if event is None:
                return
            if event is NO_EVENT:
                if self._on_idle is not None and self._on_idle() is False:
                    return
                continue
            yield event


class ReplaySource(EventSource):
    """Replay of a recorded stream or any iterable of events.

    Replays a materialised stream, a list or a generator at ``rate`` events
    per second — the synthetic load generator used by the ``serve`` CLI and
    the throughput-under-rate experiment.  With ``rate=None`` the replay is
    unthrottled (as fast as the consumer pulls).
    """

    name = "replay"

    def __init__(self, stream: "EventStream | Iterable[Event]", rate: Optional[float] = None):
        self._stream = stream
        super().__init__(rate=rate)

    def _records(self) -> Iterator[Event]:
        return iter(self._stream)


#: Bytes a file source asks for per read; the read is extended to the end
#: of the line it stops in, so a block always holds complete lines.
READ_BYTES = 1 << 16


class _FileSource(EventSource):
    """Shared machinery of the file-backed sources.

    Reads records from a file in blocks of complete lines, optionally
    *tailing* it: with ``follow=True`` the source polls for newly appended
    lines after reaching EOF (like ``tail -f``) until ``idle_timeout``
    seconds pass with no new data, or :meth:`stop_following` is called.

    Events get ``sequence_number = record index`` (the line index, blank
    lines included), so replaying a file yields byte-identical events on
    every read — checkpoint/resume and cross-run match comparison depend on
    this determinism.
    """

    def __init__(
        self,
        path: str,
        types: Mapping[str, EventType],
        timestamp_field: str = "timestamp",
        type_field: str = "type",
        follow: bool = False,
        poll_interval: float = 0.05,
        idle_timeout: Optional[float] = None,
        rate: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not types:
            raise StreamingError(f"{type(self).__name__} requires an event-type registry")
        self.path = path
        self._types = dict(types)
        self._timestamp_field = timestamp_field
        self._type_field = type_field
        self._follow = bool(follow)
        self._poll_interval = float(poll_interval)
        self._idle_timeout = idle_timeout
        self._clock = clock
        self._sleep = sleep
        self._following = True
        super().__init__(rate=rate)

    def stop_following(self) -> None:
        """End a ``follow=True`` tail at the next EOF poll."""
        self._following = False

    def _blocks(self) -> Iterator[Tuple[int, List[bytes]]]:
        """``(index of the first line, lines)`` per block read from the file.

        Lines keep their terminators (``\\n``, ``\\r\\n`` or ``\\r``, as a
        text-mode read splits them).  The last line of a closed file may be
        unterminated; while tailing, a partly written last line is rewound
        by its byte length and read again once the writer finishes it.
        """
        index = 0
        with open(self.path, "rb") as handle:
            idle_since: Optional[float] = None
            while True:
                block = handle.read(READ_BYTES)
                if block and not block.endswith(b"\n"):
                    block += handle.readline()
                if block and self._follow and not block.endswith(b"\n"):
                    complete = block.rfind(b"\n") + 1
                    handle.seek(complete - len(block), os.SEEK_CUR)
                    block = block[:complete]
                if block:
                    idle_since = None
                    lines = block.splitlines(keepends=True)
                    yield index, lines
                    index += len(lines)
                    continue
                if not self._follow or not self._following:
                    return
                now = self._clock()
                if idle_since is None:
                    idle_since = now
                if (
                    self._idle_timeout is not None
                    and now - idle_since >= self._idle_timeout
                ):
                    return
                self._sleep(self._poll_interval)

    def _event_from(self, record: Dict[str, Any], index: int) -> Event:
        try:
            type_name = record.pop(self._type_field)
            timestamp = float(record.pop(self._timestamp_field))
        except KeyError as exc:
            raise StreamingError(
                f"{self.path}:{index + 1}: record is missing field {exc}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise StreamingError(
                f"{self.path}:{index + 1}: bad timestamp: {exc}"
            ) from None
        event_type = self._types.get(type_name)
        if event_type is None:
            raise StreamingError(
                f"{self.path}:{index + 1}: unknown event type {type_name!r} "
                f"(registry has {sorted(self._types)})"
            )
        return Event(event_type, timestamp, record, sequence_number=index)


class JSONLFileSource(_FileSource):
    """Read events from a JSON-lines file (one JSON object per line).

    Each record carries the event-type name, the timestamp and the payload
    attributes, e.g. ``{"type": "MSFT", "timestamp": 12.5, "price": 101.3}``.

    A block of lines is decoded with one ``json.loads`` of the lines joined
    into a JSON array.  That is taken only when the array provably splits
    at the line boundaries: every line after the first starts with ``{``
    and the block holds no ``[`` byte (so no line can leave an array or
    object open for the next one), strings cannot cross a raw line break,
    and the array has exactly one element per line.  Any other block —
    blank lines, leading whitespace, arrays, malformed JSON — is decoded
    line by line, so every error names the same ``path:line`` as a
    per-line read would.
    """

    name = "jsonl"

    def _records(self) -> Iterator[Event]:
        loads = json.loads
        event_from = self._event_from
        for first, lines in self._blocks():
            joined = b",".join(lines)
            records = None
            if b"[" not in joined and joined.count(b"\n,{") == len(lines) - 1:
                try:
                    records = loads("[" + joined.decode("utf-8") + "]")
                except ValueError:
                    pass
            if records is None or len(records) != len(lines):
                for index, line in enumerate(lines, first):
                    stripped = line.decode("utf-8").strip()
                    if stripped:
                        yield event_from(self._parse(stripped, index), index)
                continue
            for index, record in enumerate(records, first):
                if type(record) is not dict:
                    raise self._not_an_object(record, index)
                yield event_from(record, index)

    def _parse(self, line: str, index: int) -> Dict[str, Any]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StreamingError(f"{self.path}:{index + 1}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise self._not_an_object(record, index)
        return record

    def _not_an_object(self, record: Any, index: int) -> StreamingError:
        return StreamingError(
            f"{self.path}:{index + 1}: expected a JSON object, "
            f"got {type(record).__name__}"
        )


def _coerce(value: str) -> Any:
    """CSV cells are strings; recover ints and floats where unambiguous."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


class CSVFileSource(_FileSource):
    """Read events from a CSV file with a header row.

    The header names the per-record fields; numeric-looking cells are
    coerced to ``int``/``float`` so equality joins behave as they would on
    the original payloads.
    """

    name = "csv"

    def _lines(self) -> Iterator[str]:
        """The file's lines as text, every terminator read as ``\\n``."""
        for _first, lines in self._blocks():
            for line in lines:
                text = line.decode("utf-8")
                body = text.rstrip("\r\n")
                yield body + "\n" if len(body) < len(text) else body

    def _records(self) -> Iterator[Event]:
        # The reader consumes the raw line flow: filtering blank lines first
        # would corrupt quoted fields that span physical lines.  Blank lines
        # *between* records come back as empty rows and are skipped.
        reader = csv.reader(self._lines())
        header = None
        index = 0
        for row in reader:
            if not row:
                continue
            if header is None:
                header = row
                continue
            if len(row) != len(header):
                raise StreamingError(
                    f"{self.path}:{reader.line_num}: expected {len(header)} "
                    f"fields, got {len(row)}"
                )
            record = {name: _coerce(cell) for name, cell in zip(header, row)}
            yield self._event_from(record, index)
            index += 1


# ----------------------------------------------------------------------
# Event-file writers (the inverse of the file sources)
# ----------------------------------------------------------------------
def event_record(event: Event, timestamp_field: str = "timestamp", type_field: str = "type") -> Dict[str, Any]:
    """Flat dictionary representation of one event (file-source schema)."""
    record: Dict[str, Any] = {
        type_field: event.type_name,
        timestamp_field: event.timestamp,
    }
    record.update(event.payload)
    return record


def write_events_jsonl(
    events: Iterable[Event],
    path: str,
    timestamp_field: str = "timestamp",
    type_field: str = "type",
) -> int:
    """Dump events as JSON lines readable by :class:`JSONLFileSource`."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(
                json.dumps(event_record(event, timestamp_field, type_field)) + "\n"
            )
            count += 1
    return count


def write_events_csv(
    events: Iterable[Event],
    path: str,
    timestamp_field: str = "timestamp",
    type_field: str = "type",
) -> int:
    """Dump events as a CSV file readable by :class:`CSVFileSource`.

    The header is the union of all payload attribute names, so the events
    are buffered once; for unbounded streams use the JSONL writer.
    """
    buffered = list(events)
    field_names = [type_field, timestamp_field]
    for event in buffered:
        for key in event.payload:
            if key not in field_names:
                field_names.append(key)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=field_names, restval="")
        writer.writeheader()
        for event in buffered:
            writer.writerow(event_record(event, timestamp_field, type_field))
    return len(buffered)
