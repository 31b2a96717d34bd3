"""The network data plane: HTTP ingestion and acked match delivery.

Everything before this module moves events and matches through files.  This
module puts the pipeline on the wire — stdlib only, matching the control
plane's :mod:`http.server` idiom — with the same exactly-once discipline
the file seams already have.  One transport in, one transport out:

* **Ingestion** — a :class:`NetworkEventSource` is a bounded push-buffer
  behind the existing :class:`~repro.streaming.sources.CallbackSource` pull
  seam: the one adapter from push to the pipeline's pull loop.
  :class:`HTTPEventIngress` feeds it (``POST /events`` with JSON records)
  and answers **429** when the buffer is full — the one backpressure
  signal, and one a load balancer understands.  Records carry an explicit
  ``sequence`` field — the same deterministic record index the file
  sources assign — so a resumed pipeline deduplicates re-pushed events by
  sequence number exactly as ``source.skip()`` seeks a file.

* **Delivery** — :class:`WebhookMatchSink` (HTTP POST per match with an
  ``Idempotency-Key`` header) extends :class:`AckedDeliverySink`, which
  holds unacked matches in a bounded in-flight buffer, retries with capped
  exponential backoff, spills to a dead-letter file after the retry budget,
  and checkpoints the **durably acked** match sequence.  ``flush()`` drains
  the buffer, so by the time the pipeline's snapshot barrier collects
  ``state()`` every emitted match is acked — and a kill between a send and
  its checkpoint re-derives the match with the *same* idempotency key, so
  the receiver's dedup makes redelivery invisible.

* **Receiver** — :class:`WebhookReceiver` is the counterpart process
  (tests, the CLI smoke, and a reference for real consumers): it writes
  the raw match JSON line *before* acking and deduplicates by idempotency
  key, which is what makes the loopback differential byte-identical to a
  file-source run.

Run a receiver or push an event file from the command line::

    python -m repro.streaming.net receive --port 9100 --out matches.jsonl
    python -m repro.streaming.net push --url http://127.0.0.1:9000 \
        --file events.jsonl --end
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import CheckpointError, StreamingError
from repro.events import Event, EventType
from repro.metrics import NetworkMetrics
from repro.streaming.sinks import MatchSink, match_record
from repro.streaming.sources import NO_EVENT, CallbackSource

#: Push statuses a :class:`NetworkEventSource` answers.
PUSH_ACCEPTED = "accepted"
PUSH_DUPLICATE = "duplicate"
PUSH_REJECTED = "rejected"
PUSH_INVALID = "invalid"

#: Default capacity of the push buffer between the HTTP ingress and the
#: pipeline's pull loop.  It is the only queue in front of the pipeline
#: that can refuse an event (the pull loop itself never stages more than a
#: fill chunk past what it has processed), so its bound is what turns a
#: producer outrunning detection into 429s.
DEFAULT_PUSH_CAPACITY = 1024

#: Default in-flight bound of the acked delivery sinks.
DEFAULT_MAX_IN_FLIGHT = 128


# ----------------------------------------------------------------------
# Ingestion: the push-buffer source
# ----------------------------------------------------------------------
class NetworkEventSource(CallbackSource):
    """A bounded push-buffer event source fed by the HTTP ingress.

    Producers call :meth:`push_record` from server threads; the pipeline
    pulls through the inherited :class:`CallbackSource` seam (the poll
    returns :data:`~repro.streaming.sources.NO_EVENT` while the buffer is
    empty and the ``on_idle`` hook blocks on a condition variable, so an
    idle pipeline sleeps instead of spinning).

    Exactly-once across resume rests on two cursors:

    * ``_next_sequence`` — push-time dedup: a record whose ``sequence`` is
      below the cursor was already ingested (this run or a previous one)
      and is dropped as a duplicate before it ever reaches the buffer;
    * ``_floor`` — pop-time dedup: :meth:`skip` (called by a resuming
      pipeline *after* the ingress may have started accepting) raises the
      floor, and buffered events below it are discarded on the way out.

    Parameters
    ----------
    types:
        Event-type registry naming the admissible ``type`` values.
    timestamp_field / type_field:
        Record field names (file-source schema).
    capacity:
        Push-buffer bound; a push into a full buffer is rejected (the
        ingress answers 429 and the client retries).
    poll_interval:
        How long one idle wait blocks before re-checking for shutdown.
    idle_timeout:
        End the stream after this many seconds with no arrivals (``None``
        = run until :meth:`end_of_stream` or :meth:`stop_following`).
    metrics:
        Shared :class:`~repro.metrics.NetworkMetrics` (optional).
    """

    name = "network"

    def __init__(
        self,
        types: Mapping[str, EventType],
        timestamp_field: str = "timestamp",
        type_field: str = "type",
        capacity: int = DEFAULT_PUSH_CAPACITY,
        poll_interval: float = 0.05,
        idle_timeout: Optional[float] = None,
        metrics: Optional[NetworkMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not types:
            raise StreamingError("NetworkEventSource requires an event-type registry")
        if capacity < 1:
            raise StreamingError(f"capacity must be positive, got {capacity!r}")
        self._types = dict(types)
        self._timestamp_field = timestamp_field
        self._type_field = type_field
        self.capacity = int(capacity)
        self._poll_interval = float(poll_interval)
        self._idle_timeout = idle_timeout
        self.metrics = metrics if metrics is not None else NetworkMetrics()
        self._clock = clock
        self._pending: Deque[Event] = deque()
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._next_sequence = 0
        self._floor = 0
        self._ended = False
        self._following = True
        self._idle_since: Optional[float] = None
        super().__init__(self._poll_pending, on_idle=self._idle)

    # -- producer side (ingress server threads) ------------------------
    def _event_from(self, record: Mapping[str, Any]) -> Event:
        fields = dict(record)
        try:
            type_name = fields.pop(self._type_field)
            timestamp = float(fields.pop(self._timestamp_field))
        except KeyError as exc:
            raise StreamingError(f"record is missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise StreamingError(f"bad timestamp: {exc}") from None
        event_type = self._types.get(type_name)
        if event_type is None:
            raise StreamingError(
                f"unknown event type {type_name!r} (registry has "
                f"{sorted(self._types)})"
            )
        sequence = fields.pop("sequence", None)
        if sequence is not None:
            try:
                sequence = int(sequence)
            except (TypeError, ValueError) as exc:
                raise StreamingError(f"bad sequence: {exc}") from None
            if sequence < 0:
                raise StreamingError(f"bad sequence: {sequence} is negative")
        return Event(event_type, timestamp, fields, sequence_number=sequence)

    def push_record(self, record: Mapping[str, Any]) -> str:
        """Offer one event record; returns a ``PUSH_*`` status string.

        Never blocks: a full buffer (or an ended stream) answers
        :data:`PUSH_REJECTED` at once, so the ingress can say 429.
        """
        if not isinstance(record, Mapping):
            self.metrics.events_invalid += 1
            return PUSH_INVALID
        try:
            event = self._event_from(record)
        except StreamingError:
            self.metrics.events_invalid += 1
            return PUSH_INVALID
        with self._lock:
            if event.sequence_number is None:
                # Auto-sequence convenience pushes at the cursor.
                event = Event(
                    event.event_type,
                    event.timestamp,
                    event.payload,
                    sequence_number=self._next_sequence,
                )
            if event.sequence_number < self._next_sequence:
                self.metrics.events_duplicate += 1
                return PUSH_DUPLICATE
            if self._ended or len(self._pending) >= self.capacity:
                self.metrics.events_rejected += 1
                return PUSH_REJECTED
            self._next_sequence = event.sequence_number + 1
            self._pending.append(event)
            self.metrics.events_accepted += 1
            self._available.notify()
            return PUSH_ACCEPTED

    def end_of_stream(self) -> None:
        """Declare the stream complete: drain the buffer, then stop."""
        with self._lock:
            self._ended = True
            self._available.notify_all()

    def stop_following(self) -> None:
        """Graceful-stop hook (the pipeline calls this from ``stop()``)."""
        with self._lock:
            self._following = False
            self._available.notify_all()

    # -- consumer side (the pipeline's pull loop) -----------------------
    def _poll_pending(self) -> Optional[Event]:
        with self._lock:
            while self._pending:
                event = self._pending.popleft()
                if event.sequence_number < self._floor:
                    # Buffered before a resume raised the floor: the
                    # checkpoint already covers this event.
                    self.metrics.events_duplicate += 1
                    continue
                self._idle_since = None
                return event
            if self._ended or not self._following:
                return None
        return NO_EVENT

    def _idle(self) -> Optional[bool]:
        with self._lock:
            if self._pending or self._ended or not self._following:
                return True  # let the poll decide
            now = self._clock()
            if self._idle_since is None:
                self._idle_since = now
            if (
                self._idle_timeout is not None
                and now - self._idle_since >= self._idle_timeout
            ):
                return False
            self._available.wait(self._poll_interval)
        return True

    def skip(self, count: int) -> None:
        """Resume seek: discard (re-)pushed records below ``count``.

        Unlike the file sources there is nothing to fast-forward through —
        the floor makes the first ``count`` sequence numbers inadmissible,
        whether they are already buffered or arrive later.
        """
        if count < 0:
            raise StreamingError(f"skip count must be non-negative, got {count!r}")
        if self.consumed:
            raise StreamingError(
                "NetworkEventSource is already being consumed; skip() must "
                "be called before iteration starts"
            )
        with self._lock:
            self._floor = int(count)
            if self._next_sequence < self._floor:
                self._next_sequence = self._floor

    # -- introspection ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "pending": len(self._pending),
                "capacity": self.capacity,
                "next_sequence": self._next_sequence,
                "floor": self._floor,
                "ended": self._ended,
            }

    def __repr__(self) -> str:
        return (
            f"<NetworkEventSource pending={len(self._pending)}/{self.capacity} "
            f"next_seq={self._next_sequence}>"
        )


# ----------------------------------------------------------------------
# Ingestion: the wire server
# ----------------------------------------------------------------------
class HTTPEventIngress:
    """HTTP ingestion endpoint feeding a :class:`NetworkEventSource`.

    ``POST /events``
        Body: one JSON object, a JSON array of objects, or JSON lines.
        Answers **202** with per-status counts when every record was
        admitted (duplicates and invalid records are counted, not errors),
        **429** when the push buffer filled mid-batch (the body reports how
        many records were accepted before the rejection — the client
        retries from there), **400** for an unparseable body.
    ``POST /end``
        Declares end-of-stream; the pipeline drains and finishes.
    ``GET /stats``
        The source's buffer/cursor counters.
    """

    def __init__(self, source: NetworkEventSource, host: str = "127.0.0.1", port: int = 0):
        self.source = source
        self.host = host
        self._requested_port = int(port)
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HTTPEventIngress":
        if self._server is not None:
            raise StreamingError("HTTP ingress already started")
        ingress = self

        class Handler(_IngressHandler):
            owner = ingress

        self._server = ThreadingHTTPServer((self.host, self._requested_port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="http-ingress", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "HTTPEventIngress":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # Transport-independent request logic (unit-testable).
    def handle_events(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            records = parse_event_payload(body)
        except StreamingError as exc:
            self.source.metrics.events_invalid += 1
            return 400, {"error": str(exc)}
        counts = {PUSH_ACCEPTED: 0, PUSH_DUPLICATE: 0, PUSH_INVALID: 0}
        for index, record in enumerate(records):
            status = self.source.push_record(record)
            if status == PUSH_REJECTED:
                return 429, {
                    "error": "push buffer full",
                    "retry_from": index,
                    **counts,
                }
            counts[status] += 1
        return 202, counts

    def handle_end(self) -> Tuple[int, Dict[str, Any]]:
        self.source.end_of_stream()
        return 200, {"status": "ended"}


class _IngressHandler(BaseHTTPRequestHandler):
    owner: HTTPEventIngress  # injected by HTTPEventIngress.start()
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        payload = (json.dumps(body) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        route = self.path.rstrip("/") or "/"
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        if route == "/events":
            self._send_json(*self.owner.handle_events(body))
        elif route == "/end":
            self._send_json(*self.owner.handle_end())
        else:
            self._send_json(404, {"error": f"unknown endpoint {route!r}"})

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        route = self.path.rstrip("/") or "/"
        if route == "/stats":
            self._send_json(200, self.owner.source.stats())
        else:
            self._send_json(404, {"error": f"unknown endpoint {route!r}"})


def parse_event_payload(body: bytes) -> List[Dict[str, Any]]:
    """Decode a ``POST /events`` body into a list of record dicts."""
    text = body.decode("utf-8", errors="replace").strip()
    if not text:
        raise StreamingError("empty request body")
    if text.startswith("["):
        try:
            parsed = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StreamingError(f"invalid JSON: {exc}") from None
        if not all(isinstance(item, dict) for item in parsed):
            raise StreamingError("JSON array must contain objects")
        return parsed
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StreamingError(f"line {number}: invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise StreamingError(f"line {number}: expected a JSON object")
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Delivery: acked match sinks
# ----------------------------------------------------------------------
class AckedDeliverySink(MatchSink):
    """Base class for sinks that deliver matches over a lossy hop.

    Emission appends the match to a bounded **in-flight buffer**; delivery
    sends each buffered match with its **idempotency key** — a
    deterministic function of the match's global index, so a resumed
    pipeline re-deriving the same match regenerates the same key — and
    retries failures with capped exponential backoff.  A match that
    exhausts its retry budget is spilled to the **dead-letter file**
    (without one the sink raises, stopping the pipeline rather than
    silently dropping output).

    The checkpoint contract: :meth:`flush` drains the buffer, and the
    pipeline flushes every sink *before* collecting :meth:`state` — so the
    recorded ``acked`` count is the durably delivered prefix.  On
    :meth:`restore` the emit counter rewinds to it, and the matches the
    resumed run re-derives are re-sent under their original keys for the
    receiver to deduplicate.

    Subclasses implement :meth:`_send` (raise on failure).
    """

    name = "acked-delivery"

    def __init__(
        self,
        key_prefix: str = "match",
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_attempts: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        dead_letter_path: Optional[str] = None,
        metrics: Optional[NetworkMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_in_flight < 1:
            raise StreamingError(f"max_in_flight must be positive, got {max_in_flight!r}")
        if max_attempts < 1:
            raise StreamingError(f"max_attempts must be positive, got {max_attempts!r}")
        self.key_prefix = key_prefix
        self.max_in_flight = int(max_in_flight)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.dead_letter_path = dead_letter_path
        self.metrics = metrics if metrics is not None else NetworkMetrics()
        self._clock = clock
        self._sleep = sleep
        self.emitted = 0  # global match index, continuous across restarts
        self.acked = 0  # durably delivered (or dead-lettered) prefix
        self._pending: Deque[Tuple[str, Dict[str, Any]]] = deque()
        #: Decision-record hook; the pipeline wires this to its decision log.
        self.on_decision: Optional[Callable[..., Any]] = None

    # -- the wire (subclass responsibility) -----------------------------
    def _send(self, key: str, record: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def idempotency_key(self, index: int) -> str:
        return f"{self.key_prefix}-{index:012d}"

    # -- MatchSink ------------------------------------------------------
    def emit(self, match) -> None:
        key = self.idempotency_key(self.emitted)
        self._pending.append((key, match_record(match)))
        self.emitted += 1
        while len(self._pending) > self.max_in_flight:
            self._deliver_next()

    def flush(self) -> None:
        """Drain the in-flight buffer (the pre-checkpoint barrier)."""
        while self._pending:
            self._deliver_next()

    def close(self) -> None:
        self.flush()

    def _record_decision(self, type: str, **detail: Any) -> None:
        if self.on_decision is not None:
            self.on_decision(type, **detail)

    def _deliver_next(self) -> None:
        key, record = self._pending[0]
        error: Optional[str] = None
        for attempt in range(1, self.max_attempts + 1):
            started = self._clock()
            try:
                self._send(key, record)
            except Exception as exc:
                error = str(exc)
                if attempt == self.max_attempts:
                    break
                self.metrics.delivery_retries += 1
                self._record_decision(
                    "delivery_retry",
                    sink=self.name,
                    key=key,
                    attempt=attempt,
                    error=error,
                )
                self._sleep(
                    min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
                )
            else:
                self.metrics.matches_delivered += 1
                self.metrics.delivery.observe(self._clock() - started)
                self._pending.popleft()
                self.acked += 1
                return
        # Retry budget exhausted: spill or stop.
        if self.dead_letter_path is None:
            raise StreamingError(
                f"{self.name} sink: delivery of {key} failed after "
                f"{self.max_attempts} attempts: {error}"
            )
        with open(self.dead_letter_path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"key": key, "error": error, "match": record}) + "\n"
            )
            handle.flush()
            os.fsync(handle.fileno())
        self.metrics.dead_letters += 1
        self._record_decision(
            "dead_letter", sink=self.name, key=key, error=error,
            path=self.dead_letter_path,
        )
        self._pending.popleft()
        self.acked += 1  # resolved: the spill file is the durable record

    # -- checkpointing --------------------------------------------------
    def state(self) -> Dict[str, int]:
        return {"acked": self.acked}

    def restore(self, state: Any) -> None:
        if not state:
            return
        try:
            acked = int(state["acked"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{self.name} sink: malformed checkpoint state {state!r}: {exc}"
            ) from None
        if acked < 0:
            raise CheckpointError(
                f"{self.name} sink: malformed checkpoint state {state!r}: "
                "acked count is negative"
            )
        # Unacked in-flight matches are dropped — the resumed run re-derives
        # them and re-sends under the same idempotency keys.
        self._pending.clear()
        self.acked = acked
        self.emitted = acked

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} emitted={self.emitted} acked={self.acked} "
            f"in_flight={len(self._pending)}>"
        )


class WebhookMatchSink(AckedDeliverySink):
    """POST each match to a webhook URL, acked by the HTTP response.

    One request per match: the body is the match record JSON, the
    ``Idempotency-Key`` header carries the delivery key.  Any non-2xx
    response (or transport error) counts as a failed attempt.
    """

    name = "webhook"

    def __init__(self, url: str, timeout: float = 5.0, **kwargs: Any):
        super().__init__(**kwargs)
        self.url = url
        self.timeout = float(timeout)

    def _send(self, key: str, record: Dict[str, Any]) -> None:
        request = urllib.request.Request(
            self.url,
            data=json.dumps(record).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "Idempotency-Key": key,
            },
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            status = response.status
        if not 200 <= status < 300:  # pragma: no cover - urlopen raises first
            raise StreamingError(f"webhook answered {status}")


# ----------------------------------------------------------------------
# Receiver (the consumer side: tests, CLI smoke, reference consumers)
# ----------------------------------------------------------------------
class _ReceiverCore:
    """The receiver's dedup-and-write logic, shared by its handler threads.

    The ordering discipline that makes the hop exactly-once: the match line
    is written and fsynced **before** the ack goes back, and a key seen
    before is acked **without** a second write.  A producer killed between
    a send and its checkpoint re-sends under the same key; the dedup makes
    the redelivery invisible in the output file.
    """

    def __init__(self, path: str, fail_first: int = 0):
        self.path = path
        self._lock = threading.Lock()
        self._seen: set = set()
        self.received = 0
        self.duplicates = 0
        self.failures_to_inject = int(fail_first)
        self._handle = open(path, "a", encoding="utf-8")

    def accept(self, key: str, line: str) -> str:
        """Record one delivery; returns ``stored``/``duplicate``/``injected``."""
        with self._lock:
            if self.failures_to_inject > 0:
                self.failures_to_inject -= 1
                return "injected"
            if key in self._seen:
                self.duplicates += 1
                return "duplicate"
            self._handle.write(line.rstrip("\n") + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._seen.add(key)
            self.received += 1
            return "stored"

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "received": self.received,
                "duplicates": self.duplicates,
                "failures_to_inject": self.failures_to_inject,
            }

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class WebhookReceiver:
    """A webhook endpoint that stores match deliveries exactly once.

    ``POST`` (any path) with an ``Idempotency-Key`` header appends the raw
    request body as one line of the output file — first delivery only; a
    repeated key is acknowledged without a second write.  ``--fail-first``
    injects 500s before the first success (retry/backoff tests).
    ``GET /stats`` reports received/duplicate counts.
    """

    def __init__(
        self,
        path: str,
        host: str = "127.0.0.1",
        port: int = 0,
        fail_first: int = 0,
    ):
        self.core = _ReceiverCore(path, fail_first=fail_first)
        self.host = host
        self._requested_port = int(port)
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "WebhookReceiver":
        if self._server is not None:
            raise StreamingError("webhook receiver already started")
        core = self.core

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
                pass

            def _answer(self, status: int, body: Dict[str, Any]) -> None:
                payload = (json.dumps(body) + "\n").encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self) -> None:  # noqa: N802
                self._answer(200, core.stats())

            def do_POST(self) -> None:  # noqa: N802
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else b""
                key = self.headers.get("Idempotency-Key")
                if not key:
                    self._answer(400, {"error": "missing Idempotency-Key header"})
                    return
                outcome = core.accept(key, body.decode("utf-8", errors="replace"))
                if outcome == "injected":
                    self._answer(500, {"error": "injected failure"})
                else:
                    self._answer(200, {"status": outcome, "key": key})

        self._server = ThreadingHTTPServer((self.host, self._requested_port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="webhook-receiver", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.core.close()

    def __enter__(self) -> "WebhookReceiver":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Client helpers (the producer side: tests, CLI, examples)
# ----------------------------------------------------------------------
def read_event_records(
    path: str, start: int = 0, count: Optional[int] = None
) -> Iterator[Dict[str, Any]]:
    """Read a JSONL event file as push records with explicit sequences.

    The ``sequence`` field is the record's line index — the same number a
    :class:`~repro.streaming.sources.JSONLFileSource` would assign — which
    is what makes a wire-pushed run byte-comparable to a file-source run.
    ``start`` skips the first records (a client resuming a push);
    ``count`` bounds how many are yielded.
    """
    yielded = 0
    with open(path, "r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            if index < start:
                continue
            if count is not None and yielded >= count:
                return
            record = json.loads(line)
            record["sequence"] = index
            yield record
            yielded += 1


def push_events_http(
    url: str,
    records: Iterable[Dict[str, Any]],
    batch: int = 100,
    end: bool = False,
    timeout: float = 10.0,
    retry_wait: float = 0.05,
    max_retries: int = 200,
) -> Dict[str, int]:
    """POST event records to an :class:`HTTPEventIngress`, honouring 429s.

    Records are sent in JSONL batches; a 429 re-sends the unaccepted tail
    after ``retry_wait`` (doubling up to 1s), which is how a client is
    expected to behave under backpressure.  Returns aggregate counts.
    """
    base = url.rstrip("/")
    totals = {PUSH_ACCEPTED: 0, PUSH_DUPLICATE: 0, PUSH_INVALID: 0, "retries": 0}

    def post(path: str, body: bytes) -> Tuple[int, Dict[str, Any]]:
        request = urllib.request.Request(
            base + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode("utf-8"))

    pending: List[Dict[str, Any]] = []
    iterator = iter(records)
    exhausted = False
    while not exhausted or pending:
        while not exhausted and len(pending) < batch:
            try:
                pending.append(next(iterator))
            except StopIteration:
                exhausted = True
        if not pending:
            break
        body = "\n".join(json.dumps(record) for record in pending).encode("utf-8")
        status, reply = post("/events", body)
        if status == 429:
            accepted = int(reply.get("retry_from", 0))
            for key in (PUSH_ACCEPTED, PUSH_DUPLICATE, PUSH_INVALID):
                totals[key] += int(reply.get(key, 0))
            pending = pending[accepted:]
            totals["retries"] += 1
            if totals["retries"] > max_retries:
                raise StreamingError(
                    f"push to {base} still backpressured after "
                    f"{max_retries} retries"
                )
            time.sleep(min(1.0, retry_wait * (2 ** min(10, totals["retries"]))))
            continue
        if status != 202:
            raise StreamingError(f"push to {base} failed: {status} {reply}")
        for key in (PUSH_ACCEPTED, PUSH_DUPLICATE, PUSH_INVALID):
            totals[key] += int(reply.get(key, 0))
        pending = []
    if end:
        status, reply = post("/end", b"")
        if status != 200:
            raise StreamingError(f"end-of-stream to {base} failed: {status} {reply}")
    return totals


# ----------------------------------------------------------------------
# Module CLI: `python -m repro.streaming.net receive|push`
# ----------------------------------------------------------------------
def _cmd_receive(options: argparse.Namespace) -> int:
    receiver = WebhookReceiver(
        options.out,
        host=options.host,
        port=options.port,
        fail_first=options.fail_first,
    ).start()
    print(
        json.dumps({"host": options.host, "port": receiver.port, "out": options.out}),
        flush=True,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        receiver.stop()
    return 0


def _cmd_push(options: argparse.Namespace) -> int:
    records = read_event_records(options.file, start=options.start, count=options.count)
    totals = push_events_http(options.url, records, batch=options.batch, end=options.end)
    print(json.dumps(totals), flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.streaming.net",
        description="Network data-plane utilities: the webhook receiver and the "
        "HTTP event pusher.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    receive = commands.add_parser("receive", help="run a webhook match receiver")
    receive.add_argument("--host", default="127.0.0.1")
    receive.add_argument("--port", type=int, default=0)
    receive.add_argument("--out", required=True, help="output JSONL file")
    receive.add_argument(
        "--fail-first", type=int, default=0,
        help="inject N failures before the first successful delivery",
    )
    receive.set_defaults(run=_cmd_receive)

    push = commands.add_parser("push", help="push a JSONL event file over HTTP")
    push.add_argument("--url", required=True, help="HTTP ingress base URL")
    push.add_argument("--file", required=True, help="JSONL event file")
    push.add_argument("--start", type=int, default=0, help="skip the first N records")
    push.add_argument("--count", type=int, default=None, help="push at most N records")
    push.add_argument("--batch", type=int, default=100, help="HTTP batch size")
    push.add_argument("--end", action="store_true", help="declare end-of-stream after")
    push.set_defaults(run=_cmd_push)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    return options.run(options)


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke
    raise SystemExit(main())
