"""The JSONL codecs of the streaming runtime against per-record references.

``JSONLFileSource`` decodes a block of lines with one ``json.loads``;
``JSONLMatchWriter`` assembles each line from cached per-event fragments.
Both must be indistinguishable from the per-record forms they replace: the
reader from ``json.loads`` on every stripped line of a text-mode read (same
events, same sequence numbers, same ``path:line`` errors after the same
events), the writer from ``json.dumps(match_record(match)) + "\\n"``.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.conditions import AndCondition, EqualityCondition
from repro.engine import AdaptiveCEPEngine, Match
from repro.errors import StreamingError
from repro.events import Event, EventType
from repro.optimizer import GreedyOrderPlanner
from repro.patterns import Pattern, PatternItem, PatternOperator
from repro.streaming import JSONLFileSource, JSONLMatchWriter, match_record
from repro.streaming import sinks, sources

from tests.conftest import make_camera_stream

TYPES = {name: EventType(name) for name in ("A", "B", "Ü")}

#: Read sizes: one byte (every read is extended to a single line), a few
#: lines per block, and the default.
READ_SIZES = (1, 97, 300, sources.READ_BYTES)


def reference_read(path, types=TYPES):
    """The per-line reader: ``(records, error message or None)``.

    Each record is ``(type, timestamp, sequence number, payload)``.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            stripped = line.strip()
            if not stripped:
                continue
            where = f"{path}:{index + 1}"
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                return records, f"{where}: invalid JSON: {exc}"
            if not isinstance(record, dict):
                return records, f"{where}: expected a JSON object, got {type(record).__name__}"
            try:
                type_name = record.pop("type")
                timestamp = float(record.pop("timestamp"))
            except KeyError as exc:
                return records, f"{where}: record is missing field {exc}"
            except (TypeError, ValueError) as exc:
                return records, f"{where}: bad timestamp: {exc}"
            if type_name not in types:
                return records, (
                    f"{where}: unknown event type {type_name!r} (registry has {sorted(types)})"
                )
            records.append((type_name, timestamp, index, record))
    return records, None


def block_read(path, source=None):
    """The source under test, in the reference's terms."""
    if source is None:
        source = JSONLFileSource(path, TYPES)
    records = []
    try:
        for event in source:
            records.append(
                (event.type_name, event.timestamp, event.sequence_number, event.payload)
            )
    except StreamingError as error:
        return records, str(error)
    return records, None


def write_bytes(tmp_path, data: bytes, name="events.jsonl"):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def assert_same_read(path):
    expected = reference_read(path)
    actual = block_read(path)
    assert actual == expected
    return actual


@pytest.fixture(params=READ_SIZES, ids=lambda size: f"read{size}")
def read_size(request, monkeypatch):
    monkeypatch.setattr(sources, "READ_BYTES", request.param)
    return request.param


def record_line(type_name, timestamp, index, **payload):
    return json.dumps({"type": type_name, "timestamp": timestamp, "v": index, **payload})


# ----------------------------------------------------------------------
# Decoding: what a well-formed file reads as
# ----------------------------------------------------------------------
class TestBlockDecoding:
    def test_plain_records(self, tmp_path, read_size):
        lines = [record_line("AB"[i % 2], i * 0.5, i, x=i * 1.25) for i in range(40)]
        path = write_bytes(tmp_path, ("\n".join(lines) + "\n").encode())
        records, error = assert_same_read(path)
        assert error is None and len(records) == 40

    def test_blank_lines_count_in_the_sequence_number(self, tmp_path, read_size):
        body = "\n".join(
            [record_line("A", 1.0, 0), "", "   ", record_line("B", 2.0, 1), "\t", "",
             record_line("A", 3.0, 2)]
        ) + "\n\n"
        path = write_bytes(tmp_path, body.encode())
        records, error = assert_same_read(path)
        assert error is None
        assert [record[2] for record in records] == [0, 3, 6]

    def test_crlf_and_unterminated_final_line(self, tmp_path, read_size):
        lines = [record_line("A", float(i), i) for i in range(9)]
        path = write_bytes(tmp_path, "\r\n".join(lines).encode())
        records, error = assert_same_read(path)
        assert error is None and len(records) == 9

    def test_lone_carriage_returns_end_lines(self, tmp_path, read_size):
        lines = [record_line("A", float(i), i) for i in range(5)]
        path = write_bytes(tmp_path, ("\r".join(lines) + "\n" + lines[0] + "\n").encode())
        records, error = assert_same_read(path)
        assert error is None and [record[2] for record in records] == [0, 1, 2, 3, 4, 5]

    def test_non_ascii_payloads(self, tmp_path, read_size):
        lines = [
            json.dumps({"type": "Ü", "timestamp": 1.0, "name": "Zürich ☃"}, ensure_ascii=False),
            json.dumps({"type": "A", "timestamp": 2.0, "name": "Zürich ☃"}),
            json.dumps({"type": "B", "timestamp": 3.0, "ключ": "значение"}, ensure_ascii=False),
        ]
        path = write_bytes(tmp_path, ("\n".join(lines) + "\n").encode("utf-8"))
        records, error = assert_same_read(path)
        assert error is None
        assert records[0][3] == {"name": "Zürich ☃"} == records[1][3]

    def test_integer_timestamps(self, tmp_path, read_size):
        lines = [json.dumps({"type": "A", "timestamp": i, "n": i}) for i in range(6)]
        path = write_bytes(tmp_path, ("\n".join(lines) + "\n").encode())
        records, error = assert_same_read(path)
        assert error is None
        assert all(isinstance(record[1], float) for record in records)

    def test_arrays_whitespace_and_odd_values(self, tmp_path, read_size):
        lines = [
            '  {"type": "A", "timestamp": 1, "xs": [1, [2, {"y": "]"}]]}  ',
            '{"type":"B","timestamp":2.5e0,"s":"[not an array","n":null,"t":true}',
            '{"type": "A", "timestamp": 3, "big": 123456789012345678901234567890}',
            '\t{"type": "A", "timestamp": -0.0, "g": Infinity, "h": -Infinity}',
            '{"type": "A", "timestamp": 4, "dup": 1, "dup": 2}',
        ]
        path = write_bytes(tmp_path, ("\n".join(lines) + "\n").encode())
        records, error = assert_same_read(path)
        assert error is None and len(records) == 5

    def test_lines_that_only_parse_joined_are_rejected(self, tmp_path, read_size):
        # Each pair decodes to two objects once joined into one array, but
        # neither line is a JSON object on its own.
        for first, second in [
            ('{"type": "A", "timestamp": 1}, {"type": "A", "timestamp": 2, "a": [{}',
             '{}]}'),
            ('{"type": "A", "timestamp": 1, "b": {"c": 2',
             '"d": 3}}, {"type": "A", "timestamp": 2}'),
        ]:
            path = write_bytes(tmp_path, f"{first}\n{second}\n".encode())
            records, error = assert_same_read(path)
            assert records == [] and error.startswith(f"{path}:1: invalid JSON")

    def test_byte_order_mark(self, tmp_path, read_size):
        body = "\ufeff" + record_line("A", 1.0, 0) + "\n" + record_line("A", 2.0, 1) + "\n"
        path = write_bytes(tmp_path, body.encode("utf-8"))
        records, error = assert_same_read(path)
        assert records == [] and "BOM" in error

    def test_random_files_read_like_the_reference(self, tmp_path, read_size):
        rng = random.Random(20261015 + read_size)
        for trial in range(12):
            pieces = []
            for index in range(rng.randint(1, 60)):
                roll = rng.random()
                if roll < 0.08:
                    pieces.append(rng.choice(["", " ", "\t  "]))
                    continue
                payload = {"x": rng.uniform(-1e6, 1e6), "k": rng.randint(-5, 5)}
                if roll < 0.2:
                    payload["xs"] = [rng.random() for _ in range(rng.randint(0, 3))]
                if roll > 0.9:
                    payload["note"] = rng.choice(["é", "[", "{}", "\\n", "日本"])
                line = json.dumps(
                    {"type": rng.choice("AB"), "timestamp": rng.choice([index, index * 0.1]),
                     **payload},
                    ensure_ascii=rng.random() < 0.5,
                )
                pieces.append(rng.choice(["", " "]) + line)
            ending = rng.choice(["\n", "\r\n"])
            body = ending.join(pieces) + rng.choice([ending, ""])
            path = write_bytes(tmp_path, body.encode("utf-8"), name=f"random-{trial}.jsonl")
            assert_same_read(path)


# ----------------------------------------------------------------------
# Decoding: errors in the middle of a block
# ----------------------------------------------------------------------
BAD_LINES = {
    "malformed": '{"type": "A", "timestamp": 4.0',
    "garbage": "not json",
    "array": "[1, 2]",
    "number": "5",
    "string": '"A"',
    "null": "null",
    "unknown type": '{"type": "Z", "timestamp": 4.0}',
    "missing type": '{"timestamp": 4.0}',
    "missing timestamp": '{"type": "A"}',
    "bad timestamp": '{"type": "A", "timestamp": "soon"}',
    "null timestamp": '{"type": "A", "timestamp": null}',
    "list timestamp": '{"type": "A", "timestamp": [4]}',
}


@pytest.mark.parametrize("kind", sorted(BAD_LINES))
def test_error_mid_block_has_the_per_line_message(tmp_path, read_size, kind):
    lines = [record_line("A", float(i), i) for i in range(7)]
    lines.insert(4, BAD_LINES[kind])
    path = write_bytes(tmp_path, ("\n".join(lines) + "\n").encode())
    records, error = assert_same_read(path)
    assert len(records) == 4 and error.startswith(f"{path}:5: ")


# ----------------------------------------------------------------------
# skip() and tailing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count", [0, 1, 3, 10, 25])
def test_skip_starts_at_the_record_after_the_prefix(tmp_path, read_size, count):
    lines = [record_line("A", float(i), i) for i in range(20)]
    lines.insert(6, "")
    path = write_bytes(tmp_path, ("\n".join(lines) + "\n").encode())
    source = JSONLFileSource(path, TYPES)
    source.skip(count)
    records, error = block_read(path, source)
    expected, _ = reference_read(path)
    assert error is None and records == expected[count:]
    assert source.events_emitted == len(records)


def test_tail_rewinds_a_partial_line_across_blocks(tmp_path, read_size):
    complete = [record_line("A", float(i), i) for i in range(5)]
    last = record_line("B", 5.0, 5, pad="x" * 150)
    path = tmp_path / "tail.jsonl"
    # The partial last line is longer than the small read sizes, so it
    # straddles block boundaries while the writer is still writing it.
    path.write_text("\n".join(complete) + "\n" + last[:120])
    source = JSONLFileSource(str(path), TYPES, follow=True, poll_interval=0.0)
    writes = [last[120:140], last[140:] + "\n" + record_line("A", 6.0, 6) + "\n"]

    def writer_step(_seconds):
        if writes:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(writes.pop(0))
        else:
            source.stop_following()

    source._sleep = writer_step
    records, error = block_read(str(path), source)
    expected, _ = reference_read(str(path))
    assert error is None and records == expected
    assert [record[2] for record in records] == list(range(7))


# ----------------------------------------------------------------------
# Encoding: cached fragments give json.dumps(match_record(m)) exactly
# ----------------------------------------------------------------------
def reference_lines(matches):
    return "".join(json.dumps(match_record(match)) + "\n" for match in matches)


def written(tmp_path, matches, name="matches.jsonl"):
    path = tmp_path / name
    writer = JSONLMatchWriter(str(path))
    writer.open()
    for match in matches:
        writer.emit(match)
    writer.close()
    return path.read_bytes()


def shared_event_matches():
    a, b = TYPES["A"], TYPES["B"]
    events = [
        Event(a, 1.0, {"x": 1.5, "name": "Zürich", "nested": {"k": [1, 2]}}),
        Event(b, 1.5, {"x": float("nan"), "flag": True, "none": None}),
        Event(a, 2.0, {"x": float("inf"), "y": float("-inf"), "n": 10 ** 20}),
        Event(TYPES["Ü"], 2.5, {"☃": "snow", "x": -0.0}),
        Event(b, 3.0, {}),
    ]
    first, second, third, fourth, fifth = events
    return [
        Match("SEQ(A,B)", {"b": second, "a": first}, 1.5),
        Match("SEQ(A,B)", {"a": third, "b": second}, 2.0),
        Match("KL", {"a": first, "k": [second, third, fourth], "c": fifth}, 3.0),
        Match("KL", {"a": third, "k": [], "c": fifth}, 3.0),
        Match("SEQ(A,B)", {"a": first, "b": fifth}, 3.0, pattern_id="tenant-7/seq"),
        Match("weird \"name\" ☃", {"z": fourth, "α": first}, float("nan")),
        Match("p", {"a": first}, float("inf"), pattern_id="p/∞"),
        Match("p", {"a": second}, float("-inf")),
    ]


class TestMatchEncoding:
    def test_lines_equal_match_record_dumps(self, tmp_path):
        matches = shared_event_matches()
        assert written(tmp_path, matches) == reference_lines(matches).encode("utf-8")

    def test_engine_matches_equal_match_record_dumps(self, tmp_path):
        a, b, c = EventType("A"), EventType("B"), EventType("C")
        items = [PatternItem("a", a), PatternItem("k", b, kleene=True), PatternItem("c", c)]
        condition = AndCondition(
            [EqualityCondition("a", "k", "person_id"), EqualityCondition("a", "c", "person_id")]
        )
        pattern = Pattern(PatternOperator.SEQUENCE, items, condition=condition, window=2.0)
        engine = AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())
        matches = engine.run(make_camera_stream(count=300, seed=9)).matches
        assert any(isinstance(match["k"], list) and len(match["k"]) > 1 for match in matches)
        assert written(tmp_path, matches) == reference_lines(matches).encode("utf-8")

    def test_equal_but_distinct_events_are_encoded_separately(self, tmp_path):
        a = TYPES["A"]
        first = Event(a, 1.0, {"x": 1}, sequence_number=3)
        twin = Event(a, 1.0, {"x": 2}, sequence_number=3)
        matches = [Match("p", {"a": first}, 1.0), Match("p", {"a": twin}, 1.0)]
        assert written(tmp_path, matches) == reference_lines(matches).encode("utf-8")

    def test_fragment_cache_stays_bounded(self, tmp_path):
        # Every event dies one match after it is born, so freed ids are
        # handed to new events all along: a cache that did not hold its
        # events alive would return another event's fragment.
        a = TYPES["A"]

        def match(index):
            return Match(
                "p",
                {"a": Event(a, float(index - 1), {"x": index - 1}, sequence_number=index - 1),
                 "b": Event(a, float(index), {"x": index}, sequence_number=index)},
                float(index),
            )

        path = tmp_path / "many.jsonl"
        writer = JSONLMatchWriter(str(path))
        writer.open()
        largest = 0
        for index in range(1, 100_001):
            writer.emit(match(index))
            largest = max(largest, len(writer._fragments))
        writer.close()
        assert largest <= sinks.FRAGMENT_CACHE
        assert writer.matches_written == 100_000
        with open(path, "r", encoding="utf-8") as handle:
            for index, line in enumerate(handle, 1):
                assert line == json.dumps(match_record(match(index))) + "\n"

    def test_restore_truncates_and_continues_byte_identical(self, tmp_path):
        matches = shared_event_matches()
        path = tmp_path / "rollback.jsonl"
        writer = JSONLMatchWriter(str(path))
        writer.open()
        for match in matches[:3]:
            writer.emit(match)
        state = writer.state()
        for match in matches[3:6]:
            writer.emit(match)
        writer.restore(state)
        assert path.read_bytes() == reference_lines(matches[:3]).encode("utf-8")
        assert writer.matches_written == 3
        for match in matches[3:]:
            writer.emit(match)
        writer.close()
        assert path.read_bytes() == reference_lines(matches).encode("utf-8")

