"""Unit tests for the event model substrate."""

from __future__ import annotations

import pytest

from repro.errors import DatasetError, SchemaError
from repro.events import (
    AttributeSpec,
    Event,
    EventSchema,
    EventType,
    EventStream,
    GeneratorEventStream,
    InMemoryEventStream,
    MergedEventStream,
)
from repro.events.stream import stream_from_tuples


class _UnsizedStream(EventStream):
    """A sorted stream without a defined length (e.g. a live subscription)."""

    def __init__(self, events):
        self._events = list(events)

    def __iter__(self):
        return iter(self._events)


class TestAttributeSpec:
    def test_validate_accepts_correct_type(self):
        AttributeSpec("speed", float).validate(12.5)

    def test_validate_accepts_int_where_float_expected(self):
        AttributeSpec("speed", float).validate(12)

    def test_validate_rejects_wrong_type(self):
        with pytest.raises(SchemaError):
            AttributeSpec("speed", float).validate("fast")

    def test_validate_rejects_missing_required(self):
        with pytest.raises(SchemaError):
            AttributeSpec("speed", float, required=True).validate(None)

    def test_validate_accepts_missing_optional(self):
        AttributeSpec("speed", float, required=False).validate(None)

    def test_object_dtype_accepts_anything(self):
        AttributeSpec("payload", object).validate({"nested": 1})


class TestEventSchema:
    def test_attribute_names_preserved_in_order(self):
        schema = EventSchema([AttributeSpec("a"), AttributeSpec("b")])
        assert schema.attribute_names == ("a", "b")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            EventSchema([AttributeSpec("a"), AttributeSpec("a")])

    def test_contains_and_len(self):
        schema = EventSchema([AttributeSpec("a"), AttributeSpec("b")])
        assert "a" in schema and "c" not in schema
        assert len(schema) == 2

    def test_validate_payload_missing_required(self):
        schema = EventSchema([AttributeSpec("a", float)])
        with pytest.raises(SchemaError):
            schema.validate_payload({})

    def test_validate_payload_allows_extra_attributes(self):
        schema = EventSchema([AttributeSpec("a", float)])
        schema.validate_payload({"a": 1.0, "extra": "ok"})

    def test_get_returns_spec_or_none(self):
        spec = AttributeSpec("a", float)
        schema = EventSchema([spec])
        assert schema.get("a") is spec
        assert schema.get("missing") is None


class TestEventType:
    def test_equality_is_by_name(self):
        assert EventType("A") == EventType("A")
        assert EventType("A") != EventType("B")

    def test_usable_as_dict_key(self):
        mapping = {EventType("A"): 1}
        assert mapping[EventType("A")] == 1

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            EventType("")

    def test_str_is_name(self):
        assert str(EventType("STK")) == "STK"

    def test_schema_validation_through_type(self):
        schema = EventSchema([AttributeSpec("price", float)])
        stock = EventType("STK", schema=schema)
        stock.validate_payload({"price": 10.0})
        with pytest.raises(SchemaError):
            stock.validate_payload({"price": "ten"})


class TestEvent:
    def test_basic_accessors(self):
        event = Event(EventType("A"), 3.5, {"x": 1})
        assert event.type_name == "A"
        assert event.timestamp == 3.5
        assert event["x"] == 1
        assert event.get("missing", 7) == 7
        assert "x" in event and "y" not in event

    def test_getitem_missing_raises_keyerror(self):
        event = Event(EventType("A"), 0.0)
        with pytest.raises(KeyError):
            event["nope"]

    def test_requires_event_type_instance(self):
        with pytest.raises(SchemaError):
            Event("A", 0.0)  # type: ignore[arg-type]

    def test_ordering_by_timestamp(self):
        early = Event(EventType("A"), 1.0)
        late = Event(EventType("B"), 2.0)
        assert early < late
        assert sorted([late, early]) == [early, late]

    def test_ordering_tie_broken_by_sequence_number(self):
        first = Event(EventType("A"), 1.0)
        second = Event(EventType("A"), 1.0)
        assert first < second  # created earlier

    def test_with_payload_returns_updated_copy(self):
        event = Event(EventType("A"), 1.0, {"x": 1})
        updated = event.with_payload(x=2, y=3)
        assert updated["x"] == 2 and updated["y"] == 3
        assert event["x"] == 1 and "y" not in event

    def test_validation_flag(self):
        schema = EventSchema([AttributeSpec("x", float)])
        typed = EventType("A", schema=schema)
        Event(typed, 0.0, {"x": 1.0}, validate=True)
        with pytest.raises(SchemaError):
            Event(typed, 0.0, {"x": "bad"}, validate=True)

    def test_equality_and_hash(self):
        a1 = Event(EventType("A"), 1.0, {"x": 1}, sequence_number=5)
        a2 = Event(EventType("A"), 1.0, {"x": 1}, sequence_number=5)
        assert a1 == a2
        assert hash(a1) == hash(a2)


class TestInMemoryEventStream:
    def test_sorts_events_by_default(self):
        a = Event(EventType("A"), 5.0)
        b = Event(EventType("B"), 1.0)
        stream = InMemoryEventStream([a, b])
        assert [e.timestamp for e in stream] == [1.0, 5.0]

    def test_unsorted_input_rejected_when_sort_disabled(self):
        a = Event(EventType("A"), 5.0)
        b = Event(EventType("B"), 1.0)
        with pytest.raises(DatasetError):
            InMemoryEventStream([a, b], sort=False)

    def test_len_and_indexing(self):
        events = [Event(EventType("A"), float(i)) for i in range(4)]
        stream = InMemoryEventStream(events)
        assert len(stream) == 4
        assert stream[0].timestamp == 0.0

    def test_count_by_type(self):
        events = [Event(EventType("A"), 0.0), Event(EventType("A"), 1.0), Event(EventType("B"), 2.0)]
        assert InMemoryEventStream(events).count_by_type() == {"A": 2, "B": 1}

    def test_count_by_type_empty_stream(self):
        assert InMemoryEventStream([]).count_by_type() == {}

    def test_count_by_type_on_unsized_stream(self):
        events = [Event(EventType("A"), 0.0), Event(EventType("B"), 1.0)]
        assert _UnsizedStream(events).count_by_type() == {"A": 1, "B": 1}

    def test_len_empty_stream(self):
        assert len(InMemoryEventStream([])) == 0

    def test_len_counts_duplicated_timestamps(self):
        events = [Event(EventType("A"), 1.0) for _ in range(3)]
        assert len(InMemoryEventStream(events)) == 3

    def test_unsized_stream_has_no_len(self):
        with pytest.raises(TypeError):
            len(_UnsizedStream([]))

    def test_time_span(self):
        events = [Event(EventType("A"), 1.0), Event(EventType("A"), 6.0)]
        assert InMemoryEventStream(events).time_span() == 5.0
        assert InMemoryEventStream(events[:1]).time_span() == 0.0

    def test_filter_types(self):
        events = [Event(EventType("A"), 0.0), Event(EventType("B"), 1.0)]
        filtered = InMemoryEventStream(events).filter_types([EventType("B")])
        assert [e.type_name for e in filtered] == ["B"]

    def test_slice_time_is_half_open(self):
        events = [Event(EventType("A"), float(i)) for i in range(5)]
        sliced = InMemoryEventStream(events).slice_time(1.0, 3.0)
        assert [e.timestamp for e in sliced] == [1.0, 2.0]


class TestGeneratorEventStream:
    def _events(self, count=4):
        return [Event(EventType("A"), float(t)) for t in range(count)]

    def test_yields_lazily_from_generator(self):
        events = self._events()
        stream = GeneratorEventStream(e for e in events)
        assert list(stream) == events

    def test_reiteration_raises_instead_of_yielding_nothing(self):
        stream = GeneratorEventStream(iter(self._events()))
        stream.to_list()
        with pytest.raises(DatasetError, match="single-pass"):
            iter(stream)

    def test_to_list_after_consumption_raises(self):
        stream = GeneratorEventStream(iter(self._events()))
        list(stream)
        with pytest.raises(DatasetError):
            stream.to_list()

    def test_consumed_flag(self):
        stream = GeneratorEventStream(iter(self._events()))
        assert not stream.consumed
        iter(stream)
        assert stream.consumed

    def test_has_no_len(self):
        with pytest.raises(TypeError):
            len(GeneratorEventStream(iter(self._events())))

    def test_merged_over_consumed_generator_raises(self):
        generator_stream = GeneratorEventStream(iter(self._events()))
        merged = MergedEventStream([generator_stream])
        assert len(list(merged)) == 4
        with pytest.raises(DatasetError, match="single-pass"):
            list(merged)


class TestMergedEventStream:
    def test_merges_in_timestamp_order(self):
        s1 = InMemoryEventStream([Event(EventType("A"), t) for t in (0.0, 2.0)])
        s2 = InMemoryEventStream([Event(EventType("B"), t) for t in (1.0, 3.0)])
        merged = MergedEventStream([s1, s2])
        assert [e.timestamp for e in merged] == [0.0, 1.0, 2.0, 3.0]
        assert len(merged) == 4

    def test_requires_at_least_one_stream(self):
        with pytest.raises(DatasetError):
            MergedEventStream([])

    def test_len_sums_sized_sub_streams(self):
        streams = [
            InMemoryEventStream([Event(EventType("A"), float(i)) for i in range(n)])
            for n in (0, 2, 5)
        ]
        assert len(MergedEventStream(streams)) == 7

    def test_len_with_unsized_sub_stream_raises_named_typeerror(self):
        sized = InMemoryEventStream([Event(EventType("A"), 0.0)])
        merged = MergedEventStream([sized, _UnsizedStream([])])
        with pytest.raises(TypeError, match="_UnsizedStream"):
            len(merged)


class TestStreamFromTuples:
    def test_builds_payloads_from_attribute_names(self):
        types = {"A": EventType("A")}
        stream = stream_from_tuples(
            [("A", 1.0, 42)], types, attribute_names=["value"]
        )
        assert stream[0]["value"] == 42

    def test_unknown_type_rejected(self):
        with pytest.raises(DatasetError):
            stream_from_tuples([("X", 1.0)], {"A": EventType("A")})

    def test_too_many_values_rejected(self):
        with pytest.raises(DatasetError):
            stream_from_tuples(
                [("A", 1.0, 1, 2)], {"A": EventType("A")}, attribute_names=["only_one"]
            )
