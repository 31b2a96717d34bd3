"""Unit tests for the pattern specification layer."""

from __future__ import annotations

import pytest

from repro.conditions import EqualityCondition
from repro.errors import PatternError
from repro.events import EventType
from repro.multi import PatternSet
from repro.patterns import (
    Pattern,
    PatternBuilder,
    PatternItem,
    PatternOperator,
    conjunction,
    seq,
)
from repro.patterns.pattern import validate_pattern_types


A, B, C, D = EventType("A"), EventType("B"), EventType("C"), EventType("D")


class TestPatternOperator:
    def test_top_level_operators(self):
        assert PatternOperator.SEQUENCE.is_top_level
        assert PatternOperator.CONJUNCTION.is_top_level
        assert PatternOperator.DISJUNCTION.is_top_level
        assert not PatternOperator.NEGATION.is_top_level

    def test_modifiers(self):
        assert PatternOperator.NEGATION.is_modifier
        assert PatternOperator.KLEENE_CLOSURE.is_modifier
        assert not PatternOperator.SEQUENCE.is_modifier

    def test_str(self):
        assert str(PatternOperator.SEQUENCE) == "SEQ"


class TestPatternItem:
    def test_basic(self):
        item = PatternItem("a", A)
        assert item.type_name == "A"
        assert not item.negated and not item.kleene

    def test_negated_and_kleene_mutually_exclusive(self):
        with pytest.raises(PatternError):
            PatternItem("a", A, negated=True, kleene=True)

    def test_empty_variable_rejected(self):
        with pytest.raises(PatternError):
            PatternItem("", A)

    def test_repr_shows_modifiers(self):
        assert "~" in repr(PatternItem("a", A, negated=True))
        assert "*" in repr(PatternItem("a", A, kleene=True))


class TestPattern:
    def test_seq_helper(self):
        pattern = seq([A, B, C], window=10)
        assert pattern.operator is PatternOperator.SEQUENCE
        assert pattern.size == 3
        assert pattern.variables == ("a", "b", "c")
        assert pattern.window == 10

    def test_conjunction_helper(self):
        pattern = conjunction([A, B], window=5)
        assert pattern.operator is PatternOperator.CONJUNCTION
        assert pattern.is_conjunction()

    def test_duplicate_variables_rejected(self):
        with pytest.raises(PatternError):
            Pattern(
                PatternOperator.SEQUENCE,
                [PatternItem("a", A), PatternItem("a", B)],
            )

    def test_empty_pattern_rejected(self):
        with pytest.raises(PatternError):
            Pattern(PatternOperator.SEQUENCE, [])

    def test_all_negated_rejected(self):
        with pytest.raises(PatternError):
            Pattern(PatternOperator.SEQUENCE, [PatternItem("a", A, negated=True)])

    def test_nonpositive_window_rejected(self):
        with pytest.raises(PatternError):
            seq([A, B], window=0)

    def test_disjunction_root_rejected_for_pattern(self):
        with pytest.raises(PatternError, match="PatternSet"):
            Pattern(PatternOperator.DISJUNCTION, [PatternItem("a", A)])

    def test_condition_referencing_unknown_variable_rejected(self):
        with pytest.raises(PatternError):
            seq([A, B], condition=EqualityCondition("a", "z", "pid"))

    def test_size_excludes_negated_items(self):
        pattern = Pattern(
            PatternOperator.SEQUENCE,
            [PatternItem("a", A), PatternItem("n", B, negated=True), PatternItem("c", C)],
        )
        assert pattern.size == 2
        assert len(pattern.negated_items) == 1
        assert [item.variable for item in pattern.positive_items] == ["a", "c"]

    def test_size_includes_kleene_items(self):
        pattern = Pattern(
            PatternOperator.SEQUENCE,
            [PatternItem("a", A), PatternItem("k", B, kleene=True)],
        )
        assert pattern.size == 2
        assert len(pattern.kleene_items) == 1

    def test_item_lookup(self):
        pattern = seq([A, B])
        assert pattern.item_by_variable("a").event_type == A
        with pytest.raises(PatternError):
            pattern.item_by_variable("zzz")

    def test_items_by_type(self):
        pattern = seq([A, B])
        assert len(pattern.items_by_type("A")) == 1
        assert pattern.items_by_type("Z") == []

    def test_positive_index(self):
        pattern = Pattern(
            PatternOperator.SEQUENCE,
            [PatternItem("a", A), PatternItem("n", B, negated=True), PatternItem("c", C)],
        )
        assert pattern.positive_index("a") == 0
        assert pattern.positive_index("c") == 1
        with pytest.raises(PatternError):
            pattern.positive_index("n")

    def test_distinct_type_names(self):
        pattern = Pattern(
            PatternOperator.SEQUENCE,
            [PatternItem("a1", A), PatternItem("a2", A), PatternItem("b", B)],
        )
        assert pattern.distinct_type_names() == ("A", "B")

    def test_default_name(self):
        assert seq([A, B]).name == "SEQ(A,B)"

    def test_custom_name(self):
        assert seq([A, B], name="my-pattern").name == "my-pattern"

    def test_subpatterns_of_plain_pattern(self):
        pattern = seq([A, B])
        assert pattern.subpatterns() == (pattern,)

    def test_default_window_is_infinite(self):
        assert seq([A, B]).window == float("inf")

    def test_validate_pattern_types(self):
        pattern = seq([A, B])
        validate_pattern_types(pattern, [A, B, C])
        with pytest.raises(PatternError):
            validate_pattern_types(pattern, [A, C])


class TestPatternBuilder:
    def test_full_build(self):
        pattern = (
            PatternBuilder.sequence()
            .event(A, "a")
            .event(B, "b")
            .negated_event(C, "n")
            .kleene_event(D, "k")
            .where(EqualityCondition("a", "b", "pid"))
            .within(60)
            .named("built")
            .build()
        )
        assert pattern.name == "built"
        assert pattern.window == 60
        assert len(pattern.items) == 4
        assert len(pattern.negated_items) == 1
        assert len(pattern.kleene_items) == 1
        assert len(pattern.conditions) == 1

    def test_default_variable_names(self):
        pattern = PatternBuilder.sequence().event(A).event(B).build()
        assert pattern.variables == ("a", "b")

    def test_default_variable_names_deduplicated(self):
        pattern = PatternBuilder.sequence().event(A).event(A).build()
        assert len(set(pattern.variables)) == 2

    def test_conjunction_builder(self):
        pattern = PatternBuilder.conjunction().event(A).event(B).build()
        assert pattern.is_conjunction()

    def test_invalid_window(self):
        with pytest.raises(PatternError):
            PatternBuilder.sequence().within(-1)

    def test_disjunction_root_not_allowed(self):
        with pytest.raises(PatternError, match="PatternSet"):
            PatternBuilder(PatternOperator.DISJUNCTION)


class TestCompositePattern:
    """The paper's composite pattern (a disjunction) is a ``PatternSet``."""

    def test_disjunction_helper(self):
        composite = PatternSet([seq([A, B], window=5), seq([C, D], window=8)])
        assert composite.operator is PatternOperator.DISJUNCTION
        assert len(composite.subpatterns()) == 2
        assert composite.window == 8

    def test_size_is_max_subpattern_size(self):
        composite = PatternSet([seq([A, B]), seq([A, B, C])])
        assert composite.size == 3

    def test_event_types_deduplicated(self):
        composite = PatternSet([seq([A, B]), seq([B, C])])
        names = [t.name for t in composite.event_types()]
        assert names == ["A", "B", "C"]

    def test_seq_variables_override(self):
        pattern = seq([A, B], variables=["x", "y"])
        assert pattern.variables == ("x", "y")

    def test_seq_variables_length_mismatch(self):
        with pytest.raises(PatternError):
            seq([A, B], variables=["x"])
