"""Pattern operators supported by the library.

The paper's evaluation exercises five pattern families built from these
operators: plain sequences, conjunctions, sequences with a negated event,
sequences with a Kleene-closure event, and composite patterns (disjunctions
of sequences, held by a :class:`~repro.multi.PatternSet`).
"""

from __future__ import annotations

from enum import Enum


class PatternOperator(Enum):
    """Top-level or item-level pattern operators.

    ``SEQUENCE`` and ``CONJUNCTION`` are top-level operators over the
    pattern's primitive items.  ``DISJUNCTION`` is the top-level operator of
    a :class:`~repro.multi.PatternSet`, the one pattern-collection type.  ``NEGATION`` and
    ``KLEENE_CLOSURE`` are item-level modifiers attached to individual
    primitive events.
    """

    SEQUENCE = "SEQ"
    CONJUNCTION = "AND"
    DISJUNCTION = "OR"
    NEGATION = "NOT"
    KLEENE_CLOSURE = "KLEENE"

    def __str__(self) -> str:
        return self.value

    @property
    def is_top_level(self) -> bool:
        """Whether this operator can be a pattern's root operator."""
        return self in (
            PatternOperator.SEQUENCE,
            PatternOperator.CONJUNCTION,
            PatternOperator.DISJUNCTION,
        )

    @property
    def is_modifier(self) -> bool:
        """Whether this operator modifies a single primitive item."""
        return self in (PatternOperator.NEGATION, PatternOperator.KLEENE_CLOSURE)
