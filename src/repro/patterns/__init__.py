"""Pattern specification layer.

Patterns describe which combinations of primitive events should be reported
as complex events: an operator (sequence or conjunction), the
participating event types with optional negation / Kleene-closure modifiers,
a Boolean condition over the events' attributes, and a time window.  A
composite (disjunction) pattern is a :class:`~repro.multi.PatternSet` of
such patterns.
"""

from repro.patterns.operators import PatternOperator
from repro.patterns.pattern import Pattern, PatternItem
from repro.patterns.builder import PatternBuilder, seq, conjunction

__all__ = [
    "PatternOperator",
    "Pattern",
    "PatternItem",
    "PatternBuilder",
    "seq",
    "conjunction",
]
