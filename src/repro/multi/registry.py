"""Pattern registry for multi-pattern serving.

A :class:`PatternSet` is the unit of deployment for shared one-pass
evaluation: a mutable, ordered collection of patterns with stable ids.
Ids survive ``add``/``remove`` churn (removing pattern 3 never renames
pattern 7), so sinks, decision logs and per-pattern metrics can attribute
matches across redeployments.

A pattern set is also the paper's *composite pattern* (a disjunction of
sub-patterns, each planned and evaluated independently): it is the one
pattern-collection type, and every host — partitioner validation, sharded
replica construction, the experiment runner — tells it from a single
:class:`~repro.patterns.Pattern` with ``isinstance(x, Pattern)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import PatternError
from repro.events import EventType
from repro.patterns import Pattern
from repro.patterns.operators import PatternOperator


class PatternSet:
    """An ordered registry of patterns with stable, unique ids.

    Parameters
    ----------
    patterns:
        Initial patterns; each is registered under its own name as id.
    name:
        Registry name used in reports (defaults to ``"patterns[N]"``).
    """

    def __init__(
        self,
        patterns: Iterable[Pattern] = (),
        name: Optional[str] = None,
    ):
        self._by_id: Dict[str, Pattern] = {}
        self._id_by_name: Dict[str, str] = {}
        self._explicit_name = name
        for pattern in patterns:
            self.add(pattern)

    # ------------------------------------------------------------------
    # Registry API
    # ------------------------------------------------------------------
    def add(self, pattern: Pattern, pattern_id: Optional[str] = None) -> str:
        """Register a pattern under a stable id (default: its name).

        Ids and pattern names must both be unique within the set: ids are
        the provenance tag on emitted matches, and names key the engines'
        dedup/state frames.
        """
        if not isinstance(pattern, Pattern):
            raise PatternError(
                f"PatternSet holds Pattern instances, got {type(pattern).__name__}"
            )
        resolved = pattern_id or pattern.name
        if resolved in self._by_id:
            raise PatternError(f"pattern id {resolved!r} is already registered")
        if pattern.name in self._id_by_name:
            raise PatternError(
                f"pattern name {pattern.name!r} is already registered "
                f"(as id {self._id_by_name[pattern.name]!r}); pattern names "
                "must be unique within a PatternSet"
            )
        self._by_id[resolved] = pattern
        self._id_by_name[pattern.name] = resolved
        return resolved

    def remove(self, pattern_id: str) -> Pattern:
        """Unregister and return the pattern with the given id."""
        try:
            pattern = self._by_id.pop(pattern_id)
        except KeyError:
            raise PatternError(f"no pattern registered under id {pattern_id!r}") from None
        del self._id_by_name[pattern.name]
        return pattern

    def get(self, pattern_id: str) -> Pattern:
        try:
            return self._by_id[pattern_id]
        except KeyError:
            raise PatternError(f"no pattern registered under id {pattern_id!r}") from None

    def id_for(self, pattern_name: str) -> Optional[str]:
        """The id a pattern name was registered under, or ``None``."""
        return self._id_by_name.get(pattern_name)

    def ids(self) -> Tuple[str, ...]:
        return tuple(self._by_id)

    def items(self) -> Tuple[Tuple[str, Pattern], ...]:
        """``(id, pattern)`` pairs in registration order."""
        return tuple(self._by_id.items())

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, pattern_id: object) -> bool:
        return pattern_id in self._by_id

    # ------------------------------------------------------------------
    # Composite-pattern surface (the set as one disjunction)
    # ------------------------------------------------------------------
    @property
    def operator(self) -> PatternOperator:
        return PatternOperator.DISJUNCTION

    @property
    def name(self) -> str:
        return self._explicit_name or f"patterns[{len(self._by_id)}]"

    @property
    def window(self) -> float:
        if not self._by_id:
            return float("inf")
        return max(p.window for p in self._by_id.values())

    @property
    def size(self) -> int:
        """Composite pattern size: the size of each sub-sequence (Appendix A)."""
        return max((p.size for p in self._by_id.values()), default=0)

    def subpatterns(self) -> Tuple[Pattern, ...]:
        return tuple(self._by_id.values())

    def event_types(self) -> Tuple[EventType, ...]:
        types: List[EventType] = []
        seen = set()
        for pattern in self._by_id.values():
            for event_type in pattern.event_types:
                if event_type.name not in seen:
                    seen.add(event_type.name)
                    types.append(event_type)
        return tuple(types)

    def __repr__(self) -> str:
        return f"PatternSet({', '.join(self._by_id)})"

