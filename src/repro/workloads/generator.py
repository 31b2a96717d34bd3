"""Pattern-set generation over a dataset simulator.

A :class:`WorkloadGenerator` deterministically derives patterns from a
dataset: it picks the participating event types (spreading them across the
dataset's rate skew so reordering actually matters), adds the dataset's
natural inter-event predicate between consecutive variables, and applies
the requested operator family.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.conditions import ConditionSet, EqualityCondition
from repro.datasets.base import DatasetSimulator
from repro.errors import DatasetError
from repro.events import EventType, InMemoryEventStream
from repro.multi.registry import PatternSet
from repro.patterns import Pattern, PatternItem, PatternOperator

#: The five pattern families of the paper's evaluation (Appendix A).
PATTERN_FAMILIES = ("sequence", "conjunction", "negation", "kleene", "composite")

_VARIABLE_NAMES = "abcdefghijklmnopqrstuvwxyz"


class WorkloadGenerator:
    """Derives the paper's pattern families from a dataset simulator.

    Parameters
    ----------
    dataset:
        The dataset the patterns will be evaluated on.
    seed:
        Seed controlling which event types are picked for each pattern.
    window:
        Optional fixed time window; defaults to the dataset's
        size-dependent recommendation.
    """

    def __init__(
        self,
        dataset: DatasetSimulator,
        seed: int = 0,
        window: Optional[float] = None,
    ):
        self.dataset = dataset
        self._seed = int(seed)
        self._window = window

    # ------------------------------------------------------------------
    # Type selection
    # ------------------------------------------------------------------
    def select_types(self, count: int, variant: int = 0) -> List[EventType]:
        """Pick ``count`` distinct event types spread across the rate skew.

        Types are ranked by their arrival rate at time 0 and sampled evenly
        across that ranking, so every pattern mixes frequent and rare types
        — the situation in which plan (re)ordering matters most.
        """
        names = self.dataset.type_names()
        if count > len(names):
            raise DatasetError(
                f"pattern size {count} exceeds the dataset's {len(names)} event types"
            )
        ranked = sorted(names, key=lambda n: self.dataset.true_rate(n, 0.0))
        rng = np.random.default_rng(self._seed * 1000 + variant * 17 + count)
        positions = np.linspace(0, len(ranked) - 1, num=count)
        chosen: List[str] = []
        for position in positions:
            index = int(round(position + rng.integers(-1, 2)))
            index = min(len(ranked) - 1, max(0, index))
            while ranked[index] in chosen:
                index = (index + 1) % len(ranked)
            chosen.append(ranked[index])
        # Shuffle so the declared pattern order is not already sorted by rate
        # (otherwise the initial pattern-order plan would be optimal already).
        rng.shuffle(chosen)
        return [self.dataset.event_type(name) for name in chosen]

    def _window_for(self, size: int) -> float:
        if self._window is not None:
            return self._window
        return self.dataset.default_window(size)

    def _chain_conditions(self, variables: Sequence[str]) -> ConditionSet:
        """The dataset's predicate between every pair of consecutive variables."""
        conditions = ConditionSet()
        for first, second in zip(variables, variables[1:]):
            conditions.add(self.dataset.condition_between(first, second))
        return conditions

    # ------------------------------------------------------------------
    # Pattern families
    # ------------------------------------------------------------------
    def sequence_pattern(self, size: int, variant: int = 0) -> Pattern:
        """A plain SEQ pattern of the given size."""
        types = self.select_types(size, variant)
        variables = list(_VARIABLE_NAMES[:size])
        items = [PatternItem(v, t) for v, t in zip(variables, types)]
        return Pattern(
            PatternOperator.SEQUENCE,
            items,
            condition=self._chain_conditions(variables),
            window=self._window_for(size),
            name=f"{self.dataset.name}-seq-{size}-{variant}",
        )

    def conjunction_pattern(self, size: int, variant: int = 0) -> Pattern:
        """An AND pattern: the sequence pattern minus its temporal constraints."""
        types = self.select_types(size, variant)
        variables = list(_VARIABLE_NAMES[:size])
        items = [PatternItem(v, t) for v, t in zip(variables, types)]
        return Pattern(
            PatternOperator.CONJUNCTION,
            items,
            condition=self._chain_conditions(variables),
            window=self._window_for(size),
            name=f"{self.dataset.name}-and-{size}-{variant}",
        )

    def negation_pattern(self, size: int, variant: int = 0) -> Pattern:
        """A sequence with one additional negated event at a random position.

        Matching the paper, the negated event does not count towards the
        pattern size: the pattern has ``size`` positive items plus one
        negated item.
        """
        types = self.select_types(size + 1, variant)
        rng = np.random.default_rng(self._seed * 333 + variant * 7 + size)
        negated_slot = int(rng.integers(1, size))  # strictly inside the sequence
        variables = list(_VARIABLE_NAMES[: size + 1])
        items: List[PatternItem] = []
        positive_variables: List[str] = []
        for index, (variable, event_type) in enumerate(zip(variables, types)):
            negated = index == negated_slot
            items.append(PatternItem(variable, event_type, negated=negated))
            if not negated:
                positive_variables.append(variable)
        return Pattern(
            PatternOperator.SEQUENCE,
            items,
            condition=self._chain_conditions(positive_variables),
            window=self._window_for(size),
            name=f"{self.dataset.name}-neg-{size}-{variant}",
        )

    def kleene_pattern(self, size: int, variant: int = 0) -> Pattern:
        """A sequence with one item under Kleene closure."""
        types = self.select_types(size, variant)
        rng = np.random.default_rng(self._seed * 555 + variant * 13 + size)
        kleene_slot = int(rng.integers(0, size))
        variables = list(_VARIABLE_NAMES[:size])
        items = [
            PatternItem(v, t, kleene=(index == kleene_slot))
            for index, (v, t) in enumerate(zip(variables, types))
        ]
        return Pattern(
            PatternOperator.SEQUENCE,
            items,
            condition=self._chain_conditions(variables),
            window=self._window_for(size),
            name=f"{self.dataset.name}-kleene-{size}-{variant}",
        )

    def keyed_sequence_pattern(
        self, size: int, key: str = "entity_id", variant: int = 0
    ) -> Pattern:
        """A SEQ pattern whose events must all belong to one entity.

        On top of the dataset's natural inter-event predicates, consecutive
        variables are joined by an equality on ``key`` (like the paper's
        ``person_id`` joins in Example 1).  Because the equality chain
        connects every variable, such patterns pass
        :meth:`repro.parallel.KeyPartitioner.validate` and can be sharded
        by ``key`` without losing matches.
        """
        types = self.select_types(size, variant)
        variables = list(_VARIABLE_NAMES[:size])
        items = [PatternItem(v, t) for v, t in zip(variables, types)]
        conditions = self._chain_conditions(variables)
        for first, second in zip(variables, variables[1:]):
            conditions.add(EqualityCondition(first, second, key))
        return Pattern(
            PatternOperator.SEQUENCE,
            items,
            condition=conditions,
            window=self._window_for(size),
            name=f"{self.dataset.name}-keyedseq-{size}-{variant}",
        )

    def keyed_stream(
        self,
        duration: float,
        entities: int = 8,
        key: str = "entity_id",
        seed: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> InMemoryEventStream:
        """The dataset's stream with a random entity identifier per event.

        Simulates a multi-entity (multi-user, multi-symbol, multi-road)
        deployment: each event is tagged with one of ``entities`` key
        values, deterministically from ``seed``.  Combined with
        :meth:`keyed_sequence_pattern` this is the workload that exercises
        key-partitioned scale-out.
        """
        if entities < 1:
            raise DatasetError(f"entities must be positive, got {entities!r}")
        base = self.dataset.generate(duration, seed=seed, max_events=max_events)
        rng = np.random.default_rng(
            self._seed * 7919 + entities + (0 if seed is None else seed * 104729)
        )
        assignments = rng.integers(0, entities, size=len(base))
        events = [
            event.with_payload(**{key: int(entity)})
            for event, entity in zip(base, assignments)
        ]
        return InMemoryEventStream(events, sort=False)

    def keyed_workload(
        self,
        size: int,
        duration: float,
        entities: int = 8,
        key: str = "entity_id",
        variant: int = 0,
        seed: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> Tuple[Pattern, InMemoryEventStream]:
        """Convenience bundle: keyed pattern plus matching keyed stream."""
        pattern = self.keyed_sequence_pattern(size, key=key, variant=variant)
        stream = self.keyed_stream(
            duration, entities=entities, key=key, seed=seed, max_events=max_events
        )
        return pattern, stream

    def composite_pattern(self, size: int, variant: int = 0) -> PatternSet:
        """A disjunction of three independent sequences of the given size."""
        subpatterns = [
            self.sequence_pattern(size, variant=variant * 10 + branch)
            for branch in range(3)
        ]
        return PatternSet(
            subpatterns, name=f"{self.dataset.name}-composite-{size}-{variant}"
        )

    def similar_sequence_patterns(
        self, count: int, size: int = 3, variant: int = 0
    ) -> List[Pattern]:
        """A family of ``count`` sequences sharing a common declared prefix.

        The multi-pattern serving workload: every pattern opens with the
        same ``size - 1`` items over the dataset's *rarest* event types
        (rare openers keep the lazy-NFA plan order aligned with the
        declared prefix, so the prefix stays shareable after re-planning)
        and closes with a final item cycling over the remaining,
        higher-rate types.  The chain conditions over the prefix are the
        *same condition objects* in every pattern — exactly what a real
        deployment registering one predicate library would do — so their
        :meth:`~repro.conditions.Condition.cache_key` sets are provably
        identical even for opaque predicate conditions and the prefix is
        shareable across the whole family.
        """
        if size < 2:
            raise DatasetError("similar patterns need size >= 2 (prefix + final)")
        names = self.dataset.type_names()
        if size > len(names):
            raise DatasetError(
                f"pattern size {size} exceeds the dataset's {len(names)} event types"
            )
        ranked = sorted(names, key=lambda n: self.dataset.true_rate(n, 0.0))
        # Prefix from the rare end of the rate ranking, skipping the very
        # rarest type: the extreme of the skew is often a physical outlier
        # (on the traffic feed, the near-empty road whose readings can never
        # co-move with a congested point), which would starve the shared
        # prefix of completions.
        skip = 1 if len(ranked) > size else 0
        prefix_types = [
            self.dataset.event_type(n) for n in ranked[skip : skip + size - 1]
        ]
        final_names = ranked[skip + size - 1 :] + ranked[:skip]
        variables = list(_VARIABLE_NAMES[:size])
        window = self._window_for(size)
        shared_chain = [
            self.dataset.condition_between(first, second)
            for first, second in zip(variables, variables[1:])
        ]
        patterns: List[Pattern] = []
        for index in range(count):
            final_name = final_names[index % len(final_names)]
            items = [
                PatternItem(v, t) for v, t in zip(variables, prefix_types)
            ] + [PatternItem(variables[-1], self.dataset.event_type(final_name))]
            conditions = ConditionSet()
            for condition in shared_chain:
                conditions.add(condition)
            patterns.append(
                Pattern(
                    PatternOperator.SEQUENCE,
                    items,
                    condition=conditions,
                    window=window,
                    name=f"{self.dataset.name}-sim-{size}-{variant}-{index}",
                )
            )
        return patterns

    # ------------------------------------------------------------------
    # Pattern sets
    # ------------------------------------------------------------------
    def pattern(self, family: str, size: int, variant: int = 0):
        """Build one pattern of the requested family and size."""
        if family not in PATTERN_FAMILIES:
            raise DatasetError(
                f"unknown pattern family {family!r}; expected one of {PATTERN_FAMILIES}"
            )
        builder = {
            "sequence": self.sequence_pattern,
            "conjunction": self.conjunction_pattern,
            "negation": self.negation_pattern,
            "kleene": self.kleene_pattern,
            "composite": self.composite_pattern,
        }[family]
        return builder(size, variant)

    def pattern_set(
        self, family: str, sizes: Sequence[int] = (3, 4, 5, 6, 7, 8)
    ) -> Dict[int, object]:
        """The paper's pattern set: one pattern per size for a family."""
        return {size: self.pattern(family, size) for size in sizes}

    def all_pattern_sets(
        self, sizes: Sequence[int] = (3, 4, 5, 6, 7, 8)
    ) -> Dict[str, Dict[int, object]]:
        """All five pattern families (used when averaging like the paper)."""
        return {family: self.pattern_set(family, sizes) for family in PATTERN_FAMILIES}
