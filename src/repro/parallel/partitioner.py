"""Stream partitioning strategies.

A partitioner decides which shard(s) each event is routed to.  Three
strategies are provided:

* :class:`KeyPartitioner` — hash an event attribute, so all events sharing
  a key value land on the same shard.  Correct whenever every match is
  guaranteed to bind events of a single key — which :meth:`validate`
  checks conservatively from the pattern's conditions.
* :class:`RoundRobinPartitioner` — spread events evenly regardless of
  content.  Only correct for single-event patterns (a multi-event match
  could straddle shards), which :meth:`validate` enforces.
* :class:`BroadcastPartitioner` — replicate every event to every shard.
  Always correct for any pattern (each shard sees the full stream, so it
  finds the full match set); the merger deduplicates the replicated
  results.  Useful as a safe default and for testing, at the cost of
  doing the full work on every shard.

Partition safety is the classical condition for data-parallel CEP: key
partitioning preserves the match set iff the pattern's conditions confine
every match to one partition key.  We check this structurally: every
pattern variable (including negated ones, whose absence must also be
decided per key) must be connected to every other through equality
predicates on the partition attribute.  Conditions that correlate events
through *other* attributes (e.g. ``a.price < b.price``) do not constrain
the keys, so a match could span keys and key partitioning is refused.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.conditions import AttributeComparisonCondition
from repro.errors import PartitionError
from repro.events import Event
from repro.multi.registry import PatternSet
from repro.patterns import Pattern


def _stable_hash(value: object) -> int:
    """A process-independent hash (``hash()`` of strings is randomised).

    Numeric keys are canonicalised first so that values that compare equal
    under the engine's equality joins (``7 == 7.0 == True``) also land on
    the same shard — mirroring Python's own ``hash(1) == hash(1.0)``
    invariant.  NumPy scalars are unwrapped to the Python value they equal
    (their ``repr`` names the NumPy type, so ``np.int64(7)`` would
    otherwise hash away from ``7``).
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        value = int(value)
    elif isinstance(value, float) and value.is_integer():
        value = int(value)
    digest = hashlib.blake2b(repr(value).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


#: Keys :data:`_KEY_HASHES` may hold before it starts over.
KEY_HASH_MEMO_SIZE = 4096

#: ``_stable_hash`` of recently routed keys whose exact type is ``int`` or
#: ``str``.  Only those two types enter, so keys that compare equal across
#: types (``1 == 1.0 == True``) never share an entry, and the memo lives at
#: module level so partitioners (and their checkpoints) hold no extra state.
_KEY_HASHES: Dict[object, int] = {}


def _key_hash(value: object) -> int:
    """``_stable_hash(value)``, memoised for plain ``int`` and ``str`` keys."""
    if type(value) is not int and type(value) is not str:
        return _stable_hash(value)
    hashed = _KEY_HASHES.get(value)
    if hashed is None:
        hashed = _stable_hash(value)
        if len(_KEY_HASHES) >= KEY_HASH_MEMO_SIZE:
            _KEY_HASHES.clear()
        _KEY_HASHES[value] = hashed
    return hashed


class Partitioner:
    """Base class for partitioning strategies."""

    #: Name used in reports and CLI output.
    name: str = "partitioner"

    def route(self, event: Event, num_shards: int) -> Tuple[int, ...]:
        """Shard indices (in ``range(num_shards)``) this event is sent to."""
        raise NotImplementedError

    def validate(self, pattern: Pattern | PatternSet, num_shards: int) -> None:
        """Raise :class:`PartitionError` if sharded detection under this
        strategy could miss matches of ``pattern``.  The default accepts
        everything; strategies that split the stream override it."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class BroadcastPartitioner(Partitioner):
    """Replicate every event to every shard (always correct)."""

    name = "broadcast"

    def route(self, event: Event, num_shards: int) -> Tuple[int, ...]:
        return tuple(range(num_shards))


class RoundRobinPartitioner(Partitioner):
    """Cycle through the shards event by event.

    Splits the stream with no regard for content, so two events of one
    match can land on different shards.  :meth:`validate` therefore only
    accepts single-event patterns (or a single shard, where no split
    happens).
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def route(self, event: Event, num_shards: int) -> Tuple[int, ...]:
        shard = self._next % num_shards
        self._next += 1
        return (shard,)

    def validate(self, pattern: Pattern | PatternSet, num_shards: int) -> None:
        if num_shards <= 1:
            return
        for subpattern in pattern.subpatterns():
            # A Kleene item binds several events even in a one-item pattern,
            # so splitting the stream would split (and corrupt) its runs.
            if len(subpattern.items) > 1 or any(
                item.kleene for item in subpattern.items
            ):
                raise PartitionError(
                    f"round-robin partitioning over {num_shards} shards would "
                    f"scatter the events of a multi-event match of pattern "
                    f"({subpattern.name!r}) across shards and corrupt the "
                    "match set; use KeyPartitioner or BroadcastPartitioner"
                )


class KeyPartitioner(Partitioner):
    """Route events by the hash of one payload attribute.

    All events carrying the same key value land on the same shard, so any
    match whose events share a key is found by exactly one shard.  Events
    missing the attribute hash to a single deterministic shard (they can
    never satisfy an equality join anyway, so no match is lost).
    """

    name = "key"

    def __init__(self, attribute: str):
        if not attribute:
            raise PartitionError("KeyPartitioner requires a non-empty attribute name")
        self.attribute = attribute

    def route(self, event: Event, num_shards: int) -> Tuple[int, ...]:
        return (_key_hash(event.payload.get(self.attribute)) % num_shards,)

    # ------------------------------------------------------------------
    # Safety check
    # ------------------------------------------------------------------
    def _key_equality_edges(self, pattern: Pattern) -> Sequence[Tuple[str, str]]:
        """Variable pairs joined by an equality predicate on the key."""
        edges = []
        for condition in pattern.conditions.conjuncts:
            if not isinstance(condition, AttributeComparisonCondition):
                continue
            if condition.op_symbol != "==":
                continue
            if (
                condition.left_attribute == self.attribute
                and condition.right_attribute == self.attribute
            ):
                edges.append((condition.left_variable, condition.right_variable))
        return edges

    def validate(self, pattern: Pattern | PatternSet, num_shards: int) -> None:
        if num_shards <= 1:
            return
        for subpattern in pattern.subpatterns():
            variables = [item.variable for item in subpattern.items]
            if len(variables) <= 1:
                # A lone Kleene item still combines several events, and with
                # no equality join on the key its runs may mix key values.
                if any(item.kleene for item in subpattern.items):
                    raise PartitionError(
                        f"pattern {subpattern.name!r} is not partitionable by "
                        f"key {self.attribute!r}: its Kleene item may combine "
                        "events with different key values; use "
                        "BroadcastPartitioner"
                    )
                continue
            # Union-find over the key-equality graph: every variable must end
            # up in one component, otherwise a match could combine events
            # with different key values and therefore span shards.
            parent: Dict[str, str] = {v: v for v in variables}

            def find(v: str) -> str:
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for left, right in self._key_equality_edges(subpattern):
                parent[find(left)] = find(right)
            roots = {find(v) for v in variables}
            if len(roots) > 1:
                raise PartitionError(
                    f"pattern {subpattern.name!r} is not partitionable by key "
                    f"{self.attribute!r}: its conditions do not confine all of "
                    f"{sorted(variables)} to a single key value (events of one "
                    "match could carry different keys and land on different "
                    "shards); add equality joins on the key or use "
                    "BroadcastPartitioner"
                )

    def __repr__(self) -> str:
        return f"<KeyPartitioner attribute={self.attribute!r}>"
