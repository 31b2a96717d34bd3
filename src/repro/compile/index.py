"""Equality-predicate hash index for join-side candidate pruning.

When the plan couples a new variable to an already-bound one through an
equality predicate (``a.entity_id == b.entity_id``), the interpreted
engine still enumerates *every* stored candidate and rejects most of
them inside the condition call.  This module buckets candidates by their
equality-key value at insert time, so an extension probe touches only
the bucket that can possibly satisfy the predicate.

Correctness does not depend on the index: every surviving candidate is
still run through the full compiled kernel chain (including the equality
itself), so a too-coarse bucket admits false positives harmlessly, and
dict key semantics (``hash``/``==`` consistency) guarantee no false
negatives.  Values that cannot be hashed degrade gracefully:

* an unhashable **stored** key sends the item to a fallback list that is
  scanned on every probe;
* an unhashable **probe** key disables pruning for that probe only
  (the caller scans everything);
* a probe key of ``None`` — the attribute is absent — prunes *all*
  bucketed items, because an equality over a missing attribute can never
  hold (mirroring the interpreted ``evaluate`` returning ``False``).

Buckets keep insertion order.  The NFA engine inserts events in
timestamp order, so every event bucket is time-sorted: probes return
whole buckets and the engine bisects the admissible time interval out of
them, and expiry trims bucket heads (:meth:`EqualityIndex.trim`) instead
of rebuilding the index.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.conditions import AttributeComparisonCondition

__all__ = ["EqualityIndex", "IndexSpec", "find_equality_index_spec"]

_EMPTY: Tuple = ()


class IndexSpec:
    """Which equality predicate a plan edge is indexed on.

    ``bound_variable.bound_attribute == <new_variable>.event_attribute`` —
    orientation already resolved so both maintenance sites know exactly
    which attribute to key on without re-inspecting the condition.
    ``pair`` is the sorted variable pair pruned candidates are reported
    under (as bulk failed attempts) to the statistics collector.
    """

    __slots__ = ("bound_variable", "bound_attribute", "event_attribute", "pair")

    def __init__(
        self,
        bound_variable: str,
        bound_attribute: str,
        new_variable: str,
        event_attribute: str,
    ):
        self.bound_variable = bound_variable
        self.bound_attribute = bound_attribute
        self.event_attribute = event_attribute
        self.pair = tuple(sorted((bound_variable, new_variable)))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"IndexSpec({self.bound_variable}.{self.bound_attribute} == "
            f"new.{self.event_attribute})"
        )


def find_equality_index_spec(
    conditions: Sequence, new_variable: str, bound_variables: Sequence[str]
) -> Optional[IndexSpec]:
    """Pick the equality predicate (if any) to index a plan edge on.

    Scans the conditions that become applicable at the edge and returns a
    spec for the first strict equality coupling the new variable to a
    single already-bound one.  Only one index per edge: additional
    equalities still filter inside the kernels.
    """
    bound = set(bound_variables)
    for condition in conditions:
        if not isinstance(condition, AttributeComparisonCondition):
            continue
        if condition.op_symbol != "==":
            continue
        if condition.left_variable == new_variable and condition.right_variable in bound:
            return IndexSpec(
                condition.right_variable,
                condition.right_attribute,
                new_variable,
                condition.left_attribute,
            )
        if condition.right_variable == new_variable and condition.left_variable in bound:
            return IndexSpec(
                condition.left_variable,
                condition.left_attribute,
                new_variable,
                condition.right_attribute,
            )
    return None


class EqualityIndex:
    """Hash buckets over one equality key, with unhashable fallback."""

    __slots__ = ("_buckets", "_fallback", "size")

    def __init__(self):
        self._buckets: Dict[object, List] = {}
        self._fallback: List = []
        self.size = 0

    def add(self, key, item) -> None:
        """Bucket ``item`` under ``key`` (fallback list if unhashable)."""
        try:
            self._buckets.setdefault(key, []).append(item)
        except TypeError:
            self._fallback.append(item)
        self.size += 1

    def add_sorted(self, key, item, sort_key: Callable) -> None:
        """Like :meth:`add`, but keep the bucket sorted by ``sort_key``
        (for an item that arrives behind the bucket's tail)."""
        try:
            bucket = self._buckets.setdefault(key, [])
        except TypeError:
            bucket = self._fallback
        insort(bucket, item, key=sort_key)
        self.size += 1

    def add_unkeyed(self, item) -> None:
        """Store an item that must survive every probe (e.g. list binding)."""
        self._fallback.append(item)
        self.size += 1

    def probe(self, key) -> Tuple[Optional[Sequence], Sequence, int]:
        """Candidates for ``key`` as ``(primary, fallback, pruned)``.

        ``primary is None`` signals the probe key itself is unhashable and
        the caller must scan everything (pruned = 0).  A ``None`` key
        returns no primary candidates: equality over a missing attribute
        cannot hold.
        """
        if key is None:
            return _EMPTY, self._fallback, self.size - len(self._fallback)
        try:
            primary = self._buckets.get(key, _EMPTY)
        except TypeError:
            return None, self._fallback, 0
        return primary, self._fallback, self.size - len(primary) - len(self._fallback)

    def trim(self, cutoff: float, sort_key: Callable) -> None:
        """Drop the items with ``sort_key(item) < cutoff`` from the head of
        every bucket (each bucket must be sorted by ``sort_key``)."""
        buckets = self._buckets
        stale = [key for key, bucket in buckets.items() if sort_key(bucket[0]) < cutoff]
        for key in stale:
            bucket = buckets[key]
            drop = bisect_left(bucket, cutoff, key=sort_key)
            if drop == len(bucket):
                del buckets[key]
            else:
                del bucket[:drop]
            self.size -= drop
        fallback = self._fallback
        if fallback:
            drop = bisect_left(fallback, cutoff, key=sort_key)
            del fallback[:drop]
            self.size -= drop

    def retain(self, keep: Callable) -> None:
        """Drop every item ``keep`` rejects, bucket by bucket, in place."""
        buckets = self._buckets
        for key in list(buckets):
            bucket = buckets[key]
            kept = [item for item in bucket if keep(item)]
            if len(kept) != len(bucket):
                self.size -= len(bucket) - len(kept)
                if kept:
                    bucket[:] = kept
                else:
                    del buckets[key]
        fallback = self._fallback
        kept = [item for item in fallback if keep(item)]
        self.size -= len(fallback) - len(kept)
        fallback[:] = kept

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"EqualityIndex({self.size} items, {len(self._buckets)} buckets, "
            f"{len(self._fallback)} unhashable)"
        )
