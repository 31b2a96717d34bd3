"""Match identity and online deduplication across shards.

Duplicates arise from replicating partitioners (under broadcast every shard
finds the same matches); they are identified by a canonical *signature* —
the pattern name plus the exact events bound to each variable — so two
shards reporting the same detection are collapsed while genuinely distinct
matches that happen to share a detection time are kept.
:class:`StreamingMatchDeduplicator` admits the first report of each
signature as matches are found, with memory bounded by the pattern window;
the sharded engine and the worker backends both merge through it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.engine import Match

#: Deduplication window substituted for patterns with an unbounded window
#: (shared by the inline streaming path and the worker backends, so every
#: execution mode evicts duplicate signatures at the same stream horizon).
UNBOUNDED_DEDUP_WINDOW = 100.0


def match_signature(match: Match) -> Tuple:
    """Canonical identity of a match: pattern plus per-variable event ids."""
    bound = []
    for variable in sorted(match.bindings):
        value = match.bindings[variable]
        if isinstance(value, list):
            ids = tuple(
                (event.type_name, event.timestamp, event.sequence_number)
                for event in value
            )
        else:
            ids = ((value.type_name, value.timestamp, value.sequence_number),)
        bound.append((variable, ids))
    return (match.pattern_name, tuple(bound))


class StreamingMatchDeduplicator:
    """Online duplicate suppression for streaming (event-at-a-time) sharding.

    When events are fed incrementally through a broadcast partitioner, every
    shard reports the same detections; this filter admits the first report
    of each match signature and drops the rest.  Seen signatures are evicted
    once they fall a pattern window behind the stream clock — a match whose
    events have all expired can never be re-reported, so the memory of the
    filter is bounded by the window like the engines' own partial-match
    state.
    """

    def __init__(self, window: float):
        if window <= 0:
            raise ValueError(f"deduplication window must be positive, got {window!r}")
        self.window = float(window)
        self._seen: "dict[Tuple, float]" = {}
        self._last_eviction = float("-inf")
        self.duplicates_dropped = 0

    def filter(self, matches: Sequence[Match], now: float) -> List[Match]:
        """Admit first-seen matches; ``now`` is the current stream time."""
        # Evict at most once per window of stream time: a full-dict sweep per
        # event would turn the hot path quadratic.
        if self._seen and now - self._last_eviction >= self.window:
            # Age each signature with the same subtraction the admission
            # contract uses (now - seen_at); deriving a shared horizon via
            # now - window rounds differently and can evict a signature
            # that is exactly one window old.
            self._seen = {
                signature: seen_at
                for signature, seen_at in self._seen.items()
                if now - seen_at <= self.window
            }
            self._last_eviction = now
        admitted: List[Match] = []
        for match in matches:
            signature = match_signature(match)
            if signature in self._seen:
                self.duplicates_dropped += 1
                continue
            self._seen[signature] = match.detection_time
            admitted.append(match)
        return admitted

    def _delta_keyed_state(self):
        """Change-tracked collections (incremental-snapshot hook): the
        window-bounded seen-signature map, which dwarfs the rest of the
        filter's state on long runs."""
        return [("seen", self, "_seen")]

    def __repr__(self) -> str:
        return (
            f"<StreamingMatchDeduplicator window={self.window:g} "
            f"tracked={len(self._seen)} dropped={self.duplicates_dropped}>"
        )
