"""Engine introspection: plan, populations and cost-model drift.

Every number here is derived on demand from state the engine already
holds — nothing is counted twice and no engine is built differently to
answer.

**Cost-model drift** (:func:`drift_rows`).  The planner's
:class:`~repro.optimizer.recorder.PlanGenerationResult` carries the
installed plan together with the statistics snapshot it was planned from,
so ``plan.cost(snapshot)`` is the plan's *predicted* cost and
``snapshot.selectivity(pair)`` its *predicted* selectivities.  Compared
with an *observed* snapshot of the
:class:`~repro.statistics.StatisticsCollector` (which sees every
condition outcome the engines evaluate), the per-pair ratio ``observed /
predicted`` is the drift signal: a ratio far from 1 means the statistics
that justified the plan no longer describe the stream — the quantitative
"why" behind an invariant-based re-plan.  The adaptation controller
attaches the outgoing plan's worst rows to every ``replan`` record it
hands a decision sink, and
:meth:`~repro.engine.AdaptiveCEPEngine.introspection` reports the
installed plan's full table.

**Frames** are plain dicts, one shape per engine facade, each returned by
the facade's own ``introspection()``: plan, work counters, live partial
matches per operator state and the drift section; a
:class:`~repro.engine.MultiPatternEngine` frame holds one such frame per
pattern under ``patterns`` next to its sharing totals.  A sharded
:class:`~repro.parallel.ParallelCEPEngine` folds its replicas' frames with
:func:`merge_introspection_frames`, pattern by pattern, so every host — inline, or a worker
backend whose replicas are refreshed through the snapshot barrier
checkpoints already use — serves the same frame for the same engine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.statistics import StatisticsSnapshot
from repro.statistics.collector import pairs_for_pattern
from repro.statistics.snapshot import pair_key

__all__ = [
    "drift_rows",
    "merge_introspection_frames",
]


def drift_rows(result, pattern, observed: StatisticsSnapshot) -> List[Dict[str, Any]]:
    """Per-pair cost-model drift of the plan in ``result``, worst first.

    ``result`` is the planner's
    :class:`~repro.optimizer.recorder.PlanGenerationResult`; its snapshot
    holds the predicted selectivity of every pair the pattern's statistics
    track.  Each row compares one with ``observed``: ``ratio`` is
    ``observed / predicted`` (infinite when a pair predicted never to pass
    does, 1 when both are zero) and ``drift`` its symmetric size
    ``max(ratio, 1 / ratio)`` — 1 means on model.
    """
    predicted = result.snapshot
    rows: List[Dict[str, Any]] = []
    for a, b in sorted({pair_key(*pair) for pair in pairs_for_pattern(pattern)}):
        expected = predicted.selectivity(a, b)
        seen = observed.selectivity(a, b)
        if expected > 0.0:
            ratio = seen / expected
        else:
            ratio = float("inf") if seen > 0.0 else 1.0
        rows.append(
            {
                "pair": f"{a}~{b}",
                "predicted": expected,
                "observed": seen,
                "ratio": ratio,
                "drift": max(ratio, 1.0 / ratio) if ratio > 0.0 else float("inf"),
            }
        )
    rows.sort(key=lambda row: row["drift"], reverse=True)
    return rows


# ----------------------------------------------------------------------
# Cross-shard frames (the /engine endpoint of a sharded engine)
# ----------------------------------------------------------------------
def _merge_numeric(target: Dict[str, Any], source: Mapping[str, Any]) -> None:
    for key, value in source.items():
        if isinstance(value, (int, float)):
            target[key] = target.get(key, 0) + value


def _merge_pattern_frames(frames: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold one pattern's per-shard frames: the rule every pattern shares.

    Counters, re-optimizations and per-state occupancies sum; per-pair
    drift keeps the worst-drifting shard's row (replicas share predictions
    but observe their own slice of the stream, so the worst case is the
    actionable one).
    """
    head = frames[0]
    merged: Dict[str, Any] = {
        key: head[key] for key in ("pattern", "plan") if key in head
    }
    if any("reoptimizations" in frame for frame in frames):
        merged["reoptimizations"] = sum(
            frame.get("reoptimizations", 0) for frame in frames
        )
    counters: Dict[str, Any] = {}
    partial: Dict[str, Any] = {"live": 0}
    per_state: Dict[str, int] = {}
    drift_rows_by_pair: Dict[str, Dict[str, Any]] = {}
    drift_meta: Dict[str, Any] = {}
    for frame in frames:
        _merge_numeric(counters, frame.get("counters", {}))
        matches = frame.get("partial_matches", {})
        partial["live"] += matches.get("live", 0)
        for state, occupancy in matches.get("per_state", {}).items():
            per_state[state] = per_state.get(state, 0) + occupancy
        drift = frame.get("drift")
        if drift:
            for key in ("generator", "installed_at", "predicted_cost"):
                drift_meta.setdefault(key, drift.get(key))
            for row in drift.get("pairs", []):
                existing = drift_rows_by_pair.get(row["pair"])
                if existing is None or row["drift"] > existing["drift"]:
                    drift_rows_by_pair[row["pair"]] = row
    if counters:
        merged["counters"] = counters
    if per_state:
        partial["per_state"] = per_state
    merged["partial_matches"] = partial
    if drift_rows_by_pair:
        rows = sorted(
            drift_rows_by_pair.values(), key=lambda row: row["drift"], reverse=True
        )
        merged["drift"] = {**drift_meta, "max_drift": rows[0]["drift"], "pairs": rows}
    return merged


def _merge_sharing(sections: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard ``sharing`` sections of a multi-pattern frame.

    Every replica builds the same share groups, so the groups fold by
    prefix with their completion and hit counts summed.  ``kernels_reused``
    counts the kernel-cache hits of each replica's own engine builds, so
    it is summed too.
    """
    groups: Dict[str, Dict[str, Any]] = {}
    for section in sections:
        for group in section.get("groups", []):
            folded = groups.get(group["prefix"])
            if folded is None:
                groups[group["prefix"]] = dict(group)
            else:
                for key in ("completions", "prefix_hits"):
                    folded[key] += group[key]
    return {
        "groups": list(groups.values()),
        "prefix_hits": sum(section.get("prefix_hits", 0) for section in sections),
        "kernels_reused": sum(section.get("kernels_reused", 0) for section in sections),
    }


def merge_introspection_frames(frames: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard introspection frames into one cross-shard view.

    Single-pattern frames fold by :func:`_merge_pattern_frames`.  A
    multi-pattern frame folds its top level by the same rule and each of
    its ``patterns`` by pattern id, and its ``sharing`` section by
    :func:`_merge_sharing`.  ``shards`` records how many frames were
    folded; one frame is returned as it is.
    """
    frames = [frame for frame in frames if frame]
    if not frames:
        return {}
    if len(frames) == 1:
        merged = dict(frames[0])
        merged.setdefault("shards", 1)
        return merged
    merged = _merge_pattern_frames(frames)
    merged["shards"] = len(frames)
    if any("patterns" in frame for frame in frames):
        per_pattern: Dict[str, List[Dict[str, Any]]] = {}
        for frame in frames:
            for pattern_id, pattern_frame in frame.get("patterns", {}).items():
                per_pattern.setdefault(pattern_id, []).append(pattern_frame)
        merged["sharing"] = _merge_sharing(
            [frame["sharing"] for frame in frames if "sharing" in frame]
        )
        merged["patterns"] = {
            pattern_id: _merge_pattern_frames(pattern_frames)
            for pattern_id, pattern_frames in per_pattern.items()
        }
    return merged
