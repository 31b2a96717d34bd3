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

**Frames** are plain dicts (:func:`engine_introspection_frame`): plan,
work counters, live partial matches per operator state and the drift
section.  Per-shard frames (parallel/worker execution) fold with
:func:`merge_introspection_frames`; worker replicas are refreshed through
the snapshot barrier checkpoints already use.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.statistics import StatisticsSnapshot
from repro.statistics.collector import pairs_for_pattern
from repro.statistics.snapshot import pair_key

__all__ = [
    "drift_rows",
    "engine_introspection_frame",
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
# Whole-engine frames (the /engine endpoint)
# ----------------------------------------------------------------------
def engine_introspection_frame(engine) -> Dict[str, Any]:
    """Duck-typed introspection of any engine shape the pipeline hosts.

    * an engine exposing ``introspection()`` (adaptive / multi-pattern)
      answers for itself;
    * a sharded facade (``sharded_engine.shards``) yields one frame per
      shard replica, merged;
    * anything else degrades to its counters and partial-match count.
    """
    introspection = getattr(engine, "introspection", None)
    if callable(introspection):
        return introspection()
    sharded = getattr(engine, "sharded_engine", None)
    if sharded is not None:
        frames = [
            engine_introspection_frame(shard.engine) for shard in sharded.shards
        ]
        return merge_introspection_frames(frames)
    frame: Dict[str, Any] = {"engine": type(engine).__name__}
    counters = getattr(engine, "counters", None)
    if counters is not None:
        frame["counters"] = dict(vars(counters))
    count = getattr(engine, "partial_match_count", None)
    if callable(count):
        frame["partial_matches"] = {"live": count()}
    return frame


def _merge_numeric(target: Dict[str, Any], source: Mapping[str, Any]) -> None:
    for key, value in source.items():
        if isinstance(value, (int, float)):
            target[key] = target.get(key, 0) + value


def merge_introspection_frames(frames: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard introspection frames into one cross-shard view.

    Counters and per-state occupancies sum; per-pair drift keeps the
    worst-drifting shard's row (replicas share predictions but observe
    their own slice of the stream, so the worst case is the actionable
    one).  ``shards`` records how many frames were folded.
    """
    frames = [frame for frame in frames if frame]
    if not frames:
        return {}
    if len(frames) == 1:
        merged = dict(frames[0])
        merged.setdefault("shards", 1)
        return merged
    merged: Dict[str, Any] = {key: frames[0].get(key) for key in ("pattern", "plan")}
    merged["shards"] = len(frames)
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
