"""Engine-profiling report.

:func:`profile_run` replays one recorded workload through a pipeline whose
engine was built with ``introspect=True`` (:mod:`repro.obs.introspect`) and
returns the resulting introspection frame; the ``*_rows`` helpers turn it
into the hotspot report (conditions ranked by cumulative wall time), the
per-operator accept/reject table and the cost-model drift table.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import (
    build_dataset,
    build_streaming_engine,
    build_workload,
    make_stream,
)
from repro.streaming import ReplaySource, StreamingPipeline


def profile_run(
    config: ExperimentConfig,
    size: int = 3,
    policy_spec: Optional[PolicySpec] = None,
):
    """Replay the workload with introspection on; return ``(frame, result)``.

    ``frame`` is the pipeline's merged engine-introspection frame (see
    :meth:`StreamingPipeline.engine_introspection`).
    """
    spec = policy_spec or PolicySpec("invariant", distance=0.1, label="invariant")
    dataset = build_dataset(config)
    pattern = build_workload(config, dataset).sequence_pattern(size)
    pipeline = StreamingPipeline(
        build_streaming_engine(replace(config, introspect=True), pattern, spec),
        ReplaySource(make_stream(dataset, config)),
    )
    result = pipeline.run(resume=False)
    return pipeline.engine_introspection(), result


def hotspot_rows(frame: Dict[str, Any], top: int = 10) -> List[Dict[str, Any]]:
    """Conditions ranked by cumulative wall time (the hotspot report)."""
    profile = frame.get("profile") or {}
    conditions = sorted(
        (profile.get("conditions") or {}).values(),
        key=lambda data: data["seconds"],
        reverse=True,
    )
    total = sum(data["seconds"] for data in conditions)
    rows = []
    for data in conditions[: max(0, int(top))]:
        rows.append(
            {
                "condition": data["label"],
                "calls": float(data["calls"]),
                "pass_rate": data["pass_rate"],
                "ms_total": data["seconds"] * 1e3,
                "us_per_call": (
                    data["seconds"] / data["calls"] * 1e6 if data["calls"] else 0.0
                ),
                "share": (data["seconds"] / total) if total > 0 else 0.0,
            }
        )
    return rows


def operator_rows(frame: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-operator (NFA edge / tree node) accept/reject table."""
    profile = frame.get("profile") or {}
    return [
        {
            "operator": label,
            "attempts": float(data["accepted"] + data["rejected"]),
            "accepted": float(data["accepted"]),
            "rejected": float(data["rejected"]),
            "accept_rate": data["accept_rate"],
        }
        for label, data in sorted((profile.get("edges") or {}).items())
    ]


def drift_rows(frame: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The cost-model drift table (pairs worst-first, as the monitor ranks)."""
    drift = frame.get("drift") or {}
    return [
        {
            "pair": row["pair"],
            "predicted": row["predicted"],
            "observed": row["observed"],
            "ratio": row["ratio"],
            "drift": row["drift"],
        }
        for row in drift.get("pairs") or ()
    ]
