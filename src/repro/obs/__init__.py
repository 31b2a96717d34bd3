"""Operational observability for the streaming service.

Everything an operator needs to see *into* a running pipeline instead of
waiting for the end-of-run report:

* **metrics export** (:mod:`~repro.obs.registry`) — a lock-safe
  :class:`MetricsRegistry` snapshotting the live
  :class:`~repro.metrics.stage_metrics.PipelineMetrics` (worker lanes,
  checkpoint-bytes gauges included) into Prometheus text exposition or
  JSON, sampled at scrape time with zero cost on the per-event hot path;
* **the decision log** (:mod:`~repro.obs.decisions`) — a typed,
  append-only JSONL audit trail of every runtime action (``shed``,
  ``late_event_policy``, ``checkpoint_cut``, ``compaction``, ``replan``)
  with a bounded in-memory tail, on-disk rotation, restart-continuous
  sequence numbers, and a query API;
* **the control plane** (:mod:`~repro.obs.control`) — a stdlib
  ``http.server`` thread serving ``/health``, ``/ready``, ``/metrics``,
  ``/decisions``, ``/engine`` and ``POST /checkpoint`` on the running
  pipeline;
* **engine introspection** (:mod:`~repro.obs.introspect`) — opt-in,
  zero-overhead-when-off operator-level instrumentation: per-condition
  evaluation counters and wall time, per-NFA-edge / per-tree-node
  accept/reject counts, partial-match population gauges, and a
  cost-model drift monitor comparing the installed plan's predicted
  selectivities against what the stream actually delivers.

CLI wiring: ``serve --control-port 8080 --decision-log decisions.jsonl``.
This package must stay free of :mod:`repro.streaming` imports — the
pipeline imports *us*.
"""

from repro.obs.control import CHECKPOINT_WAIT_SECONDS, ControlPlane
from repro.obs.decisions import (
    DECISION_TYPES,
    CoalescingEmitter,
    DecisionLog,
    DecisionRecord,
    read_decision_records,
    verify_continuity,
)
from repro.obs.introspect import (
    ConditionProfile,
    DriftMonitor,
    EdgeProfile,
    EngineProfiler,
    ProfiledCondition,
    engine_introspection_frame,
    merge_introspection_frames,
    merge_profile_frames,
)
from repro.obs.registry import (
    MetricsRegistry,
    Sample,
    engine_introspection_samples,
    network_samples,
    render_json,
    render_prometheus,
)

__all__ = [
    # decision log
    "DecisionLog",
    "DecisionRecord",
    "CoalescingEmitter",
    "DECISION_TYPES",
    "read_decision_records",
    "verify_continuity",
    # metrics export
    "MetricsRegistry",
    "Sample",
    "render_prometheus",
    "render_json",
    "engine_introspection_samples",
    "network_samples",
    # engine introspection
    "EngineProfiler",
    "ProfiledCondition",
    "ConditionProfile",
    "EdgeProfile",
    "DriftMonitor",
    "engine_introspection_frame",
    "merge_introspection_frames",
    "merge_profile_frames",
    # control plane
    "ControlPlane",
    "CHECKPOINT_WAIT_SECONDS",
]
