"""Performance metrics collected by the experiment harness."""

from repro.metrics.run_metrics import RunMetrics, aggregate_metrics
from repro.metrics.stage_metrics import (
    NetworkMetrics,
    PipelineMetrics,
    StageTiming,
    WorkerLaneMetrics,
)

__all__ = [
    "RunMetrics",
    "aggregate_metrics",
    "NetworkMetrics",
    "PipelineMetrics",
    "StageTiming",
    "WorkerLaneMetrics",
]
