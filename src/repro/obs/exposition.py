"""Metrics exposition: live pipeline counters as scrapeable series.

The pipeline's :class:`~repro.metrics.stage_metrics.PipelineMetrics` is a
plain mutable object updated from the run loop's hot path.  A scrape of
the control plane's ``/metrics`` reads it — together with the engine's
introspection frame and the network data plane's counters — through the
pure functions below into a flat list of :class:`Sample` s, rendered as
**Prometheus text exposition format** or JSON (``/metrics?format=json``).
Counters are plain ints/floats, so a read mid-update is torn at worst
between *metrics*, never within one — acceptable for monitoring and free
for the hot path, which never sees a scrape.

Naming follows the Prometheus conventions: every metric is prefixed
``repro_``, monotone counters end in ``_total``, timings are exported in
seconds as ``_seconds_sum`` / ``_seconds_count`` / ``_seconds_max``
triples (the streaming :class:`StageTiming` aggregate, labelled by
``stage``), per-worker lanes carry a ``shard`` label and plan/drift
gauges a ``pattern`` label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.metrics.stage_metrics import PipelineMetrics, StageTiming
from repro.obs.service import encode_json

#: Metric-name prefix for every exported series.
NAMESPACE = "repro"
#: The label every series carries: one pipeline per control plane.
BASE_LABELS = {"pipeline": "pipeline"}


@dataclass
class Sample:
    """One exported time series: a value plus its label set."""

    name: str
    value: float
    labels: Dict[str, str] = field(default_factory=dict)
    help: str = ""
    type: str = "gauge"


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    # Prometheus accepts integers and floats; render ints without the
    # trailing ``.0`` for byte-stable golden files.
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(samples: List[Sample]) -> str:
    """Render samples as the Prometheus text exposition format (v0.0.4)."""
    by_name: Dict[str, List[Sample]] = {}
    order: List[str] = []
    for sample in samples:
        if sample.name not in by_name:
            by_name[sample.name] = []
            order.append(sample.name)
        by_name[sample.name].append(sample)
    lines: List[str] = []
    for name in order:
        group = by_name[name]
        head = group[0]
        if head.help:
            lines.append(f"# HELP {name} {head.help}")
        lines.append(f"# TYPE {name} {head.type}")
        for sample in group:
            if sample.labels:
                label_text = ",".join(
                    f'{key}="{_escape_label_value(str(value))}"'
                    for key, value in sorted(sample.labels.items())
                )
                lines.append(f"{name}{{{label_text}}} {_format_value(sample.value)}")
            else:
                lines.append(f"{name} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


def render_json(samples: List[Sample]) -> str:
    """Render samples as a JSON object (``?format=json``)."""
    payload: List[Dict[str, Any]] = [
        {
            "name": sample.name,
            "value": sample.value,
            "labels": sample.labels,
            "type": sample.type,
        }
        for sample in samples
    ]
    return encode_json({"metrics": payload}, indent=2) + "\n"


def uptime_sample(seconds: float) -> Sample:
    """The control plane's uptime gauge."""
    return Sample(
        f"{NAMESPACE}_uptime_seconds",
        seconds,
        {},
        "Seconds since the control plane was created.",
        "gauge",
    )


def _finite(value: Any) -> Optional[float]:
    if isinstance(value, (int, float)) and math.isfinite(value):
        return float(value)
    return None


def engine_introspection_samples(frame: dict) -> List[Sample]:
    """Convert an engine-introspection frame into metric series.

    ``frame`` is what :meth:`StreamingPipeline.engine_introspection`
    returns.  A multi-pattern frame carries one frame per pattern under
    ``patterns``; a single-pattern frame is its own one pattern.  Either
    way every plan and drift gauge is labelled with its ``pattern``.
    Non-finite values (a pair predicted never to pass) are skipped —
    Prometheus has no useful rendering for them.
    """
    samples: List[Sample] = []
    live = (frame.get("partial_matches") or {}).get("live")
    if live is not None:
        samples.append(
            Sample(
                f"{NAMESPACE}_partial_matches_live",
                float(live),
                dict(BASE_LABELS),
                "Live partial matches across the engine's operator states.",
                "gauge",
            )
        )
    per_pattern = frame.get("patterns") or {frame.get("pattern"): frame}
    for pattern, pattern_frame in per_pattern.items():
        labels = {**BASE_LABELS, "pattern": str(pattern)}
        drift = pattern_frame.get("drift") or {}
        predicted_cost = _finite(drift.get("predicted_cost"))
        if predicted_cost is not None:
            samples.append(
                Sample(
                    f"{NAMESPACE}_plan_predicted_cost",
                    predicted_cost,
                    dict(labels),
                    "Cost-model prediction for the installed plan at install time.",
                    "gauge",
                )
            )
        max_drift = _finite(drift.get("max_drift"))
        if max_drift is not None:
            samples.append(
                Sample(
                    f"{NAMESPACE}_cost_model_drift_max",
                    max_drift,
                    dict(labels),
                    "Worst predicted-vs-observed selectivity drift magnitude.",
                    "gauge",
                )
            )
        for row in drift.get("pairs") or ():
            ratio = _finite(row.get("ratio"))
            if ratio is not None:
                samples.append(
                    Sample(
                        f"{NAMESPACE}_cost_model_drift_ratio",
                        ratio,
                        {**labels, "pair": row["pair"]},
                        "Observed/predicted selectivity per monitored pair.",
                        "gauge",
                    )
                )
    return samples


def network_samples(metrics) -> List[Sample]:
    """Convert a :class:`~repro.metrics.NetworkMetrics` into metric series.

    The ``repro_net_*`` family: ingestion counters (accepted / rejected
    under backpressure / duplicate / invalid), delivery counters
    (delivered, retries, dead letters) and the delivery-latency
    StageTiming triple.
    """
    counters = (
        (
            "events_accepted",
            metrics.events_accepted,
            "Events accepted by the network ingestion endpoints.",
        ),
        (
            "events_rejected",
            metrics.events_rejected,
            "Events rejected under ingestion backpressure (HTTP 429).",
        ),
        (
            "events_duplicate",
            metrics.events_duplicate,
            "Re-pushed events dropped as duplicates of an ingested sequence.",
        ),
        (
            "events_invalid",
            metrics.events_invalid,
            "Malformed event records refused by the ingestion endpoints.",
        ),
        (
            "matches_delivered",
            metrics.matches_delivered,
            "Matches acknowledged by the webhook receiver.",
        ),
        (
            "delivery_retries",
            metrics.delivery_retries,
            "Match delivery attempts that failed and were retried.",
        ),
        (
            "dead_letters",
            metrics.dead_letters,
            "Matches spilled to the dead-letter file after retry exhaustion.",
        ),
    )
    samples = [
        Sample(f"{NAMESPACE}_net_{name}_total", float(value), dict(BASE_LABELS), help_text, "counter")
        for name, value, help_text in counters
    ]
    samples.extend(
        _timing_samples(
            f"{NAMESPACE}_net_delivery_seconds",
            metrics.delivery,
            dict(BASE_LABELS),
            "Receiver round-trip latency of acknowledged match deliveries.",
        )
    )
    return samples


def _timing_samples(
    name: str, timing: StageTiming, labels: Dict[str, str], help: str
) -> List[Sample]:
    """Export one StageTiming as a sum/count/max triple."""
    return [
        Sample(f"{name}_sum", timing.total_seconds, dict(labels), help, "counter"),
        Sample(f"{name}_count", float(timing.observations), dict(labels), help, "counter"),
        Sample(f"{name}_max", timing.max_seconds, dict(labels), help, "gauge"),
    ]


def pipeline_samples(m: PipelineMetrics) -> List[Sample]:
    """Convert a live :class:`PipelineMetrics` into metric series: the
    ingest/emit/checkpoint counters, buffer high-water gauges, the
    per-stage timing triples and one lane per worker (``shard`` label)."""
    prefix = NAMESPACE
    samples: List[Sample] = [
        Sample(
            f"{prefix}_events_ingested_total",
            float(m.events_ingested),
            dict(BASE_LABELS),
            "Events pulled from the source into the pipeline.",
            "counter",
        ),
        Sample(
            f"{prefix}_events_processed_total",
            float(m.events_processed),
            dict(BASE_LABELS),
            "Events handed to the detection engine.",
            "counter",
        ),
        Sample(
            f"{prefix}_late_events_total",
            float(m.late_events),
            dict(BASE_LABELS),
            "Events that arrived behind the watermark.",
            "counter",
        ),
        Sample(
            f"{prefix}_matches_emitted_total",
            float(m.matches_emitted),
            dict(BASE_LABELS),
            "Pattern matches emitted to the sinks.",
            "counter",
        ),
        Sample(
            f"{prefix}_checkpoints_written_total",
            float(m.checkpoints_written),
            dict(BASE_LABELS),
            "Checkpoints persisted (full and delta).",
            "counter",
        ),
        Sample(
            f"{prefix}_checkpoint_bytes_written_total",
            float(m.checkpoint_bytes_written),
            dict(BASE_LABELS),
            "Bytes persisted by checkpointing.",
            "counter",
        ),
        Sample(
            f"{prefix}_checkpoint_last_bytes",
            float(m.last_checkpoint_bytes),
            dict(BASE_LABELS),
            "Size of the most recent checkpoint (or delta) file.",
            "gauge",
        ),
        Sample(
            f"{prefix}_queue_high_water",
            float(m.queue_high_water),
            dict(BASE_LABELS),
            "High-water mark of the staging buffer between source and engine.",
            "gauge",
        ),
        Sample(
            f"{prefix}_reorder_depth_high_water",
            float(m.reorder_depth_high_water),
            dict(BASE_LABELS),
            "High-water mark of the event-time reorder buffer.",
            "gauge",
        ),
        Sample(
            f"{prefix}_partial_matches_high_water",
            float(m.partial_matches_high_water),
            dict(BASE_LABELS),
            "High-water mark of the engine's live partial-match population.",
            "gauge",
        ),
    ]
    stage_help = "Per-stage processing latency (StageTiming aggregate)."
    for stage_name, timing in (
        ("source", m.source),
        ("engine", m.engine),
        ("sink", m.sink),
        ("checkpoint", m.checkpoint),
    ):
        samples.extend(
            _timing_samples(
                f"{prefix}_stage_seconds",
                timing,
                {**BASE_LABELS, "stage": stage_name},
                stage_help,
            )
        )
    samples.extend(
        _timing_samples(
            f"{prefix}_watermark_lag",
            m.watermark_lag,
            dict(BASE_LABELS),
            "Event-time lag of arrivals behind the stream high-water mark.",
        )
    )
    for shard_id in sorted(m.workers):
        lane = m.workers[shard_id]
        lane_labels = {**BASE_LABELS, "shard": str(shard_id)}
        samples.extend(
            [
                Sample(
                    f"{prefix}_worker_events_processed_total",
                    float(lane.events_processed),
                    dict(lane_labels),
                    "Events processed by one shard worker lane.",
                    "counter",
                ),
                Sample(
                    f"{prefix}_worker_batches_consumed_total",
                    float(lane.batches_consumed),
                    dict(lane_labels),
                    "Batches consumed by one shard worker lane.",
                    "counter",
                ),
                Sample(
                    f"{prefix}_worker_queue_high_water",
                    float(lane.queue_high_water),
                    dict(lane_labels),
                    "High-water mark of one shard worker's hand-off queue.",
                    "gauge",
                ),
            ]
        )
        samples.extend(
            _timing_samples(
                f"{prefix}_worker_batch_seconds",
                lane.processing,
                dict(lane_labels),
                "Worker-side batch-processing latency.",
            )
        )
    return samples
