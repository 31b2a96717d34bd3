"""Metrics export: snapshotting live pipeline counters for scraping.

The pipeline's :class:`~repro.metrics.stage_metrics.PipelineMetrics` is a
plain mutable object updated from the run loop's hot path — exactly right
for cheap instrumentation, exactly wrong to hand to a concurrent HTTP
scraper.  The :class:`MetricsRegistry` bridges the two worlds:

* the pipeline **registers** its live metrics object once (no per-event
  cost — registration is a dict insert, and the hot path never touches the
  registry);
* a scrape takes a **snapshot**: under the registry lock it copies the
  current counter values into a flat ``{name: (value, labels)}`` sample
  set.  Counters are plain ints/floats, so a read mid-update is torn at
  worst between *metrics*, never within one — acceptable for monitoring
  and free for the hot path;
* the sample set renders as **Prometheus text exposition format** (the
  ``/metrics`` endpoint) or JSON (``/metrics?format=json``).

Naming follows the Prometheus conventions: every metric is prefixed
``repro_``, monotone counters end in ``_total``, timings are exported in
seconds as ``_seconds_sum`` / ``_seconds_count`` / ``_seconds_max``
triples (the streaming :class:`StageTiming` aggregate, labelled by
``stage``), and per-worker lanes carry a ``shard`` label.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.metrics.stage_metrics import PipelineMetrics, StageTiming

#: Metric-name prefix for everything this registry exports.
NAMESPACE = "repro"


@dataclass
class Sample:
    """One exported time series: a value plus its label set."""

    name: str
    value: float
    labels: Dict[str, str] = field(default_factory=dict)
    help: str = ""
    type: str = "gauge"

    def key(self) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        return (self.name, tuple(sorted(self.labels.items())))


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
    return json.dumps({"metrics": payload}, indent=2, sort_keys=False) + "\n"


def engine_introspection_samples(
    frame: dict, instance: str = "pipeline"
) -> List[Sample]:
    """Convert an engine-introspection frame into metric series.

    ``frame`` is what :meth:`StreamingPipeline.engine_introspection` /
    :meth:`AdaptiveCEPEngine.introspection` returns; missing sections
    (bare engines) simply yield fewer series.  Non-finite drift values
    (a pair predicted never to pass) are skipped — Prometheus has no
    useful rendering for them.
    """
    base = {"pipeline": instance}
    samples: List[Sample] = []
    matches = frame.get("partial_matches") or {}
    if "live" in matches:
        samples.append(
            Sample(
                f"{NAMESPACE}_partial_matches_live",
                float(matches["live"]),
                dict(base),
                "Live partial matches across the engine's operator states.",
                "gauge",
            )
        )
    drift = frame.get("drift") or {}
    predicted_cost = drift.get("predicted_cost")
    if predicted_cost is not None and predicted_cost == predicted_cost:
        samples.append(
            Sample(
                f"{NAMESPACE}_plan_predicted_cost",
                float(predicted_cost),
                dict(base),
                "Cost-model prediction for the installed plan at install time.",
                "gauge",
            )
        )
    max_drift = drift.get("max_drift")
    if isinstance(max_drift, (int, float)) and max_drift == max_drift and max_drift != float("inf"):
        samples.append(
            Sample(
                f"{NAMESPACE}_cost_model_drift_max",
                float(max_drift),
                dict(base),
                "Worst predicted-vs-observed selectivity drift magnitude.",
                "gauge",
            )
        )
    for row in drift.get("pairs") or ():
        ratio = row.get("ratio")
        if not isinstance(ratio, (int, float)) or ratio != ratio or ratio == float("inf"):
            continue
        samples.append(
            Sample(
                f"{NAMESPACE}_cost_model_drift_ratio",
                float(ratio),
                {**base, "pair": row["pair"]},
                "Observed/predicted selectivity per monitored pair.",
                "gauge",
            )
        )
    return samples


def network_samples(metrics, instance: str = "pipeline") -> List[Sample]:
    """Convert a :class:`~repro.metrics.NetworkMetrics` into metric series.

    The ``repro_net_*`` family: ingestion counters (accepted / rejected
    under backpressure / duplicate / invalid), delivery counters
    (delivered, retries, dead letters) and the delivery-latency
    StageTiming triple.
    """
    base = {"pipeline": instance}
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
            "Matches acknowledged by a webhook/socket receiver.",
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
        Sample(f"{NAMESPACE}_net_{name}_total", float(value), dict(base), help_text, "counter")
        for name, value, help_text in counters
    ]
    samples.extend(
        _timing_samples(
            f"{NAMESPACE}_net_delivery_seconds",
            metrics.delivery,
            dict(base),
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


class MetricsRegistry:
    """Lock-safe snapshot/render layer over live pipeline metrics.

    The registry never mutates what it samples; ``collect`` reads the
    registered objects' current values and materialises an immutable
    sample list, so scrapes impose no cost on the event hot path beyond
    the reads themselves.

    ``register_gauge`` adds ad-hoc time series (a callable polled at
    scrape time) — the pipeline uses it for liveness gauges like buffer
    occupancy that live outside :class:`PipelineMetrics`.
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self._lock = threading.Lock()
        self._pipelines: Dict[str, PipelineMetrics] = {}
        self._gauges: Dict[str, Tuple[Callable[[], float], Dict[str, str], str]] = {}
        self._samplers: Dict[str, Callable[[], List[Sample]]] = {}
        self._clock = clock
        self._started_at = clock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_pipeline(self, metrics: PipelineMetrics, name: str = "pipeline") -> None:
        """Attach a live PipelineMetrics object under an instance name."""
        with self._lock:
            self._pipelines[name] = metrics

    def register_gauge(
        self,
        name: str,
        read: Callable[[], float],
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
    ) -> None:
        """Attach a callable polled at scrape time as one gauge series."""
        with self._lock:
            self._gauges[name] = (read, dict(labels or {}), help)

    def register_sampler(
        self, name: str, sampler: Callable[[], List[Sample]]
    ) -> None:
        """Attach a callable producing a whole sample list per scrape.

        For sources whose series set varies with runtime state (e.g. one
        drift gauge per monitored selectivity pair) — a fixed
        :meth:`register_gauge` cannot express those.  A raising sampler is
        skipped, like a dead gauge.
        """
        with self._lock:
            self._samplers[name] = sampler

    def register_engine_introspection(
        self, introspection: Callable[[], dict], name: str = "pipeline"
    ) -> None:
        """Export an engine-introspection frame source as metric series.

        ``introspection`` is polled at scrape time — pass
        ``pipeline.engine_introspection`` or ``engine.introspection``.
        Emits the cost-model drift gauges and the live partial-match
        population (see :func:`engine_introspection_samples`).
        """
        self.register_sampler(
            f"engine:{name}",
            lambda: engine_introspection_samples(introspection(), name),
        )

    def register_network(self, metrics, name: str = "pipeline") -> None:
        """Export a live :class:`~repro.metrics.NetworkMetrics` object.

        Emits the ``repro_net_*`` ingestion/delivery counters and the
        delivery-latency triple (see :func:`network_samples`), sampled at
        scrape time like every other source.
        """
        self.register_sampler(
            f"network:{name}", lambda: network_samples(metrics, name)
        )

    # ------------------------------------------------------------------
    # Snapshot + render
    # ------------------------------------------------------------------
    def collect(self) -> List[Sample]:
        """Snapshot every registered source into a flat sample list."""
        with self._lock:
            pipelines = dict(self._pipelines)
            gauges = dict(self._gauges)
            samplers = dict(self._samplers)
        samples: List[Sample] = [
            Sample(
                f"{NAMESPACE}_uptime_seconds",
                self._clock() - self._started_at,
                {},
                "Seconds since the metrics registry was created.",
                "gauge",
            )
        ]
        for name, metrics in pipelines.items():
            samples.extend(self._pipeline_samples(name, metrics))
        for name, (read, labels, help_text) in gauges.items():
            try:
                value = float(read())
            except Exception:
                continue  # a dead gauge must not break the scrape
            samples.append(Sample(name, value, labels, help_text, "gauge"))
        for name, sampler in samplers.items():
            try:
                samples.extend(sampler())
            except Exception:
                continue  # a dead sampler must not break the scrape
        return samples

    def _pipeline_samples(self, instance: str, m: PipelineMetrics) -> List[Sample]:
        base = {"pipeline": instance}
        prefix = NAMESPACE
        samples: List[Sample] = [
            Sample(
                f"{prefix}_events_ingested_total",
                float(m.events_ingested),
                dict(base),
                "Events pulled from the source into the pipeline.",
                "counter",
            ),
            Sample(
                f"{prefix}_events_processed_total",
                float(m.events_processed),
                dict(base),
                "Events handed to the detection engine.",
                "counter",
            ),
            Sample(
                f"{prefix}_late_events_total",
                float(m.late_events),
                dict(base),
                "Events that arrived behind the watermark.",
                "counter",
            ),
            Sample(
                f"{prefix}_matches_emitted_total",
                float(m.matches_emitted),
                dict(base),
                "Pattern matches emitted to the sinks.",
                "counter",
            ),
            Sample(
                f"{prefix}_checkpoints_written_total",
                float(m.checkpoints_written),
                dict(base),
                "Checkpoints persisted (full and delta).",
                "counter",
            ),
            Sample(
                f"{prefix}_checkpoint_bytes_written_total",
                float(m.checkpoint_bytes_written),
                dict(base),
                "Bytes persisted by checkpointing.",
                "counter",
            ),
            Sample(
                f"{prefix}_checkpoint_last_bytes",
                float(m.last_checkpoint_bytes),
                dict(base),
                "Size of the most recent checkpoint (or delta) file.",
                "gauge",
            ),
            Sample(
                f"{prefix}_queue_high_water",
                float(m.queue_high_water),
                dict(base),
                "High-water mark of the staging buffer between source and engine.",
                "gauge",
            ),
            Sample(
                f"{prefix}_reorder_depth_high_water",
                float(m.reorder_depth_high_water),
                dict(base),
                "High-water mark of the event-time reorder buffer.",
                "gauge",
            ),
            Sample(
                f"{prefix}_partial_matches_high_water",
                float(m.partial_matches_high_water),
                dict(base),
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
                    {**base, "stage": stage_name},
                    stage_help,
                )
            )
        samples.extend(
            _timing_samples(
                f"{prefix}_watermark_lag",
                m.watermark_lag,
                dict(base),
                "Event-time lag of arrivals behind the stream high-water mark.",
            )
        )
        for shard_id in sorted(m.workers):
            lane = m.workers[shard_id]
            lane_labels = {**base, "shard": str(shard_id)}
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

    def render(self, format: str = "prometheus") -> Tuple[str, str]:
        """Render a fresh snapshot; returns ``(body, content_type)``."""
        samples = self.collect()
        if format == "json":
            return render_json(samples), "application/json"
        return (
            render_prometheus(samples),
            "text/plain; version=0.0.4; charset=utf-8",
        )
