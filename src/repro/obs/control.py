"""The HTTP control plane of a running streaming pipeline.

A tiny operational surface served from a daemon thread next to the run
loop (the :class:`~repro.obs.service.HTTPService` scaffold, stdlib only)
with the endpoints a load balancer, an orchestrator, and an operator each
need.  Everything it answers is read from the pipeline it serves — its
metrics, its decision log, its engine frame — so there is nothing to wire
beside the pipeline itself:

``GET /health``
    Liveness: 200 while the process is up and the control plane running,
    with the pipeline state and the decision log's last sequence number.
``GET /ready``
    Readiness: 200 only while the pipeline's run loop is running — 503
    while restoring from a checkpoint and before/after the run.  (A
    producer outrunning detection is told so by the network source's 429,
    not by readiness.)  Liveness and readiness are deliberately distinct
    signals: a pipeline replaying a long delta chain is *alive* but must
    not be routed to.
``GET /metrics``
    Prometheus text exposition (``?format=json`` for JSON) rendered at
    scrape time from ``pipeline.metrics``, the engine frame's plan and
    drift gauges (one ``pattern`` label per pattern) and the network
    counters (see :mod:`repro.obs.exposition`).  An engine frame that
    cannot be taken (mid-restore, workers mid-restart) leaves the other
    series answering.
``GET /decisions``
    The pipeline decision log's in-memory tail; filter with ``?type=``,
    ``?limit=``, ``?since=``, ``?until=``.  404 when the pipeline keeps
    no decision log.
``GET /engine``
    Engine introspection: the current plan, work counters, live partial
    matches per operator state and the cost-model drift table, per
    pattern on a multi-pattern engine (see :mod:`repro.obs.introspect`);
    503 while the frame cannot be taken.
``GET /network``
    Data-plane counters of a networked pipeline: events accepted /
    rejected (429) / duplicate / invalid at the HTTP ingress, matches
    delivered / retried / dead-lettered by the webhook sink, and the
    delivery-latency aggregate.  404 when the pipeline has
    no network data plane attached.
``POST /checkpoint``
    Manual checkpoint cut: requests a cut through the pipeline's existing
    snapshot barrier (the run loop performs it between batches, exactly
    as a cadence-triggered cut would) and waits for it to land.

The module deliberately does not import :mod:`repro.streaming` — the
pipeline is duck-typed through ``state``, ``readiness()``,
``request_checkpoint()``, ``engine_introspection()``, ``metrics`` and
``decision_log``, keeping ``repro.obs`` import-light and free of cycles
(``repro.streaming.pipeline`` imports ``repro.obs``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Tuple

from repro.errors import StreamingError
from repro.obs.exposition import (
    engine_introspection_samples,
    network_samples,
    pipeline_samples,
    render_json,
    render_prometheus,
    uptime_sample,
)
from repro.obs.service import HTTPService, Request

#: How long ``POST /checkpoint`` waits for the run loop to perform the cut
#: before answering 202 (accepted, still pending).
CHECKPOINT_WAIT_SECONDS = 10.0

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ControlPlane(HTTPService):
    """HTTP control plane thread for one streaming pipeline.

    Parameters
    ----------
    pipeline:
        The :class:`~repro.streaming.StreamingPipeline` to serve.
    network:
        A live :class:`~repro.metrics.NetworkMetrics` answering
        ``/network`` and the ``repro_net_*`` series (optional).
    host / port:
        Bind address; ``port=0`` binds an ephemeral port (tests), exposed
        via :attr:`port` after :meth:`start`.
    """

    name = "control plane"

    def __init__(
        self,
        pipeline: Any,
        network: Any = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__(
            {
                ("GET", "/health"): self._health,
                ("GET", "/ready"): self._ready,
                ("GET", "/metrics"): self._metrics,
                ("GET", "/decisions"): self._decisions,
                ("GET", "/engine"): self._engine,
                ("GET", "/network"): self._network,
                ("POST", "/checkpoint"): self._checkpoint,
            },
            host,
            port,
        )
        self.pipeline = pipeline
        self.network = network
        self._created_at = time.time()

    def _health(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        body: Dict[str, Any] = {"status": "ok", "pipeline": self.pipeline.state}
        if self.pipeline.decision_log is not None:
            body["decision_seq"] = self.pipeline.decision_log.last_seq
        return 200, body

    def _ready(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        ready, reason = self.pipeline.readiness()
        return (200 if ready else 503), {"ready": bool(ready), "reason": reason}

    def _metrics(self, request: Request) -> Tuple[int, str, str]:
        samples = [uptime_sample(time.time() - self._created_at)]
        samples.extend(pipeline_samples(self.pipeline.metrics))
        try:
            samples.extend(
                engine_introspection_samples(self.pipeline.engine_introspection())
            )
        except Exception:
            pass  # no frame right now: the pipeline's own series still answer
        if self.network is not None:
            samples.extend(network_samples(self.network))
        if request.query.get("format") == "json":
            return 200, render_json(samples), "application/json"
        return 200, render_prometheus(samples), PROMETHEUS_CONTENT_TYPE

    def _decisions(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        log = self.pipeline.decision_log
        if log is None:
            return 404, {"error": "no decision log configured"}
        query = request.query
        try:
            records = log.query(
                type=query.get("type"),
                since=float(query["since"]) if "since" in query else None,
                until=float(query["until"]) if "until" in query else None,
                limit=int(query["limit"]) if "limit" in query else None,
            )
        except (ValueError, TypeError) as exc:
            return 400, {"error": f"bad query parameter: {exc}"}
        return 200, {
            "count": len(records),
            "records": [record.as_dict() for record in records],
        }

    def _engine(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        try:
            return 200, self.pipeline.engine_introspection()
        except Exception as exc:  # engine mid-restore / workers mid-restart
            return 503, {"error": f"engine introspection unavailable: {exc}"}

    def _network(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        if self.network is None:
            return 404, {"error": "pipeline has no network data plane attached"}
        return 200, self.network.snapshot()

    def _checkpoint(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        try:
            done = self.pipeline.request_checkpoint()
        except StreamingError as exc:
            return 503, {"error": str(exc)}
        if done.wait(CHECKPOINT_WAIT_SECONDS):
            metrics = self.pipeline.metrics
            return 200, {
                "status": "ok",
                "reason": "manual",
                "checkpoints_written": metrics.checkpoints_written,
                "last_checkpoint_bytes": metrics.last_checkpoint_bytes,
            }
        return 202, {"status": "pending", "reason": "manual"}
