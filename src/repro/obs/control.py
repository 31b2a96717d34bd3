"""The HTTP control plane of a running streaming pipeline.

A tiny operational surface served from a daemon thread next to the run
loop — stdlib :mod:`http.server` only, no framework — with the endpoints
a load balancer, an orchestrator, and an operator each need:

``GET /health``
    Liveness: 200 while the process is up and the control plane running.
``GET /ready``
    Readiness: 200 only while the pipeline's run loop is running — 503
    while restoring from a checkpoint and before/after the run.  (A
    producer outrunning detection is told so by the network source's 429,
    not by readiness.)  Liveness and readiness are deliberately distinct
    signals: a pipeline replaying a long delta chain is *alive* but must
    not be routed to.
``GET /metrics``
    Prometheus text exposition (``?format=json`` for JSON) rendered from
    the :class:`~repro.obs.registry.MetricsRegistry` at scrape time.
``GET /decisions``
    The decision log's in-memory tail; filter with ``?type=``,
    ``?limit=``, ``?since=``, ``?until=``.
``GET /engine``
    Engine introspection: the current plan, work counters, live partial
    matches per operator state and the cost-model drift table (see
    :mod:`repro.obs.introspect`).  Sections appear as the pipeline's
    engine provides them.
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
pipeline is duck-typed through the small surface above (``readiness()``,
``request_checkpoint()``), keeping ``repro.obs`` import-light and free of
cycles (``repro.streaming.pipeline`` imports ``repro.obs``).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import StreamingError
from repro.obs.decisions import DecisionLog
from repro.obs.registry import MetricsRegistry

#: How long ``POST /checkpoint`` waits for the run loop to perform the cut
#: before answering 202 (accepted, still pending).
CHECKPOINT_WAIT_SECONDS = 10.0


class ControlPlane:
    """HTTP control plane thread for one streaming pipeline.

    Parameters
    ----------
    pipeline:
        The (duck-typed) pipeline: must offer ``readiness() -> (bool, str)``
        and ``request_checkpoint() -> threading.Event`` — both optional;
        a missing surface degrades the endpoint, it does not break the
        server (``/ready`` answers 503 "no pipeline", ``POST /checkpoint``
        answers 501).
    registry:
        Metrics source for ``/metrics``.
    decision_log:
        Record source for ``/decisions`` (optional).
    network:
        A live :class:`~repro.metrics.NetworkMetrics` (or anything with a
        ``snapshot() -> dict``) answering ``/network`` (optional).
    host / port:
        Bind address; ``port=0`` binds an ephemeral port (tests), exposed
        via :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        pipeline: Optional[Any] = None,
        registry: Optional[MetricsRegistry] = None,
        decision_log: Optional[DecisionLog] = None,
        network: Optional[Any] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.pipeline = pipeline
        self.registry = registry if registry is not None else MetricsRegistry()
        self.decision_log = decision_log
        self.network = network
        self.host = host
        self._requested_port = int(port)
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ControlPlane":
        if self._server is not None:
            raise StreamingError("control plane already started")
        plane = self

        class Handler(_ControlHandler):
            control = plane

        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="control-plane",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ControlPlane":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Endpoint logic (transport-independent, unit-testable)
    # ------------------------------------------------------------------
    def handle_health(self) -> Tuple[int, Dict[str, Any]]:
        body: Dict[str, Any] = {"status": "ok"}
        state = getattr(self.pipeline, "state", None)
        if state is not None:
            body["pipeline"] = state
        if self.decision_log is not None:
            body["decision_seq"] = self.decision_log.last_seq
        return 200, body

    def handle_ready(self) -> Tuple[int, Dict[str, Any]]:
        readiness = getattr(self.pipeline, "readiness", None)
        if readiness is None:
            return 503, {"ready": False, "reason": "no pipeline attached"}
        ready, reason = readiness()
        return (200 if ready else 503), {"ready": bool(ready), "reason": reason}

    def handle_decisions(self, query: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        if self.decision_log is None:
            return 404, {"error": "no decision log configured"}
        try:
            records = self.decision_log.query(
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

    def handle_engine(self) -> Tuple[int, Dict[str, Any]]:
        introspection = getattr(self.pipeline, "engine_introspection", None)
        if introspection is None:
            # A bare engine attached in place of a pipeline still answers.
            introspection = getattr(self.pipeline, "introspection", None)
        if introspection is None:
            return 501, {"error": "pipeline does not expose engine introspection"}
        try:
            frame = introspection()
        except Exception as exc:  # engine mid-restore / workers mid-restart
            return 503, {"error": f"engine introspection unavailable: {exc}"}
        return 200, frame

    def handle_network(self) -> Tuple[int, Dict[str, Any]]:
        if self.network is None:
            return 404, {"error": "pipeline has no network data plane attached"}
        snapshot = getattr(self.network, "snapshot", None)
        body = snapshot() if callable(snapshot) else dict(self.network)
        return 200, body

    def handle_checkpoint(self) -> Tuple[int, Dict[str, Any]]:
        request = getattr(self.pipeline, "request_checkpoint", None)
        if request is None:
            return 501, {"error": "pipeline does not support manual checkpoints"}
        try:
            done = request()
        except StreamingError as exc:
            return 503, {"error": str(exc)}
        if done.wait(CHECKPOINT_WAIT_SECONDS):
            body: Dict[str, Any] = {"status": "ok", "reason": "manual"}
            metrics = getattr(self.pipeline, "metrics", None)
            if metrics is not None:
                body["checkpoints_written"] = metrics.checkpoints_written
                body["last_checkpoint_bytes"] = metrics.last_checkpoint_bytes
            return 200, body
        return 202, {"status": "pending", "reason": "manual"}


class _ControlHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning :class:`ControlPlane`."""

    control: ControlPlane  # injected by ControlPlane.start()
    protocol_version = "HTTP/1.1"

    # Silence the default per-request stderr logging.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        payload = (json.dumps(body, default=str) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _query(self) -> Dict[str, str]:
        parsed = parse_qs(urlparse(self.path).query)
        return {key: values[-1] for key, values in parsed.items() if values}

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        route = urlparse(self.path).path.rstrip("/") or "/"
        if route == "/health":
            self._send_json(*self.control.handle_health())
        elif route == "/ready":
            self._send_json(*self.control.handle_ready())
        elif route == "/metrics":
            body, content_type = self.control.registry.render(
                self._query().get("format", "prometheus")
            )
            self._send_text(200, body, content_type)
        elif route == "/decisions":
            self._send_json(*self.control.handle_decisions(self._query()))
        elif route == "/engine":
            self._send_json(*self.control.handle_engine())
        elif route == "/network":
            self._send_json(*self.control.handle_network())
        else:
            self._send_json(404, {"error": f"unknown endpoint {route!r}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        route = urlparse(self.path).path.rstrip("/") or "/"
        # Drain any request body so keep-alive connections stay in sync.
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        if route == "/checkpoint":
            self._send_json(*self.control.handle_checkpoint())
        else:
            self._send_json(404, {"error": f"unknown endpoint {route!r}"})
