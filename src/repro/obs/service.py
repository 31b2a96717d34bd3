"""One stdlib HTTP scaffold for every service the repository runs.

The control plane (:class:`~repro.obs.control.ControlPlane`), the HTTP
event ingress and the webhook receiver (:mod:`repro.streaming.net`) are
each a route table on :class:`HTTPService`: a
:class:`~http.server.ThreadingHTTPServer` on a daemon thread, HTTP/1.1
keep-alive, silent request logging and one JSON encoder.

A route is ``(method, path) -> handler``; the path ``"*"`` answers every
path of its method.  Routing reads the path alone (``urlparse``, trailing
slashes stripped), so a query string never changes which handler runs.
The request body named by ``Content-Length`` is always read, whether or
not a route exists, so a keep-alive connection stays in step after any
request; a ``Content-Length`` that is not a non-negative integer answers
400 and closes the connection, since the body's end is unknown.  An
unknown route answers 404 with a JSON error body.  Routes are ``GET`` or
``POST``; any other method gets the stdlib's 501.

A handler takes a :class:`Request` and answers ``(status, body)`` — the
body is encoded as JSON — or ``(status, text, content_type)``.  JSON is
strict: non-finite floats (an infinite drift ratio, say) are written as
``null``, never as the ``Infinity`` token strict parsers reject.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import StreamingError


@dataclass(frozen=True)
class Request:
    """One HTTP request as a route handler sees it."""

    query: Dict[str, str]  # last value of each query parameter
    headers: Mapping[str, str]
    body: bytes


#: ``(status, body)`` or ``(status, text, content_type)``.
Reply = Tuple[Any, ...]
Route = Callable[[Request], Reply]


def _finite(value: Any) -> Any:
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def encode_json(body: Any, indent: Optional[int] = None) -> str:
    """Strict JSON text of ``body``: non-finite floats become ``null``."""
    return json.dumps(_finite(body), default=str, allow_nan=False, indent=indent)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _dispatch(self) -> None:
        url = urlparse(self.path)
        path = url.path.rstrip("/") or "/"
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        close = length < 0
        if close:
            # The body's extent is unknown: answer, then drop the connection.
            reply: Reply = (400, {"error": "invalid Content-Length header"})
        else:
            body = self.rfile.read(length) if length else b""
            routes = self.server.service.routes
            route = routes.get((self.command, path)) or routes.get((self.command, "*"))
            if route is None:
                reply = (404, {"error": f"unknown endpoint {path!r}"})
            else:
                query = {key: values[-1] for key, values in parse_qs(url.query).items()}
                reply = route(Request(query, self.headers, body))
        if len(reply) == 3:
            status, text, content_type = reply
        else:
            status, content_type = reply[0], "application/json"
            text = encode_json(reply[1]) + "\n"
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if close:
            self.send_header("Connection", "close")  # also sets close_connection
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST = _dispatch  # noqa: N815


class HTTPService:
    """A route table served from a daemon thread.

    ``port=0`` binds an ephemeral port, exposed via :attr:`port` after
    :meth:`start`.  Subclasses name themselves (``name``, used in errors
    and as the thread name) and pass their routes.
    """

    name = "HTTP service"

    def __init__(
        self,
        routes: Dict[Tuple[str, str], Route],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.routes = routes
        self.host = host
        self._requested_port = int(port)
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self):
        if self._server is not None:
            raise StreamingError(f"{self.name} already started")
        self._server = ThreadingHTTPServer((self.host, self._requested_port), _Handler)
        self._server.daemon_threads = True
        self._server.service = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=self.name, daemon=True
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

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
