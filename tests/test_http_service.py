"""Tests for the one HTTP scaffold behind all three services.

The control plane, the HTTP event ingress and the webhook receiver share
:class:`repro.obs.service.HTTPService`, so the transport contract is
checked once per service here: routing ignores query strings, a
keep-alive connection stays in step after any request (a refused POST
with a body included), a malformed ``Content-Length`` answers 400 and
closes, an unknown route answers a JSON 404, a method with no route
keeps the stdlib's 501, and every JSON body is strict — non-finite
floats are ``null``.
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.request

import pytest

from repro.adaptive import StaticPolicy
from repro.engine import AdaptiveCEPEngine
from repro.events import EventType
from repro.obs import ControlPlane
from repro.obs.service import encode_json
from repro.optimizer import GreedyOrderPlanner
from repro.statistics import StatisticsSnapshot
from repro.streaming import ReplaySource, StreamingPipeline
from repro.streaming.net import HTTPEventIngress, NetworkEventSource, WebhookReceiver

from tests.conftest import make_camera_stream

TYPES = {name: EventType(name) for name in ("A", "B", "C")}


def _pipeline(pattern, **kwargs):
    engine = AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), StaticPolicy(), **kwargs)
    return StreamingPipeline(engine, ReplaySource(make_camera_stream(count=200)))


def _service(kind, camera_pattern, tmp_path):
    """One of the three services, with a known (method, path) it serves
    and a ``POST`` path it refuses: an unknown route (404) on the control
    plane and the ingress.  The receiver answers ``GET`` and ``POST`` on
    every path, so it has no unknown route; it refuses a ``POST`` without
    an ``Idempotency-Key`` (400)."""
    if kind == "control":
        return ControlPlane(_pipeline(camera_pattern)), ("GET", "/health"), ("POST", "/nonsense")
    if kind == "ingress":
        ingress = HTTPEventIngress(NetworkEventSource(TYPES))
        return ingress, ("GET", "/stats"), ("POST", "/nonsense")
    receiver = WebhookReceiver(str(tmp_path / "delivered.jsonl"))
    return receiver, ("GET", "/stats"), ("POST", "/nonsense")


def _request(connection, method, path, body=b""):
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, response.getheader("Content-Type"), response.read()


SERVICES = ["control", "ingress", "receiver"]
REFUSED = {"control": 404, "ingress": 404, "receiver": 400}


@pytest.mark.parametrize("kind", ["control", "ingress"])
def test_unknown_route_answers_a_json_404(kind, camera_pattern, tmp_path):
    service, _, (method, path) = _service(kind, camera_pattern, tmp_path)
    with service:
        connection = http.client.HTTPConnection(service.host, service.port, timeout=5)
        status, content_type, body = _request(connection, method, path)
        connection.close()
    assert status == 404
    assert content_type == "application/json"
    assert json.loads(body) == {"error": "unknown endpoint '/nonsense'"}


@pytest.mark.parametrize("kind", SERVICES)
def test_keep_alive_stays_in_step_after_a_refused_post_with_a_body(
    kind, camera_pattern, tmp_path
):
    service, (known_method, known_path), (method, path) = _service(
        kind, camera_pattern, tmp_path
    )
    with service:
        connection = http.client.HTTPConnection(service.host, service.port, timeout=5)
        first = _request(connection, known_method, known_path)
        refused = _request(connection, method, path, body=b'{"unread": "body"}')
        again = _request(connection, known_method, known_path)
        connection.close()
    assert first[0] == again[0] == 200
    assert refused[0] == REFUSED[kind]
    json.loads(again[2])


@pytest.mark.parametrize("kind", SERVICES)
def test_methods_without_routes_keep_the_stdlib_501(kind, camera_pattern, tmp_path):
    service, _, _ = _service(kind, camera_pattern, tmp_path)
    with service:
        connection = http.client.HTTPConnection(service.host, service.port, timeout=5)
        connection.request("PUT", "/nonsense")
        status = connection.getresponse().status
        connection.close()
    assert status == 501


@pytest.mark.parametrize("length", [b"abc", b"-1"])
@pytest.mark.parametrize("kind", SERVICES)
def test_bad_content_length_answers_400_and_closes(kind, length, camera_pattern, tmp_path):
    service, _, _ = _service(kind, camera_pattern, tmp_path)
    with service:
        with socket.create_connection((service.host, service.port), timeout=5) as conn:
            conn.sendall(
                b"POST /events HTTP/1.1\r\nHost: x\r\nContent-Length: " + length + b"\r\n\r\n"
            )
            reply = b""
            while chunk := conn.recv(4096):  # the server closes after answering
                reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400")
    assert b"\r\nConnection: close" in head
    assert json.loads(body) == {"error": "invalid Content-Length header"}


def test_query_string_does_not_change_the_route():
    source = NetworkEventSource(TYPES)
    with HTTPEventIngress(source) as ingress:
        request = urllib.request.Request(
            ingress.url + "/events?x=1",
            data=json.dumps({"type": "A", "timestamp": 1.0, "sequence": 0}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            status, body = response.status, json.loads(response.read())
    assert status == 202
    assert body["accepted"] == 1
    assert source.stats()["pending"] == 1


def _refuse_constant(name):
    raise AssertionError(f"non-strict JSON constant {name} in the body")


def test_encoder_writes_non_finite_floats_as_null():
    text = encode_json({"ratio": float("inf"), "rows": [float("nan"), 1.5, (-float("inf"),)]})
    assert json.loads(text, parse_constant=_refuse_constant) == {
        "ratio": None,
        "rows": [None, 1.5, [None]],
    }


def test_engine_body_is_strict_json_with_an_infinite_drift_ratio(camera_pattern):
    # Planned from a snapshot that predicts the a~b pair never passes: any
    # observed pass makes its drift ratio infinite.
    snapshot = StatisticsSnapshot(
        {"A": 100.0, "B": 15.0, "C": 10.0}, {("a", "b"): 0.0, ("b", "c"): 0.2}
    )
    pipeline = _pipeline(camera_pattern, initial_snapshot=snapshot)
    pipeline.run()
    frame = pipeline.engine_introspection()
    assert any(row["ratio"] == float("inf") for row in frame["drift"]["pairs"])
    with ControlPlane(pipeline) as control:
        with urllib.request.urlopen(control.url + "/engine", timeout=5) as response:
            body = json.loads(response.read(), parse_constant=_refuse_constant)
    rows = {row["pair"]: row for row in body["drift"]["pairs"]}
    assert rows["a~b"]["ratio"] is None
    assert rows["b~c"]["ratio"] > 0
