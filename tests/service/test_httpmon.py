"""The telemetry sidecar's HTTP hygiene, checked over the wire.

Unknown paths answer a JSON 404 listing every route, any method other
than GET/HEAD answers 405 with ``Allow: GET, HEAD``, HEAD is served
from GET with the body stripped, ValueError maps to 400 and anything
else to 500, every route is one exact path (a path below it is 404), a
repeated query key keeps its last value, request bodies above the bound
answer 413, and a ``Content-Length`` that is not a non-negative integer
answers 400 and closes the connection.
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.service.httpmon import HttpRequest, TelemetrySidecar


def _ok(request: HttpRequest):
    return 200, "application/json", json.dumps({"ok": True}) + "\n"


def _bad_input(request: HttpRequest):
    raise ValueError("bad input")


def _boom(request: HttpRequest):
    raise RuntimeError("boom")


def _echo(request: HttpRequest):
    return 200, "application/json", json.dumps({"params": request.params})


@pytest.fixture
def sidecar():
    seen = []
    routes = {
        "/healthz": _ok,
        "/bad": _bad_input,
        "/boom": _boom,
        "/echo": _echo,
    }
    with TelemetrySidecar(routes, on_request=seen.append) as server:
        server.seen = seen
        yield server


def _request(server, path, method="GET", data=None):
    """``(status, headers, body)``; HTTP errors are returned, not raised."""
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers, err.read()


class TestRouteTable:
    def test_exact_dispatch(self, sidecar):
        status, headers, body = _request(sidecar, "/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {"ok": True}

    def test_unknown_path_404_lists_routes(self, sidecar):
        status, headers, body = _request(sidecar, "/nope")
        assert status == 404
        doc = json.loads(body)
        assert doc["ok"] is False
        assert doc["routes"] == ["/bad", "/boom", "/echo", "/healthz"]

    def test_unknown_path_404_regardless_of_method(self, sidecar):
        status, *_ = _request(sidecar, "/nope", method="PUT", data=b"x")
        assert status == 404

    def test_wrong_method_405_with_allow(self, sidecar):
        for method in ("POST", "PUT", "DELETE", "PATCH", "OPTIONS"):
            status, headers, body = _request(
                sidecar, "/healthz", method=method, data=b"{}"
            )
            assert status == 405, method
            assert headers["Allow"] == "GET, HEAD"
            assert json.loads(body)["allow"] == ["GET", "HEAD"]

    def test_head_falls_back_to_get_handler(self, sidecar):
        status, *_ = _request(sidecar, "/echo", method="HEAD")
        assert status == 200

    def test_query_parameter_keeps_last_value(self, sidecar):
        status, __, body = _request(sidecar, "/echo?last=2&last=3")
        assert status == 200
        assert json.loads(body) == {"params": {"last": "3"}}

    def test_path_below_a_route_is_404(self, sidecar):
        status, *_ = _request(sidecar, "/healthz/x")
        assert status == 404

    def test_value_error_maps_to_400(self, sidecar):
        status, __, body = _request(sidecar, "/bad")
        assert status == 400
        assert b"bad input" in body

    def test_other_exception_maps_to_500(self, sidecar):
        status, __, body = _request(sidecar, "/boom")
        assert status == 500
        assert b"boom" in body


class TestTelemetrySidecar:
    def test_round_trip(self, sidecar):
        host, __ = sidecar.address
        assert host == "127.0.0.1"
        status, __, body = _request(sidecar, "/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True}
        assert sidecar.seen == ["/healthz"]

    def test_head_has_no_body(self, sidecar):
        status, headers, body = _request(sidecar, "/healthz", method="HEAD")
        assert status == 200
        assert body == b""
        assert int(headers["Content-Length"]) == len(b'{"ok": true}\n')

    def test_405_over_the_wire_carries_allow(self, sidecar):
        status, headers, __ = _request(
            sidecar, "/healthz", method="POST", data=b"x"
        )
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"

    def test_404_over_the_wire_lists_routes(self, sidecar):
        status, __, body = _request(sidecar, "/missing")
        assert status == 404
        doc = json.loads(body)
        assert "/healthz" in doc["routes"]
        assert "/echo" in doc["routes"]

    def test_oversized_body_is_413(self, sidecar):
        host, port = sidecar.address
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            # Only the header claims the size: the sidecar answers
            # before reading any of it.
            connection.putrequest("POST", "/healthz")
            connection.putheader("Content-Length", str(1 << 40))
            connection.endheaders()
            assert connection.getresponse().status == 413
        finally:
            connection.close()

    @pytest.mark.parametrize("declared", ["abc", "-5", "1.5", ""])
    def test_bad_content_length_is_400_and_closes(self, sidecar, declared):
        host, port = sidecar.address
        with socket.create_connection((host, port), timeout=5) as raw:
            raw.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: sidecar\r\n"
                b"Content-Length: " + declared.encode() + b"\r\n\r\n"
            )
            answer = b""
            while True:  # the sidecar closes the connection after it
                chunk = raw.recv(4096)
                if not chunk:
                    break
                answer += chunk
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in answer

    def test_failing_hook_does_not_fail_the_request(self):
        def hook(path):
            raise RuntimeError("hook")

        with TelemetrySidecar({"/healthz": _ok}, on_request=hook) as server:
            status, *_ = _request(server, "/healthz")
        assert status == 200
