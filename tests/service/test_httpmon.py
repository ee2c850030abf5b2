"""The shared route-dispatch stack (RouteTable / RouteHTTPServer).

One test suite for the HTTP hygiene rules both the telemetry sidecar
and the fleet collector are built on: unknown paths answer a
JSON 404 listing every route, unsupported methods answer 405 with an
accurate ``Allow`` header, HEAD is served from GET with the body
stripped, ValueError maps to 400 and anything else to 500, and prefix
routes (``/objects/<key>``) dispatch with the operand split out.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.service.httpmon import HttpRequest, RouteHTTPServer, RouteTable


def _ok(request: HttpRequest):
    return 200, "application/json", json.dumps({"ok": True}) + "\n"


class TestRouteTable:
    def test_exact_dispatch(self):
        table = RouteTable()
        table.add("GET", "/healthz", _ok)
        status, ctype, body, headers = table.dispatch("GET", "/healthz", {})
        assert status == 200
        assert json.loads(body) == {"ok": True}

    def test_unknown_path_404_lists_routes(self):
        table = RouteTable()
        table.add("GET", "/healthz", _ok)
        table.add("PUT", "/objects/<key>", _ok)
        status, ctype, body, headers = table.dispatch("GET", "/nope", {})
        assert status == 404
        doc = json.loads(body)
        assert doc["ok"] is False
        assert doc["routes"] == ["/healthz", "/objects/<key>"]

    def test_unknown_path_404_regardless_of_method(self):
        table = RouteTable()
        table.add("GET", "/healthz", _ok)
        status, *_ = table.dispatch("PUT", "/nope", {})
        assert status == 404

    def test_wrong_method_405_with_allow(self):
        table = RouteTable()
        table.add("GET", "/healthz", _ok)
        status, ctype, body, headers = table.dispatch("POST", "/healthz", {})
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"
        assert json.loads(body)["allow"] == ["GET", "HEAD"]

    def test_allow_reflects_registered_methods(self):
        table = RouteTable()
        table.add("PUT", "/objects/<key>", _ok)
        table.add("GET", "/objects/<key>", _ok)
        status, ctype, body, headers = table.dispatch(
            "POST", "/objects/abc", {}
        )
        assert status == 405
        assert headers["Allow"] == "GET, HEAD, PUT"

    def test_head_falls_back_to_get_handler(self):
        table = RouteTable()
        table.add("GET", "/healthz", _ok)
        status, *_ = table.dispatch("HEAD", "/healthz", {})
        assert status == 200

    def test_prefix_route_operand(self):
        seen = {}

        def handler(request: HttpRequest):
            seen["operand"] = request.operand
            seen["params"] = request.params
            return 200, "text/plain", "hi\n"

        table = RouteTable()
        table.add("GET", "/objects/<key>", handler)
        status, *_ = table.dispatch(
            "GET", "/objects/abc123", {"lease": "h1"}
        )
        assert status == 200
        assert seen["operand"] == "abc123"
        assert seen["params"] == {"lease": "h1"}

    def test_prefix_route_requires_operand(self):
        table = RouteTable()
        table.add("GET", "/objects/<key>", _ok)
        status, *_ = table.dispatch("GET", "/objects/", {})
        assert status == 404

    def test_value_error_maps_to_400(self):
        def handler(request: HttpRequest):
            raise ValueError("bad input")

        table = RouteTable()
        table.add("GET", "/healthz", handler)
        status, ctype, body, _ = table.dispatch("GET", "/healthz", {})
        assert status == 400
        assert b"bad input" in body

    def test_other_exception_maps_to_500(self):
        def handler(request: HttpRequest):
            raise RuntimeError("boom")

        table = RouteTable()
        table.add("GET", "/healthz", handler)
        status, ctype, body, _ = table.dispatch("GET", "/healthz", {})
        assert status == 500
        assert b"boom" in body

    def test_body_reaches_handler(self):
        seen = {}

        def handler(request: HttpRequest):
            seen["body"] = request.body
            return 200, "text/plain", "ok\n"

        table = RouteTable()
        table.add("PUT", "/objects/<key>", handler)
        table.dispatch("PUT", "/objects/k", {}, body=b"payload")
        assert seen["body"] == b"payload"

    def test_legacy_route_adapter(self):
        table = RouteTable()
        table.add_simple("/metrics", lambda params: ("text/plain", "m\n"))
        status, ctype, body, _ = table.dispatch("GET", "/metrics", {})
        assert status == 200
        assert ctype == "text/plain"
        assert body == b"m\n"


class TestRouteHTTPServer:
    @pytest.fixture
    def server(self):
        table = RouteTable()
        table.add("GET", "/healthz", _ok)

        def echo(request: HttpRequest):
            return (
                200,
                "application/octet-stream",
                request.body or b"(empty)",
            )

        table.add("PUT", "/objects/<key>", echo)
        with RouteHTTPServer(table=table) as srv:
            yield srv

    def _url(self, server, path):
        host, port = server.address
        return f"http://{host}:{port}{path}"

    def test_round_trip(self, server):
        with urllib.request.urlopen(self._url(server, "/healthz")) as r:
            assert r.status == 200
            assert json.loads(r.read()) == {"ok": True}

    def test_put_body_round_trip(self, server):
        request = urllib.request.Request(
            self._url(server, "/objects/k1"), data=b"hello", method="PUT"
        )
        with urllib.request.urlopen(request) as r:
            assert r.read() == b"hello"

    def test_head_has_no_body(self, server):
        request = urllib.request.Request(
            self._url(server, "/healthz"), method="HEAD"
        )
        with urllib.request.urlopen(request) as r:
            assert r.status == 200
            assert r.read() == b""
            assert int(r.headers["Content-Length"]) > 0

    def test_405_over_the_wire_carries_allow(self, server):
        request = urllib.request.Request(
            self._url(server, "/healthz"), data=b"x", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "GET, HEAD"

    def test_404_over_the_wire_lists_routes(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(self._url(server, "/missing"))
        assert excinfo.value.code == 404
        doc = json.loads(excinfo.value.read())
        assert "/healthz" in doc["routes"]
        assert "/objects/<key>" in doc["routes"]
