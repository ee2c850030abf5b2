"""Localhost HTTP serving stack: route table, server, telemetry sidecar.

Two HTTP services share this module:

* :class:`TelemetrySidecar` -- the read-only telemetry endpoint behind
  ``repro-sta serve --http-port`` (``GET /healthz``, ``/metrics``,
  ``/metrics/history``, ``/profile``, ``/buildz``, ``/alertz``,
  ``/crashz``, ``/flightz``, ``/traces``),
* the fleet collector (:mod:`repro.service.collector`, ``repro-sta
  collect``), serving ``/fleetz`` and its family.

Both are built from the same two pieces so the HTTP hygiene rules are
implemented (and tested) exactly once:

* :class:`RouteTable` -- maps ``(method, path)`` to a handler.  Exact
  paths and ``/prefix/<operand>`` patterns are supported; dispatch
  resolves the *path first* (unknown paths answer a JSON 404 listing
  every known route), then the method (unsupported methods answer 405
  with an accurate ``Allow`` header).  ``HEAD`` is served by the ``GET``
  handler with the body stripped; a handler raising :class:`ValueError`
  answers 400 (bad client input), anything else 500.
* :class:`RouteHTTPServer` -- a threading HTTP server bound to
  **127.0.0.1 only** (neither telemetry nor the fleet view is an
  external API) that feeds requests through one :class:`RouteTable`.

Everything is standard library (``http.server``); requests never block
the daemon's JSON-lines serving path.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs

__all__ = [
    "HttpRequest",
    "RouteHTTPServer",
    "RouteTable",
    "TelemetrySidecar",
]

#: A telemetry route renders ``(query_params) -> (content_type, body)``.
#: ``query_params`` holds the last value of each query-string key.
Route = Callable[[Dict[str, str]], Tuple[str, str]]

#: Request bodies above this size are refused with 413 (every route is
#: a read; a large body is malformed outside input).
MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class HttpRequest:
    """One dispatched request as seen by a route handler."""

    method: str
    path: str
    #: For ``/prefix/<operand>`` routes: the path tail after the
    #: prefix (``""`` for exact routes).
    operand: str
    #: Last value of each query-string key.
    params: Dict[str, str]
    body: bytes = b""


#: A generic handler renders ``(status, content_type, body)``.
Handler = Callable[[HttpRequest], Tuple[int, str, Union[str, bytes]]]

#: One dispatched response: status, content type, body, extra headers.
_Response = Tuple[int, str, bytes, Dict[str, str]]


class RouteTable:
    """Method-aware route dispatch shared by every HTTP service here.

    Routes are registered per ``(method, pattern)``.  A pattern ending
    in ``/<name>`` is a *prefix* route: ``/traces/<id>`` matches
    ``/traces/abc123`` with ``request.operand == "abc123"``.  All
    dispatch-policy behavior (404 listing routes, 405 with ``Allow``,
    HEAD-from-GET, ValueError -> 400, Exception -> 500) lives in
    :meth:`dispatch` so the sidecar and the collector cannot drift
    apart.
    """

    def __init__(self) -> None:
        #: exact path -> {method: handler}
        self._exact: Dict[str, Dict[str, Handler]] = {}
        #: (prefix, display pattern) -> {method: handler}
        self._prefix: List[Tuple[str, str, Dict[str, Handler]]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        method = method.upper()
        if pattern.endswith(">") and "<" in pattern:
            prefix = pattern[: pattern.rindex("<")]
            for known_prefix, known_pattern, methods in self._prefix:
                if known_prefix == prefix:
                    methods[method] = handler
                    return
            self._prefix.append((prefix, pattern, {method: handler}))
            # Longest prefix wins when patterns nest.
            self._prefix.sort(key=lambda row: -len(row[0]))
        else:
            self._exact.setdefault(pattern, {})[method] = handler

    def add_simple(self, pattern: str, route: Route) -> None:
        """Register a legacy GET-only telemetry route."""

        def handler(request: HttpRequest) -> Tuple[int, str, str]:
            content_type, body = route(request.params)
            return 200, content_type, body

        self.add("GET", pattern, handler)

    def patterns(self) -> List[str]:
        """Every registered route pattern (the 404 listing)."""
        return sorted(
            set(self._exact) | {row[1] for row in self._prefix}
        )

    def _resolve(
        self, path: str
    ) -> Optional[Tuple[str, Dict[str, Handler]]]:
        methods = self._exact.get(path)
        if methods is not None:
            return "", methods
        for prefix, __, prefix_methods in self._prefix:
            if path.startswith(prefix) and len(path) > len(prefix):
                return path[len(prefix):], prefix_methods
        return None

    @staticmethod
    def _allowed(methods: Dict[str, Handler]) -> List[str]:
        allowed = set(methods)
        if "GET" in allowed:
            allowed.add("HEAD")
        return sorted(allowed)

    def dispatch(
        self,
        method: str,
        path: str,
        params: Dict[str, str],
        body: bytes = b"",
    ) -> _Response:
        """Route one request; returns ``(status, ctype, body, headers)``."""
        resolved = self._resolve(path)
        if resolved is None:
            doc = json.dumps(
                {
                    "ok": False,
                    "error": f"unknown path {path!r}",
                    "routes": self.patterns(),
                },
                sort_keys=True,
            )
            return 404, "application/json", (doc + "\n").encode(), {}
        operand, methods = resolved
        method = method.upper()
        handler = methods.get(method)
        if handler is None and method == "HEAD":
            handler = methods.get("GET")
        if handler is None:
            allowed = self._allowed(methods)
            doc = json.dumps(
                {
                    "ok": False,
                    "error": f"method {method} not allowed",
                    "allow": allowed,
                },
                sort_keys=True,
            )
            return (
                405,
                "application/json",
                (doc + "\n").encode(),
                {"Allow": ", ".join(allowed)},
            )
        request = HttpRequest(
            method=method,
            path=path,
            operand=operand,
            params=params,
            body=body,
        )
        try:
            status, content_type, payload = handler(request)
        except ValueError as exc:  # bad client input, e.g. ?last=x
            return 400, "text/plain", f"{exc}\n".encode(), {}
        except Exception as exc:  # noqa: BLE001 -- report, don't die
            return 500, "text/plain", f"{exc}\n".encode(), {}
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        return status, content_type, payload, {}


class RouteHTTPServer:
    """Serve one :class:`RouteTable` over localhost HTTP.

    Parameters
    ----------
    table:
        The route table (may keep being populated until :meth:`start`).
    port:
        TCP port on 127.0.0.1 (``0`` picks an ephemeral port; read the
        bound address back from :attr:`address`).
    on_request:
        Optional hook called with the request path (used by the daemon
        to count ``service.daemon.http_requests``).  Exceptions are
        swallowed -- a metrics hook must never 500 a request.
    """

    def __init__(
        self,
        table: Optional[RouteTable] = None,
        port: int = 0,
        host: str = "127.0.0.1",
        on_request: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.table = table if table is not None else RouteTable()
        self.host = host
        self.port = int(port)
        self.on_request = on_request
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The bound ``(host, port)``, or ``None`` before :meth:`start`."""
        if self._server is None:
            return None
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> Tuple[str, int]:
        """Bind and serve in a daemon thread; returns the address."""
        if self._server is not None:
            raise RuntimeError("server already started")
        owner = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _serve(self, method: str) -> None:
                path, __, query = self.path.partition("?")
                params = {
                    key: values[-1]
                    for key, values in parse_qs(query).items()
                }
                if owner.on_request is not None:
                    try:
                        owner.on_request(path)
                    except Exception:  # noqa: BLE001 -- hook must not 500
                        pass
                body = b""
                length = int(self.headers.get("Content-Length") or 0)
                if length > MAX_BODY_BYTES:
                    self._reply(
                        413, "text/plain", b"request body too large\n", {}
                    )
                    return
                if length > 0:
                    body = self.rfile.read(length)
                status, content_type, payload, headers = (
                    owner.table.dispatch(method, path, params, body)
                )
                self._reply(
                    status,
                    content_type,
                    payload,
                    headers,
                    head_only=(method == "HEAD"),
                )

            def do_GET(self) -> None:  # noqa: N802 -- http.server API
                self._serve("GET")

            def do_HEAD(self) -> None:  # noqa: N802
                self._serve("HEAD")

            def do_PUT(self) -> None:  # noqa: N802
                self._serve("PUT")

            def do_POST(self) -> None:  # noqa: N802
                self._serve("POST")

            def do_DELETE(self) -> None:  # noqa: N802
                self._serve("DELETE")

            def do_PATCH(self) -> None:  # noqa: N802
                self._serve("PATCH")

            def do_OPTIONS(self) -> None:  # noqa: N802
                self._serve("OPTIONS")

            def _reply(
                self,
                status: int,
                content_type: str,
                payload: bytes,
                headers: Dict[str, str],
                head_only: bool = False,
            ) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                if not head_only:
                    self.wfile.write(payload)

            def log_message(self, *args) -> None:  # silence stderr
                return

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._thread.start()
        address = self.address
        assert address is not None
        return address

    def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "RouteHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class TelemetrySidecar(RouteHTTPServer):
    """Serve read-only telemetry routes over localhost HTTP.

    Parameters
    ----------
    routes:
        Mapping of exact path -> callable taking the parsed query
        params and returning ``(content_type, body)``.  A route raising
        :class:`ValueError` answers 400 (bad client input), anything
        else 500; unknown paths answer 404 listing the routes.
    port:
        TCP port on 127.0.0.1 (``0`` picks an ephemeral port; read the
        bound address back from :attr:`address`).
    on_request:
        Optional hook called with the request path (used by the daemon
        to count ``service.daemon.http_requests``).
    handlers:
        Mapping of pattern -> full :data:`Handler` for GET routes that
        need the dispatch-level :class:`HttpRequest` (e.g. the operand
        of a ``/traces/<id>`` prefix route, which the simple ``routes``
        signature cannot see).
    """

    def __init__(
        self,
        routes: Dict[str, Route],
        port: int = 0,
        host: str = "127.0.0.1",
        on_request: Optional[Callable[[str], None]] = None,
        handlers: Optional[Dict[str, Handler]] = None,
    ) -> None:
        super().__init__(
            table=RouteTable(),
            port=port,
            host=host,
            on_request=on_request,
        )
        self.routes = dict(routes)
        self.handlers = dict(handlers or {})

    def start(self) -> Tuple[str, int]:
        # Rebuild the table from ``self.routes`` at start so routes
        # added after construction (tests do this) are honored.
        self.table = RouteTable()
        for path, route in self.routes.items():
            self.table.add_simple(path, route)
        for pattern, handler in self.handlers.items():
            self.table.add("GET", pattern, handler)
        return super().start()

    def __enter__(self) -> "TelemetrySidecar":
        self.start()
        return self
