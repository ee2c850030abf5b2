"""Localhost HTTP telemetry sidecar.

:class:`TelemetrySidecar` is the read-only endpoint behind
``repro-sta serve --http-port`` (``GET /healthz``, ``/metrics``,
``/buildz``, ``/crashz``, ``/flightz``).  Every route is a read of one
exact path, so the HTTP
hygiene rules are few and live in :meth:`TelemetrySidecar.dispatch`:

* a path is found by one dict lookup; any other path (a path below
  a route included) answers a JSON 404 listing every route,
* any method other than ``GET``/``HEAD`` answers 405 with
  ``Allow: GET, HEAD``,
* ``HEAD`` is answered from ``GET`` with the body stripped,
* a route raising :class:`ValueError` answers 400 (bad client input),
  anything else 500.

The server binds **127.0.0.1 only** (telemetry is not an external API).
Everything is standard library (``http.server``); requests never block
the daemon's JSON-lines serving path.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs

__all__ = [
    "HttpRequest",
    "TelemetrySidecar",
]

#: Request bodies above this size are refused with 413 (every route is
#: a read; a large body is malformed outside input).
MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class HttpRequest:
    """One dispatched request as seen by a route."""

    #: Last value of each query-string key.
    params: Dict[str, str]


#: A route renders ``(status, content_type, body)`` for one request.
Route = Callable[[HttpRequest], Tuple[int, str, str]]

#: One dispatched response: status, content type, body, extra headers.
_Response = Tuple[int, str, bytes, Dict[str, str]]

_ALLOWED = ("GET", "HEAD")
_HOST = "127.0.0.1"


class TelemetrySidecar:
    """Serve read-only routes over localhost HTTP.

    Parameters
    ----------
    routes:
        Mapping of exact path -> :data:`Route`.
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
        routes: Dict[str, Route],
        port: int = 0,
        on_request: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.routes = dict(routes)
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

    def dispatch(
        self, method: str, path: str, params: Dict[str, str]
    ) -> _Response:
        """Route one request; returns ``(status, ctype, body, headers)``."""
        route = self.routes.get(path)
        if route is None:
            doc = {
                "ok": False,
                "error": f"unknown path {path!r}",
                "routes": sorted(self.routes),
            }
            return 404, "application/json", _json_bytes(doc), {}
        if method not in _ALLOWED:
            doc = {
                "ok": False,
                "error": f"method {method} not allowed",
                "allow": list(_ALLOWED),
            }
            return (
                405,
                "application/json",
                _json_bytes(doc),
                {"Allow": ", ".join(_ALLOWED)},
            )
        try:
            status, content_type, body = route(HttpRequest(params=params))
        except ValueError as exc:  # bad client input, e.g. ?last=x
            return 400, "text/plain", f"{exc}\n".encode(), {}
        except Exception as exc:  # noqa: BLE001 -- report, don't die
            return 500, "text/plain", f"{exc}\n".encode(), {}
        return status, content_type, body.encode("utf-8"), {}

    def start(self) -> Tuple[str, int]:
        """Bind and serve in a daemon thread; returns the address."""
        if self._server is not None:
            raise RuntimeError("server already started")
        owner = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _serve(self) -> None:
                method = self.command
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
                declared = self.headers.get("Content-Length", "0").strip()
                if not (declared.isascii() and declared.isdigit()):
                    # The body's end is unknown: answer, then hang up.
                    self.close_connection = True
                    self._reply(
                        400,
                        "text/plain",
                        b"Content-Length is not a non-negative integer\n",
                        {"Connection": "close"},
                    )
                    return
                length = int(declared)
                if length > MAX_BODY_BYTES:
                    self._reply(
                        413, "text/plain", b"request body too large\n", {}
                    )
                    return
                if length > 0:
                    # No route reads a body; drain it so the next
                    # request on this connection parses cleanly.
                    self.rfile.read(length)
                status, content_type, payload, headers = owner.dispatch(
                    method, path, params
                )
                self._reply(
                    status,
                    content_type,
                    payload,
                    headers,
                    head_only=(method == "HEAD"),
                )

            # 405 (not http.server's 501) for every other common method.
            do_GET = do_HEAD = do_POST = do_PUT = _serve  # noqa: N815
            do_DELETE = do_PATCH = do_OPTIONS = _serve  # noqa: N815

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

        self._server = ThreadingHTTPServer((_HOST, self.port), Handler)
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

    def __enter__(self) -> "TelemetrySidecar":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _json_bytes(doc: Dict[str, object]) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()
