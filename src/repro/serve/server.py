"""The HTTP skin over :class:`~repro.serve.router.Router`.

A deliberately thin adapter: :class:`ReproServer` is a
:class:`~http.server.ThreadingHTTPServer` whose handler reads the body,
calls :meth:`Router.handle <repro.serve.router.Router.handle>`, and
writes the JSON back: status line, headers and body in one write, on a
socket with Nagle's algorithm off.  Everything interesting (admission,
tenancy, deadlines, error mapping) lives in the router where it is
testable without a socket.

**Graceful drain.**  ``daemon_threads`` is *off* and ``block_on_close``
is *on*: when :meth:`ReproServer.shutdown` runs — from a SIGTERM/SIGINT
handler or a test — the accept loop stops, ``server_close`` then waits
for every in-flight handler thread to finish its response, and only then
does :func:`serve` release the router (closing tenant sessions).  In-flight requests complete; new connections are
refused.  The signal handler hands ``shutdown()`` to a helper thread
because calling it from the serving thread deadlocks by design.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from .router import Router, ServerConfig
from .wire import error_payload

__all__ = ["ReproServer", "make_server", "serve"]


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange: bytes in, router verdict out."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # TCP_NODELAY on every accepted socket: with Nagle's algorithm on, a
    # response that needs a second segment waits for the client's
    # delayed ACK (40 ms on Linux) before it leaves
    disable_nagle_algorithm = True

    # the server instance injects these
    router: Router

    def _respond(
        self, status: int, payload: Any, extra: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        # one write for the whole response: end_headers() would send the
        # header block on its own and leave the body to a second send
        head = getattr(self, "_headers_buffer", [])
        if self.request_version != "HTTP/0.9":
            head.append(b"\r\n")
        head.append(body)
        self._headers_buffer = head
        self.flush_headers()

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after a 413/400 was already sent."""
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            self._respond(
                400,
                error_payload("bad_request", "malformed Content-Length"),
            )
            return None
        limit = self.server.router.config.max_body_bytes
        if length > limit:
            # refuse before reading: the client already told us it is too big
            self._respond(
                413,
                error_payload(
                    "payload_too_large",
                    f"request body exceeds {limit} bytes",
                ),
            )
            return None
        return self.rfile.read(length) if length > 0 else b""

    def _dispatch(self, method: str) -> None:
        body = b""
        if method == "POST":
            maybe = self._read_body()
            if maybe is None:
                return
            body = maybe
        status, payload, extra = self.server.router.handle(
            method, self.path, dict(self.headers.items()), body
        )
        self._respond(status, payload, extra)

    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.router.config.quiet:
            sys.stderr.write(
                "[serve] %s %s\n" % (self.address_string(), format % args)
            )


class ReproServer(ThreadingHTTPServer):
    """Threaded HTTP server that drains in-flight requests on close."""

    # non-daemon handler threads + block_on_close is the whole drain
    # story: server_close() joins every in-flight handler before returning
    daemon_threads = False
    block_on_close = True

    def __init__(self, config: Optional[ServerConfig] = None):
        self.router = Router(config)
        cfg = self.router.config
        # a per-server handler class carrying the keep-alive read timeout:
        # StreamRequestHandler.setup() applies ``timeout`` to the socket,
        # and BaseHTTPRequestHandler treats a timed-out read as
        # connection-close — which is what bounds server_close()'s join
        # over handlers parked on idle keep-alive connections
        handler = type(
            "_BoundHandler", (_Handler,), {"timeout": cfg.keepalive_timeout}
        )
        super().__init__((cfg.host, cfg.port), handler)

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self.server_address[1]

    def close(self) -> None:
        """Stop accepting, drain handlers, release the router's resources."""
        self.server_close()
        self.router.close()


def make_server(config: Optional[ServerConfig] = None) -> ReproServer:
    """A bound, not-yet-serving daemon (callers drive ``serve_forever``)."""
    return ReproServer(config)


def serve(
    config: Optional[ServerConfig] = None,
    *,
    install_signal_handlers: bool = True,
    ready: Optional[threading.Event] = None,
) -> Tuple[str, int]:
    """Run the daemon until SIGTERM/SIGINT; returns the bound address.

    Prints a single machine-readable ready line (``repro-serve listening
    on HOST:PORT``) so scripts, such as the CI smoke step, can wait for
    it.  ``ready`` is the in-process equivalent for tests.
    """
    server = make_server(config)
    host, port = server.server_address[0], server.port

    if install_signal_handlers:

        def _drain(signum: int, frame: Any) -> None:
            # shutdown() blocks until the accept loop exits; calling it on
            # the loop's own thread would deadlock, so hand it off
            threading.Thread(
                target=server.shutdown, name="repro-serve-drain"
            ).start()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    print(f"repro-serve listening on {host}:{port}", flush=True)
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.close()
        if not server.router.config.quiet:
            counters = server.router._counters
            total = counters.get("requests_total", 0)
            print(
                f"repro-serve drained after {total} request(s)", flush=True
            )
    return host, port
