"""The HTTP layer: real sockets, keep-alive, body limits, graceful drain.

Each test boots a daemon on an ephemeral port in a background thread and
talks proper HTTP/1.1 to it with ``http.client``.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.bench.olden import OLDEN_PROGRAMS
from repro.serve import ServerConfig, make_server
from repro.serve.server import _Handler
from tests.conftest import PAIR_SOURCE

TREEADD = OLDEN_PROGRAMS["treeadd"]


@pytest.fixture()
def daemon():
    """A serving daemon on an ephemeral port; yields (server, connection)."""
    server = make_server(ServerConfig(port=0, quiet=True))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        yield server, conn
    finally:
        conn.close()
        server.shutdown()
        thread.join(10.0)
        server.close()


def _post(conn, path, payload, headers=None):
    conn.request(
        "POST",
        path,
        body=json.dumps(payload),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read()), response


class TestRoundTrips(object):
    def test_keep_alive_serves_every_endpoint_on_one_connection(self, daemon):
        server, conn = daemon
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"

        status, payload, _ = _post(
            conn, "/v1/infer", {"source": TREEADD.source}
        )
        assert status == 200 and payload["ok"] is True

        status, payload, _ = _post(
            conn, "/v1/check", {"source": TREEADD.source}
        )
        assert status == 200 and payload["verified"] is True

        status, payload, _ = _post(
            conn,
            "/v1/run",
            {
                "source": TREEADD.source,
                "entry": TREEADD.entry,
                "args": list(TREEADD.test_args),
            },
        )
        assert status == 200

        conn.request("GET", "/v1/stats")
        stats = json.loads(conn.getresponse().read())
        # healthz + the three engine posts (the stats call itself is
        # counted after its snapshot is taken)
        assert stats["server"]["counters"]["requests_total"] == 4
        assert stats["server"]["counters"]["status.200"] == 4

    def test_tenant_header_reaches_the_router(self, daemon):
        server, conn = daemon
        status, payload, _ = _post(
            conn,
            "/v1/infer",
            {"source": PAIR_SOURCE},
            headers={"X-Repro-Tenant": "alice"},
        )
        assert status == 200
        assert payload["tenant"] == "alice"

    def test_errors_come_back_as_json(self, daemon):
        server, conn = daemon
        status, payload, _ = _post(conn, "/v1/infer", {"source": "class X {"})
        assert status == 422
        assert payload["error"]["code"] == "program_error"

    def test_retry_after_travels_as_a_header(self):
        server = make_server(
            ServerConfig(
                port=0,
                quiet=True,
                max_concurrency=1,
                max_pending=0,
            )
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        server.router.admission.acquire()  # the only slot is now busy
        try:
            status, payload, response = _post(
                conn, "/v1/infer", {"source": PAIR_SOURCE}
            )
        finally:
            server.router.admission.release()
            conn.close()
            server.shutdown()
            thread.join(10.0)
            server.close()
        assert status == 429
        assert int(response.headers["Retry-After"]) >= 1

    def test_overload_is_a_429_never_a_failure(self):
        # one slot and no waiting room: 4 keep-alive clients send 2
        # requests each over 2 tenants; every surplus request must come
        # back 429 with Retry-After, never a connection error or a 5xx.
        # The slot is held through the first round, so all 4 first
        # requests are turned away; the second round races for it.  Each
        # source is a cache miss, with a non-Latin-1 comment.
        server = make_server(
            ServerConfig(port=0, quiet=True, max_concurrency=1, max_pending=0)
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        first_round = threading.Barrier(5)
        released = threading.Event()
        answers, errors = [], []

        def client(k):
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                for i in range(2):
                    _, _, response = _post(
                        conn,
                        "/v1/infer",
                        {"source": f"{TREEADD.source}\n// {k} \u2192 {i}\n"},
                        headers={"X-Repro-Tenant": f"tenant{k % 2}"},
                    )
                    answers.append(
                        (response.status, response.headers["Retry-After"])
                    )
                    if i == 0:
                        first_round.wait(30.0)
                        released.wait(30.0)
            except (
                OSError, http.client.HTTPException, threading.BrokenBarrierError
            ) as err:
                errors.append(err)
            finally:
                conn.close()

        clients = [
            threading.Thread(target=client, args=(k,)) for k in range(4)
        ]
        server.router.admission.acquire()
        try:
            for c in clients:
                c.start()
            first_round.wait(30.0)
            server.router.admission.release()
            released.set()
            for c in clients:
                c.join(60.0)
        finally:
            released.set()
            server.shutdown()
            thread.join(10.0)
            server.close()
        assert not any(c.is_alive() for c in clients)
        assert errors == []
        assert len(answers) == 8
        assert {status for status, _ in answers} <= {200, 429}
        assert all(retry for status, retry in answers if status == 429)
        assert any(status == 200 for status, _ in answers)


class TestBodyLimits(object):
    def test_oversized_body_is_413_before_reading(self):
        server = make_server(
            ServerConfig(port=0, quiet=True, max_body_bytes=64)
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            status, payload, _ = _post(
                conn, "/v1/infer", {"source": "x" * 1000}
            )
            assert status == 413
            assert payload["error"]["code"] == "payload_too_large"
        finally:
            conn.close()
            server.shutdown()
            thread.join(10.0)
            server.close()

    def test_malformed_content_length_is_400(self, daemon):
        server, conn = daemon
        conn.putrequest("POST", "/v1/infer")
        conn.putheader("Content-Length", "banana")
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 400
        response.read()


class _WriteLog(object):
    """A handler's socket writer that logs every write made through it."""

    def __init__(self, inner, writes):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def wire_log(monkeypatch):
    """Every write the daemon's handlers make, and each accepted socket's
    ``TCP_NODELAY`` setting."""
    log = {"writes": [], "nodelay": []}
    setup = _Handler.setup

    def logged_setup(handler):
        setup(handler)
        log["nodelay"].append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        handler.wfile = _WriteLog(handler.wfile, log["writes"])

    monkeypatch.setattr(_Handler, "setup", logged_setup)
    return log


def _one_write(log, response, status):
    """The single write that carried ``response``, checked end to end."""
    body = response.read()
    assert response.status == status
    assert len(log["writes"]) == 1, [len(w) for w in log["writes"]]
    (write,) = log["writes"]
    head, _, sent_body = write.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert sent_body == body
    return body


class TestResponsePath(object):
    """A response leaves in one write on a socket with Nagle's algorithm
    off: a header-only segment followed by a body segment would otherwise
    wait for the client's delayed ACK."""

    def test_accepted_connections_set_tcp_nodelay(self, daemon, wire_log):
        _, conn = daemon
        conn.request("GET", "/healthz")
        conn.getresponse().read()
        assert len(wire_log["nodelay"]) == 1
        assert wire_log["nodelay"][0] != 0

    def test_healthz_is_one_write(self, daemon, wire_log):
        _, conn = daemon
        conn.request("GET", "/healthz")
        body = _one_write(wire_log, conn.getresponse(), 200)
        assert json.loads(body)["status"] == "ok"

    def test_read_body_rejections_are_one_write(self, daemon, wire_log):
        server, conn = daemon
        conn.putrequest("POST", "/v1/check")
        conn.putheader("Content-Length", "banana")
        conn.endheaders()
        body = _one_write(wire_log, conn.getresponse(), 400)
        assert json.loads(body)["error"]["code"] == "bad_request"

        wire_log["writes"].clear()
        limit = server.router.config.max_body_bytes
        fresh = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            # the daemon refuses on the declared length, before any body
            fresh.putrequest("POST", "/v1/check")
            fresh.putheader("Content-Length", str(limit + 1))
            fresh.endheaders()
            body = _one_write(wire_log, fresh.getresponse(), 413)
        finally:
            fresh.close()
        assert json.loads(body)["error"]["code"] == "payload_too_large"

    def test_a_target_over_64_kib_is_one_write(self, daemon, wire_log):
        _, conn = daemon
        name = "counter_" + "x" * 48
        steps = "".join(f"  {name} = {name} + {i};\n" for i in range(700))
        source = f"int main(int n) {{\n  int {name} = n;\n{steps}  {name}\n}}\n"
        conn.request(
            "POST",
            "/v1/infer",
            body=json.dumps({"source": source}),
            headers={"Content-Type": "application/json"},
        )
        body = _one_write(wire_log, conn.getresponse(), 200)
        assert len(json.loads(body)["target"]) > 64 * 1024


class TestDrain(object):
    def test_shutdown_waits_for_in_flight_requests(self):
        server = make_server(ServerConfig(port=0, quiet=True))
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        results = {}

        def client():
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                results["status"], results["payload"], _ = _post(
                    conn, "/v1/infer", {"source": TREEADD.source}
                )
            finally:
                conn.close()

        t = threading.Thread(target=client)
        t.start()
        time.sleep(0.02)  # let the request reach the handler
        server.shutdown()  # accept loop stops; in-flight request must finish
        thread.join(10.0)
        t.join(10.0)
        server.close()
        assert results.get("status") == 200
        assert results["payload"]["ok"] is True
