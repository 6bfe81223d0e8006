"""The router: endpoints, error mapping, admission wiring — no sockets."""

import json

import pytest

from repro.bench.olden import OLDEN_PROGRAMS
from repro.serve.router import Router, ServerConfig
from tests.conftest import IF_RECEIVER_SOURCE, PADDED_OVERRIDE_SOURCE, PAIR_SOURCE

TREEADD = OLDEN_PROGRAMS["treeadd"]


@pytest.fixture()
def router():
    with Router(ServerConfig(quiet=True)) as r:
        yield r


def _post(router, path, payload, headers=None):
    return router.handle(
        "POST", path, headers or {}, json.dumps(payload).encode()
    )


class TestReadEndpoints(object):
    def test_healthz(self, router):
        status, payload, _ = router.handle("GET", "/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert set(payload) == {"ok", "status", "uptime_seconds"}

    def test_stats_shape(self, router):
        _post(router, "/v1/infer", {"source": PAIR_SOURCE, "tenant": "alice"})
        status, payload, _ = router.handle("GET", "/v1/stats")
        assert status == 200
        assert payload["server"]["counters"]["requests_total"] == 1
        assert payload["admission"]["admitted"] == 1
        assert "alice" in payload["tenants"]
        alice = payload["tenants"]["alice"]
        assert alice["requests"] == 1
        assert alice["cache_size"] > 0
        assert set(payload) == {"ok", "server", "admission", "tenants"}
        assert set(payload["server"]) == {"uptime_seconds", "counters"}
        assert set(alice) == {"requests", "cache_size", "cache_bytes", "stats"}


class TestRouting(object):
    def test_unknown_path_is_404(self, router):
        status, payload, _ = router.handle("GET", "/v2/infer")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    @pytest.mark.parametrize(
        "method,path,allow",
        [
            ("POST", "/healthz", "GET"),
            ("POST", "/v1/stats", "GET"),
            ("GET", "/v1/infer", "POST"),
            ("DELETE", "/v1/run", "POST"),
        ],
    )
    def test_wrong_method_is_405_with_allow(self, router, method, path, allow):
        status, payload, headers = router.handle(method, path, {}, b"{}")
        assert status == 405
        assert headers["Allow"] == allow


class TestInfer(object):
    def test_round_trip_and_cache(self, router):
        status, payload, _ = _post(
            router, "/v1/infer", {"source": TREEADD.source}
        )
        assert status == 200
        assert payload["ok"] is True
        assert payload["cached"] is False
        assert "letreg" in payload["target"] or "<" in payload["target"]
        assert payload["stats"]["inference_seconds"] >= 0
        status, payload, _ = _post(
            router, "/v1/infer", {"source": TREEADD.source}
        )
        assert status == 200
        assert payload["cached"] is True

    def test_tenant_header_beats_field(self, router):
        _post(
            router,
            "/v1/infer",
            {"source": PAIR_SOURCE, "tenant": "field-tenant"},
            headers={"X-Repro-Tenant": "header-tenant"},
        )
        _, payload, _ = router.handle("GET", "/v1/stats")
        assert "header-tenant" in payload["tenants"]
        assert "field-tenant" not in payload["tenants"]

    def test_malformed_body_is_400(self, router):
        status, payload, _ = router.handle("POST", "/v1/infer", {}, b"nope")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_program_errors_are_422_with_diagnostics(self, router):
        status, payload, _ = _post(
            router, "/v1/infer", {"source": "class Broken {"}
        )
        assert status == 422
        assert payload["error"]["code"] == "program_error"
        assert payload["diagnostics"]
        assert payload["diagnostics"][0]["stage"] == "parse"


class TestCheckAndRun(object):
    def test_check_verifies(self, router):
        status, payload, _ = _post(
            router, "/v1/check", {"source": TREEADD.source}
        )
        assert status == 200
        assert payload["verified"] is True
        assert payload["obligations"] > 0

    @pytest.mark.parametrize(
        "source",
        [IF_RECEIVER_SOURCE, PADDED_OVERRIDE_SOURCE],
        ids=["if_receiver", "padded_override"],
    )
    def test_check_of_dispatch_corner_cases_verifies(self, router, source):
        status, payload, _ = _post(router, "/v1/check", {"source": source})
        assert status == 200
        assert payload["verified"] is True

    def test_run_executes_the_entry(self, router):
        status, payload, _ = _post(
            router,
            "/v1/run",
            {
                "source": TREEADD.source,
                "entry": TREEADD.entry,
                "args": list(TREEADD.test_args),
            },
        )
        assert status == 200
        assert payload["entry"] == TREEADD.entry
        assert payload["stats"]["objects_allocated"] > 0

    @pytest.mark.parametrize("args", [[1, 2], []], ids=["extra", "missing"])
    def test_run_with_the_wrong_arity_is_422(self, router, args):
        status, payload, _ = _post(
            router,
            "/v1/run",
            {"source": "int main(int n) { n + 1 }", "args": args},
        )
        assert status == 422
        assert payload["error"]["code"] == "program_error"
        [diag] = payload["diagnostics"]
        assert diag["stage"] == "execute"
        assert f"takes 1 argument(s), {len(args)} given" in diag["message"]

    def test_run_validates_args(self, router):
        status, payload, _ = _post(
            router, "/v1/run", {"source": TREEADD.source, "args": ["x"]}
        )
        assert status == 400
        assert payload["error"]["field"] == "args"

    def test_non_finite_timeout_is_400(self, router):
        # json.dumps writes NaN, which json.loads reads back as a float
        status, payload, _ = _post(
            router,
            "/v1/check",
            {"source": TREEADD.source, "timeout": float("nan")},
        )
        assert status == 400
        assert payload["error"]["field"] == "timeout"

    def test_huge_recursion_limit_is_400(self, router):
        status, payload, _ = _post(
            router,
            "/v1/run",
            {"source": TREEADD.source, "recursion_limit": 2**40},
        )
        assert status == 400
        assert payload["error"]["field"] == "recursion_limit"


class TestBackpressure(object):
    def test_busy_daemon_rejects_with_retry_after(self):
        with Router(
            ServerConfig(quiet=True, max_concurrency=1, max_pending=0)
        ) as router:
            # occupy the only slot from outside, as an in-flight request would
            router.admission.acquire()
            try:
                status, payload, headers = _post(
                    router, "/v1/infer", {"source": PAIR_SOURCE}
                )
            finally:
                router.admission.release()
            assert status == 429
            assert payload["error"]["code"] == "overloaded"
            assert int(headers["Retry-After"]) >= 1
            assert payload["error"]["retry_after"] >= 1

    def test_queue_deadline_is_503(self):
        with Router(
            ServerConfig(quiet=True, max_concurrency=1, max_pending=4)
        ) as router:
            router.admission.acquire()
            try:
                status, payload, headers = _post(
                    router,
                    "/v1/infer",
                    {"source": PAIR_SOURCE, "timeout": 0.05},
                )
            finally:
                router.admission.release()
            assert status == 503
            assert payload["error"]["code"] == "queue_timeout"
            assert "Retry-After" in headers

    def test_full_tenant_table_is_429(self):
        with Router(ServerConfig(quiet=True, max_tenants=1)) as router:
            assert _post(
                router, "/v1/infer", {"source": PAIR_SOURCE, "tenant": "a"}
            )[0] == 200
            status, payload, headers = _post(
                router, "/v1/infer", {"source": PAIR_SOURCE, "tenant": "b"}
            )
            assert status == 429
            # tenants are never evicted: retrying cannot help, so say what
            # is full and offer no Retry-After
            assert payload["error"]["code"] == "tenant_table_full"
            assert "max_tenants=1" in payload["error"]["message"]
            assert "retry_after" not in payload["error"]
            assert "Retry-After" not in headers
