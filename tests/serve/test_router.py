"""The router: endpoints, error mapping, admission wiring — no sockets."""

import json
import multiprocessing
import threading

import pytest

from repro.bench.olden import OLDEN_PROGRAMS
from repro.serve.router import Router, ServerConfig
from tests.conftest import PAIR_SOURCE

TREEADD = OLDEN_PROGRAMS["treeadd"]


@pytest.fixture()
def router():
    # thread backend: deterministic and spawn-free for endpoint tests;
    # the process path is covered by tests/api/test_pool_sharing.py and
    # the HTTP smoke in test_server_http.py
    with Router(ServerConfig(backend="thread", quiet=True)) as r:
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
        assert payload["backend"] == "thread"

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
        assert set(payload["pool"]) == {
            "alive", "size", "refs", "counters",
        }


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
            ServerConfig(
                backend="thread", quiet=True, max_concurrency=1, max_pending=0
            )
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
            ServerConfig(
                backend="thread", quiet=True, max_concurrency=1, max_pending=4
            )
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
        with Router(
            ServerConfig(backend="thread", quiet=True, max_tenants=1)
        ) as router:
            assert _post(
                router, "/v1/infer", {"source": PAIR_SOURCE, "tenant": "a"}
            )[0] == 200
            status, payload, _ = _post(
                router, "/v1/infer", {"source": PAIR_SOURCE, "tenant": "b"}
            )
            assert status == 429


class TestPoolBackend(object):
    def test_default_backend_follows_the_cpu_allowance(self, monkeypatch):
        import repro.serve.router as router_module

        monkeypatch.setattr(router_module, "available_cpus", lambda: 1)
        with Router(ServerConfig(quiet=True)) as router:
            assert router.backend == "thread"
        monkeypatch.setattr(router_module, "available_cpus", lambda: 2)
        with Router(ServerConfig(quiet=True)) as router:
            assert router.backend == "process"

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="counts worker processes the fork start method spawns eagerly",
    )
    def test_stats_pool_size_is_the_live_worker_count(self):
        # pool.size must count worker processes that exist, not a width
        # the pool was merely asked for
        before = set(multiprocessing.active_children())
        config = ServerConfig(backend="process", max_workers=2, quiet=True)
        with Router(config) as router:
            assert _post(router, "/v1/check", {"source": PAIR_SOURCE})[0] == 200
            statuses = []

            def check(source):
                statuses.append(_post(router, "/v1/check", {"source": source})[0])

            threads = [
                threading.Thread(target=check, args=(program.source,))
                for program in (TREEADD, OLDEN_PROGRAMS["bisort"])
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert statuses == [200, 200]
            _, payload, _ = router.handle("GET", "/v1/stats")
            workers = set(multiprocessing.active_children()) - before
            assert payload["pool"]["size"] == len(workers) == 2
