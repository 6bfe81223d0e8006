"""Every daemon request runs inline under its own deadline.

A request whose ``timeout`` passes gets a 504 ``deadline_exceeded`` on
every path (``/v1/run``, ``/v1/infer``, the ``document`` path), stops
working, and leaves nothing behind: the tenant's next request runs at
its normal latency, and no partial cache entry or document lineage
survives.  Tenants do not block each other.

Every wait is bounded with ``join(timeout)``, so a request that hangs
fails its test instead of stalling the suite.
"""

import itertools
import json
import sys
import threading
import time

import pytest

from repro.api import Pipeline, Session
from repro.bench.olden import OLDEN_PROGRAMS
from repro.gen import GenSpec, generate_source
from repro.lang.pretty import pretty_target
from repro.serve.router import Router, ServerConfig

ENDLESS = "int main(int n) { int i = 0; while (0 < 1) { i = i + 1; } i }"

#: a never-seen small program per call: the literal differs every time
_FRESH = itertools.count(1)


def _small_source():
    return (
        "class Box extends Object { int v; }\n"
        f"int main(int n) {{ Box b = new Box(n + {next(_FRESH)}); b.v }}"
    )


@pytest.fixture(scope="module")
def big_source():
    return generate_source(GenSpec.sized(100, seed=5))


@pytest.fixture()
def router():
    with Router(ServerConfig(quiet=True)) as r:
        yield r


def _call(router, path, payload, tenant, limit):
    """POST on a daemon thread; ``(status, payload, seconds)``.

    Fails the test when no answer arrives within ``limit`` seconds.
    """
    out = {}

    def run():
        started = time.monotonic()
        status, body, _ = router.handle(
            "POST",
            path,
            {"X-Repro-Tenant": tenant},
            json.dumps(payload).encode(),
        )
        out["answer"] = (status, body, time.monotonic() - started)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=limit)
    assert "answer" in out, f"{path} gave no answer within {limit}s"
    return out["answer"]


def _assert_504(answer, within):
    status, body, seconds = answer
    assert status == 504, body
    assert body["error"]["code"] == "deadline_exceeded"
    assert seconds < within


def _assert_next_small_request_is_prompt(router, tenant):
    status, body, seconds = _call(
        router, "/v1/check", {"source": _small_source()}, tenant, limit=5.0
    )
    assert status == 200, body
    assert seconds < 1.0


class TestEveryPathAnswers504(object):
    def test_endless_run(self, router):
        answer = _call(
            router,
            "/v1/run",
            {"source": ENDLESS, "args": [0], "timeout": 0.5},
            "a",
            limit=10.0,
        )
        _assert_504(answer, within=1.5)
        _assert_next_small_request_is_prompt(router, "a")

    def test_plain_infer(self, router, big_source):
        answer = _call(
            router,
            "/v1/infer",
            {"source": big_source, "timeout": 0.05},
            "a",
            limit=10.0,
        )
        _assert_504(answer, within=1.0)
        _assert_next_small_request_is_prompt(router, "a")

    def test_document_infer_leaves_nothing_partial(self, router, big_source):
        request = {"source": big_source, "document": "doc"}
        answer = _call(
            router, "/v1/infer", {**request, "timeout": 0.05}, "a", limit=10.0
        )
        _assert_504(answer, within=1.0)
        _assert_next_small_request_is_prompt(router, "a")
        status, body, _ = _call(
            router, "/v1/infer", {**request, "timeout": 60}, "a", limit=120.0
        )
        assert status == 200, body
        assert body["target"] == pretty_target(
            Pipeline(big_source).infer().unwrap().target
        )


class TestTenantsDoNotBlockEachOther(object):
    def test_small_check_answers_while_an_endless_run_is_in_flight(
        self, router
    ):
        endless = {}

        def run_a():
            endless["answer"] = router.handle(
                "POST",
                "/v1/run",
                {"X-Repro-Tenant": "a"},
                json.dumps(
                    {"source": ENDLESS, "args": [0], "timeout": 2.0}
                ).encode(),
            )

        a = threading.Thread(target=run_a, daemon=True)
        a.start()
        time.sleep(0.1)  # A is inside its loop
        status, body, seconds = _call(
            router, "/v1/check", {"source": _small_source()}, "b", limit=5.0
        )
        assert status == 200, body
        assert seconds < 1.0
        assert a.is_alive()  # A really was still in flight
        a.join(timeout=10.0)
        assert not a.is_alive()
        assert endless["answer"][0] == 504


def _olden_targets(session_infer):
    return {
        name: pretty_target(session_infer(program.source).target)
        for name, program in sorted(OLDEN_PROGRAMS.items())
    }


class TestConcurrentMintingIsByteIdentical(object):
    def test_two_tenants_four_threads_match_a_sequential_run(self, router):
        expected = _olden_targets(Session().infer)
        results = []
        errors = []

        def worker(tenant_name):
            try:
                session = router.registry.get_or_create(tenant_name).session
                results.append(_olden_targets(session.infer))
            except Exception as err:  # noqa: BLE001 -- reported below
                errors.append(err)

        threads = [
            threading.Thread(target=worker, args=(name,), daemon=True)
            for name in ("a", "b")
            for _ in range(4)
        ]
        # switch threads far more often than the default 5 ms, so mints
        # from different inferences interleave as densely as they can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(results) == len(threads)
        for targets in results:
            assert targets == expected
