"""A tenant caches one inference result per program, weighed once, and a
response's ``cached`` flag is its own request's answer: a concurrent hit
on the same tenant must not turn a miss into ``cached: true``."""

import json
import threading

import pytest

from repro.api import pipeline as pipeline_module
from repro.api import session as session_module
from repro.bench.olden import OLDEN_PROGRAMS
from repro.gen import GenSpec, generate_source
from repro.serve.router import Router, ServerConfig

SMALL, BIG = (generate_source(GenSpec.sized(n, seed=n)) for n in (3, 12))


@pytest.fixture()
def router():
    with Router(ServerConfig(quiet=True, max_concurrency=4)) as r:
        yield r


def _post(router, path, payload):
    status, body, _ = router.handle(
        "POST", path, {"X-Repro-Tenant": "t"}, json.dumps(payload).encode()
    )
    assert status == 200, body
    return body


def _tenant(router):
    return router.handle("GET", "/v1/stats")[1]["tenants"]["t"]


@pytest.fixture()
def during_next_inference(monkeypatch):
    """Queue a call to run, on another thread, inside the next inference."""
    queued = []

    class Interleaved(pipeline_module.RegionInference):
        def infer(self):
            while queued:
                thread = threading.Thread(target=queued.pop())
                thread.start()
                thread.join()
            return super().infer()

    monkeypatch.setattr(pipeline_module, "RegionInference", Interleaved)
    return queued.append


@pytest.mark.parametrize(
    "path,repeat,fresh",
    [
        ("/v1/check", {"source": SMALL}, {"source": BIG}),
        (
            "/v1/infer",
            {"source": SMALL, "document": "a"},
            {"source": BIG, "document": "b"},
        ),
    ],
    ids=["check", "document"],
)
def test_a_concurrent_hit_does_not_mark_a_miss_cached(
    router, during_next_inference, path, repeat, fresh
):
    _post(router, path, repeat)
    seen = []
    during_next_inference(lambda: seen.append(_post(router, path, repeat)))
    assert _post(router, path, fresh)["cached"] is False
    assert [r["cached"] for r in seen] == [True]


def test_each_program_is_one_entry_weighed_once(router, monkeypatch):
    weighed = []
    sizer = session_module._approx_artifact_bytes
    monkeypatch.setattr(
        session_module,
        "_approx_artifact_bytes",
        lambda value: weighed.append(value) or sizer(value),
    )
    sources = [generate_source(GenSpec.sized(3, seed=s)) for s in range(4)]
    for source in sources:
        _post(router, "/v1/check", {"source": source})
    session = router.registry.get("t").session
    results = [session.infer(source) for source in sources]
    tenant = _tenant(router)
    assert tenant["cache_size"] == len(sources)
    assert [id(v) for v in weighed] == [id(r) for r in results]
    # distinct programs re-infer every SCC: the full per-token charge
    per_token = (
        session_module.BYTES_PER_TOKEN + session_module.BYTES_PER_INFERRED_TOKEN
    )
    assert tenant["cache_bytes"] == sum(
        r.table.program.tokens * per_token for r in results
    )


def test_no_front_half_kind_is_counted(router):
    _post(router, "/v1/check", {"source": SMALL})
    _post(router, "/v1/run", {"source": SMALL, "args": [3]})
    _post(router, "/v1/infer", {"source": SMALL, "document": "d"})
    tenant = _tenant(router)
    assert tenant["cache_size"] == 2  # the result and the document lineage
    kinds = {kind for bucket in tenant["stats"].values() for kind in bucket}
    assert "infer" in kinds
    assert not kinds & {"parse", "typecheck", "annotate"}


TREEADD = OLDEN_PROGRAMS["treeadd"]


@pytest.mark.parametrize(
    "path,payload",
    [
        ("/v1/check", {}),
        ("/v1/run", {"entry": TREEADD.entry, "args": list(TREEADD.test_args)}),
    ],
    ids=["check", "run"],
)
def test_each_request_looks_its_answer_up_once(router, path, payload):
    for _ in range(2):
        _post(router, path, {"source": TREEADD.source, **payload})
    stats = _tenant(router)["stats"]
    assert stats["hits"]["infer"] == 1
    assert stats["misses"]["infer"] == 1
