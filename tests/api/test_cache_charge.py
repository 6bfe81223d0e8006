"""The byte bound's charge against the bytes a cached result really retains.

``_approx_artifact_bytes`` estimates what an entry retains from its
program's token count.  Here each entry's charge is held to within 25%
of the growth ``tracemalloc`` sees across the call that stores it
(after a collection), for generated programs of three sizes, every Olden
program and each version of an edit chain; and a daemon tenant filled
well past a small bound retains at most 1.25x that bound.
"""

import gc
import json
import tracemalloc

import pytest

from repro.api import Session
from repro.api.session import _approx_artifact_bytes
from repro.bench.olden import OLDEN_PROGRAMS
from repro.gen import GenSpec, edit_script, generate_source
from repro.serve.router import Router, ServerConfig

TOLERANCE = 0.25


@pytest.fixture()
def traced():
    """Trace allocations; the call's retained bytes after a collection."""
    tracemalloc.start()

    def retained(call):
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        value = call()
        gc.collect()
        return value, tracemalloc.get_traced_memory()[0] - before

    try:
        yield retained
    finally:
        tracemalloc.stop()


def _assert_charged_within_tolerance(rows):
    off = [
        (name, charged, kept)
        for name, charged, kept in rows
        if abs(charged - kept) > TOLERANCE * kept
    ]
    assert not off, off


def test_each_entry_is_charged_what_it_retains(traced):
    session = Session()
    # imports, interned names and other first-call state are not an entry's
    session.infer(generate_source(GenSpec.sized(5, seed=100)))
    rows = []
    programs = [
        (f"sized({n})", generate_source(GenSpec.sized(n, seed=n)))
        for n in (5, 20, 40)
    ] + [(name, p.source) for name, p in OLDEN_PROGRAMS.items()]
    for name, source in programs:
        result, kept = traced(lambda: session.infer(source))
        rows.append((name, _approx_artifact_bytes(result), kept))
    chain = edit_script(GenSpec.sized(10, seed=3), 4)
    for k, source in enumerate(chain):
        result, kept = traced(lambda: session.reinfer(source, document="d"))
        assert (result.reused_sccs > 0) == (k > 0)
        rows.append((f"edit v{k}", _approx_artifact_bytes(result), kept))
    _assert_charged_within_tolerance(rows)


def test_a_filled_tenant_retains_at_most_a_quarter_over_its_bound(traced):
    bound = 1 << 20
    config = ServerConfig(quiet=True, max_concurrency=1, max_cache_bytes=bound)
    chain = edit_script(GenSpec.sized(5, seed=1), 3)
    fresh = [generate_source(GenSpec.sized(5, seed=10 + i)) for i in range(12)]
    with Router(config) as router:

        def post(path, payload):
            status, body, _ = router.handle(
                "POST", path, {"X-Repro-Tenant": "t"}, json.dumps(payload).encode()
            )
            assert status == 200, body

        # the tenant and its session exist before the measurement starts
        post("/v1/check", {"source": "int main(int n) { n }"})

        def fill():
            for i, source in enumerate(fresh):
                post("/v1/check", {"source": source})
                post("/v1/check", {"source": source})
                if i < len(chain):
                    post("/v1/infer", {"source": chain[i], "document": "d"})

        _, kept = traced(fill)
        session = router.registry.get("t").session
        assert session.stats.eviction_count("infer") > 0
        assert session.cache_bytes <= bound
    assert kept <= 1.25 * bound, kept
