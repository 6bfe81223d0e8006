"""Frozen cache entries do not leak.

Every store freezes the heap out of the cyclic collector
(``gc.freeze``, see ``_ArtifactStore``).  Frozen objects are still
freed by reference counting, so an entry the LRU evicts leaves the
frozen set again; the frozen set therefore tracks what is alive, not
everything the cache ever held.  Both tests drive a small cache through
ten times its capacity in turnover and compare ``gc.get_freeze_count()``
after the last store with its value once the cache first filled.
"""

import gc
import json

from repro import Session
from repro.gen import GenSpec, edit_script, generate_source
from repro.serve.router import Router, ServerConfig

CAPACITY = 4
#: ten times the cache's capacity in distinct programs
PROGRAMS = [generate_source(GenSpec.sized(6, seed=seed)) for seed in range(40)]
EDITS = edit_script(GenSpec.sized(6, seed=99), 8)

ENDLESS = "int main(int n) { int i = 0; while (0 < 1) { i = i + 1; } i }"


def _frozen_baseline():
    """Freeze what the test process holds now, and return its size."""
    gc.collect()
    gc.freeze()
    return gc.get_freeze_count()


def _assert_bounded(before, filled, last):
    """``last`` may exceed ``filled`` by less than half of what filling
    the cache froze, that is by less than two entries' worth; a leak of
    one entry per store would add dozens of entries."""
    per_fill = filled - before
    assert per_fill > 0
    assert last - filled < per_fill / 2, (before, filled, last)


def test_session_freeze_count_stays_bounded_over_turnover():
    session = Session(max_cache_entries=CAPACITY)
    before = _frozen_baseline()
    for source in PROGRAMS[:CAPACITY]:
        session.infer(source)
    filled = gc.get_freeze_count()
    for source in PROGRAMS[CAPACITY:]:
        session.infer(source)
    for version in EDITS:
        session.reinfer(version, document="doc")
    last = gc.get_freeze_count()
    assert session.stats.eviction_count() >= 10 * CAPACITY
    _assert_bounded(before, filled, last)


def _post(router, path, payload):
    status, body, _ = router.handle(
        "POST", path, {"X-Repro-Tenant": "t"}, json.dumps(payload).encode()
    )
    return status, body


def test_daemon_freeze_count_stays_bounded_over_turnover():
    """Each round: a check on a never-seen program, a parse error (422)
    and a request that runs out of time (504)."""
    with Router(ServerConfig(quiet=True, max_cache_entries=CAPACITY)) as router:

        def round_(source):
            status, body = _post(router, "/v1/check", {"source": source})
            assert status == 200 and body["ok"], body
            status, body = _post(router, "/v1/check", {"source": "int f( {"})
            assert status == 422, body
            status, body = _post(
                router,
                "/v1/run",
                {"source": ENDLESS, "args": [0], "timeout": 0.05},
            )
            assert status == 504, body

        before = _frozen_baseline()
        for source in PROGRAMS[:CAPACITY]:
            round_(source)
        filled = gc.get_freeze_count()
        for source in PROGRAMS[CAPACITY:]:
            round_(source)
        last = gc.get_freeze_count()
    _assert_bounded(before, filled, last)


def test_concurrent_stores_keep_the_cache_bound():
    """Stores from many threads collect and freeze outside the store's
    lock; with a short switch interval the threads interleave inside
    ``put``, and every result must still be answered and bounded."""
    import sys
    import threading

    session = Session(max_cache_entries=CAPACITY)
    sources = PROGRAMS[:12]
    errors = []

    def work(chunk):
        try:
            for source in chunk:
                assert session.infer(source).target is not None
        except Exception as err:  # noqa: BLE001 -- reported below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(sources[i::6],), daemon=True)
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert session.stats.miss_count("infer") == len(sources)
    assert session.cache_size == CAPACITY
