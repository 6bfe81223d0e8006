"""Cost-aware artifact caching: the ``max_cache_bytes`` bound.

A serving session's cached results grow with the program, so the byte
bound — measured as approximate pickled size — is what actually caps
memory, with the entry bound as a secondary guard.  The newest entry is
never evicted: a single oversized result must still be cacheable (and
returned), otherwise a big program would evict itself forever.
"""

import pytest

from repro.api import Session
from repro.api.session import (
    FALLBACK_ARTIFACT_BYTES,
    SessionStats,
    _approx_artifact_bytes,
    _ArtifactStore,
)
from tests.conftest import LIST_SOURCE, PAIR_SOURCE


class TestApproxBytes(object):
    def test_picklable_values_measure_their_pickle(self):
        small = _approx_artifact_bytes(1)
        big = _approx_artifact_bytes(list(range(10000)))
        assert 0 < small < big

    def test_unpicklable_values_fall_back_pessimistically(self):
        cost = _approx_artifact_bytes(lambda: None)
        assert cost >= FALLBACK_ARTIFACT_BYTES


class TestByteBound(object):
    def _store(self, max_bytes):
        self.stats = SessionStats()
        return _ArtifactStore(self.stats, max_bytes=max_bytes)

    def test_bytes_accumulate_and_clear(self):
        store = self._store(1 << 30)
        store.put("k", "a", "x" * 100)
        used = store.bytes_used
        assert used > 100
        store.put("k", "b", "y" * 100)
        assert store.bytes_used > used
        store.clear()
        assert store.bytes_used == 0

    def test_oldest_entries_are_evicted_to_fit(self):
        blob = "z" * 1000
        one = _approx_artifact_bytes(blob)
        store = self._store(int(one * 2.5))  # room for two blobs, not three
        for key in ("a", "b", "c"):
            store.put("k", key, "z" * 1000)
        assert store.bytes_used <= int(one * 2.5)
        assert self.stats.evictions.get("k") == 1
        # LRU order: "a" went, "b" and "c" stayed
        assert not store.contains("k", "a")
        assert store.contains("k", "b")
        assert store.contains("k", "c")

    def test_the_newest_entry_survives_even_oversized(self):
        store = self._store(8)  # smaller than any pickled artifact
        store.put("k", "a", "w" * 1000)
        assert store.peek("k", "a") == "w" * 1000
        # the next insert evicts it, but is itself kept
        store.put("k", "b", "v" * 1000)
        assert not store.contains("k", "a")
        assert store.contains("k", "b")

    def test_hits_refresh_recency_under_the_byte_bound(self):
        blob_cost = _approx_artifact_bytes("z" * 1000)
        store = self._store(int(blob_cost * 2.5))
        store.put("k", "a", "z" * 1000)
        store.put("k", "b", "z" * 1000)
        store.peek("k", "a")  # a use: refresh "a"
        store.put("k", "c", "z" * 1000)
        assert store.contains("k", "a")
        assert not store.contains("k", "b")

    def test_entry_bound_still_applies_alongside_bytes(self):
        store = _ArtifactStore(SessionStats(), max_entries=2, max_bytes=1 << 30)
        for key in ("a", "b", "c"):
            store.put("k", key, key)
        assert not store.contains("k", "a")
        assert store.contains("k", "c")


class TestSessionSurface(object):
    def test_session_exposes_cache_bytes(self):
        with Session(max_cache_bytes=1 << 30) as session:
            assert session.cache_bytes == 0
            session.infer(PAIR_SOURCE)
            assert session.cache_bytes > 0

    def test_unbounded_sessions_do_not_pay_for_pickling(self):
        # no byte bound -> no cost bookkeeping at all
        with Session() as session:
            session.infer(PAIR_SOURCE)
            assert session.cache_bytes == 0

    def test_byte_bound_evicts_across_kinds(self):
        with Session(max_cache_bytes=1) as session:
            session.reinfer(PAIR_SOURCE, document="d")
            # the document's lineage evicted its infer entry, and the next
            # program's infer entry evicts the lineage: only the newest
            # entry stays
            session.infer(LIST_SOURCE)
            assert session.cache_size == 1
            assert session.stats.evictions == {"infer": 1, "document": 1}
