"""Cost-aware artifact caching: the ``max_cache_bytes`` bound.

A serving session's cached results grow with the program, so the byte
bound — counted in the bytes each entry retains, estimated from its
program's token count when it is stored — is what actually caps memory,
with the entry bound as a secondary guard.  (How close the estimate is
to what ``tracemalloc`` sees retained is ``test_cache_charge.py``.)  The
newest entry is never evicted: a single oversized result must still be
cacheable (and returned), otherwise a big program would evict itself
forever.
"""

import sys

import pytest

from repro.api import Session
from repro.api.session import (
    BYTES_PER_INFERRED_TOKEN,
    BYTES_PER_TOKEN,
    SessionStats,
    _approx_artifact_bytes,
    _ArtifactStore,
)
from repro.gen import GenSpec, edit_script
from tests.conftest import LIST_SOURCE, PAIR_SOURCE


class TestApproxBytes(object):
    def test_a_distinct_result_is_charged_per_token(self):
        session = Session()
        small = session.infer(PAIR_SOURCE)
        big = session.infer(LIST_SOURCE)
        for result in (small, big):
            tokens = result.table.program.tokens
            assert tokens > 0 and result.reused_sccs == 0
            assert _approx_artifact_bytes(result) == tokens * (
                BYTES_PER_TOKEN + BYTES_PER_INFERRED_TOKEN
            )

    def test_an_edit_version_is_charged_for_what_it_re_infers(self):
        first, edited = edit_script(GenSpec.sized(4, seed=0), 1)
        session = Session()
        prior = session.reinfer(first, document="d")
        version = session.reinfer(edited, document="d")
        tokens = version.table.program.tokens
        sccs = version.reused_sccs + version.reinferred_sccs
        assert 0 < version.reinferred_sccs < sccs
        assert _approx_artifact_bytes(version) == int(
            tokens
            * (
                BYTES_PER_TOKEN
                + BYTES_PER_INFERRED_TOKEN * version.reinferred_sccs / sccs
            )
        )
        assert _approx_artifact_bytes(version) < _approx_artifact_bytes(prior)

    def test_other_values_are_charged_their_shallow_size(self):
        for value in ("k" * 64, 1, lambda: None):
            assert _approx_artifact_bytes(value) == sys.getsizeof(value)


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
        store = self._store(8)  # smaller than any artifact
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
        session = Session(max_cache_bytes=1 << 30)
        assert session.cache_bytes == 0
        session.infer(PAIR_SOURCE)
        assert session.cache_bytes > 0

    def test_unbounded_sessions_keep_no_cost_bookkeeping(self):
        # no byte bound -> no cost bookkeeping at all
        session = Session()
        session.infer(PAIR_SOURCE)
        assert session.cache_bytes == 0

    def test_byte_bound_evicts_across_kinds(self):
        session = Session(max_cache_bytes=1)
        session.reinfer(PAIR_SOURCE, document="d")
        # the document's lineage evicted its infer entry, and the next
        # program's infer entry evicts the lineage: only the newest
        # entry stays
        session.infer(LIST_SOURCE)
        assert session.cache_size == 1
        assert session.stats.evictions == {"infer": 1, "document": 1}
