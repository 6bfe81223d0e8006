"""Tests for the bounded (LRU) session cache."""

import pytest

from repro.api import Session

PROGRAM_A = """
int main(int n) { n + 1 }
"""

PROGRAM_B = """
int main(int n) { n + 2 }
"""

PROGRAM_C = """
int main(int n) { n + 3 }
"""

PROGRAM_D = """
int main(int n) { n + 4 }
"""

#: cache entries one inference populates: its infer result
ENTRIES_PER_PROGRAM = 1


class TestBoundedCache:
    def test_unbounded_by_default(self):
        session = Session()
        for source in (PROGRAM_A, PROGRAM_B, PROGRAM_C):
            session.infer(source)
        assert session.stats.eviction_count() == 0
        assert session.cache_size == 3 * ENTRIES_PER_PROGRAM

    def test_eviction_keeps_cache_bounded(self):
        session = Session(max_cache_entries=ENTRIES_PER_PROGRAM)
        session.infer(PROGRAM_A)
        assert session.cache_size == ENTRIES_PER_PROGRAM
        session.infer(PROGRAM_B)
        assert session.cache_size == ENTRIES_PER_PROGRAM
        assert session.stats.eviction_count() == ENTRIES_PER_PROGRAM
        # the evicted program misses again; the resident one stays hot
        session.infer(PROGRAM_A)
        assert session.stats.miss_count("infer") == 3

    def test_hits_refresh_recency(self):
        session = Session(max_cache_entries=2 * ENTRIES_PER_PROGRAM)
        session.infer(PROGRAM_A)
        session.infer(PROGRAM_B)
        session.infer(PROGRAM_A)  # refresh A: B is now the older
        session.infer(PROGRAM_C)  # evicts B, not A
        assert session.stats.eviction_count("infer") == 1
        before = session.stats.miss_count()
        session.infer(PROGRAM_A)
        assert session.stats.miss_count() == before  # A still cached
        session.infer(PROGRAM_B)
        assert session.stats.miss_count("infer") == 4  # B was evicted

    def test_eviction_counters_are_per_stage(self):
        # the store's kinds: infer results and document lineages
        session = Session(max_cache_entries=2)
        session.reinfer(PROGRAM_A, document="doc")
        session.infer(PROGRAM_B)  # evicts A's infer entry
        session.infer(PROGRAM_C)  # evicts the lineage
        stats = session.stats
        assert stats.eviction_count("infer") == 1
        assert stats.eviction_count("document") == 1
        assert stats.as_dict()["evictions"] == {"infer": 1, "document": 1}
        assert "eviction(s)" in str(stats)

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError):
            Session(max_cache_entries=0)
        with pytest.raises(ValueError):
            Session(max_cache_entries=-3)

    def test_clear_cache_still_works(self):
        session = Session(max_cache_entries=ENTRIES_PER_PROGRAM)
        session.infer(PROGRAM_A)
        session.clear_cache()
        assert session.cache_size == 0
        session.infer(PROGRAM_A)
        assert session.stats.miss_count("infer") == 2
