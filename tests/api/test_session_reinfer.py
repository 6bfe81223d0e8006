"""``Session.reinfer``: document lineages and prior-result splicing."""

import pytest

from repro.api import Session, StageFailure
from repro.bench.composite import composite_source, tweak_method_body
from repro.core import InferenceConfig, SubtypingMode
from repro.lang.pretty import pretty_target
from tests.conftest import IF_RECEIVER_SOURCE


EDIT = ("1103515245", "1103515246")  # bisort's nextRandom multiplier
OTHER_EDIT = ("100003", "100004")  # em3d's sumValues modulus


def rendered(result):
    return pretty_target(result.target, renumber=True)


@pytest.fixture(scope="module")
def sources():
    src = composite_source()
    return src, tweak_method_body(src, *EDIT)


class TestDocumentLifecycle(object):
    def test_first_submission_is_a_document_miss(self, sources):
        src, _ = sources
        session = Session()
        session.reinfer(src, document="buf")
        stats = session.stats.as_dict()
        assert stats["misses"].get("scc.document") == 1
        assert "scc.document" not in stats["hits"]

    def test_edit_takes_incremental_path(self, sources):
        src, edited = sources
        session = Session()
        session.reinfer(src, document="buf")
        result = session.reinfer(edited, document="buf")
        stats = session.stats.as_dict()
        assert stats["hits"].get("scc.document") == 1
        assert result.reused_sccs > 0
        assert result.reinferred_sccs >= 1
        assert stats["hits"].get("scc.reuse") == result.reused_sccs
        assert stats["misses"].get("scc.reuse") == result.reinferred_sccs
        assert rendered(result) == rendered(Session().infer(edited))

    def test_unchanged_resubmission_reuses_wholesale(self, sources):
        src, _ = sources
        session = Session()
        first = session.reinfer(src, document="buf")
        again = session.reinfer(src, document="buf")
        assert again is first
        stats = session.stats.as_dict()
        total = first.reused_sccs + first.reinferred_sccs
        assert stats["hits"].get("scc.reuse") == total

    def test_full_undo_is_a_file_level_hit(self, sources, front_half_builds):
        src, edited = sources
        session = Session()
        original = session.reinfer(src, document="buf")
        session.reinfer(edited, document="buf")
        parses = front_half_builds["parse"]
        restored = session.reinfer(src, document="buf")
        stats = session.stats.as_dict()
        # reverting to a version already inferred never re-runs anything:
        # the infer entry answers before the source is even parsed
        assert restored is original
        assert front_half_builds["parse"] == parses
        assert stats["hits"]["infer"] == 1
        total = original.reused_sccs + original.reinferred_sccs
        assert stats["hits"].get("scc.reuse", 0) >= total

    def test_documents_are_independent(self, sources):
        src, edited = sources
        session = Session()
        session.reinfer(src, document="a")
        session.reinfer(edited, document="b")
        stats = session.stats.as_dict()
        # b's first submission must not splice against a's lineage
        assert stats["misses"].get("scc.document") == 2

    def test_config_is_part_of_the_document_key(self, sources):
        src, _ = sources
        session = Session()
        session.reinfer(src, document="buf")
        other = InferenceConfig(mode=SubtypingMode.NONE)
        session.reinfer(src, other, document="buf")
        stats = session.stats.as_dict()
        assert stats["misses"].get("scc.document") == 2


class TestCacheCoupling(object):
    def test_clear_cache_resets_both_tiers(self, sources):
        # the two tiers: cached artifacts and the document lineages
        src, edited = sources
        # byte accounting only runs under a byte bound; pick one far too
        # large to ever evict
        session = Session(max_cache_bytes=1 << 30)
        session.reinfer(src, document="buf")
        session.reinfer(edited, document="buf")
        assert session.cache_bytes > 0
        session.clear_cache()
        assert session.cache_bytes == 0
        # the lineage is gone too: the next submission is a fresh miss
        session.reinfer(src, document="buf")
        stats = session.stats.as_dict()
        assert stats["misses"].get("scc.document") == 2

    def test_evicting_the_anchor_falls_back_to_a_full_run(self, sources):
        src, edited = sources
        session = Session(max_cache_entries=2)
        session.reinfer(src, document="buf")
        session.reinfer(edited, document="buf")
        # churn unrelated artifacts until the document's infer anchor
        # falls out of the byte-weighted LRU
        filler = "int f%d(int n) { n + %d }"
        for i in range(4):
            session.infer(filler % (i, i))
        evictions = session.stats.as_dict()["evictions"]
        assert evictions.get("infer", 0) > 0
        # the prior the lineage names is gone: fresh miss
        misses_before = session.stats.as_dict()["misses"].get(
            "scc.document", 0
        )
        session.reinfer(src, document="buf")
        stats = session.stats.as_dict()
        assert stats["misses"].get("scc.document") == misses_before + 1


    def test_lineages_stay_inside_the_cache_bound(self, sources):
        src, _ = sources
        session = Session(max_cache_entries=50)
        for i in range(200):
            session.reinfer(src, document=f"doc{i}")
        assert session.cache_size <= 50
        # doc0's lineage was the least recently used entry long ago: its
        # resubmission starts over instead of finding a prior
        misses = session.stats.miss_count("scc.document")
        hits = session.stats.hit_count("scc.document")
        session.reinfer(src, document="doc0")
        assert session.stats.miss_count("scc.document") == misses + 1
        assert session.stats.hit_count("scc.document") == hits


class TestByteIdentityThroughSession(object):
    def test_edit_chain_matches_scratch_at_every_step(self, sources):
        src, edited = sources
        twice = tweak_method_body(edited, *OTHER_EDIT)
        session = Session()
        scratch = Session()
        for version in (src, edited, twice, src):
            incr = session.reinfer(version, document="buf")
            assert rendered(incr) == rendered(scratch.infer(version))

    def test_callee_edit_reinfers_a_caller_through_an_if_receiver(self):
        # D.use calls A.m through an if whose type is the msst A, so an
        # edit to A.m's body must dirty D.use (a missing edge would also
        # trip D.use's footprint gate: FootprintViolation)
        edited = IF_RECEIVER_SOURCE.replace(
            "int m(A o) { 1 }", "int m(A o) { this.nxt = o; 1 }"
        )
        assert edited != IF_RECEIVER_SOURCE
        session = Session()
        prior = session.reinfer(IF_RECEIVER_SOURCE, document="buf")
        result = session.reinfer(edited, document="buf")
        assert session.stats.hit_count("scc.document") == 1
        assert result.methods["D.use"] is not prior.methods["D.use"]
        assert rendered(result) == rendered(Session().infer(edited))


class TestEditPathErrors(object):
    def test_a_type_error_is_blamed_on_typecheck_on_both_paths(self):
        src = "class A { int v; int get() { v } }"
        bad = "class A { int v; int get() { v } } bool f(A a) { a.get() }"
        with pytest.raises(StageFailure) as scratch:
            Session().infer(bad)
        session = Session()
        session.reinfer(src, document="buf")
        with pytest.raises(StageFailure) as edit:
            session.reinfer(bad, document="buf")
        assert scratch.value.stage == edit.value.stage == "typecheck"
        assert [d.stage for d in edit.value.diagnostics] == ["typecheck"]
