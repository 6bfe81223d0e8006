"""Stats-accounting regressions: failed builds and eviction rendering.

Two bugs pinned here:

* a build that failed never called ``SessionStats.record``, so failing
  programs were invisible in hit/miss accounting and hit-rate ratios
  over-reported;
* ``SessionStats.__str__`` derived its kind list from hits|misses only,
  so a kind that only ever evicted was silently dropped and per-kind
  eviction counts were never shown.
"""

import pytest

from repro.api import Session, SessionStats, StageFailure

BAD = "class Broken extends Object { int"
BAD_TYPE = (
    "class A extends Object { int x; }\nint main(int n) { new A(true).x }"
)


class TestFailedBuildsAreMisses(object):
    def test_two_failing_parses_are_two_infer_misses(self):
        session = Session()
        for _ in range(2):
            with pytest.raises(StageFailure):
                session.infer(BAD)
        # failures are not cached, so each attempt is a real miss
        assert session.stats.as_dict()["misses"] == {"infer": 2}
        assert session.stats.hit_count() == 0

    def test_failing_typecheck_is_one_infer_miss(self):
        session = Session()
        for attempt in (1, 2):
            with pytest.raises(StageFailure) as exc:
                session.infer(BAD_TYPE)
            assert exc.value.stage == "typecheck"
            assert session.stats.as_dict()["misses"] == {"infer": attempt}
        assert session.cache_size == 0

    def test_failing_reinfer_is_one_infer_miss(self):
        session = Session()
        session.reinfer(BAD_TYPE.replace("true", "1"), document="doc")
        with pytest.raises(StageFailure):
            session.reinfer(BAD, document="doc")
        assert session.stats.miss_count("infer") == 2

    def test_successful_builds_record_exactly_one_miss(self):
        session = Session()
        session.infer("class C extends Object { int v; }\nint main(int n) { n }")
        assert session.stats.as_dict()["misses"] == {"infer": 1}


class TestStatsRendering(object):
    def test_eviction_only_kinds_are_shown(self):
        stats = SessionStats()
        stats.record("infer", hit=False)
        stats.record_eviction("document")  # evicted, never hit or missed here
        text = str(stats)
        assert "document" in text
        assert "1 eviction(s)" in text

    def test_per_kind_eviction_counts_are_shown(self):
        stats = SessionStats()
        stats.record("document", hit=False)
        stats.record_eviction("document")
        stats.record_eviction("document")
        stats.record_eviction("infer")
        text = str(stats)
        assert "document: 0 hit(s) / 1 miss(es) / 2 eviction(s)" in text
        assert "infer: 0 hit(s) / 0 miss(es) / 1 eviction(s)" in text

    def test_empty_stats_still_render(self):
        assert str(SessionStats()) == "no cache traffic"

