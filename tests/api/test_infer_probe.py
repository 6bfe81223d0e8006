"""The infer-first cache probe: a session-cached ``infer`` result answers
``Pipeline.infer`` (and the verify/execute stages behind it) without
running parse, typecheck or annotate again."""

from repro.api import Pipeline, Session
from repro.core import InferenceConfig, SubtypingMode
from repro.lang.pretty import pretty_target
from tests.conftest import LIST_SOURCE, PAIR_SOURCE


def _traffic(session):
    """(hits, misses) per kind, copied so later traffic can be diffed."""
    return dict(session.stats.hits), dict(session.stats.misses)


def _delta(before, after):
    return {
        kind: after.get(kind, 0) - before.get(kind, 0)
        for kind in set(before) | set(after)
        if after.get(kind, 0) != before.get(kind, 0)
    }


def _assert_one_infer_hit(session, step, builds):
    hits, misses = _traffic(session)
    built = dict(builds)
    step()
    new_hits, new_misses = _traffic(session)
    assert _delta(hits, new_hits) == {"infer": 1}
    assert _delta(misses, new_misses) == {}
    # answered from the cached result: nothing parsed or annotated
    assert builds == built


class TestCachedInferShortCircuits(object):
    def test_verify_after_inline_infer_touches_only_infer(
        self, front_half_builds
    ):
        session = Session()
        session.infer(PAIR_SOURCE)
        pipe = session.pipeline(PAIR_SOURCE)
        _assert_one_infer_hit(session, pipe.verify, front_half_builds)
        assert pipe.verify().ok
        assert pipe.infer().cached
        assert pipe.diagnostics() == []

    def test_check_after_inline_infer_touches_only_infer(
        self, front_half_builds
    ):
        session = Session()
        session.infer(PAIR_SOURCE)
        _assert_one_infer_hit(
            session, lambda: session.check(PAIR_SOURCE), front_half_builds
        )
        assert session.check(PAIR_SOURCE).ok

    def test_a_result_in_hand_verifies_without_any_lookup(
        self, front_half_builds
    ):
        session = Session()
        result = session.infer(PAIR_SOURCE)
        traffic, built = _traffic(session), dict(front_half_builds)
        pipe = session.pipeline(PAIR_SOURCE, inferred=result)
        assert pipe.verify().ok
        assert pipe.infer().value is result
        assert _traffic(session) == traffic
        assert front_half_builds == built

    def test_infer_one_answers_a_cached_result_without_the_pool(
        self, front_half_builds
    ):
        session = Session()
        result = session.infer(PAIR_SOURCE)
        _assert_one_infer_hit(
            session,
            lambda: session.infer_one(PAIR_SOURCE, timeout=120),
            front_half_builds,
        )
        assert session.infer_one(PAIR_SOURCE) is result

    def test_run_still_returns_every_stage(self):
        session = Session()
        session.infer(PAIR_SOURCE)
        results = session.pipeline(PAIR_SOURCE).run("verify")
        assert [r.stage for r in results] == [
            "parse",
            "typecheck",
            "annotate",
            "infer",
            "verify",
        ]
        assert all(r.ok for r in results)
        # the front half is not cached: asked for, it is rebuilt
        assert [r.cached for r in results] == [False, False, False, True, False]

    def test_each_config_probes_its_own_entry(self):
        session = Session()
        session.infer(PAIR_SOURCE)
        other = InferenceConfig(mode=SubtypingMode.NONE)
        pipe = session.pipeline(PAIR_SOURCE, other)
        assert not pipe.infer().cached
        # the miss fell through to a front half of its own
        assert session.stats.as_dict()["misses"] == {"infer": 2}
        assert session.stats.hit_count() == 0

    def test_a_probe_miss_on_a_failing_program_blames_its_own_stage(self):
        session = Session()
        pipe = session.pipeline("int main() { Missing m = null; 0 }")
        assert pipe.verify().skipped
        failed = pipe.failure()
        assert failed is not None and failed.stage == "typecheck"
        assert [d.stage for d in pipe.diagnostics()] == ["typecheck"]


class TestEvictedInferRebuilds(object):
    def test_fully_evicted_program_rebuilds_with_fresh_results(self):
        session = Session(max_cache_entries=1)
        session.infer(PAIR_SOURCE)
        session.infer(LIST_SOURCE)  # evicts the PAIR_SOURCE entry
        pipe = session.pipeline(PAIR_SOURCE)
        report = pipe.verify().value
        fresh = Pipeline(PAIR_SOURCE)
        assert not pipe.infer().cached
        assert report.ok
        assert report.obligations == fresh.verify().value.obligations
        assert pretty_target(pipe.infer().value.target) == pretty_target(
            fresh.infer().value.target
        )
        assert pipe.diagnostics() == fresh.diagnostics() == []


class _NoProbeStore(object):
    """A store that fails the test if anything probes it."""

    def peek(self, kind, key, *, record_hit=False):
        raise AssertionError(f"collect mode probed the store for {kind!r}")

    def put(self, kind, key, value):
        raise AssertionError(f"collect mode used the store for {kind!r}")


class TestCollectModeNeverProbes(object):
    def test_collect_pipeline_never_touches_the_store(self):
        pipe = Pipeline(PAIR_SOURCE, collect=True, store=_NoProbeStore())
        assert pipe.verify().ok
        assert not pipe.infer().cached

    def test_collect_pipeline_ignores_a_cached_infer(self):
        session = Session()
        session.infer(PAIR_SOURCE)
        hits = dict(session.stats.hits)
        pipe = session.pipeline(PAIR_SOURCE, collect=True)
        assert pipe.infer().ok and not pipe.infer().cached
        assert "parse" in pipe._results
        assert dict(session.stats.hits) == hits


class TestPeekRecordsHits(object):
    def test_a_found_entry_records_one_hit_and_refreshes_recency(self):
        session = Session(max_cache_entries=2)
        store = session._store
        store.put("infer", "a", 1)
        store.put("infer", "b", 2)
        assert store.peek("infer", "a", record_hit=True) == 1
        assert session.stats.hit_count("infer") == 1
        store.put("infer", "c", 3)  # evicts b, the least recently used
        assert store.peek("infer", "b") is None
        assert store.peek("infer", "a") == 1

    def test_a_missing_entry_records_nothing(self):
        session = Session()
        assert session._store.peek("infer", "absent", record_hit=True) is None
        assert session.stats.as_dict()["hits"] == {}
        assert session.stats.as_dict()["misses"] == {}
