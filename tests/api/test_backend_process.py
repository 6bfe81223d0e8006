"""The process backend: differential equivalence, caching, stats.

The process pool forces the whole artifact layer through pickle and runs
inference under per-worker region-uid namespaces; these tests pin that the
results are *indistinguishable* from the thread backend's — same renumbered
target text, same structure — and that the parent session's cache and stats
behave identically.  ``max_workers=2`` is forced throughout so the pool
actually spawns workers even on a single-core machine.
"""

import pytest

from repro.api import Session, StageFailure
from repro.bench.olden import OLDEN_PROGRAMS
from repro.checking import check_target
from repro.lang.pretty import pretty_target

OLDEN_SOURCES = [program.source for program in OLDEN_PROGRAMS.values()]

BAD = "class Broken extends Object { int"

SMALL = [
    f"""
class Box extends Object {{ int v; }}
int main(int n) {{
  Box b = new Box(n + {i});
  b.v
}}
"""
    for i in range(4)
]


class TestDifferential(object):
    def test_process_matches_thread_on_the_olden_suite(self):
        thread = Session().infer_many(OLDEN_SOURCES, max_workers=2)
        process = Session().infer_many(
            OLDEN_SOURCES, backend="process", max_workers=2
        )
        assert len(process) == len(thread)
        for t, p in zip(thread, process):
            assert p.fingerprint() == t.fingerprint()
            # byte-identical once regions are renumbered in first-use order
            assert pretty_target(p.target) == pretty_target(t.target)

    def test_process_results_verify(self):
        results = Session().infer_many(
            OLDEN_SOURCES, backend="process", max_workers=2
        )
        for result in results:
            assert check_target(result.target).ok

    def test_worker_uids_never_collide_across_results(self):
        # every worker mints uids in a private namespace, so the variable
        # regions of different programs' results are pairwise disjoint even
        # though each worker's counter started fresh
        results = Session().infer_many(SMALL, backend="process", max_workers=2)
        uid_sets = []
        for result in results:
            uids = set()
            for c in result.target.classes:
                uids.update(r.uid for r in c.regions if not (r.is_heap or r.is_null))
            for m in result.target.all_methods():
                uids.update(
                    r.uid for r in m.region_params if not (r.is_heap or r.is_null)
                )
            uid_sets.append(uids)
        for i in range(len(uid_sets)):
            for j in range(i + 1, len(uid_sets)):
                assert not (uid_sets[i] & uid_sets[j])


class TestParentCache(object):
    def test_results_land_in_the_parent_cache(self, front_half_builds):
        session = Session()
        first = session.infer_many(SMALL, backend="process", max_workers=2)
        assert session.stats.miss_count("infer") == len(SMALL)
        built = dict(front_half_builds)
        second = session.infer_many(SMALL, backend="process", max_workers=2)
        assert all(a is b for a, b in zip(first, second))
        assert session.stats.hit_count("infer") == len(SMALL)
        # the hit path must not re-parse anything in the parent
        assert front_half_builds == built

    def test_duplicates_collapse_to_one_inference(self, monkeypatch):
        # four copies of one source leave a single pending unique: the
        # degenerate pool is skipped and the work runs on this session
        # directly (no hidden worker session left behind in the parent)
        import repro.api.pool as pool

        monkeypatch.setattr(pool, "_WORKER_SESSION", None)
        session = Session()
        results = session.infer_many(
            [SMALL[0]] * 4, backend="process", max_workers=2
        )
        assert all(r is results[0] for r in results)
        assert session.stats.miss_count("infer") == 1
        assert session.stats.hit_count("infer") == 3
        assert session.stats.miss_count("worker.infer") == 0
        assert pool._WORKER_SESSION is None

    def test_olden_batch_infers_each_program_once(self):
        session = Session()
        results = session.infer_many(OLDEN_SOURCES, backend="process", max_workers=2)
        assert len(results) == len(OLDEN_SOURCES)
        assert session.stats.miss_count("infer") == len(OLDEN_SOURCES)

    def test_worker_stats_merge_under_worker_prefix(self):
        session = Session()
        session.infer_many(SMALL, backend="process", max_workers=2)
        # the workers' traffic, beside the parent's installs
        assert session.stats.misses == {
            "infer": len(SMALL),
            "worker.infer": len(SMALL),
        }

    def test_thread_session_sees_process_results(self):
        # backend choice is per call; the cache is one store
        session = Session()
        (result,) = session.infer_many([SMALL[0]], backend="process", max_workers=2)
        assert session.infer(SMALL[0]) is result


class TestFailures(object):
    def test_failure_names_the_real_stage(self):
        with pytest.raises(StageFailure) as exc:
            Session().infer_many(
                [SMALL[0], BAD], backend="process", max_workers=2
            )
        assert exc.value.stage == "parse"
        assert exc.value.diagnostics[0].code == "parse-error"

    def test_earliest_failure_in_input_order_wins(self):
        bad_type = "class A extends Object { int x; }\nint main(int n) { new A(true).x }"
        with pytest.raises(StageFailure) as exc:
            Session().infer_many(
                [bad_type, BAD], backend="process", max_workers=2
            )
        assert exc.value.stage == "typecheck"

    def test_return_exceptions_reports_per_program(self):
        outcomes = Session().infer_many(
            [SMALL[0], BAD, SMALL[1]],
            backend="process",
            max_workers=2,
            return_exceptions=True,
        )
        assert [isinstance(o, StageFailure) for o in outcomes] == [
            False,
            True,
            False,
        ]
        assert outcomes[1].stage == "parse"

    def test_return_exceptions_thread_parity(self):
        outcomes = Session().infer_many(
            [SMALL[0], BAD, SMALL[1]], max_workers=2, return_exceptions=True
        )
        assert [isinstance(o, StageFailure) for o in outcomes] == [
            False,
            True,
            False,
        ]
        assert outcomes[1].stage == "parse"

    def test_failures_do_not_poison_the_cache(self):
        session = Session()
        session.infer_many(
            [BAD], backend="process", max_workers=2, return_exceptions=True
        )
        assert session.cache_size == 0


class TestBackendSelection(object):
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Session().infer_many(SMALL, backend="fibers")

    def test_session_default_backend(self):
        # a session has no backend of its own: without a per-call backend
        # the batch runs in this thread, whatever max_workers says, and
        # only backend="process" reaches the pool
        with Session() as session:
            session.infer_many(SMALL[:2], max_workers=2)
            assert session.stats.event_count("pool.spawns") == 0
            session.infer_many(SMALL[2:], backend="process", max_workers=2)
            # worker-side traffic proves the batch really went to the pool
            assert session.stats.miss_count("worker.infer") == 2


class TestHarnessFanout(object):
    def test_fig9_rows_process_matches_thread(self):
        from repro.bench import fig9_rows

        names = ["bisort", "treeadd"]
        thread = fig9_rows(names=names)
        process = fig9_rows(names=names, backend="process", max_workers=2)
        assert [r.name for r in process] == [r.name for r in thread]
        assert [r.annotation_lines for r in process] == [
            r.annotation_lines for r in thread
        ]
        assert [r.source_lines for r in process] == [
            r.source_lines for r in thread
        ]

    def test_fig9_rows_process_honours_the_session_config(self):
        # regression: the process path used to infer under the worker's
        # default config, silently ignoring the caller's session config
        from repro.bench import fig9_rows
        from repro.core import InferenceConfig

        config = InferenceConfig(minimize_pre=False)
        session = Session(config)
        thread = fig9_rows(names=["treeadd"], session=session)
        process = fig9_rows(
            names=["treeadd"],
            session=Session(config),
            backend="process",
            max_workers=2,
        )
        assert process[0].annotation_lines == thread[0].annotation_lines

    def test_fig8_rows_process_matches_thread(self):
        from repro.bench import fig8_rows

        names = ["sieve", "mergesort"]
        thread = fig8_rows(names=names, quick=True)
        process = fig8_rows(
            names=names, quick=True, backend="process", max_workers=2
        )
        assert [r.name for r in process] == [r.name for r in thread]
        for t, p in zip(thread, process):
            assert p.ratios == t.ratios
            assert p.localized == t.localized
            assert p.annotation_lines == t.annotation_lines
