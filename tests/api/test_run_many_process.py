"""``run_many`` summaries and its process path.

The ROADMAP asked for "a reduced, picklable stage-result projection" to
take ``run_many`` beyond threads; these tests pin that projection
(:class:`StageSummary`) and the parity contract: the process backend's
summaries are identical to the thread backend's in stage, ok and
diagnostics, per program, across the whole Olden suite.
"""

import pickle

import pytest

from repro.api import Session, StageSummary
from repro.bench.olden import OLDEN_PROGRAMS

OLDEN_SOURCES = [program.source for program in OLDEN_PROGRAMS.values()]

BAD = "class Broken extends Object { int"
BAD_TYPE = (
    "class A extends Object { int x; }\nint main(int n) { new A(true).x }"
)

OK = """
class Box extends Object { int v; }
int main(int n) {
  Box b = new Box(n);
  b.v
}
"""

MIXED = [OK, BAD, BAD_TYPE, OLDEN_SOURCES[0]]


def _shape(rows):
    return [[(s.stage, s.ok, tuple(s.diagnostics)) for s in row] for row in rows]


class TestSummaries(object):
    def test_summary_projects_the_stage_result(self):
        session = Session()
        (full,) = session.run_many([BAD_TYPE])
        (summarised,) = session.run_many([BAD_TYPE], summaries=True)
        assert [s.stage for s in summarised] == [r.stage for r in full]
        assert [s.ok for s in summarised] == [r.ok for r in full]
        assert [list(s.diagnostics) for s in summarised] == [
            r.diagnostics for r in full
        ]
        assert all(isinstance(s, StageSummary) for s in summarised)

    def test_summary_records_the_cause_stage(self):
        pipe = Session().pipeline(BAD)
        skipped = pipe.infer()
        assert skipped.skipped
        summary = skipped.summary()
        assert summary.cause_stage == "parse"
        assert summary.skipped and not summary.ok

    def test_summaries_pickle(self):
        (row,) = Session().run_many([BAD_TYPE], summaries=True)
        clone = pickle.loads(pickle.dumps(row))
        assert _shape([clone]) == _shape([row])

    def test_to_dict_is_json_shaped(self):
        (row,) = Session().run_many([BAD], summaries=True)
        d = row[-1].to_dict()
        assert d["stage"] == "parse" and d["ok"] is False
        assert d["diagnostics"][0]["code"] == "parse-error"
        assert set(d) == {
            "stage",
            "ok",
            "cached",
            "skipped",
            "elapsed",
            "cause_stage",
            "diagnostics",
        }


class TestProcessBackend(object):
    def test_matches_thread_on_the_olden_suite(self):
        thread = Session().run_many(OLDEN_SOURCES, summaries=True, max_workers=2)
        with Session() as session:
            process = session.run_many(
                OLDEN_SOURCES, backend="process", summaries=True, max_workers=2
            )
        assert _shape(process) == _shape(thread)

    def test_matches_thread_on_failures(self):
        thread = Session().run_many(MIXED, summaries=True)
        with Session() as session:
            process = session.run_many(
                MIXED, backend="process", summaries=True, max_workers=2
            )
        assert _shape(process) == _shape(thread)
        # and the failing rows really carry the structured diagnostics
        assert process[1][-1].diagnostics[0].code == "parse-error"
        assert process[2][-1].diagnostics[0].code == "normal-type-error"

    def test_runs_on_the_session_pool(self):
        with Session() as session:
            session.run_many(
                MIXED, backend="process", summaries=True, max_workers=2
            )
            assert session.stats.event_count("pool.spawns") == 1
            # worker-side cache traffic is accounted under worker.* kinds
            assert session.stats.miss_count("worker.parse") >= 1
            # a second batch reuses the same pool
            session.run_many(
                MIXED, backend="process", summaries=True, max_workers=2
            )
            assert session.stats.event_count("pool.spawns") == 1

    def test_shares_the_pool_with_infer_many(self):
        with Session(backend="process") as session:
            session.run_many(MIXED, summaries=True, max_workers=2)
            session.infer_many([OK, OLDEN_SOURCES[0]], max_workers=2)
            assert session.stats.event_count("pool.spawns") == 1

    def test_until_is_honoured(self):
        with Session() as session:
            rows = session.run_many(
                [OK, OLDEN_SOURCES[0]],
                backend="process",
                summaries=True,
                until="typecheck",
                max_workers=2,
            )
            for row in rows:
                assert [s.stage for s in row] == ["parse", "typecheck"]

    def test_degenerate_batch_runs_inline(self):
        session = Session()
        (row,) = session.run_many(
            [BAD_TYPE], backend="process", summaries=True, max_workers=2
        )
        assert [s.stage for s in row] == ["parse", "typecheck"]
        # ran on this session: the parse artifact is a parent-cache miss,
        # not worker traffic, and no pool was spawned
        assert session.stats.miss_count("parse") == 1
        assert session.stats.event_count("pool.spawns") == 0


class TestBackendSelection(object):
    def test_explicit_process_without_summaries_is_an_error(self):
        with pytest.raises(ValueError, match="summaries=True"):
            Session().run_many(MIXED, backend="process", max_workers=2)

    def test_session_default_process_falls_back_to_threads(self):
        # a process-default session still serves full StageResults: the
        # projection is opt-in, so backend resolution falls back rather
        # than surprising callers with summaries (or an error)
        session = Session(backend="process")
        outcomes = session.run_many([OK, BAD], max_workers=2)
        assert [o[-1].ok for o in outcomes] == [True, False]
        assert not isinstance(outcomes[0][0], StageSummary)
        assert session.stats.event_count("pool.spawns") == 0

    def test_session_default_process_with_summaries_uses_the_pool(self):
        with Session(backend="process") as session:
            session.run_many(MIXED, summaries=True, max_workers=2)
            assert session.stats.event_count("pool.spawns") == 1
