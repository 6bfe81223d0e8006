"""The pickling contract of the artifact layer.

The process backend ships ``InferenceResult``s, ``Diagnostic``s
and ``StageFailure``s across process boundaries; these tests pin the
contract piece by piece: value round trips, heap/null singleton identity,
uid behaviour under namespacing, and the solver's cache-dropping
``__getstate__``.
"""

import pickle

import pytest

from repro.api import Diagnostic, Severity, Session, StageFailure
from repro.checking import check_target
from repro.lang.pretty import pretty_target
from repro.regions.constraints import (
    Constraint,
    HEAP,
    NULL_REGION,
    Outlives,
    Region,
    RegionEq,
)
from repro.regions.solver import RegionSolver

PROGRAM = """
class List extends Object { int head; List tail; }
List build(int n) {
  if (n < 1) { (List) null } else { new List(n, build(n - 1)) }
}
int main(int n) {
  List l = build(n);
  l.head
}
"""


@pytest.fixture()
def preserved_uid_counter():
    """Restore the process-global uid counter after namespace games."""
    saved = Region._counter
    yield
    Region._counter = saved


class TestRegionPickling(object):
    def test_heap_unpickles_to_the_singleton(self):
        assert pickle.loads(pickle.dumps(HEAP)) is HEAP

    def test_null_unpickles_to_the_singleton(self):
        assert pickle.loads(pickle.dumps(NULL_REGION)) is NULL_REGION

    def test_singletons_survive_inside_structures(self):
        r = Region.fresh()
        atom = Outlives(HEAP, r)
        atom2 = pickle.loads(pickle.dumps(atom))
        assert atom2.left is HEAP
        assert atom2 == atom

    def test_variable_round_trips_by_value(self):
        r = Region.fresh("q")
        r2 = pickle.loads(pickle.dumps(r))
        assert r2 == r
        assert r2.uid == r.uid
        assert r2.name == r.name
        assert r2.kind == "var"

    def test_unpickling_does_not_consume_the_counter(self):
        r = Region.fresh()
        before = Region.watermark()
        pickle.loads(pickle.dumps(r))
        # watermark advances by exactly the one probe draw
        assert Region.watermark() == before + 1

    def test_shared_references_stay_shared(self):
        r = Region.fresh()
        c = Constraint.of(Outlives(r, Region.fresh()), RegionEq(r, Region.fresh()))
        c2 = pickle.loads(pickle.dumps(c))
        assert c2 == c


class TestUidNamespacing(object):
    def test_distinct_namespaces_never_collide(self, preserved_uid_counter):
        Region.namespace_uids(band=1)
        a = Region.fresh()
        blob = pickle.dumps(a)
        Region.namespace_uids(band=2)
        b = Region.fresh()
        a2 = pickle.loads(blob)
        assert a2 == a
        assert a2 != b and a2.uid != b.uid

    def test_unnamespaced_counters_do_collide(self, preserved_uid_counter):
        # the failure mode namespacing exists to prevent: two processes
        # both starting at uid 1 mint "equal" but unrelated regions
        Region._counter = iter(range(1000, 2000))
        a = Region.fresh()
        Region._counter = iter(range(1000, 2000))
        b = Region.fresh()
        assert a == b  # colliding uids conflate unrelated regions

    def test_namespace_preserves_uid_order(self, preserved_uid_counter):
        Region.namespace_uids(band=7)
        a, b = Region.fresh(), Region.fresh()
        assert a.uid < b.uid

    def test_namespace_rejects_non_positive_bands(self, preserved_uid_counter):
        with pytest.raises(ValueError):
            Region.namespace_uids(band=-1)
        # band 0 would restart at uid 1 — the parent namespace itself
        with pytest.raises(ValueError):
            Region.namespace_uids(band=0)

    def test_distinguished_uids_stay_below_every_namespace(
        self, preserved_uid_counter
    ):
        base = Region.namespace_uids()
        assert HEAP.uid < base and NULL_REGION.uid < base
        assert Region.fresh().uid > base


class TestSolverPickling(object):
    def _closed_solver(self):
        a, b, c = Region.fresh(), Region.fresh(), Region.fresh()
        solver = RegionSolver(
            Constraint.of(Outlives(a, b), Outlives(b, c), Outlives(c, b))
        )
        solver.close()
        return solver, (a, b, c)

    def test_round_trip_preserves_entailment(self):
        solver, (a, b, c) = self._closed_solver()
        assert solver.entails_outlives(a, c)
        solver2 = pickle.loads(pickle.dumps(solver))
        assert solver2.entails_outlives(a, c)
        assert solver2.same_region(b, c)  # the b <-> c cycle stayed collapsed

    def test_memoised_bitsets_are_dropped_and_rebuilt(self):
        solver, (a, b, c) = self._closed_solver()
        solver.reachable(a, c)  # force the bitset cache
        assert solver._reach is not None
        solver2 = pickle.loads(pickle.dumps(solver))
        assert solver2._reach is None and solver2._bit is None
        assert solver2._closed  # closure is a graph property and survives
        assert solver2.reachable(a, c)  # first query rebuilds the cache
        assert solver2._reach is not None


class TestArtifactPickling(object):
    def test_inference_result_round_trips(self):
        result = Session().infer(PROGRAM)
        result2 = pickle.loads(pickle.dumps(result))
        assert pretty_target(result2.target) == pretty_target(result.target)
        assert result2.fingerprint() == result.fingerprint()
        assert result2.config == result.config
        assert check_target(result2.target).ok

    def test_check_report_round_trips(self):
        report = Session().check(PROGRAM)
        report2 = pickle.loads(pickle.dumps(report))
        assert report2.ok and report2.obligations == report.obligations

    def test_diagnostic_round_trips(self):
        diag = Diagnostic(
            severity=Severity.ERROR,
            stage="parse",
            code="parse-error",
            message="boom",
            file="x.cj",
            line=3,
            col=7,
        )
        assert pickle.loads(pickle.dumps(diag)) == diag

    def test_stage_failure_round_trips(self):
        try:
            Session().infer("class Broken extends Object { int")
        except StageFailure as err:
            err2 = pickle.loads(pickle.dumps(err))
            assert err2.stage == err.stage == "parse"
            assert [d.to_dict() for d in err2.diagnostics] == [
                d.to_dict() for d in err.diagnostics
            ]
            assert str(err2) == str(err)
        else:  # pragma: no cover - the source above never parses
            pytest.fail("expected a StageFailure")
