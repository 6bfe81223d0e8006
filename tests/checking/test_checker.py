"""Tests for the standalone region type checker -- including *negative*
cases: corrupted annotations must be rejected, otherwise the Theorem 1
tests would be vacuous."""

import pytest

from repro.checking import RegionTypeChecker, check_target
from repro.core import SubtypingMode
from repro.lang import target as T
from repro.regions import Constraint, ConstraintAbstraction, Region, TRUE
from tests.conftest import PAIR_SOURCE, infer_and_check

SIMPLE = """
class Box extends Object { Object item; }
Box wrap(Object x) { new Box(x) }
Object unwrap(Box b) { b.item }
int f() {
  Box b = wrap(new Object());
  unwrap(b);
  1
}
"""


class TestPositive(object):
    def test_accepts_inferred_program(self):
        result = infer_and_check(SIMPLE)  # asserts .ok internally
        assert result is not None

    def test_reports_obligations(self):
        result = infer_and_check(PAIR_SOURCE)
        report = check_target(result.target)
        assert report.ok
        assert report.obligations > 0

    def test_strict_mode_raises_on_failure(self):
        from repro.checking import RegionCheckError

        result = infer_and_check(SIMPLE)
        # corrupt: swap a method's precondition for an unsatisfiable demand
        scheme = result.methods["wrap"].scheme
        abstraction = result.target.q[scheme.pre]
        r_new = Region.fresh_many(2)
        # demand something about regions the caller cannot know
        from repro.regions import outlives

        params = abstraction.params
        if len(params) >= 2:
            result.target.q.define(
                ConstraintAbstraction(
                    abstraction.name,
                    params,
                    outlives(params[-1], params[0]),
                )
            )
        report = check_target(result.target)
        if not report.ok:
            with pytest.raises(RegionCheckError):
                check_target(result.target, strict=True)


class TestNegative(object):
    """Hand-corrupted programs must fail specific checks."""

    def _fresh_result(self):
        return infer_and_check(SIMPLE)

    def test_escaping_letreg_rejected(self):
        result = self._fresh_result()
        method = result.target.static_named("f")
        # wrap the body in a letreg whose region escapes via the result type
        bad = Region.fresh("bad")
        method.body = T.TLetreg(
            regions=(bad,),
            body=T.TNull(type=T.RClass("Box", (bad, bad))),
            type=T.RClass("Box", (bad, bad)),
        )
        method.ret_type = T.RClass("Box", (bad, bad))
        report = check_target(result.target)
        assert not report.ok
        assert any("escapes" in str(i) for i in report.issues)

    def test_swapped_new_regions_rejected(self):
        """Reordering a new-site's region arguments breaks either the
        invariant obligation or the initialiser flows."""
        src = """
        class Cell extends Object { Object item; }
        Cell mk(Object x, Object y) {
          Cell c = new Cell(x);
          c.item = y;
          c
        }
        """
        result = infer_and_check(src)
        method = result.target.static_named("mk")
        for node in T.twalk(method.body):
            if isinstance(node, T.TNew) and len(set(node.regions)) > 1:
                node.regions = tuple(reversed(node.regions))
        report = check_target(result.target)
        assert not report.ok

    def test_variable_annotation_mismatch_rejected(self):
        result = self._fresh_result()
        method = result.target.static_named("unwrap")
        # retype the parameter use with bogus regions
        for node in T.twalk(method.body):
            if isinstance(node, T.TVar) and node.name == "b":
                node.type = T.RClass("Box", Region.fresh_many(2))
        report = check_target(result.target)
        assert not report.ok

    def test_bad_field_flow_rejected(self):
        """Storing into a field of an unrelated region must fail."""
        result = self._fresh_result()
        method = result.target.static_named("wrap")
        for node in T.twalk(method.body):
            if isinstance(node, T.TNew):
                # claim the new object lives somewhere else entirely
                node.regions = tuple(Region.fresh_many(len(node.regions)))
        report = check_target(result.target, mode="none")
        assert not report.ok

    def test_downcast_pad_mismatch_rejected(self):
        src = """
        class A extends Object { Object fa; }
        class B extends A { Object fb; }
        int f() {
          A a = new B(null, null);
          B b = (B) a;
          1
        }
        """
        result = infer_and_check(src)
        method = result.target.static_named("f")
        for node in T.twalk(method.body):
            if isinstance(node, T.TCast) and node.type.name == "B":
                regions = list(node.type.regions)
                regions[-1] = Region.fresh("wrong")
                node.type = T.RClass("B", tuple(regions))
        report = check_target(result.target, downcast="padding")
        assert not report.ok

    def test_unsatisfied_callee_pre_rejected(self):
        result = self._fresh_result()
        scheme = result.methods["unwrap"].scheme
        abstraction = result.target.q[scheme.pre]
        params = abstraction.params
        from repro.regions import req

        # demand two independent caller regions be equal
        result.target.q.define(
            ConstraintAbstraction(abstraction.name, params, req(params[0], params[1]))
        )
        report = check_target(result.target)
        assert not report.ok

    def test_missing_no_dangling_invariant_rejected(self):
        result = self._fresh_result()
        anno = result.annotations["Box"]
        result.target.q.define(
            ConstraintAbstraction(anno.inv, anno.regions, TRUE)
        )
        report = check_target(result.target)
        assert not report.ok
        assert any("no-dangling" in str(i) for i in report.issues)


class TestModes(object):
    def test_object_annotations_fail_under_none_checking(self):
        """Annotations inferred with object subtyping use covariance the
        equivariant checker must reject (on a program that needs it)."""
        src = """
        class Box extends Object { int v; }
        int foo(Box a, Box b, bool c) {
          Box tmp;
          if (c) { tmp = a; } else { tmp = b; }
          tmp.v
        }
        """
        result = infer_and_check(src, mode=SubtypingMode.OBJECT)
        report = check_target(result.target, mode="none")
        assert not report.ok

    def test_none_annotations_pass_all_checkers(self):
        """Equivariant annotations are the strongest: every mode accepts."""
        result = infer_and_check(PAIR_SOURCE, mode=SubtypingMode.NONE)
        for mode in ("none", "object", "field"):
            assert check_target(result.target, mode=mode).ok
