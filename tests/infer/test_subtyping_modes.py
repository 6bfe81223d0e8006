"""Tests for the three region-subtyping modes (paper Sec 3.2)."""

import pytest

from repro.core import InferenceConfig, SubtypingMode, infer_source
from repro.core.subtyping import SubtypeJudgement, subtype
from repro.lang import target as T
from repro.regions import Outlives, RegionEq, RegionSolver
from tests.conftest import infer_and_check

FOO = """
class Box extends Object { int v; }
int foo(Box a, Box b, bool c) {
  Box tmp;
  if (c) { tmp = a; } else { tmp = b; }
  tmp.v
}
"""

RLIST = """
class RList extends Object {
  Object value;
  RList next;
}
int len(RList l) { if (l == null) { 0 } else { 1 + len(l.next) } }
RList cons(Object x, RList tail) { new RList(x, tail) }
"""


class TestFooExample(object):
    """The paper's Sec 3.2 motivating example for object subtyping."""

    def test_no_subtyping_coalesces_a_and_b(self):
        result = infer_and_check(FOO, mode=SubtypingMode.NONE)
        scheme = result.methods["foo"].scheme
        ra, rb = scheme.region_params[0], scheme.region_params[1]
        solver = RegionSolver(result.target.q[scheme.pre].body)
        assert solver.same_region(ra, rb)

    def test_object_subtyping_keeps_a_and_b_distinct(self):
        result = infer_and_check(FOO, mode=SubtypingMode.OBJECT)
        scheme = result.methods["foo"].scheme
        ra, rb = scheme.region_params[0], scheme.region_params[1]
        solver = RegionSolver(result.target.q[scheme.pre].body)
        assert not solver.same_region(ra, rb)

    def test_field_subtyping_also_keeps_them_distinct(self):
        result = infer_and_check(FOO, mode=SubtypingMode.FIELD)
        scheme = result.methods["foo"].scheme
        ra, rb = scheme.region_params[0], scheme.region_params[1]
        solver = RegionSolver(result.target.q[scheme.pre].body)
        assert not solver.same_region(ra, rb)


class TestSubtypeRule(object):
    def _mk(self, src):
        result = infer_and_check(src)
        return result

    def test_same_class_none_mode_all_equal(self):
        result = self._mk(RLIST)
        anno = result.annotations["RList"]
        src_t = T.RClass("RList", anno.regions)
        dst_t = T.RClass("RList", tuple(reversed(anno.regions)))
        j = subtype(
            src_t, dst_t, SubtypingMode.NONE, result.table, result.annotations
        )
        assert all(isinstance(a, RegionEq) for a in j.constraint.atoms)

    def test_same_class_object_mode_first_covariant(self):
        result = self._mk(RLIST)
        anno = result.annotations["RList"]
        from repro.regions import Region

        fresh = Region.fresh_many(3)
        j = subtype(
            T.RClass("RList", anno.regions),
            T.RClass("RList", fresh),
            SubtypingMode.OBJECT,
            result.table,
            result.annotations,
        )
        assert Outlives(anno.regions[0], fresh[0]) in j.constraint.atoms
        assert RegionEq(anno.regions[1], fresh[1]).normalized() in {
            a.normalized() if isinstance(a, RegionEq) else a
            for a in j.constraint.atoms
        }

    def test_field_mode_rec_region_covariant_when_readonly(self):
        result = self._mk(RLIST)
        anno = result.annotations["RList"]
        from repro.regions import Region

        fresh = Region.fresh_many(3)
        j = subtype(
            T.RClass("RList", anno.regions),
            T.RClass("RList", fresh),
            SubtypingMode.FIELD,
            result.table,
            result.annotations,
        )
        assert Outlives(anno.regions[2], fresh[2]) in j.constraint.atoms

    def test_field_mode_falls_back_when_mutable(self):
        src = """
        class MList extends Object {
          Object value;
          MList next;
          void setNext(MList o) { next = o; }
        }
        """
        result = self._mk(src)
        anno = result.annotations["MList"]
        from repro.regions import Region

        fresh = Region.fresh_many(3)
        j = subtype(
            T.RClass("MList", anno.regions),
            T.RClass("MList", fresh),
            SubtypingMode.FIELD,
            result.table,
            result.annotations,
        )
        # next is mutated somewhere: the recursive region stays equivariant
        eqs = {a for a in j.constraint.atoms if isinstance(a, RegionEq)}
        assert any(anno.regions[2] in a.regions() for a in eqs)

    def test_subclass_prefix_truncation(self):
        src = """
        class A extends Object { Object x; }
        class B extends A { Object y; }
        """
        result = self._mk(src)
        from repro.regions import Region

        b = result.annotations["B"]
        a_fresh = Region.fresh_many(result.annotations["A"].arity)
        j = subtype(
            T.RClass("B", b.regions),
            T.RClass("A", a_fresh),
            SubtypingMode.OBJECT,
            result.table,
            result.annotations,
        )
        # the subclass-only regions are reported as lost
        assert set(j.lost) == set(b.regions[result.annotations["A"].arity :])

    def test_unrelated_classes_rejected(self):
        src = "class A { } class B { }"
        result = self._mk(src)
        from repro.core import InferenceError
        from repro.regions import Region

        with pytest.raises(InferenceError):
            subtype(
                T.RClass("A", Region.fresh_many(1)),
                T.RClass("B", Region.fresh_many(1)),
                SubtypingMode.OBJECT,
                result.table,
                result.annotations,
            )

    def test_by_ref_forces_equivariance(self):
        result = self._mk(RLIST)
        anno = result.annotations["RList"]
        from repro.regions import Region

        fresh = Region.fresh_many(3)
        j = subtype(
            T.RClass("RList", anno.regions),
            T.RClass("RList", fresh),
            SubtypingMode.FIELD,
            result.table,
            result.annotations,
            by_ref=True,
        )
        assert all(isinstance(a, RegionEq) for a in j.constraint.atoms)


class TestModePrecisionOrdering(object):
    """FIELD refines OBJECT refines NONE: fewer forced identifications."""

    def _merged_pairs(self, result, qualified):
        scheme = result.methods[qualified].scheme
        solver = RegionSolver(result.target.q[scheme.pre].body)
        params = scheme.abstraction_params
        return sum(
            1
            for i in range(len(params))
            for j in range(i + 1, len(params))
            if solver.same_region(params[i], params[j])
        )

    @pytest.mark.parametrize("src,entry", [(FOO, "foo"), (RLIST, "cons")])
    def test_ordering(self, src, entry):
        counts = {}
        for mode in (SubtypingMode.NONE, SubtypingMode.OBJECT, SubtypingMode.FIELD):
            result = infer_and_check(src, mode=mode)
            counts[mode] = self._merged_pairs(result, entry)
        assert counts[SubtypingMode.FIELD] <= counts[SubtypingMode.OBJECT]
        assert counts[SubtypingMode.OBJECT] <= counts[SubtypingMode.NONE]
