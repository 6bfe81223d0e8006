"""Unit tests for the individual override-resolution rules (Sec 4.4).

The resolver classifies each missing atom of ``pre.B.mn`` and repairs it:
rule 2 adds to ``pre.A.mn``, rule 3 to ``inv.B``, rule 4 splits via a
substitution.  These tests drive the resolver on hand-built abstractions
so each rule fires in isolation.
"""

import pytest

from repro.core import InferenceConfig, SubtypingMode, infer_source
from repro.core.override import OverrideResolver, check_override
from repro.regions import Outlives, RegionEq, RegionSolver
from tests.conftest import infer_and_check


def _setup(src, mode=SubtypingMode.OBJECT):
    result = infer_and_check(src, mode=mode)
    schemes = {qn: record.scheme for qn, record in result.methods.items()}
    resolver = OverrideResolver(
        result.table, result.target.q, result.annotations, schemes
    )
    return result, resolver


class TestRule2_AddToSuperPre(object):
    """Missing atom over shared method/class regions -> pre.A.mn."""

    SRC = """
    class A extends Object {
      Object slot;
      void put(Object o) { }
    }
    class B extends A {
      void put(Object o) { slot = o; }
    }
    """

    def test_atom_lands_in_super_pre(self):
        result, _ = _setup(self.SRC)
        # after the engine's built-in resolution, the check must hold
        missing = check_override(
            result.target.q,
            result.annotations,
            result.methods["B.put"].scheme,
            result.methods["A.put"].scheme,
        )
        assert missing.is_true
        # and the strengthened pre.A.put carries B's store requirement
        a_scheme = result.methods["A.put"].scheme
        pre = result.target.q[a_scheme.pre].body
        assert not pre.is_true

    def test_callers_through_a_satisfy_strengthened_pre(self):
        src = self.SRC + """
        void use(A a, Object x) { a.put(x); }
        int f() {
          use(new B(null), new Object());
          1
        }
        """
        infer_and_check(src)  # checker validates the call against final pre


class TestRule3_AddToSubInv(object):
    """Missing atom purely over subclass class regions -> inv.B."""

    SRC = """
    class A extends Object {
      Object x;
      void link() { }
    }
    class B extends A {
      Object y;
      void link() { x = y; }
    }
    """

    def test_invariant_strengthened(self):
        result, _ = _setup(self.SRC)
        b = result.annotations["B"]
        # B.link stores y into x: ry >= rx must now be in inv.B
        rx, ry = b.regions[1], b.regions[2]
        solver = RegionSolver(result.target.q[b.inv].body)
        assert solver.entails_outlives(ry, rx)

    def test_allocating_b_satisfies_strengthened_inv(self):
        src = self.SRC + """
        int f() {
          B b = new B(null, null);
          b.link();
          1
        }
        """
        infer_and_check(src)


class TestRule4_Split(object):
    """Missing atom mixing subclass-only and method regions -> split
    (the paper's Triple.cloneRev case)."""

    SRC = """
    class Pair extends Object {
      Object fst;
      Object snd;
      Pair cloneRev() {
        Pair tmp = new Pair(null, null);
        tmp.fst = snd;
        tmp.snd = fst;
        tmp
      }
    }
    class Triple extends Pair {
      Object thd;
      Pair cloneRev() {
        Pair tmp = new Pair(null, null);
        tmp.fst = thd;
        tmp.snd = fst;
        tmp
      }
    }
    """

    def test_substitution_recorded_as_invariant_equality(self):
        result, _ = _setup(self.SRC)
        triple = result.annotations["Triple"]
        r3a = triple.regions[3]
        solver = RegionSolver(result.target.q[triple.inv].body)
        # rule 4 equated the subclass-only region with an inherited one
        assert any(
            solver.same_region(r3a, r) for r in triple.regions[:3]
        )

    def test_resolution_logged(self):
        result, resolver = _setup(self.SRC)
        resolver.resolve_all()
        # idempotent: already resolved by the engine, nothing new to add
        assert all(
            c.added_to_pre.is_true and c.added_to_inv.is_true
            for c in resolver.log
        )


class TestIdempotence(object):
    def test_second_resolution_is_noop(self):
        src = TestRule4_Split.SRC
        result, resolver = _setup(src)
        resolver.resolve_all()
        before = {a.name: a.body for a in result.target.q}
        resolver.resolve_all()
        after = {a.name: a.body for a in result.target.q}
        assert before == after
