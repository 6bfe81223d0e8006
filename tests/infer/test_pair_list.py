"""Golden tests against the paper's Fig 2: the Pair and List classes.

These check the *semantic content* of the inferred annotations (which
constraints are entailed, which regions coincide), not the display names.
"""

import pytest

from repro.core import InferenceConfig, SubtypingMode, infer_source
from repro.regions import Outlives, RegionEq, RegionSolver
from tests.conftest import LIST_SOURCE, PAIR_SOURCE, infer_and_check


@pytest.fixture(scope="module")
def pair():
    return infer_and_check(PAIR_SOURCE, mode=SubtypingMode.OBJECT)


@pytest.fixture(scope="module")
def lst():
    return infer_and_check(LIST_SOURCE, mode=SubtypingMode.OBJECT)


class TestPairClass(object):
    def test_three_region_parameters(self, pair):
        assert pair.annotations["Pair"].arity == 3

    def test_fields_get_distinct_regions(self, pair):
        anno = pair.annotations["Pair"]
        fst = anno.own_field_types["fst"]
        snd = anno.own_field_types["snd"]
        assert fst.regions != snd.regions

    def test_invariant_is_no_dangling(self, pair):
        """inv.Pair<r1,r2,r3> = r2 >= r1 /\\ r3 >= r1."""
        anno = pair.annotations["Pair"]
        r1, r2, r3 = anno.regions
        inv = pair.target.q[anno.inv].body
        solver = RegionSolver(inv)
        assert solver.entails_outlives(r2, r1)
        assert solver.entails_outlives(r3, r1)
        assert not solver.entails_outlives(r2, r3)
        assert not solver.same_region(r2, r3)

    def test_getfst_pre(self, pair):
        """pre.Pair.getFst<r1,r2,r3,r4> = r2 >= r4."""
        anno = pair.annotations["Pair"]
        scheme = pair.methods["Pair.getFst"].scheme
        (r4,) = scheme.region_params
        r2 = anno.regions[1]
        pre = pair.target.q[scheme.pre].body
        solver = RegionSolver(pre)
        assert solver.entails_outlives(r2, r4)
        assert len(pre) == 1

    def test_setsnd_pre(self, pair):
        """pre.Pair.setSnd<r1,r2,r3,r4> = r4 >= r3."""
        anno = pair.annotations["Pair"]
        scheme = pair.methods["Pair.setSnd"].scheme
        (r4,) = scheme.region_params
        r3 = anno.regions[2]
        solver = RegionSolver(pair.target.q[scheme.pre].body)
        assert solver.entails_outlives(r4, r3)

    def test_clonerev_pre(self, pair):
        """pre.Pair.cloneRev<r1..r3,r4..r6> = r2 >= r6 /\\ r3 >= r5."""
        anno = pair.annotations["Pair"]
        scheme = pair.methods["Pair.cloneRev"].scheme
        r4, r5, r6 = scheme.region_params
        r2, r3 = anno.regions[1], anno.regions[2]
        solver = RegionSolver(pair.target.q[scheme.pre].body)
        assert solver.entails_outlives(r2, r6)
        assert solver.entails_outlives(r3, r5)
        assert not solver.entails_outlives(r2, r5)

    def test_swap_pre_is_field_equality(self, pair):
        """pre.Pair.swap<r1,r2,r3> = (r2 = r3)."""
        anno = pair.annotations["Pair"]
        scheme = pair.methods["Pair.swap"].scheme
        assert scheme.region_params == ()
        r2, r3 = anno.regions[1], anno.regions[2]
        solver = RegionSolver(pair.target.q[scheme.pre].body)
        assert solver.same_region(r2, r3)

    def test_swap_constraint_stays_on_method_not_class(self, pair):
        """Only objects calling swap need r2=r3 (annotation guideline 2)."""
        anno = pair.annotations["Pair"]
        r2, r3 = anno.regions[1], anno.regions[2]
        inv_solver = RegionSolver(pair.target.q[anno.inv].body)
        assert not inv_solver.same_region(r2, r3)


class TestListClass(object):
    def test_three_region_parameters(self, lst):
        assert lst.annotations["List"].arity == 3

    def test_recursive_field_layout(self, lst):
        """next has type List<r3, r2, r3> where r3 is the recursion region."""
        anno = lst.annotations["List"]
        r1, r2, r3 = anno.regions
        assert anno.rec_region == r3
        nxt = anno.own_field_types["next"]
        assert nxt.regions == (r3, r2, r3)
        value = anno.own_field_types["value"]
        assert value.regions == (r2,)

    def test_invariant(self, lst):
        """inv.List = r3 >= r1 /\\ r2 >= r3 /\\ r2 >= r1."""
        anno = lst.annotations["List"]
        r1, r2, r3 = anno.regions
        solver = RegionSolver(lst.target.q[anno.inv].body)
        assert solver.entails_outlives(r3, r1)
        assert solver.entails_outlives(r2, r3)
        assert solver.entails_outlives(r2, r1)
        assert not solver.entails_outlives(r3, r2)

    def test_getvalue_pre(self, lst):
        """pre.List.getValue<r1,r2,r3,r4> = r2 >= r4."""
        anno = lst.annotations["List"]
        scheme = lst.methods["List.getValue"].scheme
        (r4,) = scheme.region_params
        solver = RegionSolver(lst.target.q[scheme.pre].body)
        assert solver.entails_outlives(anno.regions[1], r4)

    def test_getnext_pre(self, lst):
        """pre.List.getNext<..> = r5=r2 /\\ r6=r3 (Fig 2(b), verbatim).

        The additional object-subtyping fact r3 >= r4 is recoverable from
        the result type's class invariant, so (like the paper) it is elided
        from the displayed precondition but still entailed with it.
        """
        anno = lst.annotations["List"]
        scheme = lst.methods["List.getNext"].scheme
        r4, r5, r6 = scheme.region_params
        r2, r3 = anno.regions[1], anno.regions[2]
        pre = lst.target.q[scheme.pre].body
        solver = RegionSolver(pre)
        assert solver.same_region(r5, r2)
        assert solver.same_region(r6, r3)
        ret_inv = lst.target.q[anno.inv].instantiate([r4, r5, r6])
        full = RegionSolver(pre.conj(ret_inv))
        assert full.entails_outlives(r3, r4)

    def test_setnext_pre(self, lst):
        """pre.List.setNext<..>: r5=r2 /\\ r6=r3 /\\ r4 >= r3.

        Fig 2(b) shows ``r4=r6``; with object subtyping at the store the
        outlives form ``r4 >= r6(=r3)`` is sufficient (and strictly more
        precise), which is what our engine infers and the checker accepts.
        """
        anno = lst.annotations["List"]
        scheme = lst.methods["List.setNext"].scheme
        r4, r5, r6 = scheme.region_params
        r2, r3 = anno.regions[1], anno.regions[2]
        solver = RegionSolver(lst.target.q[scheme.pre].body)
        assert solver.same_region(r5, r2)
        assert solver.same_region(r6, r3)
        assert solver.entails_outlives(r4, r3)


class TestModes(object):
    def test_none_mode_coalesces_getfst(self):
        """Without subtyping, getFst's result region is *equal* to r2."""
        result = infer_and_check(PAIR_SOURCE, mode=SubtypingMode.NONE)
        anno = result.annotations["Pair"]
        scheme = result.methods["Pair.getFst"].scheme
        (r4,) = scheme.region_params
        solver = RegionSolver(result.target.q[scheme.pre].body)
        assert solver.same_region(anno.regions[1], r4)

    def test_field_mode_on_pair_matches_object_mode(self):
        """Pair has no recursive fields: field mode degenerates to object."""
        obj = infer_and_check(PAIR_SOURCE, mode=SubtypingMode.OBJECT)
        fld = infer_and_check(PAIR_SOURCE, mode=SubtypingMode.FIELD)
        for name in ("Pair.getFst", "Pair.setSnd", "Pair.swap"):
            b1 = obj.target.q[obj.methods[name].scheme.pre].body
            b2 = fld.target.q[fld.methods[name].scheme.pre].body
            assert len(b1) == len(b2)
