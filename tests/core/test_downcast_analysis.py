"""Unit tests for the downcast analysis internals (Sec 5)."""

import pytest

from repro.core.downcast import DowncastAnalysis, DowncastStrategy, PaddingPlan
from repro.frontend import parse_program
from repro.typing import check_program


def analyse(src):
    program = parse_program(src)
    table = check_program(program)
    return DowncastAnalysis(program, table)


class TestFlowGathering(object):
    def test_assignment_flow(self):
        a = analyse(
            """
            class A { }
            class B extends A { int x; }
            void f() {
              A a = new B(0);
              A b = a;
              (B) b;
            }
            """
        )
        sets = a.downcast_sets()
        assert sets[("var", "f", "b")] == frozenset({"B"})
        # and the closure reaches a and the allocation site
        assert sets[("var", "f", "a")] == frozenset({"B"})
        assert any(k[0] == "new" for k in sets)

    def test_upcast_without_downcast_yields_nothing(self):
        a = analyse(
            """
            class A { }
            class B extends A { int x; }
            A f() { new B(0) }
            """
        )
        assert not a.downcast_sets()

    def test_cast_of_same_class_is_not_a_downcast(self):
        a = analyse(
            """
            class A { }
            A f(A x) { (A) x }
            """
        )
        assert not a.downcast_sets()

    def test_flow_through_field(self):
        a = analyse(
            """
            class A { }
            class B extends A { int x; }
            class Holder { A slot; }
            int f(Holder h) {
              h.slot = new B(0);
              ((B) h.slot).x
            }
            """
        )
        sets = a.downcast_sets()
        assert sets.get(("field", "Holder", "slot")) == frozenset({"B"})

    def test_flow_through_return(self):
        a = analyse(
            """
            class A { }
            class B extends A { int x; }
            A mk() { new B(0) }
            int f() { ((B) mk()).x }
            """
        )
        sets = a.downcast_sets()
        assert sets.get(("ret", "mk", "")) == frozenset({"B"})

    def test_if_branches_both_flow(self):
        a = analyse(
            """
            class A { }
            class B extends A { int x; }
            class C extends A { int y; }
            int f(bool c) {
              A v = if (c) { new B(0) } else { new C(0) };
              ((B) v).x
            }
            """
        )
        sets = a.downcast_sets()
        # both allocation sites feed v, so both get the mark
        news = [k for k in sets if k[0] == "new"]
        assert len(news) == 2

    def test_override_pair_parameters_and_results_share_sets(self):
        a = analyse(
            """
            class P { int v; }
            class Q extends P { P w; }
            class A { int k; int m(P o) { 1 } P r() { new Q(0, null) } }
            class B extends A {
              int m(P o) { ((Q) o).v }
              P r() { new P(0) }
            }
            int f(A a) { ((Q) a.r()).v + a.m(new Q(1, null)) }
            """
        )
        sets = a.downcast_sets()
        # only B.m casts its parameter, and only a call through A.r casts
        # a result, yet a call may run either member of each pair
        for node in (("var", "A.m", "o"), ("var", "B.m", "o")):
            assert sets.get(node) == frozenset({"Q"})
        for node in (("ret", "A.r", ""), ("ret", "B.r", "")):
            assert sets.get(node) == frozenset({"Q"})
        plan = a.build_plan()
        assert plan.pads_for_var("A.m", "o") == plan.pads_for_var("B.m", "o") == 1


class TestPlan(object):
    def test_unrelated_class_not_counted(self):
        a = analyse(
            """
            class A { }
            class B extends A { int x; }
            class Z { }
            int f(A v) { ((B) v).x }
            """
        )
        plan = a.build_plan()
        # B adds no region over A (int field) -> no pads needed
        assert plan.pads_for_var("f", "v") == 0

    def test_pad_count_uses_region_arity_difference(self):
        a = analyse(
            """
            class A { }
            class B extends A { Object p; Object q; }
            Object f(A v) { ((B) v).p }
            """
        )
        plan = a.build_plan()
        assert plan.pads_for_var("f", "v") == 2

    def test_deepest_target_wins(self):
        a = analyse(
            """
            class A { }
            class B extends A { Object p; }
            class C extends B { Object q; }
            Object f(A v, bool deep) {
              if (deep) { ((C) v).q } else { ((B) v).p }
            }
            """
        )
        plan = a.build_plan()
        assert plan.pads_for_var("f", "v") == 2  # C's arity - A's arity

    def test_empty_plan_api(self):
        plan = PaddingPlan()
        assert plan.pads_for_var("m", "x") == 0
        assert plan.pads_for_site("l1") == 0
        assert plan.pads_for_field("C", "f") == 0


class TestStrategyEnum(object):
    def test_values(self):
        assert DowncastStrategy("padding") is DowncastStrategy.PADDING
        assert DowncastStrategy("first-region") is DowncastStrategy.FIRST_REGION
        assert DowncastStrategy("reject") is DowncastStrategy.REJECT
