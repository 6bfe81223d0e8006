"""Tests for Sec 5: downcast safety (Fig 7 flow analysis + both techniques)."""

import pytest

from repro.checking import check_target
from repro.core import DowncastStrategy, InferenceConfig, infer_source
from repro.core.downcast import DowncastAnalysis
from repro.frontend import parse_program
from repro.lang import target as T
from repro.regions import RegionEq, RegionSolver
from repro.typing import check_program
from tests.conftest import infer_within

FIG7 = """
class A extends Object { Object fa; }
class B extends A { Object fb; }
class C extends A { Object fc; }
class D extends C { Object fd; }
class E extends A { Object fe1; Object fe2; Object fe3; }

bool frag(int which) {
  A a = (A) null;
  if (which == 0) { a = new B(null, null); }
  else {
    if (which == 1) { a = new C(null, null); }
    else { a = new E(null, null, null, null); }
  }
  B b = (B) a;
  C c = (C) a;
  D d = (D) c;
  d.fd == null
}
"""


@pytest.fixture(scope="module")
def analysis():
    program = parse_program(FIG7)
    table = check_program(program)
    return DowncastAnalysis(program, table)


class TestFlowAnalysis(object):
    def test_downcast_sets_match_paper(self, analysis):
        """a[{B,C,D}] and c[{D}] after both closures."""
        sets = analysis.downcast_sets()
        assert sets[("var", "frag", "a")] == frozenset({"B", "C", "D"})
        assert sets[("var", "frag", "c")] == frozenset({"D"})

    def test_allocation_sites_inherit_sets(self, analysis):
        """The closure reaches the new sites lb, lc, le."""
        sets = analysis.downcast_sets()
        site_sets = [v for k, v in sets.items() if k[0] == "new"]
        assert len(site_sets) == 3
        assert all(s == frozenset({"B", "C", "D"}) for s in site_sets)

    def test_doomed_site(self, analysis):
        """le allocates an E: unrelated to B/C/D, every downcast fails."""
        plan = analysis.build_plan()
        program = parse_program(FIG7)
        # exactly one doomed site, and it is the E allocation
        assert len(plan.doomed_sites) == 1

    def test_pad_counts(self, analysis):
        """a needs 2 pads (to reach D's arity), c needs 1 (paper Sec 5)."""
        plan = analysis.build_plan()
        assert plan.pads_for_var("frag", "a") == 2
        assert plan.pads_for_var("frag", "c") == 1
        assert plan.pads_for_var("frag", "b") == 0

    def test_no_downcasts_means_empty_plan(self):
        src = "class A { } A f() { new A() }"
        program = parse_program(src)
        table = check_program(program)
        plan = DowncastAnalysis(program, table).build_plan()
        assert not plan.pad_counts
        assert not plan.doomed_sites


class TestPaddingTechnique(object):
    @pytest.fixture(scope="class")
    def result(self):
        return infer_source(FIG7, InferenceConfig(downcast=DowncastStrategy.PADDING))

    def test_checks(self, result):
        assert check_target(result.target, downcast="padding").ok

    def test_padded_declaration(self, result):
        body = result.target.static_named("frag").body
        decls = {}
        for node in T.twalk(body):
            if isinstance(node, T.TBlock):
                for s in node.stmts:
                    if isinstance(s, T.TLocalDecl):
                        decls[s.name] = s.decl_type
        assert len(decls["a"].padding) == 2
        assert len(decls["c"].padding) == 1
        assert len(decls["b"].padding) == 0

    def test_downcast_recovers_from_pads(self, result):
        """(D) c reads its fourth region from c's pad (paper: r12=r4)."""
        body = result.target.static_named("frag").body
        decls = {}
        for node in T.twalk(body):
            if isinstance(node, T.TBlock):
                for s in node.stmts:
                    if isinstance(s, T.TLocalDecl):
                        decls[s.name] = s.decl_type
        d_t = decls["d"]
        c_t = decls["c"]
        assert d_t.regions[:3] == c_t.regions
        assert d_t.regions[3] == c_t.padding[0]


class TestFirstRegionTechnique(object):
    @pytest.fixture(scope="class")
    def result(self):
        return infer_source(
            FIG7, InferenceConfig(downcast=DowncastStrategy.FIRST_REGION)
        )

    def test_checks(self, result):
        assert check_target(result.target, downcast="first-region").ok

    def test_recovered_regions_equal_first(self, result):
        body = result.target.static_named("frag").body
        casts = [n for n in T.twalk(body) if isinstance(n, T.TCast)]
        down = [c for c in casts if c.type.name in ("B", "C", "D")]
        assert down
        scheme = result.methods["frag"].scheme
        pre = result.target.q[scheme.pre].body
        # gather the whole constraint context of the method to decide
        # equalities (everything was localised into the body here)
        for cast in down:
            first = cast.type.regions[0]
            # recovered extras must all coincide with the first region
            inner = cast.expr.type
            k = len(inner.regions)
            solver = RegionSolver(pre)
            for extra in cast.type.regions[k:]:
                assert solver.same_region(extra, first) or extra == first


def _equality_count(result):
    """Forced region equalities across all preconditions (coarseness)."""
    return sum(
        isinstance(atom, RegionEq)
        for abstraction in result.target.q
        for atom in abstraction.body.atoms
    )


class TestPaddingVersusFirstRegion(object):
    @pytest.mark.parametrize(
        "strategy",
        (DowncastStrategy.PADDING, DowncastStrategy.FIRST_REGION),
        ids=lambda s: s.value,
    )
    def test_downcast_strategy_cost(self, strategy):
        """Each technique infers Fig 7 in under a second and checks."""
        result = infer_within(FIG7, InferenceConfig(downcast=strategy))
        assert check_target(result.target, downcast=strategy.value).ok

    def test_padding_beats_first_region_precision(self):
        """Padding preserves upcast-lost regions only where a downcast can
        reach them, so it never forces more region equalities than
        first-region."""
        padded = infer_source(FIG7, InferenceConfig(downcast=DowncastStrategy.PADDING))
        first = infer_source(
            FIG7, InferenceConfig(downcast=DowncastStrategy.FIRST_REGION)
        )
        assert _equality_count(padded) <= _equality_count(first)


class TestRejectStrategy(object):
    def test_downcasts_rejected(self):
        from repro.core import InferenceError

        with pytest.raises(InferenceError):
            infer_source(FIG7, InferenceConfig(downcast=DowncastStrategy.REJECT))

    def test_upcast_only_program_accepted(self):
        src = """
        class A { }
        class B extends A { int x; }
        A f() { (A) new B(0) }
        """
        result = infer_source(src, InferenceConfig(downcast=DowncastStrategy.REJECT))
        assert check_target(result.target).ok


class TestDowncastThroughCalls(object):
    def test_flow_through_static_call(self):
        """Downcast sets propagate through parameter passing."""
        src = """
        class A { }
        class B extends A { Object payload; }
        Object open(A boxed) { ((B) boxed).payload }
        Object f() {
          A x = new B(null);
          open(x)
        }
        """
        program = parse_program(src)
        table = check_program(program)
        sets = DowncastAnalysis(program, table).downcast_sets()
        assert sets.get(("var", "open", "boxed")) == frozenset({"B"})
        assert sets.get(("var", "f", "x")) == frozenset({"B"})
        result = infer_source(src, InferenceConfig(downcast=DowncastStrategy.PADDING))
        assert check_target(result.target, downcast="padding").ok

    def test_runtime_failed_downcast_raises(self):
        from repro.runtime import CastFailedError, Interpreter

        src = """
        class A { }
        class B extends A { int x; }
        class C extends A { int y; }
        int f() {
          A a = new C(1);
          ((B) a).x
        }
        """
        result = infer_source(src, InferenceConfig(downcast=DowncastStrategy.PADDING))
        interp = Interpreter(result.target)
        with pytest.raises(CastFailedError):
            interp.run_static("f")


#: overrides where only some members of a chain downcast a parameter or a
#: result: padding must agree along each override pair
OVERRIDE_PADDING = {
    "chain": """
    class P { int v; } class Q extends P { P w; }
    class A { int k; int m(P o) { 1 } }
    class B extends A { int m(P o) { 2 } }
    class C extends B { int m(P o) { ((Q) o).v } }
    int main(int n) { A a = new C(1); a.m(new Q(1, null)) + new B(2).m(new P(3)) }
    """,
    "sibling_targets": """
    class P { int v; } class Q extends P { P w; } class R extends P { P x; P y; }
    class A { int k; int m(P o) { if (o.v > 0) { ((R) o).v } else { 0 } } }
    class B extends A { int m(P o) { if (o.v > 1) { ((Q) o).v } else { 0 } } }
    int main(int n) {
      A a = new B(1);
      a.m(new Q(0, null)) + a.m(new R(0, null, null)) + new A(1).m(new R(1, null, null))
    }
    """,
    "result": """
    class P { int v; } class Q extends P { P w; }
    class A { int k; P r() { new P(1) } }
    class B extends A { P r() { new Q(2, new P(3)) } }
    int main(int n) { A a = new B(1); P p = a.r(); if (p.v == 2) { ((Q) p).w.v } else { 0 } }
    """,
    "recursive": """
    class P { int v; } class Q extends P { P w; }
    class A { int k; int m(P o, int d) { if (d > 0) { this.m(o, d - 1) } else { 0 } } }
    class B extends A {
      int m(P o, int d) { if (d > 0) { this.m(o, d - 1) } else { ((Q) o).v } }
    }
    int main(int n) { A a = new B(1); a.m(new Q(1, null), 3) }
    """,
}


@pytest.mark.parametrize("name", sorted(OVERRIDE_PADDING))
def test_override_padding_passes_the_oracle(name):
    from repro.gen import check_program_invariants

    report = check_program_invariants(OVERRIDE_PADDING[name])
    assert report.failures == []
