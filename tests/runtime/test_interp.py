"""Tests for the region-based interpreter and the region-stack allocator."""

import pytest

from repro.core import SubtypingMode
from repro.deadline import DeadlineExceeded, deadline
from repro.frontend import parse_program
from repro.runtime import (
    CastFailedError,
    DanglingAccessError,
    Interpreter,
    NullAccessError,
    RegionManager,
    RuntimeError_,
    SourceInterpreter,
    StepBudgetExceeded,
    VBool,
    VInt,
)
from repro.runtime.regions_rt import RuntimeRegion
from tests.conftest import infer_and_check


def run(src, entry, args=(), mode=SubtypingMode.FIELD, **kw):
    result = infer_and_check(src, mode=mode)
    interp = Interpreter(result.target, **kw)
    value = interp.run_static(entry, list(args))
    return value, interp


class TestArithmetic(object):
    def test_basic_ops(self):
        v, _ = run("int f() { 2 + 3 * 4 - 1 }", "f")
        assert v == VInt(13)

    def test_division_truncates_toward_zero(self):
        v, _ = run("int f() { (0 - 7) / 2 }", "f")
        assert v == VInt(-3)

    def test_modulo_sign_follows_dividend(self):
        v, _ = run("int f() { (0 - 7) % 3 }", "f")
        assert v == VInt(-1)

    def test_division_by_zero(self):
        from repro.runtime import RuntimeError_

        result = infer_and_check("int f(int n) { 1 / n }")
        with pytest.raises(RuntimeError_):
            Interpreter(result.target).run_static("f", [0])

    def test_comparisons(self):
        v, _ = run("bool f() { 3 < 4 && 4 <= 4 && 5 > 4 && 4 >= 4 }", "f")
        assert v == VBool(True)

    def test_short_circuit_and(self):
        # the second operand would divide by zero if evaluated
        v, _ = run("bool f(int n) { n > 0 && 10 / n > 1 }", "f", [0])
        assert v == VBool(False)

    def test_short_circuit_or(self):
        v, _ = run("bool f(int n) { n == 0 || 10 / n > 1 }", "f", [0])
        assert v == VBool(True)

    def test_unary(self):
        v, _ = run("int f() { -(3 + 4) }", "f")
        assert v == VInt(-7)
        v, _ = run("bool f() { !(1 == 2) }", "f")
        assert v == VBool(True)


class TestObjects(object):
    BOX = "class Box extends Object { int v; }"

    def test_new_and_field_read(self):
        v, _ = run(self.BOX + " int f() { Box b = new Box(41); b.v + 1 }", "f")
        assert v == VInt(42)

    def test_field_write(self):
        v, _ = run(
            self.BOX + " int f() { Box b = new Box(0); b.v = 9; b.v }", "f"
        )
        assert v == VInt(9)

    def test_null_field_read_raises(self):
        result = infer_and_check(self.BOX + " int f() { Box b = (Box) null; b.v }")
        with pytest.raises(NullAccessError):
            Interpreter(result.target).run_static("f")

    def test_reference_equality(self):
        src = self.BOX + """
        bool f() {
          Box a = new Box(1);
          Box b = new Box(1);
          Box c = a;
          a == c && !(a == b) && a != b
        }
        """
        v, _ = run(src, "f")
        assert v == VBool(True)

    def test_instance_method_dispatch(self):
        src = """
        class A extends Object { int tag; int who() { 1 } }
        class B extends A { int who() { 2 } }
        int f() {
          A x = new B(0);
          x.who()
        }
        """
        v, _ = run(src, "f")
        assert v == VInt(2)

    def test_failed_downcast_raises(self):
        src = """
        class A extends Object { int t; }
        class B extends A { int x; }
        int f() { A a = new A(0); ((B) a).x }
        """
        result = infer_and_check(src)
        with pytest.raises(CastFailedError):
            Interpreter(result.target).run_static("f")

    def test_null_cast_is_fine(self):
        src = """
        class A extends Object { int t; }
        class B extends A { int x; }
        bool f() { A a = (A) null; (B) a == null }
        """
        v, _ = run(src, "f")
        assert v == VBool(True)


class TestRegionsAtRuntime(object):
    BOX = "class Box extends Object { int v; }"

    def test_letreg_reclaims_space(self):
        src = self.BOX + """
        int f(int n) {
          int i = 0;
          int acc = 0;
          while (i < n) {
            Box t = new Box(i);
            acc = acc + t.v;
            i = i + 1;
          }
          acc
        }
        """
        v, interp = run(src, "f", [100])
        assert v == VInt(4950)
        stats = interp.stats
        assert stats.objects_allocated == 100
        # per-iteration regions mean the peak is far below the total
        assert stats.peak_live < stats.total_allocated / 10
        assert stats.regions_created > 100  # one per iteration plus top

    def test_retained_data_not_reclaimed(self):
        src = """
        class IntList extends Object { int value; IntList next; }
        IntList f(int n) {
          IntList acc = (IntList) null;
          int i = 0;
          while (i < n) { acc = new IntList(i, acc); i = i + 1; }
          acc
        }
        """
        _, interp = run(src, "f", [50])
        assert interp.stats.space_usage_ratio == pytest.approx(1.0)

    def test_step_budget(self):
        src = "int f(int n) { if (n == 0) { 0 } else { f(n - 1) } }"
        result = infer_and_check(src)
        interp = Interpreter(result.target, step_budget=50)
        with pytest.raises(StepBudgetExceeded):
            interp.run_static("f", [10000])

    def test_step_budget_is_exact_past_the_deadline_stride(self):
        # the budget shares its compare with the every-1024-steps deadline
        # check; a budget that is not a multiple of the stride still
        # allows exactly that many steps
        src = "int f(int n) { if (n == 0) { 0 } else { f(n - 1) } }"
        result = infer_and_check(src)
        probe = Interpreter(result.target)
        probe.run_static("f", [700])
        steps = probe._steps
        assert steps > 2048
        assert Interpreter(result.target, step_budget=steps).run_static(
            "f", [700]
        ) == VInt(0)
        with pytest.raises(StepBudgetExceeded):
            Interpreter(result.target, step_budget=steps - 1).run_static(
                "f", [700]
            )

    def test_region_manager_stack_discipline(self):
        mgr = RegionManager()
        a = mgr.push("a")
        b = mgr.push("b")
        with pytest.raises(RuntimeError):
            mgr.pop(a)  # b is younger and still live
        mgr.pop(b)
        mgr.pop(a)
        assert not a.live and not b.live

    def test_allocation_into_dead_region_rejected(self):
        mgr = RegionManager()
        r = mgr.push("r")
        mgr.pop(r)
        with pytest.raises(DanglingAccessError):
            mgr.allocate(r, 8)

    def test_peak_accounting(self):
        mgr = RegionManager()
        a = mgr.push("a")
        mgr.allocate(a, 100)
        b = mgr.push("b")
        mgr.allocate(b, 50)
        mgr.pop(b)
        mgr.allocate(a, 10)
        mgr.pop(a)
        assert mgr.stats.total_allocated == 160
        assert mgr.stats.peak_live == 150


class TestDispatchRegions(object):
    def test_subclass_dispatch_through_super_view(self):
        """An overriding method sees its full class regions even when the
        call's static receiver type is the superclass (type passing)."""
        src = """
        class A extends Object {
          Object a1;
          Object get() { a1 }
        }
        class B extends A {
          Object b1;
          Object get() { b1 }
        }
        Object f() {
          A x = new B(new Object(), new Object());
          x.get()
        }
        """
        v, _ = run(src, "f", mode=SubtypingMode.OBJECT)
        assert v is not None


class TestRecursionLimit(object):
    """The interpreter manages its own Python stack headroom (the old
    ``sys.setrecursionlimit`` hack of ``__main__.cmd_run``, now a runtime
    option so library users get the same behaviour as the CLI)."""

    DEEP = """
    int sum(int n) { if (n <= 0) { 0 } else { n + sum(n - 1) } }
    """

    def test_default_limit_allows_deep_recursion(self):
        import sys

        result = infer_and_check(self.DEEP)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1200)  # far too small for the tree-walker
        try:
            interp = Interpreter(result.target)
            value = interp.run_static("sum", [2000])
            # the tight ambient limit is restored afterwards
            assert sys.getrecursionlimit() == 1200
        finally:
            sys.setrecursionlimit(old)
        assert value == VInt(2001000)

    def test_limit_is_never_lowered(self):
        import sys

        result = infer_and_check(self.DEEP)
        interp = Interpreter(result.target, recursion_limit=10)
        assert interp.run_static("sum", [5]) == VInt(15)
        assert sys.getrecursionlimit() >= 1000

    def test_opt_out_respects_ambient_limit(self):
        import sys

        result = infer_and_check(self.DEEP)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1200)
        try:
            interp = Interpreter(result.target, recursion_limit=None)
            with pytest.raises(RecursionError):
                interp.run_static("sum", [2000])
        finally:
            sys.setrecursionlimit(old)


ENDLESS = "int main(int n) { int i = 0; while (0 < 1) { i = i + 1; } i }"
SUCC = "int main(int n) { n + 1 }"


def _source_interp(src):
    return SourceInterpreter(parse_program(src))


def _target_interp(src):
    return Interpreter(infer_and_check(src).target)


@pytest.mark.parametrize(
    "make", [_target_interp, _source_interp], ids=["target", "source"]
)
class TestEntryArity(object):
    def test_exact_arity_runs(self, make):
        assert make(SUCC).run_static("main", [1]) == VInt(2)

    def test_too_many_arguments_are_refused(self, make):
        with pytest.raises(RuntimeError_, match="takes 1 argument.*2 given"):
            make(SUCC).run_static("main", [1, 2])

    def test_too_few_arguments_are_refused(self, make):
        with pytest.raises(RuntimeError_, match="takes 1 argument.*0 given"):
            make(SUCC).run_static("main", [])


@pytest.mark.parametrize(
    "make", [_target_interp, _source_interp], ids=["target", "source"]
)
class TestDeadline(object):
    def test_endless_loop_stops_at_the_deadline(self, make):
        interp = make(ENDLESS)
        with deadline(0.2):
            with pytest.raises(DeadlineExceeded):
                interp.run_static("main", [0])

    def test_no_scope_no_effect(self, make):
        assert make(SUCC).run_static("main", [41]) == VInt(42)
