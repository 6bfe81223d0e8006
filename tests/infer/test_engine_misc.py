"""Miscellaneous inference-engine behaviours: result metadata, error
paths, configuration surface, and inheritance layout edge cases."""

import pytest

from repro.core import (
    InferenceConfig,
    InferenceError,
    RegionInference,
    SubtypingMode,
    infer_source,
)
from repro.frontend import parse_program
from repro.lang import target as T
from repro.regions import HEAP, RegionSolver
from repro.typing import NormalTypeError
from tests.conftest import PAIR_SOURCE, infer_and_check


class TestResultMetadata(object):
    def test_elapsed_recorded(self):
        result = infer_source(PAIR_SOURCE, InferenceConfig())
        assert result.elapsed > 0

    def test_localized_regions_per_method(self):
        result = infer_source(PAIR_SOURCE, InferenceConfig())
        assert "Pair.cloneRev" in result.methods

    def test_fixpoint_iterations_keyed_by_scc(self):
        result = infer_source(PAIR_SOURCE, InferenceConfig())
        assert all(isinstance(k, tuple) for k in result.fixpoint_iterations)

    def test_total_localized(self):
        result = infer_source(PAIR_SOURCE, InferenceConfig())
        assert result.total_localized == sum(
            record.localized for record in result.methods.values()
        )

    def test_config_retained(self):
        config = InferenceConfig(mode=SubtypingMode.NONE)
        result = infer_source(PAIR_SOURCE, config)
        assert result.config is config


class TestErrorPaths(object):
    def test_ill_typed_program_rejected_before_inference(self):
        with pytest.raises(NormalTypeError):
            infer_source("int f() { missing }")

    def test_unknown_class_rejected(self):
        with pytest.raises(NormalTypeError):
            infer_source("Nope f() { (Nope) null }")

    def test_engine_reusable_via_class_api(self):
        program = parse_program(PAIR_SOURCE)
        engine = RegionInference(program)
        result = engine.infer()
        assert engine.result is result


class TestInheritanceLayouts(object):
    def test_grandchild_prefix(self):
        src = """
        class A extends Object { Object a1; }
        class B extends A { Object b1; }
        class C extends B { Object c1; }
        """
        result = infer_and_check(src)
        a = result.annotations["A"]
        b = result.annotations["B"]
        c = result.annotations["C"]
        assert c.regions[: b.arity] == c.super_regions
        assert b.regions[: a.arity] == b.super_regions
        assert c.arity == 4

    def test_recursive_subclass_of_plain_superclass(self):
        src = """
        class Base extends Object { Object tag; }
        class Chain extends Base { Chain next; }
        """
        result = infer_and_check(src)
        chain = result.annotations["Chain"]
        assert chain.rec_region == chain.regions[-1]
        nxt = chain.own_field_types["next"]
        assert nxt.regions[0] == chain.rec_region
        assert len(nxt.regions) == chain.arity

    def test_primitive_only_hierarchy(self):
        src = """
        class P extends Object { int x; bool b; }
        class Q extends P { int y; }
        int f(Q q) { q.x + q.y }
        """
        result = infer_and_check(src)
        assert result.annotations["Q"].arity == 1

    def test_this_type_uses_class_formals(self):
        src = "class A { Object x; A self() { this } }"
        result = infer_and_check(src)
        method = result.target.class_named("A").method("self")
        # the body returns this: result regions tie back to class formals
        scheme = result.methods["A.self"].scheme
        anno = result.annotations["A"]
        pre = result.target.q[scheme.pre].body
        solver = RegionSolver(pre)
        # returning this forces the result view to be outlived by r1
        r_ret_first = scheme.region_params[0]
        assert solver.entails_outlives(anno.regions[0], r_ret_first)


class TestHeapUsage(object):
    def test_simple_programs_avoid_heap(self):
        """No region should be forced onto the heap in these programs."""
        result = infer_and_check(PAIR_SOURCE)
        for method in result.target.all_methods():
            for node in T.twalk(method.body):
                if isinstance(node, T.TNew):
                    assert not node.regions[0].is_heap

    def test_static_entry_allocations_are_method_scoped(self):
        src = """
        class Box extends Object { int v; }
        int f() {
          Box b = new Box(3);
          b.v
        }
        """
        result = infer_and_check(src)
        body = result.target.static_named("f").body
        assert isinstance(body, T.TLetreg)


class TestDeterminism(object):
    def test_repeated_inference_same_shape(self):
        """Region uids differ between runs but the structure must not."""
        from repro.lang.pretty import pretty_target

        t1 = pretty_target(infer_source(PAIR_SOURCE, InferenceConfig()).target)
        t2 = pretty_target(infer_source(PAIR_SOURCE, InferenceConfig()).target)
        assert t1 == t2
