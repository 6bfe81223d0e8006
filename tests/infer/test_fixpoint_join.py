"""Golden tests against the paper's Fig 6: region-polymorphic recursion.

``pre.join<r1..r9>`` must close to exactly ``r2 >= r8 /\\ r5 >= r8``
(value regions of both lists outlive the result's value region), reached
after two Kleene iterations; the recursive call must be instantiated
region-polymorphically with the caller's parameters swapped.
"""

import pytest

from repro.core import InferenceConfig, SubtypingMode, infer_source
from repro.lang import target as T
from repro.regions import RegionSolver
from tests.conftest import JOIN_SOURCE, infer_and_check, infer_within


@pytest.fixture(scope="module")
def result():
    return infer_and_check(JOIN_SOURCE, mode=SubtypingMode.OBJECT)


def _param_regions(result):
    scheme = result.methods["join"].scheme
    xs = scheme.region_params[0:3]
    ys = scheme.region_params[3:6]
    ret = scheme.region_params[6:9]
    return xs, ys, ret


class TestClosedForm(object):
    def test_exactly_the_papers_fixed_point(self, result):
        xs, ys, ret = _param_regions(result)
        pre = result.target.q["pre.join"].body
        solver = RegionSolver(pre)
        # r2 >= r8: xs's value region outlives the result's value region
        assert solver.entails_outlives(xs[1], ret[1])
        # r5 >= r8: ys's value region too (discovered by iteration 2)
        assert solver.entails_outlives(ys[1], ret[1])
        # and nothing relates the *object* regions
        assert not solver.entails_outlives(xs[0], ret[0])
        assert not solver.entails_outlives(ys[0], ret[0])
        assert not solver.same_region(xs[0], ys[0])

    def test_pre_is_closed(self, result):
        assert result.target.q["pre.join"].is_closed

    def test_two_iterations(self, result):
        iters = [
            n for scc, n in result.fixpoint_iterations.items() if "join" in scc
        ]
        assert iters and iters[0] == 2


class TestRecursiveCallSites(object):
    def test_swapped_instantiation(self, result):
        """The tail call join(ys, xs) instantiates with the lists swapped."""
        xs, ys, ret = _param_regions(result)
        body = result.target.static_named("join").body
        calls = [
            n
            for n in T.twalk(body)
            if isinstance(n, T.TCall) and n.method_name == "join"
        ]
        assert len(calls) == 2
        swapped = calls[0]  # the join(ys, xs) in the null branch
        assert swapped.region_args[0:3] == tuple(ys)
        assert swapped.region_args[3:6] == tuple(xs)
        assert swapped.region_args[6:9] == tuple(ret)

    def test_region_polymorphism_keeps_params_distinct(self, result):
        """Each recursive call has a different region instantiation from
        its caller (the hallmark of polymorphic recursion)."""
        xs, ys, ret = _param_regions(result)
        body = result.target.static_named("join").body
        calls = [
            n
            for n in T.twalk(body)
            if isinstance(n, T.TCall) and n.method_name == "join"
        ]
        for call in calls:
            assert tuple(call.region_args) != tuple(result.methods["join"].scheme.region_params)


class TestMonomorphicAblation(object):
    def test_monomorphic_recursion_coalesces_lists(self):
        config = InferenceConfig(
            mode=SubtypingMode.OBJECT, polymorphic_recursion=False
        )
        result = infer_source(JOIN_SOURCE, config)
        scheme = result.methods["join"].scheme
        xs = scheme.region_params[0:3]
        ys = scheme.region_params[3:6]
        pre = result.target.q["pre.join"].body
        solver = RegionSolver(pre)
        # the swap join(ys, xs) forces the two parameter vectors together
        assert any(solver.same_region(a, b) for a, b in zip(xs, ys))

    def test_polymorphic_is_strictly_more_precise(self, result):
        config = InferenceConfig(
            mode=SubtypingMode.OBJECT, polymorphic_recursion=False
        )
        mono = infer_source(JOIN_SOURCE, config)
        poly_pre = result.target.q["pre.join"].body
        mono_pre = mono.target.q["pre.join"].body

        # every polymorphic consequence over shared vocabulary also holds
        # monomorphically (they share no Region objects, so compare by
        # counting forced identifications instead)
        def merged_pairs(res):
            scheme = res.methods["join"].scheme
            solver = RegionSolver(res.target.q["pre.join"].body)
            params = scheme.region_params
            return sum(
                1
                for i in range(len(params))
                for j in range(i + 1, len(params))
                if solver.same_region(params[i], params[j])
            )

        assert merged_pairs(result) < merged_pairs(mono)

    def test_polyrec_precision(self):
        """The swapped recursive call collapses the two parameter lists'
        regions without polymorphic recursion, and only without it."""

        def equates_params(polymorphic):
            config = InferenceConfig(
                mode=SubtypingMode.OBJECT, polymorphic_recursion=polymorphic
            )
            result = infer_source(JOIN_SOURCE, config)
            xs, ys, _ = _param_regions(result)
            solver = RegionSolver(result.target.q["pre.join"].body)
            return any(solver.same_region(a, b) for a, b in zip(xs, ys))

        assert equates_params(polymorphic=False)
        assert not equates_params(polymorphic=True)

    @pytest.mark.parametrize("polymorphic", [True, False], ids=["poly", "mono"])
    def test_inference_under_a_second(self, polymorphic):
        infer_within(
            JOIN_SOURCE,
            InferenceConfig(
                mode=SubtypingMode.OBJECT, polymorphic_recursion=polymorphic
            ),
        )
