"""Tests for the fictitious null region extension (paper Sec 8).

With ``null_fictitious_regions=True`` every null literal is typed at the
null region, which outlives and is outlived by everything -- so nulls
impose no lifetime constraints at all.  This can only *improve* precision
and never breaks checking.
"""

import pytest

from repro.bench import REGJAVA_PROGRAMS
from repro.checking import check_target
from repro.core import InferenceConfig, SubtypingMode, infer_source
from repro.lang import target as T
from repro.regions import NULL_REGION, Outlives, RegionEq, RegionSolver
from repro.runtime import Interpreter
from tests.conftest import infer_within

#: the RegJava programs with the most null literals
NULL_HEAVY = ("mergesort", "reynolds3", "naive-life")

BRANCHY = """
class Box extends Object { Object item; }
Box pick(bool c, Box b) {
  if (c) { (Box) null } else { b }
}
"""


class TestTyping(object):
    def test_nulls_typed_at_null_region(self):
        result = infer_source(
            BRANCHY, InferenceConfig(null_fictitious_regions=True)
        )
        nulls = [
            n
            for m in result.target.all_methods()
            for n in T.twalk(m.body)
            if isinstance(n, T.TNull)
        ]
        assert nulls
        for n in nulls:
            assert all(r.is_null for r in n.type.regions)

    def test_null_atoms_are_dropped(self):
        from repro.regions import Constraint, Region

        r = Region.fresh()
        c = Constraint.of(
            Outlives(r, NULL_REGION),
            Outlives(NULL_REGION, r),
            RegionEq(r, NULL_REGION),
        )
        assert c.is_true

    def test_solver_treats_null_as_wildcard(self):
        from repro.regions import Region

        r = Region.fresh()
        solver = RegionSolver()
        assert solver.entails_outlives(r, NULL_REGION)
        assert solver.entails_outlives(NULL_REGION, r)
        assert solver.same_region(r, NULL_REGION)


class TestPrecision(object):
    def test_null_branch_adds_no_constraints(self):
        """Without the extension the null's fresh regions join the merge
        constraints; with it the branch contributes nothing."""
        base = infer_source(BRANCHY, InferenceConfig(mode=SubtypingMode.OBJECT))
        ext = infer_source(
            BRANCHY,
            InferenceConfig(
                mode=SubtypingMode.OBJECT, null_fictitious_regions=True
            ),
        )

        def pre_size(result):
            return len(result.target.q["pre.pick"].body)

        assert pre_size(ext) <= pre_size(base)

    @pytest.mark.parametrize("enabled", [False, True], ids=["plain", "null-region"])
    @pytest.mark.parametrize("name", NULL_HEAVY)
    def test_nullregion_inference_cost(self, name, enabled):
        """Both configs infer each null-heavy program in under a second
        and check."""
        result = infer_within(
            REGJAVA_PROGRAMS[name].source,
            InferenceConfig(null_fictitious_regions=enabled),
        )
        assert check_target(result.target).ok

    def test_nullregion_never_increases_constraints(self):
        """Total atoms over every precondition and invariant never grow
        with the extension."""

        def volume(source, config):
            result = infer_source(source, config)
            return sum(len(a.body) for a in result.target.q)

        for name in NULL_HEAVY:
            source = REGJAVA_PROGRAMS[name].source
            plain = volume(source, InferenceConfig())
            extended = volume(source, InferenceConfig(null_fictitious_regions=True))
            assert extended <= plain, f"{name}: null regions added constraints"


class TestSoundness(object):
    @pytest.mark.parametrize("name", sorted(REGJAVA_PROGRAMS))
    def test_corpus_checks_and_runs(self, name):
        program = REGJAVA_PROGRAMS[name]
        result = infer_source(
            program.source, InferenceConfig(null_fictitious_regions=True)
        )
        assert check_target(result.target).ok
        interp = Interpreter(result.target, check_dangling=True)
        interp.run_static(program.entry, list(program.test_args))

    def test_all_modes(self):
        for mode in (SubtypingMode.NONE, SubtypingMode.OBJECT, SubtypingMode.FIELD):
            result = infer_source(
                BRANCHY,
                InferenceConfig(mode=mode, null_fictitious_regions=True),
            )
            assert check_target(result.target, mode=mode.value).ok
