"""Tests for Session caching: hits/misses across config sweeps."""

import pytest

from repro.api import Session
from repro.bench import REGJAVA_PROGRAMS
from repro.checking import check_target
from repro.core import DowncastStrategy, InferenceConfig, SubtypingMode, infer_source
from repro.lang.pretty import pretty_target

PROGRAM = """
class List extends Object {
  Object value;
  List next;
  Object getValue() { value }
  List getNext() { next }
}
int length(List l) {
  if (l == (List) null) { 0 } else { 1 + length(l.getNext()) }
}
int main(int n) {
  int i = 0;
  List l = (List) null;
  while (i < n) { l = new List(null, l); i = i + 1; }
  length(l)
}
"""

OTHER = "int main(int n) { n * 2 }"

#: the ablation sweep of the acceptance criterion: four configs, one program
SWEEP = [
    InferenceConfig(mode=SubtypingMode.NONE),
    InferenceConfig(mode=SubtypingMode.OBJECT),
    InferenceConfig(mode=SubtypingMode.FIELD),
    InferenceConfig(mode=SubtypingMode.FIELD, localize_blocks=False),
]


class TestAblationSweep(object):
    def test_front_half_computed_once(self, front_half_builds):
        session = Session()
        results = session.sweep(PROGRAM, SWEEP)
        assert len(results) == 4
        # parsing and class annotation ran exactly once; the three later
        # configs forked the first pipeline's front half
        assert front_half_builds == {"parse": 1, "annotate": 1}
        # inference itself is config-keyed: four distinct runs, no hits
        assert session.stats.as_dict()["misses"] == {"infer": 4}
        assert session.stats.hit_count() == 0
        # a repeat sweep is answered by the infer entries alone
        assert session.sweep(PROGRAM, SWEEP) == results
        assert front_half_builds == {"parse": 1, "annotate": 1}
        assert session.stats.as_dict()["hits"] == {"infer": 4}

    def test_sweep_results_are_independently_sound(self):
        session = Session()
        for config, result in zip(SWEEP, session.sweep(PROGRAM, SWEEP)):
            report = check_target(
                result.target,
                mode=config.mode.value,
                downcast=config.downcast.value,
            )
            assert report.ok, [str(i) for i in report.issues[:3]]

    def test_sweep_configs_do_not_leak_preconditions(self):
        """Each result's Q holds its own run's preconditions exactly once."""
        session = Session()
        results = session.sweep(PROGRAM, SWEEP)
        names = [sorted(a.name for a in r.target.q) for r in results]
        assert names[0] == names[1] == names[2] == names[3]
        assert any(n.startswith("pre.") for n in names[0])


    def test_cold_sweep_matches_session_sweep(self):
        """The ``session_reuse`` family's baseline, one ``infer_source``
        per config, renders the same targets as the cached sweep."""
        source = REGJAVA_PROGRAMS["reynolds3"].source
        cold = [infer_source(source, config) for config in SWEEP]
        warm = Session().sweep(source, SWEEP)
        assert len(cold) == len(warm) == len(SWEEP)
        for c, w in zip(cold, warm):
            assert pretty_target(c.target, renumber=True) == pretty_target(
                w.target, renumber=True
            )

    def test_reynolds3_sweep_annotates_once(self, front_half_builds):
        """The ``session_reuse`` family's sweep: the front half runs once,
        the three later configs reuse it."""
        session = Session()
        results = session.sweep(REGJAVA_PROGRAMS["reynolds3"].source, SWEEP)
        assert len(results) == len(SWEEP)
        assert front_half_builds["annotate"] == 1


class TestCacheKeys(object):
    def test_repeated_infer_is_a_hit(self):
        session = Session()
        first = session.infer(PROGRAM)
        second = session.infer(PROGRAM)
        assert first is second
        assert session.stats.hit_count("infer") == 1
        assert session.stats.miss_count("infer") == 1

    def test_modified_source_misses(self):
        session = Session()
        session.infer(PROGRAM)
        session.infer(PROGRAM + "\n// trailing comment\n")
        assert session.stats.miss_count("infer") == 2
        assert session.stats.hit_count("infer") == 0

    def test_distinct_programs_coexist(self):
        session = Session()
        a = session.infer(PROGRAM)
        b = session.infer(OTHER)
        assert a is not b
        assert session.infer(PROGRAM) is a
        assert session.infer(OTHER) is b

    def test_downcast_strategy_is_part_of_the_key(self):
        session = Session()
        session.infer(OTHER)
        session.infer(OTHER, InferenceConfig(downcast=DowncastStrategy.REJECT))
        assert session.stats.miss_count("infer") == 2
        assert session.stats.hit_count() == 0
        assert session.cache_size == 2

    def test_clear_cache(self):
        session = Session()
        session.check(PROGRAM)
        assert session.cache_size == 1  # the infer entry, nothing else
        session.clear_cache()
        assert session.cache_size == 0
        session.infer(PROGRAM)
        assert session.stats.miss_count("infer") == 2


class TestConveniences(object):
    def test_check(self):
        session = Session()
        report = session.check(PROGRAM)
        assert report.ok

    def test_check_raises_when_verification_never_ran(self):
        from repro.api import StageFailure

        session = Session()
        with pytest.raises(StageFailure) as exc:
            session.check("class Broken {")
        assert exc.value.diagnostics[0].code == "parse-error"

    def test_check_failure_names_the_stage_that_actually_failed(self):
        # regression: a parse failure used to surface as
        # StageFailure("verify", ...) because verify was merely skipped
        from repro.api import StageFailure

        with pytest.raises(StageFailure) as exc:
            Session().check("class Broken {")
        assert exc.value.stage == "parse"

        bad_type = (
            "class A extends Object { int x; }\n"
            "int main(int n) { new A(true).x }"
        )
        with pytest.raises(StageFailure) as exc:
            Session().check(bad_type)
        assert exc.value.stage == "typecheck"
        assert exc.value.diagnostics[0].code == "normal-type-error"

    def test_infer_failure_names_the_stage_that_actually_failed(self):
        # the same misattribution existed in every skipped-stage unwrap
        from repro.api import StageFailure

        with pytest.raises(StageFailure) as exc:
            Session().infer("class Broken {")
        assert exc.value.stage == "parse"
        assert exc.value.diagnostics  # and carries the real diagnostics

    def test_execute(self):
        session = Session()
        execution = session.execute(PROGRAM, "main", [5])
        assert str(execution.value) == "5"
        assert execution.stats.objects_allocated == 5

    def test_stats_render(self):
        session = Session()
        assert str(session.stats) == "no cache traffic"
        session.infer(OTHER)
        text = str(session.stats)
        assert text == "infer: 0 hit(s) / 1 miss(es)"
        assert session.stats.as_dict()["misses"] == {"infer": 1}
