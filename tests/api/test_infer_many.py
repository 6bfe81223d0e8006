"""Tests for batch inference: ordering, determinism, error handling."""

import pytest

from repro.api import Session, StageFailure
from repro.checking import check_target

#: ten distinguishable programs — main(n) returns n + i
PROGRAMS = [
    f"""
class Box extends Object {{ int v; }}
int main(int n) {{
  Box b = new Box(n + {i});
  b.v
}}
"""
    for i in range(10)
]

BAD = "class Broken extends Object { int"


def _fingerprint(result):
    """Structural identity of an inference result, stable across runs.

    Region uids come from a global counter, so textual output is not
    comparable between executions; the structure (methods, their region
    arities, letreg counts) is.
    """
    return {
        qualified: (len(record.scheme.region_params), record.localized)
        for qualified, record in result.methods.items()
    }


class TestOrdering(object):
    def test_results_in_input_order(self):
        session = Session()
        results = session.infer_many(PROGRAMS)
        assert len(results) == len(PROGRAMS)
        # run each program: result i must compute n + i
        for i, result in enumerate(results):
            execution = session.pipeline(PROGRAMS[i]).execute("main", [100])
            assert str(execution.unwrap().value) == str(100 + i)
            assert check_target(result.target).ok

    def test_duplicates_resolve_to_the_cached_result(self):
        session = Session()
        results = session.infer_many([PROGRAMS[0]] * 4)
        assert all(r is results[0] for r in results)
        assert session.stats.miss_count("infer") == 1
        assert session.stats.hit_count("infer") == 3

    def test_empty_batch(self):
        assert Session().infer_many([]) == []


class TestDeterminism(object):
    def test_batch_matches_one_program_at_a_time(self):
        batch = Session().infer_many(PROGRAMS)
        single = [Session().infer(src) for src in PROGRAMS]
        for b, s in zip(batch, single):
            assert _fingerprint(b) == _fingerprint(s)

    def test_two_parallel_runs_agree(self):
        a = Session().infer_many(PROGRAMS)
        b = Session().infer_many(PROGRAMS)
        for x, y in zip(a, b):
            assert _fingerprint(x) == _fingerprint(y)


class TestErrors(object):
    def test_bad_program_raises_stage_failure(self):
        session = Session()
        with pytest.raises(StageFailure):
            session.infer_many([PROGRAMS[0], BAD, PROGRAMS[1]])

    def test_earliest_failure_stops_the_batch(self):
        # the in-thread loop raises the first failure in input order and
        # never starts the programs after it
        bad_type = "class A extends Object { int x; }\nint main(int n) { new A(true).x }"
        session = Session()
        with pytest.raises(StageFailure) as exc:
            session.infer_many([PROGRAMS[0], bad_type, BAD, PROGRAMS[1]])
        assert exc.value.stage == "typecheck"
        assert session.stats.misses == {"infer": 2}
