"""Tests over the benchmark corpus itself: every program parses, types,
runs correctly, and the harness produces well-formed tables."""

import pytest

from repro.bench import (
    OLDEN_PROGRAMS,
    REGJAVA_PROGRAMS,
    count_annotation_lines,
    fig8_rows,
    fig8_table,
    fig9_rows,
    fig9_table,
    olden_program,
    regjava_program,
)
from repro.checking import check_target
from repro.core import InferenceConfig
from repro.frontend import parse_program
from repro.runtime import SourceInterpreter
from repro.typing import check_program
from tests.conftest import infer_within


class TestCorpusWellFormed(object):
    @pytest.mark.parametrize("name", sorted(REGJAVA_PROGRAMS))
    def test_regjava_types(self, name):
        check_program(parse_program(REGJAVA_PROGRAMS[name].source))

    @pytest.mark.parametrize("name", sorted(OLDEN_PROGRAMS))
    def test_olden_types(self, name):
        check_program(parse_program(OLDEN_PROGRAMS[name].source))

    def test_ten_programs_each(self):
        assert len(REGJAVA_PROGRAMS) == 10
        assert len(OLDEN_PROGRAMS) == 10

    def test_lookup_helpers(self):
        assert regjava_program("sieve").entry == "sieve"
        assert olden_program("treeadd").entry == "treeadd"
        with pytest.raises(KeyError):
            regjava_program("nope")
        with pytest.raises(KeyError):
            olden_program("nope")

    def test_paper_rows_complete(self):
        for p in REGJAVA_PROGRAMS.values():
            assert p.paper.source_lines > 0
            assert p.paper.inference_seconds > 0
        for p in OLDEN_PROGRAMS.values():
            assert p.paper.source_lines > 0


class TestExpectedResults(object):
    @pytest.mark.parametrize(
        "name",
        [n for n, p in REGJAVA_PROGRAMS.items() if p.expected_test_result is not None],
    )
    def test_known_outputs(self, name):
        program = REGJAVA_PROGRAMS[name]
        value = SourceInterpreter(parse_program(program.source)).run_static(
            program.entry, list(program.test_args)
        )
        assert value.value == program.expected_test_result

    def test_sieve_counts_primes(self):
        program = REGJAVA_PROGRAMS["sieve"]
        value = SourceInterpreter(parse_program(program.source)).run_static(
            "sieve", [100]
        )
        assert value.value == 25  # primes below 100

    def test_mergesort_sorts(self):
        src = REGJAVA_PROGRAMS["mergesort"].source + """
        bool sorted(IntList xs) {
          if (xs == null) { true }
          else {
            if (xs.next == null) { true }
            else { xs.value <= xs.next.value && sorted(xs.next) }
          }
        }
        bool check(int n) { sorted(msort(randomList(n, 42))) }
        """
        value = SourceInterpreter(parse_program(src)).run_static("check", [60])
        assert value.value is True

    def test_treeadd_sums_tree(self):
        program = OLDEN_PROGRAMS["treeadd"]
        value = SourceInterpreter(parse_program(program.source)).run_static(
            "treeadd", [3]
        )
        # perfect tree of depth 3 with labels 1..7 in heap order
        assert value.value == sum(range(1, 8))


class TestHarness(object):
    def test_fig8_rows_quick(self):
        rows = fig8_rows(quick=True, names=["ackermann", "foo-sum"])
        assert len(rows) == 2
        for row in rows:
            assert set(row.ratios) == {"none", "object", "field"}
            assert row.inference_seconds > 0
            assert row.annotation_lines > 0

    def test_fig8_table_renders(self):
        rows = fig8_rows(quick=True, names=["ackermann"])
        text = fig8_table(rows)
        assert "ackermann" in text
        assert "paper" in text

    def test_fig9_rows(self):
        # fig9_rows verifies every program; each must infer within 2 s
        rows = fig9_rows()
        assert [r.name for r in rows] == list(OLDEN_PROGRAMS)
        assert all(r.inference_seconds < 2.0 for r in rows)

    @pytest.mark.parametrize("name", sorted(OLDEN_PROGRAMS))
    def test_fig9_inference_time(self, name):
        """The paper infers each Olden program in 0.07-4.63 s; the
        reproduction stays under 2 s per program and the result checks."""
        result = infer_within(
            OLDEN_PROGRAMS[name].source, InferenceConfig(), seconds=2.0
        )
        assert check_target(result.target).ok

    def test_fig9_table_renders(self):
        rows = fig9_rows(names=["treeadd"])
        text = fig9_table(rows)
        assert "treeadd" in text

    def test_annotation_line_counter(self):
        assert count_annotation_lines("letreg r in x") == 1
        assert count_annotation_lines("int f() where r2 >= r1") == 1
        assert count_annotation_lines("Pair<r1, r2> p;") == 1
        assert count_annotation_lines("int x = 1;") == 0
