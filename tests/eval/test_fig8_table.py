"""The Fig 8 table's qualitative content, pinned in tier-1.

The quick-mode table keeps every column's shape under ordinary
``pytest``.  The per-program space pins run on the programs' full
``run_args`` wherever the quick inputs reuse a different share
(reynolds3 under field subtyping: 0.41 quick, 0.05 full); the programs
that reuse nothing keep ratio 1 on either input and are read off the
quick table.  Each program also infers and checks in under a second.
Timing samples for the table are published by the ``fig8`` family of
``repro bench``, whose per-program ceilings
``tests/bench/test_family_thresholds.py`` checks.
"""

import math
import time

import pytest

from repro.api import Session
from repro.bench import (
    MODES,
    REGJAVA_PROGRAMS,
    fig8_rows,
    fig8_table,
    measure_program,
)
from repro.checking import check_target
from repro.core import InferenceConfig, SubtypingMode, infer_source
from tests.conftest import infer_within

#: programs whose ratio must stay 1.0 under every mode
NO_REUSE = ("sieve", "naive-life", "opt-life-dangling", "opt-life-stack")
#: programs that must reuse space under every mode
ALWAYS_REUSE = ("ackermann", "mergesort", "mandelbrot", "opt-life-array")
#: programs whose space ratio is measured on the full ``run_args``
FULL_INPUT = ALWAYS_REUSE + ("reynolds3", "foo-sum")


@pytest.fixture(scope="module")
def rows():
    return {r.name: r for r in fig8_rows(quick=True)}


@pytest.fixture(scope="module")
def full_ratios():
    """(program, mode) -> space ratio on the program's full ``run_args``."""
    session = Session()
    return {
        (name, mode.value): measure_program(
            REGJAVA_PROGRAMS[name], mode, session=session
        )[2]
        for name in FULL_INPUT
        for mode in MODES
    }


class TestTableShape(object):
    def test_all_programs_present(self, rows):
        assert set(rows) == set(REGJAVA_PROGRAMS)

    def test_inference_under_a_second(self, rows):
        for r in rows.values():
            assert r.inference_seconds < 1.0

    def test_checking_under_a_second(self, rows):
        for r in rows.values():
            assert r.checking_seconds < 1.0

    def test_annotation_lines_positive(self, rows):
        for r in rows.values():
            assert r.annotation_lines > 0

    def test_no_reuse_rows(self, rows):
        for name in NO_REUSE:
            for mode in ("none", "object", "field"):
                assert rows[name].ratios[mode] == pytest.approx(1.0), (name, mode)

    def test_always_reuse_rows(self, rows):
        for name in ("ackermann", "mandelbrot"):
            for mode in ("none", "object", "field"):
                assert rows[name].ratios[mode] < 0.8, (name, mode)

    def test_reynolds3_crossover(self, rows):
        r = rows["reynolds3"].ratios
        assert r["none"] == pytest.approx(1.0)
        assert r["object"] == pytest.approx(1.0)
        assert r["field"] < r["none"]

    def test_foosum_crossover(self, rows):
        r = rows["foo-sum"].ratios
        assert r["object"] < r["none"]
        assert r["field"] == pytest.approx(r["object"], rel=0.3)

    def test_dangling_row_diff(self, rows):
        assert REGJAVA_PROGRAMS["opt-life-dangling"].paper.diff_vs_regjava == -1

    def test_ratios_are_valid_fractions(self, rows):
        for r in rows.values():
            for ratio in r.ratios.values():
                assert not math.isnan(ratio)
                assert 0.0 < ratio <= 1.0 + 1e-9

    def test_table_renders_all_rows(self, rows):
        text = fig8_table(list(rows.values()))
        for name in REGJAVA_PROGRAMS:
            assert name in text


class TestFullInputRatios(object):
    def test_reynolds3_needs_field_subtyping(self, full_ratios):
        assert full_ratios["reynolds3", "none"] == pytest.approx(1.0)
        assert full_ratios["reynolds3", "object"] == pytest.approx(1.0)
        assert full_ratios["reynolds3", "field"] < 0.2

    def test_foosum_needs_object_subtyping(self, full_ratios):
        r = {mode.value: full_ratios["foo-sum", mode.value] for mode in MODES}
        assert r["object"] < r["none"] / 5
        assert r["field"] == pytest.approx(r["object"], rel=0.2)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(REGJAVA_PROGRAMS))
def test_fig8_space_usage(rows, full_ratios, name, mode):
    """Fig 8's space columns: peak-live / total-allocation per mode."""
    if name in FULL_INPUT:
        ratio = full_ratios[name, mode.value]
    else:
        ratio = rows[name].ratios[mode.value]
    if name in NO_REUSE:
        assert ratio == pytest.approx(1.0)
    elif name in ALWAYS_REUSE:
        assert ratio < 0.5
    elif name == "reynolds3":
        if mode is SubtypingMode.FIELD:
            assert ratio < 0.2
        else:
            assert ratio == pytest.approx(1.0)
    elif name == "foo-sum":
        if mode is SubtypingMode.NONE:
            assert 0.2 < ratio < 0.6  # paper: 0.340
        else:
            assert ratio < 0.05  # paper: 0.010


@pytest.mark.parametrize("name", sorted(REGJAVA_PROGRAMS))
def test_fig8_inference_time(name):
    """The paper's prototype infers each program in 0.01-0.35 s; the
    reproduction stays under a second."""
    config = InferenceConfig(mode=SubtypingMode.FIELD)
    result = infer_within(REGJAVA_PROGRAMS[name].source, config)
    assert result.target.classes or result.target.statics


@pytest.mark.parametrize("name", sorted(REGJAVA_PROGRAMS))
def test_fig8_checking_time(name):
    """Region checking is slower than inference in the paper but still
    sub-second."""
    config = InferenceConfig(mode=SubtypingMode.FIELD)
    result = infer_source(REGJAVA_PROGRAMS[name].source, config)
    start = time.perf_counter()
    report = check_target(result.target)
    elapsed = time.perf_counter() - start
    assert report.ok, report.issues[:3]
    assert elapsed < 1.0, f"checking took {elapsed:.2f}s"


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_subtyping_mode_costs_under_a_second(mode):
    """Field subtyping's extra precision costs no inference time to speak
    of: reynolds3, the program it matters for, infers in under a second
    in every mode."""
    infer_within(REGJAVA_PROGRAMS["reynolds3"].source, InferenceConfig(mode=mode))
