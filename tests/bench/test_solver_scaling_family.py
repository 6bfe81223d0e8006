"""The solver_scaling family: close+project samples and the exponent guard."""

import math

from repro.bench.families import CONSTRAINT_FAMILIES, get_spec
from repro.bench.pkb import Runner, sample


def _by_metric(run, metric):
    return [s for s in run.samples if s.metric == metric]


def test_full_run_fits_one_exponent_per_shape():
    run = Runner().run(get_spec("solver_scaling"), smoke=False)
    exponents = _by_metric(run, "close_project_scaling_exponent")
    assert sorted(s.meta()["shape"] for s in exponents) == sorted(CONSTRAINT_FAMILIES)
    assert all(math.isfinite(s.value) and s.value > 0 for s in exponents)


def test_the_guard_rejects_a_quadratic_fit():
    spec = get_spec("solver_scaling")
    guard = spec.threshold("close_project_scaling_exponent")
    assert guard.full_only
    assert spec.check_thresholds([sample(guard.metric, 1.2, "exponent")]) == []
    assert spec.check_thresholds([sample(guard.metric, 2.0, "exponent")])
