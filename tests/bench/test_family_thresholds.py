"""Every registered benchmark family runs and meets its declared bars.

The family registry (:mod:`repro.bench.families`) is the repo's only
benchmark code.  Each family runs here in smoke mode, exactly as
``repro bench publish --smoke`` runs it in CI, and must emit samples
and violate none of its applicable thresholds: the solver, re-inference
and session-reuse speedup floors, the fig8/fig9 per-program time
ceilings.  A threshold whose metric was never emitted counts as a
violation.  Thresholds marked ``full_only`` skip.
"""

import pytest

from repro.bench.families import family_names, get_spec
from repro.bench.pkb import Runner


@pytest.mark.parametrize("name", family_names())
def test_family_meets_its_thresholds(name):
    run = Runner().run(get_spec(name), smoke=True)
    assert run.samples
    assert run.violations == []
