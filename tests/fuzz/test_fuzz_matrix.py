"""Differential fuzzing over the feature-toggle matrix.

Every combination of the five :class:`~repro.gen.GenSpec` feature
toggles, each across several seeds, goes through the full differential
oracle: parse -> typecheck -> infer (all three subtyping modes) ->
independent verify -> erasure round-trip -> source-vs-target
bisimulation.  Parametrizing by toggle combination means a failure names
the exact feature interaction that provoked it.
"""

import pytest

from repro.api import Session
from repro.core import InferenceConfig, SubtypingMode, infer_program
from repro.frontend import parse_program
from repro.gen import (
    GenSpec,
    check_program_invariants,
    edit_script,
    feature_matrix,
    generate_source,
)
from repro.lang.pretty import pretty_target

_TOGGLES = ("recursion", "loops", "downcasts", "overrides", "letreg")
_SEEDS = (0, 1, 2)


def _matrix_id(spec):
    on = [name for name in _TOGGLES if getattr(spec, name)]
    return "+".join(on) if on else "none"


MATRIX = feature_matrix(GenSpec(classes=5))


@pytest.mark.parametrize("spec", MATRIX, ids=_matrix_id)
def test_feature_combination_passes_oracle(spec):
    for seed in _SEEDS:
        member = spec.with_seed(seed)
        report = check_program_invariants(generate_source(member), args=(0, 3))
        report.raise_if_failed()
        assert report.checked_modes == ["none", "object", "field"]


def test_matrix_is_exhaustive():
    assert len(MATRIX) == 2 ** len(_TOGGLES)
    assert len({_matrix_id(s) for s in MATRIX}) == len(MATRIX)


@pytest.mark.parametrize("spec", MATRIX, ids=_matrix_id)
def test_footprint_scoped_inference_is_byte_identical(spec):
    """Re-inference splices clean SCCs; it must never change the target.

    Every feature combination runs a two-edit ``Session.reinfer`` chain
    over ``edit_script``, and at every version the spliced result must
    render byte for byte like a from-scratch inference.  Each per-SCC
    step reads the env through its footprint gate, so a footprint
    computed too small fails loudly here too (``FootprintViolation``).
    """
    session = Session()
    config = InferenceConfig(mode=SubtypingMode.FIELD)
    for version in edit_script(spec.with_seed(0), 2):
        spliced = session.reinfer(version, config, document="buf")
        scratch = infer_program(parse_program(version), config)
        assert pretty_target(spliced.target, renumber=True) == pretty_target(
            scratch.target, renumber=True
        )
    assert session.stats.hit_count("scc.document") == 2
