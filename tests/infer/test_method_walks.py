"""Inference walks each method body once and renames it at most once.

Elaboration records every block as it finishes: the regions its own
nodes mention, in one walk that stops at nested blocks.  Localisation
then builds each block's summary from its nested blocks' summaries and
never walks the tree; the body that is kept is renamed once, with every
step's substitution composed.  The first localisation of a recursive
SCC keeps only its precondition, so it renames nothing.
"""

import pytest

from repro.core import InferenceConfig, infer_source
from repro.core import infer as infer_module
from repro.gen import GenSpec, generate_source
from repro.lang import target as T

from tests.conftest import LIST_SOURCE, PAIR_SOURCE


@pytest.fixture
def method_level_calls(monkeypatch):
    """Per localisation ``[rename passes, kept]``, and the blocks sealed."""
    calls = []
    sealed = [0]
    real_seal = infer_module._Block.seal
    real_localise = infer_module.RegionInference._localise
    real_rename = T.rename_expr_regions

    def seal(self, node, env):
        sealed[0] += 1
        return real_seal(self, node, env)

    def localise(self, el, *, expand, keep):
        calls.append([0, keep])
        return real_localise(self, el, expand=expand, keep=keep)

    def rename(expr, subst):
        calls[-1][0] += 1
        return real_rename(expr, subst)

    monkeypatch.setattr(infer_module._Block, "seal", seal)
    monkeypatch.setattr(infer_module.RegionInference, "_localise", localise)
    monkeypatch.setattr(T, "rename_expr_regions", rename)
    return calls, sealed


SOURCES = {
    "pair-list": PAIR_SOURCE + LIST_SOURCE,
    "generated": generate_source(GenSpec.sized(6, seed=3)),
}


@pytest.mark.parametrize("name", sorted(SOURCES))
@pytest.mark.parametrize("localize", [True, False], ids=["letreg", "no-letreg"])
def test_one_summary_and_at_most_one_rename_per_method(method_level_calls, name, localize):
    calls, sealed = method_level_calls
    infer_source(SOURCES[name], InferenceConfig(localize_blocks=localize))
    assert calls
    # one summary walk per block, none per localisation
    assert sealed[0] == len(list(_all_source_blocks(SOURCES[name])))
    assert all(renames <= 1 for renames, _ in calls)
    assert all(renames == 0 for renames, kept in calls if not kept)
    assert any(renames == 1 for renames, _ in calls)


def _all_source_blocks(source):
    """Every block of every method body of ``source``."""
    from repro.frontend import parse_program
    from repro.lang import ast as S
    from repro.typing.normal import NormalTypeChecker

    program = parse_program(source)
    NormalTypeChecker(program).check()
    for method in program.all_methods():
        for e in S.walk(method.body):
            if isinstance(e, S.Block):
                yield e
