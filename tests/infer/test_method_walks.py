"""Inference finishes each method with one walk and at most one rename.

After expression inference, a method's body is summarised once (the
regions it mentions and those its letregs bind); localisation,
coalescing and the residual mapping then compose into one substitution
that one rename pass applies.  Block-level [letreg] runs do their own
summaries; they are told apart here by running inside ``_infer_block``.
"""

import pytest

from repro.core import InferenceConfig, infer_source
from repro.core import infer as infer_module
from repro.gen import GenSpec, generate_source
from repro.lang import target as T

from tests.conftest import LIST_SOURCE, PAIR_SOURCE


@pytest.fixture
def method_level_calls(monkeypatch):
    """Per inferred method: (summary walks, rename passes) outside blocks."""
    calls = []
    depth = [0]
    real_block = infer_module.RegionInference._infer_block
    real_method = infer_module.RegionInference._infer_method
    real_summary = infer_module._region_summary
    real_rename = T.rename_expr_regions

    def infer_block(self, *args, **kwargs):
        depth[0] += 1
        try:
            return real_block(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    def infer_method(self, *args, **kwargs):
        calls.append([0, 0])
        return real_method(self, *args, **kwargs)

    def summary(body):
        if depth[0] == 0:
            calls[-1][0] += 1
        return real_summary(body)

    def rename(expr, subst):
        if depth[0] == 0:
            calls[-1][1] += 1
        return real_rename(expr, subst)

    monkeypatch.setattr(infer_module.RegionInference, "_infer_block", infer_block)
    monkeypatch.setattr(infer_module.RegionInference, "_infer_method", infer_method)
    monkeypatch.setattr(infer_module, "_region_summary", summary)
    monkeypatch.setattr(T, "rename_expr_regions", rename)
    return calls


SOURCES = {
    "pair-list": PAIR_SOURCE + LIST_SOURCE,
    "generated": generate_source(GenSpec.sized(6, seed=3)),
}


@pytest.mark.parametrize("name", sorted(SOURCES))
@pytest.mark.parametrize("localize", [True, False], ids=["letreg", "no-letreg"])
def test_one_summary_and_at_most_one_rename_per_method(method_level_calls, name, localize):
    infer_source(SOURCES[name], InferenceConfig(localize_blocks=localize))
    assert method_level_calls
    assert all(walks == 1 for walks, _ in method_level_calls)
    assert all(renames <= 1 for _, renames in method_level_calls)
    assert any(renames == 1 for _, renames in method_level_calls)
