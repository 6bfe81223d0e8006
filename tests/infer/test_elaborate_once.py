"""A recursive SCC elaborates each member once and localises it twice.

The first localisation feeds the fixed point; the second, with the nest
closed, keeps the bodies (see ``RegionInference._process_scc``).  Only
the region-monomorphic ablation elaborates a recursive member twice: its
fixed point reads calls back into the SCC under the monomorphic rule,
while the kept bodies instantiate them like any other call.
"""

from collections import Counter

import pytest

from repro.bench.regjava import regjava_program
from repro.core import InferenceConfig, infer_source
from repro.core import infer as infer_module


@pytest.fixture
def counts(monkeypatch):
    elaborated = Counter()
    localised = Counter()
    real_elaborate = infer_module.RegionInference._elaborate
    real_localise = infer_module.RegionInference._localise

    def elaborate(self, qualified, scc, monomorphic):
        elaborated[qualified] += 1
        return real_elaborate(self, qualified, scc, monomorphic)

    def localise(self, el, *, expand, keep):
        localised[el.scheme.qualified] += 1
        return real_localise(self, el, expand=expand, keep=keep)

    monkeypatch.setattr(infer_module.RegionInference, "_elaborate", elaborate)
    monkeypatch.setattr(infer_module.RegionInference, "_localise", localise)
    return elaborated, localised


@pytest.mark.parametrize("name", ["mergesort", "reynolds3", "sieve"])
def test_each_method_is_elaborated_once(counts, name):
    elaborated, localised = counts
    result = infer_source(regjava_program(name).source)
    assert set(elaborated) == set(result.methods)
    assert set(elaborated.values()) == {1}
    recursive = {qn for qn, n in localised.items() if n == 2}
    assert recursive, "the program has a recursive SCC"
    assert set(localised.values()) <= {1, 2}


def test_the_monomorphic_ablation_elaborates_recursive_members_twice(counts):
    elaborated, localised = counts
    infer_source(
        regjava_program("mergesort").source,
        InferenceConfig(polymorphic_recursion=False),
    )
    assert elaborated == localised
    assert set(elaborated.values()) == {1, 2}
