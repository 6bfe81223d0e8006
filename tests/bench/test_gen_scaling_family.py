"""The gen_scaling benchmark family: registration and a PKB smoke run."""

from repro.bench import families as bench_families
from repro.bench.families import (
    GEN_REINFER_CLASSES,
    GEN_SCALING_SMOKE,
    GEN_WARM_HEAP,
    measure_gen_pipeline,
    measure_reinfer,
    measure_warm_heap,
)
from repro.bench.pkb import Runner
from repro.gen import GenSpec, edit_script


def test_family_registered_with_expected_contract():
    spec = bench_families.get_spec("gen_scaling")
    assert spec.key_fields == ("corpus", "classes", "seed")
    names = [t.metric for t in spec.thresholds]
    assert "gen_reinfer_speedup" in names
    assert "gen_reinfer_speedup" in spec.rules
    (warm,) = [t for t in spec.thresholds if t.metric == "warm_heap_ratio"]
    assert warm.ceiling == 1.1 and warm.full_only
    (pauses,) = [t for t in spec.thresholds if t.metric == "gc_pause_share"]
    assert pauses.ceiling == 0.1 and pauses.full_only


def test_smoke_run_emits_curve_and_reinfer_samples():
    run = Runner().run(bench_families.get_spec("gen_scaling"), smoke=True)
    assert not run.violations, run.violations
    by_metric = {}
    for s in run.samples:
        by_metric.setdefault(s.metric, []).append(s)
    for stage in ("generate", "parse", "infer", "verify"):
        curve = by_metric[stage]
        assert [s.meta()["classes"] for s in curve] == list(GEN_SCALING_SMOKE)
        assert all(s.meta()["corpus"] == "generated" for s in curve)
        assert all(s.unit == "ms" and s.value >= 0 for s in curve)
    (speedup,) = by_metric["gen_reinfer_speedup"]
    assert speedup.meta()["classes"] == GEN_REINFER_CLASSES["smoke"]
    assert speedup.meta()["sccs_reused"] >= 1
    assert speedup.value > 0
    classes, pairs = GEN_WARM_HEAP["smoke"]
    for metric, unit in (
        ("warm_heap_ratio", "x"),
        ("gc_pause_ms", "ms"),
        ("gc_pause_share", "ratio"),
    ):
        (warm,) = by_metric[metric]
        assert warm.unit == unit and warm.value >= 0
        assert warm.meta()["classes"] == classes
        assert warm.meta()["cached"] == 30
        assert warm.meta()["pairs"] == pairs


def test_measure_warm_heap_pairs_a_warm_and_an_empty_session(monkeypatch):
    from repro.api import Session

    sizes = []
    infer = Session.infer

    def recorded(self, source, config=None):
        sizes.append(self.cache_size)
        return infer(self, source, config)

    monkeypatch.setattr(Session, "infer", recorded)
    measured = measure_warm_heap(4, cached=3, pairs=2)
    assert measured["pairs"] == 2 and measured["cached"] == 3
    assert measured["ratio"] > 0 and measured["gc_pause_ms"] >= 0
    assert 0 <= measured["gc_pause_share"] < 1
    # warm-up, then per pair: the empty run, three fills, the warm run
    assert sizes == [0] + [0, 0, 1, 2, 3] * 2


def test_measure_gen_pipeline_reports_program_shape():
    measured = measure_gen_pipeline(4, rounds=1)
    assert measured["classes"] == 4
    assert measured["lines"] >= 50
    assert measured["methods"] > 4
    for stage in ("generate_s", "parse_s", "infer_s", "verify_s"):
        assert measured[stage] >= 0


def test_measure_gen_pipeline_times_verify_min_of_rounds(monkeypatch):
    import repro.checking as checking

    real = checking.check_target
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(checking, "check_target", counted)
    measure_gen_pipeline(4, rounds=3)
    assert len(calls) == 3


def test_measure_reinfer_accepts_generated_version_pair():
    versions = edit_script(GenSpec.sized(12, seed=0), 1)
    measured = measure_reinfer(1, source=versions[0], edited=versions[1])
    result = measured["result"]
    # a one-literal edit must splice nearly every SCC from the prior run
    assert result.reinferred_sccs <= 2
    assert measured["speedup"] > 0


def test_measure_reinfer_rejects_half_a_version_pair():
    import pytest

    with pytest.raises(ValueError, match="both of source/edited"):
        measure_reinfer(1, source="class A extends Object { }")


def test_smoke_run_emits_a_lex_sample_per_size():
    """``lex`` sits beside ``parse`` in the curve, one sample per size."""
    measured = measure_gen_pipeline(4, rounds=1)
    assert 0 <= measured["lex_s"]
    run = Runner().run(bench_families.get_spec("gen_scaling"), smoke=True)
    lex = [s for s in run.samples if s.metric == "lex"]
    parse = [s for s in run.samples if s.metric == "parse"]
    assert [s.meta()["classes"] for s in lex] == list(GEN_SCALING_SMOKE)
    assert [s.meta() for s in lex] == [s.meta() for s in parse]
    assert all(s.unit == "ms" and s.value >= 0 for s in lex)
