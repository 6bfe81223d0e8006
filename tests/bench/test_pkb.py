"""Unit tests for the staged sample-publishing subsystem (repro.bench.pkb).

Everything here runs on toy specs and synthetic reports — no real
benchmark family executes — so the suite pins the subsystem's contracts
(sample round-trips, stage ordering, teardown guarantees, host-aware
compare tolerance) in milliseconds.
"""

import json
import os
from pathlib import Path

import pytest

from repro.bench import pkb
from repro.bench.pkb import (
    BenchmarkError,
    BenchmarkSpec,
    Comparison,
    MetricRule,
    Runner,
    Sample,
    Threshold,
    compare,
    format_comparison,
    host_metadata,
    interleaved_best,
    interleaved_pairs,
    load_report,
    median_ratio,
    next_bench_path,
    publish,
    sample,
)

# --------------------------------------------------------------- samples


class TestSample:
    def test_round_trips_through_json(self):
        s = sample("latency", 12.3456789, "ms", {"b": 2, "a": "x"})
        payload = json.loads(json.dumps(s.to_dict()))
        assert Sample.from_dict(payload) == s

    def test_metadata_order_is_canonical(self):
        a = sample("m", 1.0, "ms", {"x": 1, "y": 2})
        b = Sample.from_dict(
            {"metric": "m", "value": 1.0, "unit": "ms",
             "timestamp": a.timestamp, "metadata": {"y": 2, "x": 1}}
        )
        assert a.metadata == b.metadata

    def test_stamped_at_creation(self):
        first = sample("m", 1, "ms")
        second = sample("m", 2, "ms")
        assert first.timestamp <= second.timestamp

    def test_value_coerced_and_rounded(self):
        assert sample("m", "3.14159265358979", "ms").value == 3.141593

    def test_meta_returns_plain_dict(self):
        assert sample("m", 1, "ms", {"k": "v"}).meta() == {"k": "v"}


def test_host_metadata_shape():
    host = host_metadata()
    assert host["cpu_count"] >= 1
    assert host["affinity"] >= 1
    assert isinstance(host["python"], str)
    assert isinstance(host["platform"], str)


def test_cores_mean_this_process_allowance_not_the_machine(monkeypatch):
    # a taskset/cpuset-limited process on a bigger machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert host_metadata()["affinity"] == 2
    assert host_metadata()["cpu_count"] == 8


def test_interleaved_best_returns_both_sides():
    base_s, cand_s = interleaved_best(lambda: None, lambda: None, rounds=2)
    assert base_s >= 0 and cand_s >= 0


def test_interleaved_pairs_runs_the_sides_alternately():
    calls = []
    timings = interleaved_pairs(
        lambda: calls.append("base"), lambda: calls.append("cand"), pairs=3
    )
    assert len(timings) == 3
    assert calls == ["base", "cand"] * 3


def test_median_ratio_ignores_one_disturbed_pair():
    # the third pair's candidate ran during a load spike
    assert median_ratio([(4.0, 1.0), (4.2, 1.0), (4.0, 4.0)]) == 4.0


# ------------------------------------------------------------ thresholds


class TestThreshold:
    def test_floor_violation(self):
        t = Threshold("speedup", floor=5.0)
        bad = [sample("speedup", 3.0, "x"), sample("other", 0.1, "x")]
        violations = t.violations(bad)
        assert len(violations) == 1
        assert "below floor" in violations[0]
        assert t.violations([sample("speedup", 5.0, "x")]) == []

    def test_ceiling_violation(self):
        t = Threshold("requests_failed", ceiling=0.0)
        assert t.violations([sample("requests_failed", 2, "count")])
        assert t.violations([sample("requests_failed", 0, "count")]) == []

    def test_unemitted_metric_is_a_violation(self):
        spec = BenchmarkSpec(
            name="toy",
            description="",
            run=lambda ctx: [],
            thresholds=(Threshold("renamed_away", ceiling=1.0),),
        )
        (violation,) = spec.check_thresholds([sample("other", 0.5, "ms")])
        assert "renamed_away" in violation and "no sample" in violation

    def test_full_only_threshold_skips_smoke_runs(self):
        spec = BenchmarkSpec(
            name="toy",
            description="",
            run=lambda ctx: [],
            thresholds=(Threshold("exponent", ceiling=1.35, full_only=True),),
        )
        assert spec.check_thresholds([], smoke=True) == []
        assert spec.check_thresholds([])  # a full run must emit it

    def test_spec_threshold_lookup(self):
        spec = BenchmarkSpec(
            name="toy",
            description="",
            run=lambda ctx: [],
            thresholds=(Threshold("speedup", floor=5.0),),
        )
        assert spec.threshold("speedup").floor == 5.0
        with pytest.raises(KeyError):
            spec.threshold("nonexistent")


def test_rule_for_prefers_spec_rules_then_unit_defaults():
    spec = BenchmarkSpec(
        name="toy",
        description="",
        run=lambda ctx: [],
        rules={"special": MetricRule(direction="higher", tolerance=0.1)},
    )
    assert spec.rule_for("special", "ms").direction == "higher"
    assert spec.rule_for("wall", "ms").direction == "lower"
    assert spec.rule_for("ratio_metric", "x").portable
    assert spec.rule_for("mystery", "furlongs").direction == "info"


def test_warn_tolerance_defaults_to_half():
    assert MetricRule(tolerance=0.5).warn_at == 0.25
    assert MetricRule(tolerance=0.5, warn_tolerance=0.1).warn_at == 0.1


# ---------------------------------------------------------------- runner


def _toy_spec(log, **overrides):
    """A four-stage spec that records the order its stages ran in."""

    def mk(name):
        def stage(ctx):
            log.append(name)
            if name == "run":
                ctx.state["ran"] = True
                return [sample("metric", 1.0, "ms", {"case": "toy"})]
        return stage

    fields = dict(
        name="toy",
        description="toy family",
        provision=mk("provision"),
        prepare=mk("prepare"),
        run=mk("run"),
        teardown=mk("teardown"),
        key_fields=("case",),
    )
    fields.update(overrides)
    return BenchmarkSpec(**fields)


class TestRunner:
    def test_stage_ordering(self):
        log = []
        run = Runner().run(_toy_spec(log))
        assert log == ["provision", "prepare", "run", "teardown"]
        assert [st.stage for st in run.stages] == log
        assert all(st.ok for st in run.stages)
        assert [s.metric for s in run.samples] == ["metric"]
        assert run.elapsed >= 0 and not run.smoke

    def test_smoke_flag_reaches_context(self):
        seen = {}

        def run_stage(ctx):
            seen["smoke"] = ctx.smoke
            return []

        run = Runner().run(
            _toy_spec([], run=run_stage), smoke=True
        )
        assert seen["smoke"] and run.smoke

    def test_optional_stages_are_skipped(self):
        spec = BenchmarkSpec(
            name="minimal", description="", run=lambda ctx: []
        )
        run = Runner().run(spec)
        assert [st.stage for st in run.stages] == ["run"]

    def test_run_failure_still_tears_down(self):
        log = []

        def boom(ctx):
            log.append("run")
            raise ValueError("kaput")

        with pytest.raises(BenchmarkError) as excinfo:
            Runner().run(_toy_spec(log, run=boom))
        assert log == ["provision", "prepare", "run", "teardown"]
        assert excinfo.value.stage == "run"
        assert isinstance(excinfo.value.cause, ValueError)

    def test_teardown_failure_does_not_mask_run_failure(self):
        def boom_run(ctx):
            raise ValueError("the real problem")

        def boom_teardown(ctx):
            raise RuntimeError("secondary")

        with pytest.raises(BenchmarkError) as excinfo:
            Runner().run(
                _toy_spec([], run=boom_run, teardown=boom_teardown)
            )
        assert excinfo.value.stage == "run"

    def test_teardown_failure_alone_raises(self):
        def boom_teardown(ctx):
            raise RuntimeError("leak")

        with pytest.raises(BenchmarkError) as excinfo:
            Runner().run(_toy_spec([], teardown=boom_teardown))
        assert excinfo.value.stage == "teardown"

    def test_provision_failure_skips_teardown(self):
        log = []

        def boom(ctx):
            raise OSError("no port")

        with pytest.raises(BenchmarkError) as excinfo:
            Runner().run(_toy_spec(log, provision=boom))
        assert excinfo.value.stage == "provision"
        assert log == []  # neither prepare, run nor teardown ran

    def test_violations_property(self):
        spec = _toy_spec([], thresholds=(Threshold("metric", floor=2.0),))
        run = Runner().run(spec)
        assert len(run.violations) == 1


# --------------------------------------------------------------- publish


def test_next_bench_path(tmp_path):
    assert next_bench_path(str(tmp_path)).name == "BENCH_1.json"
    (tmp_path / "BENCH_3.json").write_text("{}")
    (tmp_path / "BENCH_10.json").write_text("{}")
    (tmp_path / "BENCH_smoke.json").write_text("{}")  # non-numeric: ignored
    assert next_bench_path(str(tmp_path)).name == "BENCH_11.json"


def test_publish_load_round_trip(tmp_path):
    run = Runner().run(_toy_spec([]), smoke=True)
    out = tmp_path / "BENCH_1.json"
    report = publish([run], str(out), smoke=True)
    assert report["schema_version"] == pkb.SCHEMA_VERSION
    assert report["smoke"] is True
    assert report["families"]["toy"]["samples"] == 1
    assert "provision" in report["families"]["toy"]["stages"]

    loaded = load_report(str(out))
    assert loaded == json.loads(out.read_text())
    entry = loaded["samples"][0]
    assert entry["family"] == "toy"
    assert Sample.from_dict(entry) == run.samples[0]


def test_load_report_rejects_pre_schema_files(tmp_path):
    legacy = tmp_path / "BENCH_6.json"
    legacy.write_text(json.dumps({
        "benchmark": "serve_sweep",
        "samples": [
            {"metric": "throughput", "value": 9.0, "unit": "requests/s",
             "timestamp": 1.0, "metadata": {"concurrency": 2}},
        ],
    }))
    with pytest.raises(ValueError, match="schema_version"):
        load_report(str(legacy))


@pytest.mark.parametrize(
    "path",
    sorted(Path(__file__).resolve().parents[2].glob("BENCH_[0-9]*.json")),
    ids=lambda p: p.name,
)
def test_committed_reports_load(path):
    report = load_report(str(path))
    assert report["samples"]
    assert all(entry["family"] for entry in report["samples"])


# --------------------------------------------------------------- compare

HOST_A = {"cpu_count": 8, "affinity": 8, "python": "3.11.7",
          "platform": "Linux-test"}
HOST_B = {"cpu_count": 2, "affinity": 2, "python": "3.12.1",
          "platform": "Linux-other"}

#: key_fields exclude "workers" so host-varying facts don't break matching
TOY_SPECS = {
    "toy": BenchmarkSpec(
        name="toy",
        description="",
        run=lambda ctx: [],
        key_fields=("case",),
        rules={"gated_count": MetricRule(
            direction="lower", tolerance=0.0, warn_tolerance=0.0,
            portable=True,
        )},
    ),
}


def _entry(metric, value, unit, metadata=None, family="toy"):
    return {"family": family, "metric": metric, "value": value, "unit": unit,
            "timestamp": 1.0, "metadata": metadata or {"case": "a"}}


def _write_report(path, entries, host=HOST_A):
    path.write_text(json.dumps({
        "schema_version": 1, "suite": "repro-bench", "host": host,
        "smoke": False, "samples": entries, "families": {},
    }))
    return str(path)


def _compare(tmp_path, old, new, old_host=HOST_A, new_host=HOST_A):
    base = _write_report(tmp_path / "base.json", old, host=old_host)
    cand = _write_report(tmp_path / "cand.json", new, host=new_host)
    return compare(base, cand, specs=TOY_SPECS)


class TestCompare:
    def test_identical_reports_pass(self, tmp_path):
        entries = [_entry("wall", 100.0, "ms")]
        comparison = _compare(tmp_path, entries, entries)
        assert comparison.ok and comparison.same_host
        assert [d.outcome for d in comparison.diffs] == ["pass"]

    def test_sub_noise_floor_change_passes(self, tmp_path):
        # 90% worse but only 0.9 ms absolute: below the 1 ms noise
        # floor, relative tolerance must not flag scheduler jitter
        comparison = _compare(
            tmp_path, [_entry("wall", 1.0, "ms")],
            [_entry("wall", 1.9, "ms")],
        )
        assert [d.outcome for d in comparison.diffs] == ["pass"]
        assert "noise floor" in comparison.diffs[0].note

    def test_small_worsening_within_warn_band_passes(self, tmp_path):
        comparison = _compare(
            tmp_path, [_entry("wall", 100.0, "ms")],
            [_entry("wall", 110.0, "ms")],
        )
        assert [d.outcome for d in comparison.diffs] == ["pass"]

    def test_worsening_in_warn_band_warns(self, tmp_path):
        # 40% worse: beyond warn_at (25%) but inside tolerance (50%)
        comparison = _compare(
            tmp_path, [_entry("wall", 100.0, "ms")],
            [_entry("wall", 140.0, "ms")],
        )
        assert [d.outcome for d in comparison.diffs] == ["warn"]
        assert comparison.ok  # warns never fail the gate

    def test_two_x_slower_regresses_same_host(self, tmp_path):
        comparison = _compare(
            tmp_path, [_entry("wall", 100.0, "ms")],
            [_entry("wall", 200.0, "ms")],
        )
        assert [d.outcome for d in comparison.diffs] == ["regress"]
        assert not comparison.ok
        assert format_comparison(comparison).endswith("REGRESSION")

    def test_absolute_metric_downgrades_cross_host(self, tmp_path):
        comparison = _compare(
            tmp_path, [_entry("wall", 100.0, "ms")],
            [_entry("wall", 200.0, "ms")], new_host=HOST_B,
        )
        assert not comparison.same_host
        assert [d.outcome for d in comparison.diffs] == ["warn"]
        assert "not machine-portable" in comparison.diffs[0].note

    def test_portable_metric_gates_cross_host(self, tmp_path):
        # "x" unit is portable: a halved speedup regresses across hosts
        comparison = _compare(
            tmp_path, [_entry("speedup", 8.0, "x")],
            [_entry("speedup", 2.0, "x")], new_host=HOST_B,
        )
        assert [d.outcome for d in comparison.diffs] == ["regress"]

    def test_improvement_reported(self, tmp_path):
        comparison = _compare(
            tmp_path, [_entry("wall", 100.0, "ms")],
            [_entry("wall", 50.0, "ms")],
        )
        assert [d.outcome for d in comparison.diffs] == ["improved"]
        assert comparison.diffs[0].change == -0.5

    def test_missing_and_new_metrics(self, tmp_path):
        comparison = _compare(
            tmp_path,
            [_entry("wall", 100.0, "ms"), _entry("gone", 1.0, "ms")],
            [_entry("wall", 100.0, "ms"), _entry("fresh", 1.0, "ms")],
        )
        outcomes = {d.metric: d.outcome for d in comparison.diffs}
        assert outcomes == {"wall": "pass", "gone": "missing",
                            "fresh": "new"}
        assert comparison.ok  # renames warn, only regressions fail

    def test_info_units_never_gate(self, tmp_path):
        comparison = _compare(
            tmp_path, [_entry("sccs", 35, "count")],
            [_entry("sccs", 70, "count")],
        )
        assert [d.outcome for d in comparison.diffs] == ["pass"]
        assert comparison.diffs[0].note == "informational"

    def test_spec_rule_overrides_unit_default(self, tmp_path):
        # gated_count declares zero tolerance, so "count" gates here
        comparison = _compare(
            tmp_path, [_entry("gated_count", 0.0, "count")],
            [_entry("gated_count", 1.0, "count")], new_host=HOST_B,
        )
        assert [d.outcome for d in comparison.diffs] == ["regress"]

    def test_key_fields_separate_sizes(self, tmp_path):
        old = [_entry("wall", 10.0, "ms", {"case": "small", "workers": 8}),
               _entry("wall", 100.0, "ms", {"case": "big", "workers": 8})]
        new = [_entry("wall", 10.0, "ms", {"case": "small", "workers": 2}),
               _entry("wall", 300.0, "ms", {"case": "big", "workers": 2})]
        comparison = _compare(tmp_path, old, new)
        outcomes = {dict(d.key)["case"]: d.outcome for d in comparison.diffs}
        # "workers" is not a key field, so entries match despite differing
        assert outcomes == {"small": "pass", "big": "regress"}

    def test_duplicate_samples_keep_the_best(self, tmp_path):
        old = [_entry("wall", 100.0, "ms"), _entry("wall", 80.0, "ms")]
        new = [_entry("wall", 90.0, "ms"), _entry("wall", 85.0, "ms")]
        comparison = _compare(tmp_path, old, new)
        (diff,) = comparison.diffs
        assert (diff.baseline, diff.candidate) == (80.0, 85.0)

    def test_to_dict_and_counts(self, tmp_path):
        comparison = _compare(
            tmp_path, [_entry("wall", 100.0, "ms")],
            [_entry("wall", 200.0, "ms")],
        )
        payload = comparison.to_dict()
        assert payload["ok"] is False
        assert payload["counts"]["regress"] == 1
        assert payload["diffs"][0]["key"] == {"case": "a"}

    def test_format_passes_end_with_pass(self, tmp_path):
        entries = [_entry("wall", 100.0, "ms")]
        comparison = _compare(tmp_path, entries, entries)
        text = format_comparison(comparison, verbose=True)
        assert text.endswith("PASS")
        assert "toy.wall" in text  # verbose shows passing metrics too

    def test_compare_rejects_legacy_baseline(self, tmp_path):
        legacy = tmp_path / "BENCH_old.json"
        legacy.write_text(json.dumps({
            "benchmark": "toy",
            "samples": [_entry("speedup", 8.0, "x")],
        }))
        cand = _write_report(
            tmp_path / "cand.json", [_entry("speedup", 7.5, "x")]
        )
        with pytest.raises(ValueError, match="BENCH_old.json"):
            compare(str(legacy), cand, specs=TOY_SPECS)


def test_compare_default_specs_are_the_registered_families(tmp_path):
    reg = _write_report(
        tmp_path / "a.json",
        [_entry("speedup", 8.0, "x", {"corpus": "c", "edit": "e"},
                family="incremental_reinfer")],
    )
    comparison = compare(reg, reg)  # specs=None -> repro.bench.families
    assert comparison.ok
