"""Tests for the ``repro bench`` subcommands.

Most tests swap the family registry for toy specs so the CLI paths run
in milliseconds; one smoke test exercises a real (cheap) family
end-to-end to keep the registry wiring honest.
"""

import json

import pytest

from repro.__main__ import main
from repro.bench import families as bench_families
from repro.bench.pkb import BenchmarkSpec, Threshold, sample
from tests.conftest import toy_bench_registry


class TestBenchList:
    def test_lists_registered_families(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("solver_scaling", "incremental_reinfer",
                     "gen_scaling", "fig8", "fig9"):
            assert name in out
        assert "threshold" in out

    def test_json_carries_thresholds(self, capsys):
        assert main(["bench", "list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        families = {f["name"]: f for f in payload["families"]}
        assert len(families) >= 6
        reinfer = families["incremental_reinfer"]
        assert {"metric": "speedup", "floor": 3.0, "ceiling": None} in (
            reinfer["thresholds"]
        )
        assert reinfer["key_fields"] == ["corpus", "edit"]


class TestBenchRun:
    def test_prints_samples(self, toy_registry, capsys):
        assert main(["bench", "run", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "toy" in out and "wall" in out and "case=a" in out

    def test_families_filter_rejects_unknown(self, toy_registry, capsys):
        assert main(["bench", "run", "--families", "nonexistent"]) == 2
        assert "unknown benchmark family" in capsys.readouterr().err

    def test_a_failure_names_the_full_subcommand(self, toy_registry, capsys):
        # the error envelope names "bench run", as a successful run does
        assert main(
            ["bench", "run", "--families", "nonexistent", "--format", "json"]
        ) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["command"] == "bench run"
        assert main(["bench", "run", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "bench run"

    def test_threshold_violation_exits_nonzero(self, monkeypatch, capsys):
        registry = toy_bench_registry()
        failing = BenchmarkSpec(
            name="toy",
            description="",
            run=lambda ctx: [sample("speedup", 1.0, "x", {"case": "a"})],
            thresholds=(Threshold("speedup", floor=5.0),),
        )
        registry["toy"] = failing
        monkeypatch.setattr(bench_families, "_REGISTRY", registry)
        assert main(["bench", "run"]) == 1
        assert "THRESHOLD" in capsys.readouterr().out

    def test_real_family_smoke(self, capsys):
        """One genuine (cheap) family through the real registry.

        fig9's only threshold is a 2 s per-program ceiling over
        inferences that take tens of milliseconds, so this can't flake
        on a loaded machine the way a speedup floor (e.g.
        session_reuse's) can; the threshold-violation exit path is
        covered by the toy registry above.
        """
        assert main(["bench", "run", "--smoke", "--families", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "inference" in out


class TestBenchPublish:
    def test_writes_schema_versioned_report(
        self, toy_registry, tmp_path, capsys
    ):
        out_path = tmp_path / "BENCH_1.json"
        assert main(
            ["bench", "publish", "--smoke", "--output", str(out_path)]
        ) == 0
        report = json.loads(out_path.read_text())
        assert report["schema_version"] == 1
        assert report["smoke"] is True
        assert report["host"]["cpu_count"] >= 1
        assert {s["family"] for s in report["samples"]} == {"toy"}
        assert report["families"]["toy"]["samples"] == 2
        assert "wrote" in capsys.readouterr().out

    def test_default_output_is_next_bench_file(
        self, toy_registry, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_41.json").write_text("{}")
        assert main(["bench", "publish", "--smoke"]) == 0
        assert (tmp_path / "BENCH_42.json").exists()

    def test_violation_still_writes_file(self, monkeypatch, tmp_path):
        registry = {
            "toy": BenchmarkSpec(
                name="toy",
                description="",
                run=lambda ctx: [sample("speedup", 1.0, "x", {"case": "a"})],
                thresholds=(Threshold("speedup", floor=5.0),),
            ),
        }
        monkeypatch.setattr(bench_families, "_REGISTRY", registry)
        out_path = tmp_path / "BENCH_1.json"
        assert main(
            ["bench", "publish", "--smoke", "--output", str(out_path)]
        ) == 1
        assert json.loads(out_path.read_text())["samples"]


class TestBenchCompare:
    def _publish(self, tmp_path, name, value=1.0, monkeypatch=None):
        monkeypatch.setattr(
            bench_families, "_REGISTRY", toy_bench_registry(value)
        )
        path = tmp_path / name
        assert main(
            ["bench", "publish", "--smoke", "--output", str(path)]
        ) == 0
        return str(path)

    def test_identical_pair_passes(self, tmp_path, monkeypatch, capsys):
        base = self._publish(tmp_path, "a.json", 1.0, monkeypatch)
        cand = self._publish(tmp_path, "b.json", 1.0, monkeypatch)
        assert main(["bench", "compare", base, cand]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_two_x_slower_fails(self, tmp_path, monkeypatch, capsys):
        base = self._publish(tmp_path, "a.json", 1.0, monkeypatch)
        cand = self._publish(tmp_path, "b.json", 2.0, monkeypatch)
        assert main(["bench", "compare", base, cand]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "toy.wall" in out

    def test_json_payload(self, tmp_path, monkeypatch, capsys):
        base = self._publish(tmp_path, "a.json", 1.0, monkeypatch)
        cand = self._publish(tmp_path, "b.json", 2.0, monkeypatch)
        capsys.readouterr()  # drain the publish output
        assert main(
            ["bench", "compare", base, cand, "--format", "json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["same_host"] is True
        assert payload["counts"]["regress"] == 1

    def test_pre_schema_file_exits_2(self, tmp_path, monkeypatch, capsys):
        base = self._publish(tmp_path, "a.json", 1.0, monkeypatch)
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"benchmark": "toy", "samples": []}))
        capsys.readouterr()  # drain the publish output
        assert main(["bench", "compare", str(legacy), base]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_verbose_shows_passing_metrics(
        self, tmp_path, monkeypatch, capsys
    ):
        base = self._publish(tmp_path, "a.json", 1.0, monkeypatch)
        assert main(["bench", "compare", base, base, "--verbose"]) == 0
        assert "toy.speedup" in capsys.readouterr().out
