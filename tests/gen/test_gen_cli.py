"""Tests for the ``repro gen`` subcommand."""

import json

from repro.__main__ import main
from repro.frontend import parse_program
from repro.gen import GenSpec, generate_source, spec_of_source
from repro.typing import check_program


class TestGenSingle(object):
    def test_prints_program_to_stdout(self, capsys):
        assert main(["gen", "--seed", "5", "--classes", "3"]) == 0
        out = capsys.readouterr().out
        spec = spec_of_source(out)
        assert spec == GenSpec(seed=5, classes=3)
        check_program(parse_program(out))

    def test_writes_program_to_file(self, tmp_path, capsys):
        path = tmp_path / "prog.cj"
        assert main(["gen", "--seed", "1", "-o", str(path)]) == 0
        assert spec_of_source(path.read_text()) == GenSpec(seed=1)
        assert str(path) in capsys.readouterr().out

    def test_output_is_deterministic(self, capsys):
        assert main(["gen", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_knob_and_toggle_flags(self, capsys):
        assert (
            main(
                [
                    "gen",
                    "--classes",
                    "3",
                    "--methods-per-class",
                    "1",
                    "--no-recursion",
                    "--no-loops",
                ]
            )
            == 0
        )
        spec = spec_of_source(capsys.readouterr().out)
        assert spec.methods_per_class == 1
        assert not spec.recursion and not spec.loops
        assert spec.downcasts  # untouched toggles stay on

    def test_sized_preset(self, capsys):
        assert main(["gen", "--sized", "--classes", "12", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert spec_of_source(out) == GenSpec.sized(12, seed=2)

    def test_json_format_carries_spec_and_source(self, capsys):
        assert main(["gen", "--seed", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["command"] == "gen"
        assert GenSpec.from_dict(payload["spec"]) == GenSpec(seed=3)
        assert payload["lines"] == len(payload["source"].splitlines())


class TestGenSpecFlags(object):
    def test_spec_only_prints_canonical_json(self, capsys):
        assert main(["gen", "--spec-only", "--classes", "7"]) == 0
        line = capsys.readouterr().out.strip()
        assert GenSpec.from_json(line) == GenSpec(classes=7)
        assert line == GenSpec(classes=7).to_json()

    def test_spec_json_round_trips_through_cli(self, capsys):
        spec = GenSpec(seed=4, classes=3, loops=False)
        assert main(["gen", "--spec", spec.to_json()]) == 0
        assert spec_of_source(capsys.readouterr().out) == spec

    def test_seed_overrides_spec(self, capsys):
        spec = GenSpec(seed=4, classes=3)
        assert main(["gen", "--spec", spec.to_json(), "--seed", "8"]) == 0
        assert spec_of_source(capsys.readouterr().out) == spec.with_seed(8)

    def test_bad_spec_is_an_error(self, capsys):
        assert main(["gen", "--spec", '{"wibble": 1}']) == 2
        assert "bad spec" in capsys.readouterr().err

    def test_invalid_knob_is_an_error(self, capsys):
        assert main(["gen", "--classes", "0"]) == 2


class TestGenCorpus(object):
    def test_writes_corpus_with_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert (
            main(["gen", "--count", "3", "--out-dir", str(out_dir)]) == 0
        )
        files = sorted(p.name for p in out_dir.glob("*.cj"))
        assert files == ["gen_000.cj", "gen_001.cj", "gen_002.cj"]
        manifest = json.loads((out_dir / "corpus.json").read_text())
        assert manifest["count"] == 3
        for entry in manifest["programs"]:
            spec = GenSpec.from_dict(entry["spec"])
            assert (out_dir / entry["file"]).read_text() == generate_source(spec)

    def test_writes_edit_script_versions(self, tmp_path):
        out_dir = tmp_path / "edits"
        assert (
            main(
                ["gen", "--edits", "2", "--out-dir", str(out_dir), "--classes", "5"]
            )
            == 0
        )
        files = sorted(out_dir.glob("*.cj"))
        assert [p.name for p in files] == [
            "edit_000.cj",
            "edit_001.cj",
            "edit_002.cj",
        ]
        versions = [p.read_text() for p in files]
        assert len(set(versions)) == 3
        for version in versions:
            check_program(parse_program(version))

    def test_count_and_edits_conflict(self, capsys):
        assert main(["gen", "--count", "2", "--edits", "2", "--out-dir", "x"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_count_requires_out_dir(self, capsys):
        assert main(["gen", "--count", "2"]) == 2
        assert "--out-dir" in capsys.readouterr().err

    def test_json_error_payload(self, capsys):
        assert main(["gen", "--count", "2", "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["diagnostics"]
