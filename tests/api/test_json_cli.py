"""Golden tests for ``python -m repro ... --format json`` output."""

import json
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.__main__ import main
from repro.bench import families as bench_families
from repro.bench import fig8_rows

ROOT = Path(__file__).resolve().parents[2]

PROGRAM = """
class Box extends Object { int v; }
int main(int n) {
  int i = 0;
  int acc = 0;
  while (i < n) {
    Box t = new Box(i);
    acc = acc + t.v;
    i = i + 1;
  }
  acc
}
"""

#: ';' missing after the field of Box — error lands on line 2, column 33
BAD = "// broken\nclass Box extends Object { int v }\nint main() { 0 }\n"


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.cj"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.cj"
    path.write_text(BAD)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


class TestCheckJson(object):
    def test_ok_payload(self, source_file, capsys):
        code, payload = run_json(capsys, ["check", source_file, "--format", "json"])
        assert code == 0
        assert payload["ok"] is True
        assert payload["command"] == "check"
        assert payload["file"] == source_file
        assert isinstance(payload["obligations"], int)
        assert payload["diagnostics"] == []

    def test_parse_error_payload_is_golden(self, bad_file, capsys):
        code, payload = run_json(capsys, ["check", bad_file, "--format", "json"])
        assert code == 2
        assert payload == {
            "ok": False,
            "command": "check",
            "diagnostics": [
                {
                    "severity": "error",
                    "stage": "parse",
                    "code": "parse-error",
                    "message": "expected ';' or '(' after member 'v'",
                    "file": bad_file,
                    "span": {"line": 2, "col": 34},
                }
            ],
        }

    def test_all_modes_emit_json(self, source_file, capsys):
        for mode in ("none", "object", "field"):
            code, payload = run_json(
                capsys, ["check", source_file, "--mode", mode, "--format", "json"]
            )
            assert code == 0 and payload["ok"] is True


class TestInferJson(object):
    def test_target_and_stats(self, source_file, capsys):
        code, payload = run_json(capsys, ["infer", source_file, "--format", "json"])
        assert code == 0
        assert payload["ok"] is True
        assert "letreg" in payload["target"]
        assert "Box<" in payload["target"]
        stats = payload["stats"]
        assert stats["inference_seconds"] > 0
        assert stats["localized_regions"] >= 1
        assert set(stats["stage_seconds"]) == {
            "parse",
            "typecheck",
            "annotate",
            "infer",
        }
        assert "q" not in payload

    def test_show_q(self, source_file, capsys):
        code, payload = run_json(
            capsys, ["infer", source_file, "--show-q", "--format", "json"]
        )
        assert code == 0
        assert any(line.startswith("inv.Box") for line in payload["q"])


class TestRunJson(object):
    def test_result_and_stats(self, source_file, capsys):
        code, payload = run_json(
            capsys, ["run", source_file, "--args", "10", "--format", "json"]
        )
        assert code == 0
        assert payload["result"] == "45"
        assert payload["entry"] == "main"
        assert payload["args"] == [10]
        assert payload["stats"]["objects_allocated"] == 10
        assert 0 < payload["stats"]["space_usage_ratio"] <= 1.0

    def test_missing_entry_is_a_runtime_diagnostic(self, source_file, capsys):
        code, payload = run_json(
            capsys,
            ["run", source_file, "--entry", "nosuch", "--format", "json"],
        )
        assert code == 2
        assert payload["diagnostics"][0]["code"] == "runtime-error"


class TestReportJson(object):
    def test_report_shape(self, source_file, capsys):
        code, payload = run_json(capsys, ["report", source_file, "--format", "json"])
        assert code == 0
        report = payload["report"]
        assert [c["name"] for c in report["classes"]] == ["Box"]
        (method,) = report["methods"]
        assert method["qualified"] == "main"
        assert method["letregs"] == report["totals"]["letregs"] >= 1


class TestTextErrorPaths(object):
    def test_parse_error_exit_2_with_location(self, bad_file, capsys):
        assert main(["infer", bad_file]) == 2
        err = capsys.readouterr().err
        assert f"{bad_file}:2:34" in err
        assert "parse-error" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.cj")]) == 2
        assert "io-error" in capsys.readouterr().err

    def test_collect_reports_every_declaration(self, tmp_path, capsys):
        path = tmp_path / "multi.cj"
        path.write_text(
            "class A extends Object { int x }\n"
            "class B extends Object { int y }\n"
            "int main() { 0 }\n"
        )
        code, payload = run_json(
            capsys, ["check", str(path), "--collect", "--format", "json"]
        )
        assert code == 2
        assert len(payload["diagnostics"]) == 2


# ---------------------------------------------------------------- envelope


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


#: command -> (argv that succeeds, argv that fails); GOOD is PROGRAM, BAD
#: the parse error above, MISSING a file that does not exist
ENVELOPE_CASES = {
    "infer": (["infer", "GOOD"], ["infer", "BAD"]),
    "check": (["check", "GOOD"], ["check", "BAD"]),
    "run": (["run", "GOOD", "--args", "3"], ["run", "BAD"]),
    "report": (["report", "GOOD"], ["report", "BAD"]),
    "profile": (["profile", "GOOD", "--top", "1"], ["profile", "BAD"]),
    "batch": (["batch", "GOOD"], ["batch", "GOOD", "BAD"]),
    "watch": (
        ["watch", "GOOD", "--iterations", "0"],
        ["watch", "BAD", "--iterations", "0"],
    ),
    "gen": (["gen", "--spec-only"], ["gen", "--count", "1", "--edits", "1"]),
    "bench list": (["bench", "list"], ["bench", "list"]),
    "bench run": (
        ["bench", "run", "--smoke"],
        ["bench", "run", "--families", "nonexistent"],
    ),
    "bench compare": (
        ["bench", "compare", "BENCH", "BENCH"],
        ["bench", "compare", "MISSING", "BENCH"],
    ),
    "fig8": (["fig8", "--quick"], ["fig8", "--quick"]),
    "fig9": (["fig9"], ["fig9"]),
}

#: what breaks a command that has no failing input of its own
BREAKERS = {
    "bench list": (bench_families, "family_names", lambda: ["nonexistent"]),
    "fig8": (cli, "fig8_rows", _boom),
    "fig9": (cli, "fig9_rows", _boom),
}


@pytest.mark.parametrize("outcome", ["ok", "fail"])
@pytest.mark.parametrize("command", sorted(ENVELOPE_CASES))
def test_every_payload_carries_the_envelope(
    command, outcome, source_file, bad_file, tmp_path, toy_registry,
    monkeypatch, capsys,
):
    """docs/cli.md: every --format json payload carries ``ok``,
    ``command`` (the full subcommand) and a ``diagnostics`` array, on
    success and on failure alike."""
    # fig8 --quick takes seconds: one program, no execution
    monkeypatch.setattr(
        cli,
        "fig8_rows",
        lambda quick, session: fig8_rows(run=False, names=["sieve"], session=session),
    )
    ok = outcome == "ok"
    if not ok and command in BREAKERS:
        monkeypatch.setattr(*BREAKERS[command])
    paths = {
        "GOOD": source_file,
        "BAD": bad_file,
        "MISSING": str(tmp_path / "missing.json"),
        "BENCH": str(ROOT / "BENCH_11.json"),
    }
    argv = [paths.get(a, a) for a in ENVELOPE_CASES[command][not ok]]
    code, payload = run_json(capsys, argv + ["--format", "json"])
    assert (code == 0) is ok
    assert payload["ok"] is ok
    assert payload["command"] == command
    assert isinstance(payload["diagnostics"], list)
