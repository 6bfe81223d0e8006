"""Tests for the ``python -m repro`` command-line interface."""

import os

import pytest

from repro.__main__ import build_parser, main
from tests.conftest import IF_RECEIVER_SOURCE, PADDED_OVERRIDE_SOURCE

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


def replace_text(path, text):
    """Write ``path`` the way an editor saves: a whole new file, renamed in.

    ``Path.write_text`` truncates and then writes, so a watcher polling in
    between reads an empty or partial program.
    """
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(text)
    os.replace(scratch, path)


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.cj"
    path.write_text(PROGRAM)
    return str(path)


class TestInfer(object):
    def test_prints_annotated_program(self, source_file, capsys):
        assert main(["infer", source_file]) == 0
        out = capsys.readouterr().out
        assert "letreg" in out
        assert "Box<" in out

    def test_show_q(self, source_file, capsys):
        assert main(["infer", source_file, "--show-q"]) == 0
        out = capsys.readouterr().out
        assert "inv.Box" in out

    def test_mode_flag(self, source_file, capsys):
        assert main(["infer", source_file, "--mode", "none"]) == 0

    def test_a_failure_without_diagnostics_renders_one(
        self, source_file, monkeypatch, capsys
    ):
        from repro.api import Pipeline, StageResult

        monkeypatch.setattr(
            Pipeline, "infer", lambda self: StageResult(stage="infer", ok=False)
        )
        assert main(["infer", source_file]) == 2
        err = capsys.readouterr().err
        assert "error[internal-error]" in err
        assert "stage 'infer' failed without diagnostics" in err


class TestCheck(object):
    def test_ok(self, source_file, capsys):
        assert main(["check", source_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_all_modes(self, source_file):
        for mode in ("none", "object", "field"):
            assert main(["check", source_file, "--mode", mode]) == 0

    def test_ablations(self, source_file):
        assert main(["check", source_file, "--monomorphic"]) == 0
        assert main(["check", source_file, "--no-letreg"]) == 0

    @pytest.mark.parametrize(
        "source",
        [IF_RECEIVER_SOURCE, PADDED_OVERRIDE_SOURCE],
        ids=["if_receiver", "padded_override"],
    )
    def test_dispatch_corner_cases_check(self, source, tmp_path, capsys):
        path = tmp_path / "prog.cj"
        path.write_text(source)
        assert main(["check", str(path)]) == 0
        assert "OK" in capsys.readouterr().out


class TestRun(object):
    def test_runs_and_reports_stats(self, source_file, capsys):
        assert main(["run", source_file, "--args", "10"]) == 0
        out = capsys.readouterr().out
        assert "result: 45" in out
        assert "space-usage ratio" in out

    def test_custom_entry(self, tmp_path, capsys):
        path = tmp_path / "f.cj"
        path.write_text("int double(int n) { 2 * n }")
        assert main(["run", str(path), "--entry", "double", "--args", "21"]) == 0
        assert "result: 42" in capsys.readouterr().out

    @pytest.mark.parametrize("limit", ["0", "-5", str(2**40), "many"])
    def test_recursion_limit_outside_the_wire_range_is_a_usage_error(
        self, source_file, capsys, limit
    ):
        # the daemon's range, [1, DEFAULT_RECURSION_LIMIT]: no silent
        # fallback to the default, no C-int overflow at run time
        with pytest.raises(SystemExit) as exc:
            main(["run", source_file, "--args", "10", "--recursion-limit", limit])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --recursion-limit" in err
        assert "[1, 400000]" in err

    @pytest.mark.parametrize("limit", ["1", "400000"])
    def test_recursion_limit_in_range_runs(self, source_file, capsys, limit):
        argv = ["run", source_file, "--args", "10", "--recursion-limit", limit]
        assert main(argv) == 0
        assert "result: 45" in capsys.readouterr().out


class TestProfile(object):
    def test_reports_every_pipeline_stage(self, source_file, capsys):
        assert main(["profile", source_file, "--top", "3"]) == 0
        out = capsys.readouterr().out
        for stage in (
            "parse:", "typecheck:", "annotate:", "infer:", "verify:", "total:",
        ):
            assert stage in out
        assert "check_target" in out  # top-by-cumulative includes the entry
        assert out.count("collections per generation") == 5

    def test_json_payload_shape(self, source_file, capsys):
        import json

        assert main(["profile", source_file, "--top", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["command"] == "profile"
        assert [s["stage"] for s in payload["stages"]] == [
            "parse", "typecheck", "annotate", "infer", "verify",
        ]
        for stage in payload["stages"]:
            assert len(stage["top"]) <= 2
            assert len(stage["gc"]["collections"]) == 3
            assert all(n >= 0 for n in stage["gc"]["collections"])
            assert stage["gc"]["pause_ms"] >= 0
            for row in stage["top"]:
                assert row["cumtime_s"] >= row["tottime_s"] - 1e-9
        assert payload["total_seconds"] >= 0

    def test_the_store_collection_is_blamed_on_infer(self, source_file, capsys):
        import json

        assert main(["profile", source_file, "--format", "json"]) == 0
        stages = json.loads(capsys.readouterr().out)["stages"]
        # storing the result collects once, before it freezes the heap
        gen2 = {s["stage"]: s["gc"]["collections"][2] for s in stages}
        assert gen2["infer"] >= 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "absent.cj")]) == 2

    @pytest.mark.parametrize(
        "stage,source",
        [
            ("parse", "class Broken extends Object { int"),
            ("typecheck", "int f() { missing }"),
        ],
        ids=["parse", "typecheck"],
    )
    def test_failure_is_blamed_on_its_stage(self, tmp_path, capsys, stage, source):
        import json

        bad = tmp_path / "bad.cj"
        bad.write_text(source)
        assert main(["profile", str(bad), "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["command"] == "profile"
        assert [d["stage"] for d in payload["diagnostics"]] == [stage]


BROKEN = "class Broken extends Object { int"


@pytest.fixture()
def batch_files(tmp_path):
    good1 = tmp_path / "good1.cj"
    good1.write_text(PROGRAM)
    good2 = tmp_path / "good2.cj"
    good2.write_text("int double(int n) { 2 * n }")
    bad = tmp_path / "bad.cj"
    bad.write_text(BROKEN)
    return str(good1), str(good2), str(bad)


class TestBatch(object):
    def test_all_ok(self, batch_files, capsys):
        good1, good2, _ = batch_files
        assert main(["batch", good1, good2]) == 0
        out = capsys.readouterr().out
        assert "2/2 programs inferred" in out

    def test_failure_reports_stage_and_exits_2(self, batch_files, capsys):
        good1, _, bad = batch_files
        assert main(["batch", good1, bad]) == 2
        out = capsys.readouterr().out
        assert "FAILED at parse" in out
        assert "1/2 programs inferred, 1 failed" in out

    def test_json_payload(self, batch_files, capsys):
        import json

        good1, _, bad = batch_files
        assert main(["batch", good1, bad, "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert [p["ok"] for p in payload["programs"]] == [True, False]
        assert payload["programs"][1]["stage"] == "parse"
        assert payload["programs"][1]["diagnostics"][0]["code"] == "parse-error"

    def test_missing_file_is_a_per_file_failure(self, batch_files, tmp_path, capsys):
        # an unreadable file must not abort the rest of the batch
        import json

        good1, _, _ = batch_files
        missing = str(tmp_path / "nope.cj")
        assert main(["batch", good1, missing, "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert [p["ok"] for p in payload["programs"]] == [True, False]
        assert payload["programs"][1]["stage"] == "read"
        assert payload["programs"][1]["diagnostics"][0]["code"] == "io-error"

    def test_summary_counts_an_unreadable_file(self, batch_files, tmp_path, capsys):
        good1, _, _ = batch_files
        assert main(["batch", good1, str(tmp_path / "nope.cj")]) == 2
        assert "1/2 programs inferred, 1 failed" in capsys.readouterr().out

    def test_summary_counts_a_repeated_path_per_entry(self, batch_files, capsys):
        good1, _, bad = batch_files
        assert main(["batch", bad, bad, good1]) == 2
        assert "1/3 programs inferred, 2 failed" in capsys.readouterr().out


class TestWatch(object):
    def test_iterations_zero_exits_after_initial(self, source_file, capsys):
        assert main(["watch", source_file, "--iterations", "0"]) == 0
        out = capsys.readouterr().out
        assert "initial:" in out
        assert "SCCs spliced" in out

    def test_json_payload_shape(self, source_file, capsys):
        import json

        assert main(
            ["watch", source_file, "--iterations", "0", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["command"] == "watch"
        assert payload["events"][0]["edit"] is False
        assert payload["stats"]["misses"].get("scc.document") == 1

    def test_edit_event_reinfers_incrementally(self, source_file, capsys):
        import json
        import threading
        import time
        from pathlib import Path

        path = Path(source_file)

        def edit_soon():
            time.sleep(0.3)
            replace_text(path, path.read_text().replace("t.v", "t.v + 0"))

        editor = threading.Thread(target=edit_soon)
        editor.start()
        try:
            assert main(
                [
                    "watch",
                    source_file,
                    "--iterations",
                    "1",
                    "--interval",
                    "0.05",
                    "--format",
                    "json",
                ]
            ) == 0
        finally:
            editor.join()
        payload = json.loads(capsys.readouterr().out)
        assert [e["edit"] for e in payload["events"]] == [False, True]
        assert payload["stats"]["hits"].get("scc.document") == 1

    def test_edits_of_a_multi_scc_program_splice_clean_sccs(
        self, tmp_path, capsys, monkeypatch
    ):
        import json
        import threading
        import time

        from repro.api import Session
        from repro.bench.composite import composite_source, tweak_method_body

        # the composite corpus holds four independent programs, so a
        # one-literal edit leaves most SCCs clean
        source = composite_source()
        v1 = tweak_method_body(source, "1103515245", "1103515246")
        v2 = tweak_method_body(v1, "100003", "100004")
        path = tmp_path / "composite.cj"
        path.write_text(source)

        # the editor writes each version only after watch has inferred the
        # previous one, so no poll can miss an edit
        inferred = threading.Semaphore(0)
        real_reinfer = Session.reinfer

        def reinfer(self, *args, **kwargs):
            try:
                return real_reinfer(self, *args, **kwargs)
            finally:
                inferred.release()

        monkeypatch.setattr(Session, "reinfer", reinfer)

        def editor():
            for version in (v1, v2):
                assert inferred.acquire(timeout=60)
                time.sleep(0.2)
                replace_text(path, version)

        thread = threading.Thread(target=editor)
        thread.start()
        try:
            assert main(
                [
                    "watch",
                    str(path),
                    "--iterations",
                    "2",
                    "--interval",
                    "0.05",
                    "--format",
                    "json",
                ]
            ) == 0
        finally:
            thread.join()
        payload = json.loads(capsys.readouterr().out)
        events = payload["events"]
        assert [e["edit"] for e in events] == [False, True, True]
        assert all(e["reused_sccs"] > 0 for e in events[1:])
        hits = payload["stats"]["hits"]
        assert hits.get("scc.document") == 2
        assert hits.get("scc.reuse", 0) > 0

    def test_parse_failure_on_initial_run_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.cj"
        bad.write_text("class {")
        assert main(["watch", str(bad), "--iterations", "0"]) != 0

    def test_failures_name_the_watched_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cj"
        bad.write_text("class AB x")
        assert main(["check", str(bad)]) == 2
        checked = capsys.readouterr().err
        assert main(["watch", str(bad), "--iterations", "0"]) == 2
        watched = capsys.readouterr().err
        assert checked.startswith(f"{bad}:1:10: error[")
        assert watched == checked


#: (subcommand argv, flag, values outside its range, a value inside it)
NUMERIC_FLAGS = [
    (["profile", "f.cj"], "--top", ["0", "-1", "two"], "1"),
    (["gen", "--out-dir", "d"], "--count", ["0", "-2"], "1"),
    (["gen", "--out-dir", "d"], "--edits", ["0", "-1"], "1"),
    (["watch", "f.cj"], "--interval", ["-1", "nan", "inf", "soon"], "0"),
    (["watch", "f.cj"], "--iterations", ["-1", "1.5"], "0"),
    (["serve"], "--max-concurrency", ["0", "-3"], "1"),
    (["serve"], "--max-pending", ["-1"], "0"),
    (["serve"], "--max-tenants", ["0"], "1"),
    (["serve"], "--request-timeout", ["0", "-1", "nan", "inf"], "0.5"),
]


class TestNumericFlags(object):
    """Out-of-range numeric flags are usage errors (exit 2); only the
    parser runs, so no server starts and no file is read."""

    @pytest.mark.parametrize(
        "argv,flag,value",
        [(argv, flag, v) for argv, flag, bad, _ in NUMERIC_FLAGS for v in bad],
    )
    def test_outside_the_range_is_a_usage_error(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be " in err and repr(value) in err

    @pytest.mark.parametrize(
        "argv,flag,value", [(argv, flag, ok) for argv, flag, _, ok in NUMERIC_FLAGS]
    )
    def test_the_range_edge_is_accepted(self, argv, flag, value):
        args = build_parser().parse_args(argv + [flag, value])
        assert getattr(args, flag[2:].replace("-", "_")) == float(value)

    def test_profile_rejects_a_negative_top_before_running(self, source_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", source_file, "--top", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
