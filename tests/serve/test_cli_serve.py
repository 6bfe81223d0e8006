"""The serve-facing CLI surface: ``batch --stats`` and ``loadgen``.

The ``serve`` subcommand itself (a blocking daemon) is covered by its
parser wiring here and end to end by the HTTP tests; running it inline
would park the test on ``serve_forever``.
"""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.bench.pkb import load_report
from tests.conftest import PAIR_SOURCE


@pytest.fixture()
def batch_files(tmp_path):
    good = tmp_path / "pair.cj"
    good.write_text(PAIR_SOURCE)
    return [str(good)]


class TestBatchStats(object):
    def test_stats_prints_session_stats_as_json(self, batch_files, capsys):
        assert main(["batch", *batch_files, "--stats"]) == 0
        out = capsys.readouterr().out
        # the JSON block is the printed SessionStats.as_dict()
        start = out.index("{")
        stats = json.loads(out[start:])
        assert set(stats) == {"hits", "misses", "evictions", "events"}
        assert stats["misses"]["infer"] == 1

    def test_stats_rides_along_in_json_format(self, batch_files, capsys):
        assert main(
            ["batch", *batch_files, "--stats", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["stats"]["misses"]["infer"] == 1

    def test_without_the_flag_no_stats_key(self, batch_files, capsys):
        assert main(["batch", *batch_files, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "stats" not in payload


class TestLoadgenCommand(object):
    def test_self_hosted_sweep_writes_the_artifact(self, tmp_path, capsys):
        out = tmp_path / "loadgen.json"
        code = main(
            [
                "loadgen",
                "--levels", "1", "2",
                "--requests", "4",
                "--tenants", "2",
                "--programs", "treeadd",
                "--output", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "0 failed" in text
        report = load_report(str(out))
        assert set(report["families"]) == {"serve_loadgen"}
        assert {s["metric"] for s in report["samples"]} >= {
            "latency_p50",
            "latency_p99",
            "throughput",
        }
        failed = [
            s["value"]
            for s in report["samples"]
            if s["metric"] == "requests_failed"
        ]
        assert failed == [0, 0]


class TestServeParser(object):
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.func.__name__ == "cmd_serve"
        assert args.port == 8178
        assert args.max_pending == 16
        assert args.request_timeout == 60.0

    def test_knobs_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--max-concurrency", "8",
                "--max-pending", "0",
                "--request-timeout", "10",
                "--quiet",
            ]
        )
        assert args.max_concurrency == 8
        assert args.max_pending == 0
        assert args.request_timeout == 10.0
        assert args.quiet is True

    def test_warm_floor_flag_is_refused(self):
        # the pool has a fixed width; there is no warm floor to set
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--min-workers", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--backend", "process"],
            ["serve", "--jobs", "2"],
            ["serve", "--idle-timeout", "1"],
            ["loadgen", "--backend", "thread"],
            ["loadgen", "--jobs", "2"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_pool_flags_are_gone_from_the_daemon(self, argv):
        # the daemon runs every request inline: there is no pool to size,
        # pick or reap
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
