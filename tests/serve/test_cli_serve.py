"""The serve-facing CLI surface: ``batch --stats`` and ``serve``.

The ``serve`` subcommand itself (a blocking daemon) is covered by its
parser wiring and its bind failure here, and end to end by the HTTP
tests; running it inline would park the test on ``serve_forever``.
"""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from tests.conftest import PAIR_SOURCE

SRC = str(Path(__file__).resolve().parents[2] / "src")


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
        assert set(stats) == {"hits", "misses", "evictions"}
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
        # there is no worker pool, so no warm floor to set
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--min-workers", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--backend", "process"],
            ["serve", "--jobs", "2"],
            ["serve", "--idle-timeout", "1"],
            ["batch", "a.cj", "--backend", "process"],
            ["batch", "a.cj", "--jobs", "2"],
            ["fig9", "--jobs", "2"],
        ],
        ids=lambda argv: " ".join(
            [argv[0]] + [a for a in argv if a.startswith("--")][:1]
        ),
    )
    def test_pool_flags_are_gone_from_the_daemon(self, argv):
        # every command runs in the calling thread (the daemon: inline in
        # each request's handler): there is no pool to size, pick or reap
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestServeBindFailure(object):
    def test_a_busy_port_is_one_io_error_diagnostic(self):
        # a subprocess under a timeout: if the bind unexpectedly succeeds,
        # the daemon is killed instead of parking the test
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            port = busy.getsockname()[1]
            done = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--quiet",
                 "--port", str(port)],
                env={**os.environ, "PYTHONPATH": SRC},
                capture_output=True,
                text=True,
                timeout=60,
            )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and "error[io-error]" in lines[0]
