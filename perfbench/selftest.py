"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

Kept out of the default ``test_*.py`` discovery on purpose: the smoke
runs boot daemons and take about a minute, and they test the benchmark,
not the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Recorder, Span, percentile, self_times, union_length  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- percentiles -------------------------------------------------------------


def test_p90_refused_below_100_samples():
    with pytest.raises(ValueError, match="at least 100"):
        percentile([float(i) for i in range(99)], 90)
    assert percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)


def test_p50_needs_20_samples():
    with pytest.raises(ValueError, match="at least 20"):
        percentile([1.0] * 19, 50)
    assert percentile([float(i) for i in range(21)], 50) == 10.0


# -- self-time arithmetic ------------------------------------------------------


def _spans(*rows):
    return [Span(name, start, end, parent, 0) for name, start, end, parent in rows]


def test_self_time_of_nested_spans():
    spans = _spans(("op", 0, 10, None), ("a", 2, 8, 0), ("b", 3, 5, 1))
    assert self_times(spans) == [4, 4, 2]


def test_self_time_of_adjacent_children():
    spans = _spans(("op", 0, 10, None), ("a", 2, 5, 0), ("b", 5, 9, 0))
    assert self_times(spans) == [3, 3, 4]


def test_self_time_counts_overlapping_children_once():
    # children on two threads overlap in [4, 6]
    spans = _spans(("op", 0, 10, None), ("a", 2, 6, 0), ("b", 4, 8, 0))
    assert self_times(spans)[0] == 4


def test_self_time_clips_children_to_the_parent():
    spans = _spans(("op", 0, 10, None), ("a", 8, 12, 0))
    assert self_times(spans)[0] == 8


def test_union_length_ignores_empty_intervals():
    assert union_length([(1, 1), (3, 2), (0, 2), (1, 3)]) == 3


def test_recorder_links_a_span_opened_on_another_thread():
    rec = Recorder()
    with rec.span("op", 7) as root:
        with rec.span("inner"):
            pass

        def serve():
            with rec.span("router", 7, parent=rec.root_of(7)):
                with rec.span("layer"):
                    pass

        thread = threading.Thread(target=serve)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    names = {s.name: s for s in rec.spans}
    assert names["inner"].parent == root
    assert names["router"].parent == root
    assert names["layer"].parent == rec.spans.index(names["router"])
    assert all(s.op == 7 for s in rec.spans)


# -- BENCHMARK.json and the runner agree ----------------------------------------


def test_benchmark_json_lists_what_the_runner_reports():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    expected = {name: unit for name, (_, unit) in run.PER_LAYER.items()}
    expected.update(run.RUN_LEVEL)
    assert layers == expected
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(
        run.WORKLOADS
    )


# -- tiny smoke runs -------------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run(workload, trace):
    done = _run(
        HERE.parent,
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        # ok_share is 1 - fail_share
        assert result["metrics"]["ok_share"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "batch_check", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
