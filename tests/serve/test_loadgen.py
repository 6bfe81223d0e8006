"""The load generator: percentiles, sweeps, the PKB sample contract."""

import json
import threading

import pytest

from repro.serve import LoadgenConfig, ServerConfig, run_loadgen
from repro.serve.loadgen import LevelReport, _Worker, percentile

EXPECTED_METRICS = {
    "latency_p50",
    "latency_p99",
    "latency_mean",
    "throughput",
    "requests_ok",
    "requests_rejected",
    "requests_failed",
}


class TestPercentile(object):
    def test_empty_and_singleton(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0

    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 2.5

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


class TestConfig(object):
    def test_corpus_defaults_to_all_olden(self):
        corpus = LoadgenConfig().corpus()
        assert len(corpus) >= 5
        assert all(src.strip() for _, src in corpus)

    def test_unknown_program_is_rejected(self):
        with pytest.raises(ValueError):
            LoadgenConfig(programs=("not-a-benchmark",)).corpus()


class TestLevelReport(object):
    def test_throughput(self):
        report = LevelReport(concurrency=2, ok=10, elapsed=2.0)
        assert report.throughput == 5.0
        assert LevelReport(concurrency=1).throughput == 0.0


class TestSweep(object):
    def test_self_hosted_sweep_produces_the_bench_artifact(self, tmp_path):
        out = tmp_path / "bench.json"
        result = run_loadgen(
            LoadgenConfig(
                levels=(1, 2),
                requests_per_level=4,
                tenants=2,
                programs=("treeadd",),
            ),
            self_host=True,
            output=str(out),
        )
        summary = result["summary"]
        assert summary["total_ok"] == 8
        assert summary["total_failed"] == 0
        assert summary["levels"] == [1, 2]
        # one full metric set per level
        by_level = {}
        for sample in result["samples"]:
            by_level.setdefault(
                sample["metadata"]["concurrency"], set()
            ).add(sample["metric"])
            assert set(sample) == {
                "metric", "value", "unit", "timestamp", "metadata",
            }
            assert sample["metadata"]["corpus"] == "olden"
            assert sample["metadata"]["tenants"] == 2
        assert by_level == {1: EXPECTED_METRICS, 2: EXPECTED_METRICS}
        # the artifact on disk publishes the same samples
        written = json.loads(out.read_text())["samples"]
        assert [{k: v for k, v in entry.items() if k != "family"}
                for entry in written] == result["samples"]

    def test_report_is_schema_versioned_with_host_metadata(self, tmp_path):
        from repro.bench.pkb import SCHEMA_VERSION, load_report

        out = tmp_path / "loadgen.json"
        run_loadgen(
            LoadgenConfig(
                levels=(1,), requests_per_level=2, programs=("treeadd",)
            ),
            self_host=True,
            output=str(out),
        )
        report = load_report(str(out))
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["host"]["cpu_count"] >= 1
        assert report["families"]["serve_loadgen"]["samples"] == 7
        # the worker count resolves to a real number, never the old
        # string "auto" the unset cap used to publish as
        for sample in report["samples"]:
            assert sample["family"] == "serve_loadgen"
            workers = sample["metadata"]["workers"]
            assert isinstance(workers, int) and workers >= 1

    def test_each_level_is_stamped_when_it_completes(self):
        result = run_loadgen(
            LoadgenConfig(
                levels=(1, 2, 4),
                requests_per_level=3,
                programs=("treeadd",),
            ),
            self_host=True,
        )
        stamps = {}
        for sample in result["samples"]:
            level = sample["metadata"]["concurrency"]
            stamps.setdefault(level, set()).add(sample["timestamp"])
        # one shared stamp within a level, distinct stamps across levels
        assert all(len(s) == 1 for s in stamps.values())
        ordered = [next(iter(stamps[level])) for level in (1, 2, 4)]
        assert ordered[0] < ordered[1] < ordered[2]

    def test_sweep_reports_rejections_not_failures_under_overload(self):
        # a deliberately starved daemon: one slot, no waiting room — every
        # concurrent surplus request must come back 429, never an error
        result = run_loadgen(
            LoadgenConfig(
                levels=(4,), requests_per_level=8, programs=("treeadd",)
            ),
            self_host=True,
            server_config=ServerConfig(max_concurrency=1, max_pending=0),
        )
        summary = result["summary"]
        assert summary["total_failed"] == 0
        assert summary["total_ok"] >= 1
        assert summary["total_ok"] + summary["total_rejected"] == 8


#: a corpus program with a character outside Latin-1 in a comment
ARROW_PROGRAM = """// counts up to n \u2192 returns n
class Box extends Object { int v; }
int main(int n) { Box b = new Box(n); b.v }
"""


class TestNonLatin1Corpus(object):
    def test_corpus_with_non_latin1_characters_is_served(self, tmp_path):
        (tmp_path / "arrow.cj").write_text(ARROW_PROGRAM, encoding="utf-8")
        result = run_loadgen(
            LoadgenConfig(
                levels=(1,), requests_per_level=2, corpus_dir=str(tmp_path)
            ),
            self_host=True,
        )
        summary = result["summary"]
        assert summary["total_ok"] == 2
        assert summary["total_failed"] == 0

    def test_request_body_goes_out_as_utf8_bytes(self):
        class RecordingConnection(object):
            def request(self, method, url, body=None, headers=None):
                self.body = body

            def getresponse(self):
                class Response(object):
                    status = 200

                    def read(self):
                        return b"{}"

                return Response()

        conn = RecordingConnection()
        report = LevelReport(concurrency=1)
        worker = _Worker(
            LoadgenConfig(), [], threading.Lock(), report, threading.Lock()
        )
        worker._one(conn, "arrow", ARROW_PROGRAM, "tenant-0")
        assert isinstance(conn.body, bytes)
        assert json.loads(conn.body.decode("utf-8"))["source"] == ARROW_PROGRAM
        assert report.ok == 1
