"""Closed-loop load generator for the :mod:`repro.serve` daemon.

Drives ``POST /v1/infer`` with the Olden corpus over a sweep of
concurrency levels and reports PKB-style samples.  Closed loop: each of
``concurrency`` worker threads holds one keep-alive HTTP connection and
issues its next request the moment the previous response lands, so
offered load tracks service capacity instead of overrunning it — the
sweep explores *saturation*, and any 429s it provokes at high
concurrency are the admission controller doing its job, counted
separately from failures.

Each sample is a flat JSON object, stamped when its level's measurement
completes::

    {"metric": "latency_p99", "value": 812.4, "unit": "ms",
     "timestamp": 1754560000.0,
     "metadata": {"corpus": "olden", "tenants": 2, "workers": 4,
                  "concurrency": 8}}

Per level: ``latency_p50`` / ``latency_p99`` / ``latency_mean`` (ms),
``throughput`` (requests/s), ``requests_ok`` / ``requests_rejected`` /
``requests_failed`` (count).  The acceptance bar for the subsystem reads
straight off these: ``requests_failed`` must be zero at every level —
overload shows up as rejections, never as failures or hangs.

The sweep also runs under ``repro bench`` as the ``serve_loadgen``
family (see :mod:`repro.bench.families`), and the report written by
``--output`` is that family's samples in the one published layout
(:func:`repro.bench.pkb.publish`), so ``repro bench compare`` reads it
like any ``BENCH_<n>.json``.

``--self-host`` (the default for ``repro loadgen`` without ``--host``)
boots an in-process daemon on an ephemeral port first, which is what the
CI benchmark-smoke step uses.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench.olden import OLDEN_PROGRAMS

__all__ = [
    "LoadgenConfig",
    "LevelReport",
    "run_loadgen",
    "percentile",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class LoadgenConfig:
    """One sweep: where to aim, how hard, and with which programs."""

    host: str = "127.0.0.1"
    port: int = 8178
    #: concurrency levels to sweep, in order
    levels: Sequence[int] = (1, 2, 4, 8)
    #: requests issued per level (across all workers)
    requests_per_level: int = 24
    #: distinct tenants the generator cycles through
    tenants: int = 2
    #: program names to cycle through (all when empty); Olden names by
    #: default, file stems when ``corpus_dir`` is set
    programs: Sequence[str] = ()
    #: directory of ``*.cj`` programs (e.g. written by ``repro gen``) to
    #: drive instead of the built-in Olden corpus
    corpus_dir: Optional[str] = None
    #: per-request client-side timeout (seconds)
    timeout: float = 120.0
    endpoint: str = "/v1/infer"

    def corpus_label(self) -> str:
        """The ``corpus`` metadata field stamped on every sample."""
        return "generated" if self.corpus_dir else "olden"

    def corpus(self) -> List[Tuple[str, str]]:
        """The ``(name, source)`` work list the generator cycles through."""
        if self.corpus_dir is not None:
            return self._directory_corpus()
        names = list(self.programs) or sorted(OLDEN_PROGRAMS)
        corpus = []
        for name in names:
            if name not in OLDEN_PROGRAMS:
                raise ValueError(
                    f"unknown Olden program {name!r}; "
                    f"expected one of {sorted(OLDEN_PROGRAMS)}"
                )
            corpus.append((name, OLDEN_PROGRAMS[name].source))
        return corpus

    def _directory_corpus(self) -> List[Tuple[str, str]]:
        from pathlib import Path

        directory = Path(self.corpus_dir)
        members = {p.stem: p for p in sorted(directory.glob("*.cj"))}
        if not members:
            raise ValueError(f"no *.cj programs in corpus dir {directory}")
        names = list(self.programs) or sorted(members)
        corpus = []
        for name in names:
            if name not in members:
                raise ValueError(
                    f"unknown corpus program {name!r}; "
                    f"expected one of {sorted(members)}"
                )
            corpus.append((name, members[name].read_text(encoding="utf-8")))
        return corpus


@dataclass
class LevelReport:
    """What one concurrency level did."""

    concurrency: int
    ok: int = 0
    rejected: int = 0
    failed: int = 0
    elapsed: float = 0.0
    #: per-request wall latencies, seconds (successful requests only)
    latencies: List[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Completed-successfully requests per second for the level."""
        return self.ok / self.elapsed if self.elapsed > 0 else 0.0


class _Worker(threading.Thread):
    """One closed-loop client: a keep-alive connection draining a work list."""

    def __init__(
        self,
        config: LoadgenConfig,
        work: List[Tuple[str, str, str]],
        work_lock: threading.Lock,
        report: LevelReport,
        report_lock: threading.Lock,
    ):
        super().__init__(daemon=True)
        self._config = config
        self._work = work
        self._work_lock = work_lock
        self._report = report
        self._report_lock = report_lock

    def run(self) -> None:
        conn = http.client.HTTPConnection(
            self._config.host, self._config.port, timeout=self._config.timeout
        )
        try:
            while True:
                with self._work_lock:
                    if not self._work:
                        return
                    name, source, tenant = self._work.pop()
                self._one(conn, name, source, tenant)
        finally:
            conn.close()

    def _one(
        self,
        conn: http.client.HTTPConnection,
        name: str,
        source: str,
        tenant: str,
    ) -> None:
        # bytes, not str: http.client encodes a str body as Latin-1
        body = json.dumps({"source": source, "tenant": tenant}).encode("utf-8")
        started = time.monotonic()
        try:
            conn.request(
                "POST",
                self._config.endpoint,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()  # drain so the connection stays reusable
            status = response.status
        except (OSError, http.client.HTTPException):
            # connection-level trouble: count it and start a fresh socket
            conn.close()
            with self._report_lock:
                self._report.failed += 1
            return
        latency = time.monotonic() - started
        with self._report_lock:
            if status == 200:
                self._report.ok += 1
                self._report.latencies.append(latency)
            elif status == 429:
                self._report.rejected += 1
            else:
                self._report.failed += 1


def _run_level(config: LoadgenConfig, concurrency: int) -> LevelReport:
    corpus = config.corpus()
    work: List[Tuple[str, str, str]] = []
    for i in range(config.requests_per_level):
        name, source = corpus[i % len(corpus)]
        tenant = f"tenant-{i % max(config.tenants, 1)}"
        work.append((name, source, tenant))
    report = LevelReport(concurrency=concurrency)
    work_lock, report_lock = threading.Lock(), threading.Lock()
    workers = [
        _Worker(config, work, work_lock, report, report_lock)
        for _ in range(concurrency)
    ]
    started = time.monotonic()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    report.elapsed = time.monotonic() - started
    return report


def _samples_for(
    report: LevelReport, metadata: Dict[str, Any]
) -> List[Dict[str, Any]]:
    # stamped here, when this level's measurement completes — a shared
    # file-level timestamp would lie about when each number was taken
    stamp = time.time()
    meta = dict(metadata, concurrency=report.concurrency)
    ms = [s * 1000.0 for s in report.latencies]

    def sample(metric: str, value: float, unit: str) -> Dict[str, Any]:
        return {
            "metric": metric,
            "value": round(value, 3),
            "unit": unit,
            "timestamp": stamp,
            "metadata": meta,
        }

    return [
        sample("latency_p50", percentile(ms, 0.50), "ms"),
        sample("latency_p99", percentile(ms, 0.99), "ms"),
        sample("latency_mean", sum(ms) / len(ms) if ms else 0.0, "ms"),
        sample("throughput", report.throughput, "requests/s"),
        sample("requests_ok", report.ok, "count"),
        sample("requests_rejected", report.rejected, "count"),
        sample("requests_failed", report.failed, "count"),
    ]


def run_loadgen(
    config: Optional[LoadgenConfig] = None,
    *,
    self_host: bool = False,
    server_config: Optional[Any] = None,
    output: Optional[str] = None,
) -> Dict[str, Any]:
    """Sweep the configured concurrency levels; return samples and summary.

    With ``self_host=True`` an in-process daemon is booted on an ephemeral
    port first (``server_config`` customises it) and drained afterwards —
    no external process needed.  ``output`` publishes the samples there
    as a one-family ``serve_loadgen`` report.
    """
    config = config or LoadgenConfig()
    started = time.monotonic()
    server = None
    server_thread = None
    if self_host:
        from .router import ServerConfig
        from .server import make_server

        base = server_config or ServerConfig()
        base.host, base.port, base.quiet = config.host, 0, True
        server = make_server(base)
        config.port = server.port
        server_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="loadgen-server",
        )
        server_thread.start()
    samples: List[Dict[str, Any]] = []
    reports: List[LevelReport] = []
    metadata = {
        "corpus": config.corpus_label(),
        "tenants": config.tenants,
        "workers": _server_workers(config, server),
    }
    try:
        for level in config.levels:
            report = _run_level(config, level)
            reports.append(report)
            samples.extend(_samples_for(report, metadata))
    finally:
        if server is not None:
            server.shutdown()
            server_thread.join()
            server.close()
    if output:
        from ..bench.families import get_spec
        from ..bench.pkb import FamilyRun, Sample, publish

        run = FamilyRun(
            spec=get_spec("serve_loadgen"),
            samples=[Sample.from_dict(s) for s in samples],
            stages=[],
            elapsed=time.monotonic() - started,
            smoke=False,
        )
        publish([run], output)
    return {
        "samples": samples,
        "summary": {
            "levels": [r.concurrency for r in reports],
            "total_ok": sum(r.ok for r in reports),
            "total_rejected": sum(r.rejected for r in reports),
            "total_failed": sum(r.failed for r in reports),
        },
    }


def _server_workers(config: LoadgenConfig, server: Optional[Any]) -> int:
    """Worker-count metadata for the samples: requests served at once.

    The daemon runs each admitted request inline in its handler thread,
    so its worker count is its admission concurrency.  ``0`` means
    unknown — an external daemon whose configuration the client cannot
    see.
    """
    if server is None:
        return 0
    return server.router.config.resolved_concurrency()
