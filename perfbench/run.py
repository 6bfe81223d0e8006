"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload batch_check --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is imported
from ``src/``.  Set-up (input generation from ``--seed``, reference
outputs, daemon boot, warm-up) runs :data:`~workloads.SETUP_REPEATS`
times; then operations are timed for ``--seconds`` and every output is
checked against its reference.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`).
``--trace 1`` traces every other block of operations, writes the spans
to ``.perfbench_out/`` and reports the per-layer metrics
(:data:`PER_LAYER`, :data:`RUN_LEVEL`).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    from workloads import SETUP_REPEATS, WORKLOADS, Phase, Workload
except ImportError as err:
    sys.exit(f"perfbench: cannot import the program under test from {ROOT / 'src'}: {err}")

from spans import Recorder, percentile, self_times

#: operations an untraced run times at least, so p90 has ten samples beyond it
MIN_OPS = 100

#: end-to-end metric -> unit (``--trace 0``)
END_TO_END = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: per-layer metric -> (per-operation value it is the median of, unit)
PER_LAYER = {
    "frontend.lex_ms": ("frontend.lex", "ms"),
    "frontend.parse_ms": ("frontend.parse", "ms"),
    "frontend.tokens": ("frontend.tokens", "count"),
    "typing.check_ms": ("typing.check", "ms"),
    "core.annotate_ms": ("core.annotate", "ms"),
    "core.infer_ms": ("core.infer", "ms"),
    "core.sccs": ("core.sccs", "count"),
    "core.fixpoint_iterations": ("core.fixpoint_iterations", "count"),
    "core.localized_regions": ("core.localized_regions", "count"),
    "core.reinfer_ms": ("core.reinfer", "ms"),
    "core.depgraph_ms": ("core.depgraph", "ms"),
    "core.scc_reuse_ratio": ("core.scc_reuse_ratio", "ratio"),
    "checking.verify_ms": ("checking.verify", "ms"),
    "runtime.execute_ms": ("runtime.execute", "ms"),
    "lang.pretty_ms": ("lang.pretty", "ms"),
    "api.cache_sizing_ms": ("api.cache_sizing", "ms"),
    "api.pool_overhead_ms": ("api.pool_overhead", "ms"),
    "serve.router_ms": ("serve.router", "ms"),
    "serve.http_ms": ("serve.http", "ms"),
    "serve.admission_wait_ms": ("serve.admission_wait", "ms"),
}

#: per-layer metrics measured once per run rather than per operation
RUN_LEVEL = {
    "api.cache_hit_ratio": "ratio",
    "api.cache_bytes": "bytes",
    "gen.generate_ms": "ms",
    "trace_overhead": "ratio",
    "trace_coverage": "ratio",
}


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setups: Sequence[float]) -> Dict[str, Dict[str, object]]:
    latencies_ms = [s * 1000.0 for s in phase.latencies()]
    values = {
        "ops_per_s": len(latencies_ms) / phase.busy,
        "p50_ms": percentile(latencies_ms, 50),
        "p90_ms": percentile(latencies_ms, 90),
        "ok_share": 1.0 - phase.failed / len(latencies_ms),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(
    workload: Workload, rec: Recorder, phase: Phase, run_level: Dict[str, float]
) -> Dict[str, Dict[str, object]]:
    per_op = workload.layer_values(rec)
    metrics = {}
    for name, (key, unit) in PER_LAYER.items():
        # the median over the operations that reached the layer; 0 when
        # the workload bypasses it
        present = [layers[key] for layers in per_op.values() if key in layers]
        metrics[name] = _metric(statistics.median(present) if present else 0.0, unit)
    # the share of operation wall time inside layer spans; what is left
    # is the root's own time (serve_mixed reports it as serve.http_ms)
    roots = [
        (span.duration, own)
        for span, own in zip(rec.spans, self_times(rec.spans))
        if span.name == "op"
    ]
    run_level = dict(
        run_level,
        **{
            "gen.generate_ms": 1000.0 * statistics.median(workload.generate_seconds),
            "trace_overhead": percentile(phase.latencies(traced=True), 50)
            / percentile(phase.latencies(traced=False), 50),
            "trace_coverage": 1.0 - sum(own for _, own in roots)
            / sum(duration for duration, _ in roots),
        },
    )
    for name, unit in RUN_LEVEL.items():
        metrics[name] = _metric(run_level.get(name, 0.0), unit)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    try:
        setups = []
        for k in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup_slice(k)
            setups.append(time.perf_counter() - start)
            workload.retire_slice(k, last=k == SETUP_REPEATS - 1)
        if not args.trace:
            phase = workload.measure(args.seconds, MIN_OPS)
            metrics = end_to_end(phase, setups)
        else:
            rec = Recorder()
            workload.trace(rec)
            phase = workload.measure(args.seconds, MIN_OPS, rec)
            metrics = per_layer(workload, rec, phase, workload.finish_trace(rec))
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            rec.dump(str(out / f"trace-{args.workload}-{args.seed}.json"))
    finally:
        workload.close()

    print(
        json.dumps(
            {
                "correct": phase.failed == 0,
                "attempted": len(phase.intervals),
                "failed": phase.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
