"""The staged sample-publishing subsystem behind ``repro bench``.

Modeled on PerfKitBenchmarker's runner: a benchmark *family* is a
:class:`BenchmarkSpec` with four stages (provision -> prepare -> run ->
teardown) whose run stage emits metadata-rich, individually timestamped
:class:`Sample`\\ s.  The :class:`Runner` drives the stages (teardown is
guaranteed once provisioning succeeded, even when run blows up),
:func:`publish` collects every family's samples into the next
schema-versioned ``BENCH_<n>.json`` with host metadata, and
:func:`compare` diffs two published files per metric with per-family
tolerance so CI can gate on regressions instead of hard-coded ratios.

Three ideas keep the numbers honest:

* **min-of-rounds timing** — :func:`best_of` / :func:`interleaved_best`
  report the minimum over several rounds, the estimator least sensitive
  to scheduler noise; speedup ratios are the :func:`median_ratio` of
  per-pair ratios instead;
* **interleaved baseline/candidate execution** — both sides of a ratio
  are measured back to back *within each round*, so transient machine
  load degrades both alike instead of sinking one side;
* **host-aware comparison** — absolute wall-clock metrics gate only when
  the two files were published on the same host; machine-portable
  metrics (speedup ratios, scaling exponents) gate everywhere.

``schema_version`` 1 file layout::

    {"schema_version": 1, "suite": "repro-bench",
     "host": {"cpu_count": 8, "affinity": 8, "python": "3.11.7",
              "platform": "Linux-..."},
     "smoke": false,
     "samples": [{"family": "solver_scaling", "metric": "...",
                  "value": 1.23, "unit": "ms", "timestamp": 1754...,
                  "metadata": {...}}, ...],
     "families": {"solver_scaling": {"samples": 12, "elapsed_s": 1.9}}}

This is the only layout :func:`load_report` reads: :func:`publish`
writes it, and a file without a ``schema_version`` 1 is rejected with a
:class:`ValueError`.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..obs import available_cpus

__all__ = [
    "SCHEMA_VERSION",
    "Sample",
    "sample",
    "Threshold",
    "MetricRule",
    "BenchmarkSpec",
    "RunContext",
    "FamilyRun",
    "StageTiming",
    "Runner",
    "BenchmarkError",
    "best_of",
    "interleaved_best",
    "interleaved_pairs",
    "median_ratio",
    "host_metadata",
    "publish",
    "next_bench_path",
    "load_report",
    "compare",
    "Comparison",
    "MetricDiff",
    "format_comparison",
]

SCHEMA_VERSION = 1

#: outcome severities, mildest first; anything >= REGRESS fails a compare
OUTCOMES = ("improved", "pass", "new", "missing", "warn", "regress")


class BenchmarkError(RuntimeError):
    """A benchmark stage failed; carries the stage name for blame."""

    def __init__(self, family: str, stage: str, cause: BaseException):
        super().__init__(f"{family}: {stage} stage failed: {cause!r}")
        self.family = family
        self.stage = stage
        self.cause = cause


# --------------------------------------------------------------- samples
@dataclass(frozen=True)
class Sample:
    """One measurement: metric, value, unit, when, and under what.

    ``metadata`` carries everything needed to interpret and match the
    value across published files — corpus, program, mode, cache
    state, sizes.  Values are plain JSON scalars so samples round-trip
    through ``json`` losslessly (see :meth:`to_dict`/:meth:`from_dict`).
    """

    metric: str
    value: float
    unit: str
    timestamp: float
    metadata: Tuple[Tuple[str, Any], ...] = ()

    def meta(self) -> Dict[str, Any]:
        return dict(self.metadata)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "value": self.value,
            "unit": self.unit,
            "timestamp": self.timestamp,
            "metadata": self.meta(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Sample":
        return cls(
            metric=payload["metric"],
            value=payload["value"],
            unit=payload["unit"],
            timestamp=payload["timestamp"],
            metadata=tuple(sorted(dict(payload.get("metadata", {})).items())),
        )


def sample(
    metric: str, value: float, unit: str, metadata: Optional[Mapping[str, Any]] = None
) -> Sample:
    """A :class:`Sample` stamped *now* — call it when the measurement
    completes, never earlier (a file-level timestamp lies about when
    each number was taken)."""
    return Sample(
        metric=metric,
        value=round(float(value), 6),
        unit=unit,
        timestamp=time.time(),
        metadata=tuple(sorted(dict(metadata or {}).items())),
    )


def host_metadata() -> Dict[str, Any]:
    """Who measured: cpu count, scheduler affinity, python, platform."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "affinity": available_cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------- timing
def best_of(fn: Callable[[], Any], rounds: int = 3) -> float:
    """Min-of-rounds wall-clock seconds for ``fn``."""
    best = float("inf")
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def interleaved_pairs(
    baseline: Callable[[], Any],
    candidate: Callable[[], Any],
    pairs: int = 3,
) -> List[Tuple[float, float]]:
    """Wall-clock seconds of ``pairs`` back-to-back (baseline, candidate) runs.

    Interleaving means transient machine load (CI neighbours, the rest
    of the suite) degrades both sides of a pair alike instead of sinking
    one side of the ratio.
    """
    timings = []
    for _ in range(max(1, pairs)):
        t0 = time.perf_counter()
        baseline()
        t1 = time.perf_counter()
        candidate()
        t2 = time.perf_counter()
        timings.append((t1 - t0, t2 - t1))
    return timings


def interleaved_best(
    baseline: Callable[[], Any],
    candidate: Callable[[], Any],
    rounds: int = 3,
) -> Tuple[float, float]:
    """Min-of-rounds for both sides of :func:`interleaved_pairs`.

    Returns ``(baseline_s, candidate_s)``.
    """
    timings = interleaved_pairs(baseline, candidate, rounds)
    return min(b for b, _ in timings), min(c for _, c in timings)


def median_ratio(timings: Sequence[Tuple[float, float]]) -> float:
    """Median over :func:`interleaved_pairs` of ``baseline / candidate``.

    The speedup estimator for ratio gates: a load spike that lands on
    one side of one pair skews only that pair's ratio, where a ratio of
    two minimums moves whenever either side's best run was disturbed.
    """
    return statistics.median(b / c for b, c in timings)


# ----------------------------------------------------------------- specs
@dataclass(frozen=True)
class Threshold:
    """A floor/ceiling a family declares on one of its metrics.

    Enforced whenever the family runs: by ``repro bench run|publish``
    and by the tier-1 registry test, which both read
    :attr:`FamilyRun.violations`, so the CLI and the test suite can
    never disagree about the bar.  ``full_only`` skips the check in
    smoke runs, for a metric only a full-size run emits.
    """

    metric: str
    floor: Optional[float] = None
    ceiling: Optional[float] = None
    full_only: bool = False

    def applicable(self, smoke: bool = False) -> bool:
        return not (smoke and self.full_only)

    def violations(self, samples: Sequence[Sample]) -> List[str]:
        """Human-readable violations of this threshold over ``samples``."""
        out = []
        for s in samples:
            if s.metric != self.metric:
                continue
            if self.floor is not None and s.value < self.floor:
                out.append(
                    f"{self.metric} = {s.value:g} {s.unit} "
                    f"below floor {self.floor:g} ({s.meta()})"
                )
            if self.ceiling is not None and s.value > self.ceiling:
                out.append(
                    f"{self.metric} = {s.value:g} {s.unit} "
                    f"above ceiling {self.ceiling:g} ({s.meta()})"
                )
        return out


@dataclass(frozen=True)
class MetricRule:
    """How :func:`compare` judges one metric of a family.

    ``direction`` says which way is better; ``tolerance`` is the
    relative worsening that regresses (0.5 = candidate may be up to 50%
    worse), ``warn_tolerance`` (default: half of it) the band that only
    warns.  ``min_delta`` is a noise floor in the metric's own unit: an
    absolute change smaller than it always passes, so relative
    tolerances cannot flag scheduler jitter on millisecond-scale
    samples.  ``portable`` metrics — ratios, scaling exponents — gate even
    when the two files come from different hosts; absolute wall-clock
    metrics only gate same-host, and downgrade to warnings otherwise.
    """

    direction: str = "lower"  # "lower" | "higher" | "info"
    tolerance: float = 0.5
    warn_tolerance: Optional[float] = None
    min_delta: float = 0.0
    portable: bool = False

    @property
    def warn_at(self) -> float:
        if self.warn_tolerance is not None:
            return self.warn_tolerance
        return self.tolerance / 2.0


#: default comparison rule per sample unit, for metrics a spec does not
#: name explicitly; counts and ratios are informational unless a spec
#: says otherwise (e.g. gen_scaling gates its scaling exponents)
DEFAULT_UNIT_RULES: Dict[str, MetricRule] = {
    "ms": MetricRule(direction="lower", tolerance=0.5, min_delta=1.0),
    "s": MetricRule(direction="lower", tolerance=0.5, min_delta=0.05),
    "seconds": MetricRule(direction="lower", tolerance=0.5, min_delta=0.05),
    "x": MetricRule(direction="higher", tolerance=0.5, portable=True),
    "count": MetricRule(direction="info"),
    "ratio": MetricRule(direction="info"),
    "lines": MetricRule(direction="info"),
}


@dataclass
class RunContext:
    """What a spec's stages see: the smoke flag and shared stage state."""

    smoke: bool = False
    state: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkSpec:
    """One registered benchmark family.

    ``run`` is the only mandatory stage and returns the family's
    samples; ``provision``/``prepare`` build expensive state into
    ``ctx.state`` (corpora, warmed sessions, a booted daemon) and
    ``teardown`` releases it.  ``key_fields`` name the metadata keys
    that identify a sample across published files (sizes, corpus,
    concurrency — *not* host-varying facts like worker counts).
    """

    name: str
    description: str
    run: Callable[[RunContext], List[Sample]]
    provision: Optional[Callable[[RunContext], None]] = None
    prepare: Optional[Callable[[RunContext], None]] = None
    teardown: Optional[Callable[[RunContext], None]] = None
    key_fields: Tuple[str, ...] = ()
    thresholds: Tuple[Threshold, ...] = ()
    rules: Mapping[str, MetricRule] = field(default_factory=dict)

    def threshold(self, metric: str) -> Threshold:
        """The declared threshold for ``metric`` (KeyError when absent)."""
        for t in self.thresholds:
            if t.metric == metric:
                return t
        raise KeyError(f"{self.name} declares no threshold on {metric!r}")

    def rule_for(self, metric: str, unit: str) -> MetricRule:
        if metric in self.rules:
            return self.rules[metric]
        return DEFAULT_UNIT_RULES.get(unit, MetricRule(direction="info"))

    def check_thresholds(
        self,
        samples: Sequence[Sample],
        smoke: bool = False,
    ) -> List[str]:
        """Violations of every applicable threshold over ``samples``.

        An applicable threshold whose metric has no sample is itself a
        violation: a renamed or dropped metric must not turn its gate
        into a silent pass.
        """
        out: List[str] = []
        for t in self.thresholds:
            if not t.applicable(smoke):
                continue
            if not any(s.metric == t.metric for s in samples):
                out.append(f"{t.metric}: no sample to check the threshold on")
            out.extend(t.violations(samples))
        return out


# ---------------------------------------------------------------- runner
@dataclass(frozen=True)
class StageTiming:
    stage: str
    seconds: float
    ok: bool


@dataclass
class FamilyRun:
    """One family's staged execution: its samples and per-stage timing."""

    spec: BenchmarkSpec
    samples: List[Sample]
    stages: List[StageTiming]
    elapsed: float
    smoke: bool

    @property
    def violations(self) -> List[str]:
        return self.spec.check_thresholds(self.samples, smoke=self.smoke)


class Runner:
    """Drives a spec through provision -> prepare -> run -> teardown.

    Teardown is guaranteed once provisioning succeeded — a prepare or
    run failure still releases whatever provision built (a daemon on a
    port) before the :class:`BenchmarkError` propagates.
    """

    def run(self, spec: BenchmarkSpec, *, smoke: bool = False) -> FamilyRun:
        ctx = RunContext(smoke=smoke)
        stages: List[StageTiming] = []
        samples: List[Sample] = []
        started = time.perf_counter()

        def stage(name: str, fn: Optional[Callable[[RunContext], Any]]) -> Any:
            if fn is None:
                return None
            t0 = time.perf_counter()
            try:
                result = fn(ctx)
            except Exception as err:
                stages.append(
                    StageTiming(name, time.perf_counter() - t0, ok=False)
                )
                raise BenchmarkError(spec.name, name, err) from err
            stages.append(StageTiming(name, time.perf_counter() - t0, ok=True))
            return result

        stage("provision", spec.provision)
        body_error: Optional[BaseException] = None
        try:
            stage("prepare", spec.prepare)
            samples = list(stage("run", spec.run) or [])
        except BaseException as err:
            body_error = err
            raise
        finally:
            # provision succeeded if we got here; teardown must run even
            # when prepare/run raised — but its own failure must not mask
            # a failure already propagating out of run
            try:
                stage("teardown", spec.teardown)
            except BenchmarkError:
                if body_error is None:
                    raise
        return FamilyRun(
            spec=spec,
            samples=samples,
            stages=stages,
            elapsed=time.perf_counter() - started,
            smoke=smoke,
        )


# --------------------------------------------------------------- publish
_BENCH_FILE = re.compile(r"BENCH_(\d+)\.json$")


def next_bench_path(directory: str = ".") -> Path:
    """The next unclaimed ``BENCH_<n>.json`` in ``directory``."""
    highest = 0
    for entry in Path(directory).glob("BENCH_*.json"):
        match = _BENCH_FILE.match(entry.name)
        if match:
            highest = max(highest, int(match.group(1)))
    return Path(directory) / f"BENCH_{highest + 1}.json"


def publish(
    runs: Sequence[FamilyRun],
    output: Optional[str] = None,
    *,
    smoke: bool = False,
) -> Dict[str, Any]:
    """Shape (and optionally write) the multi-family published report."""
    report: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "suite": "repro-bench",
        "host": host_metadata(),
        "smoke": smoke,
        "samples": [
            {"family": run.spec.name, **s.to_dict()}
            for run in runs
            for s in run.samples
        ],
        "families": {
            run.spec.name: {
                "samples": len(run.samples),
                "elapsed_s": round(run.elapsed, 3),
                "stages": {
                    st.stage: round(st.seconds, 3) for st in run.stages
                },
            }
            for run in runs
        },
    }
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def load_report(path: str) -> Dict[str, Any]:
    """Load a published file; reject anything but the schema-1 layout."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: not a schema_version {SCHEMA_VERSION} benchmark "
            f"report (schema_version: {version!r}); re-publish it with "
            "`repro bench publish`"
        )
    return payload


# --------------------------------------------------------------- compare
@dataclass(frozen=True)
class MetricDiff:
    """One compared metric: where it came from and what happened."""

    family: str
    metric: str
    key: Tuple[Tuple[str, Any], ...]
    outcome: str  # one of OUTCOMES
    baseline: Optional[float] = None
    candidate: Optional[float] = None
    unit: str = ""
    note: str = ""

    @property
    def change(self) -> Optional[float]:
        """Relative change candidate vs baseline (sign per raw values)."""
        if self.baseline in (None, 0) or self.candidate is None:
            return None
        return (self.candidate - self.baseline) / abs(self.baseline)


@dataclass
class Comparison:
    """The full diff of two published files."""

    baseline: str
    candidate: str
    same_host: bool
    diffs: List[MetricDiff]

    @property
    def regressions(self) -> List[MetricDiff]:
        return [d for d in self.diffs if d.outcome == "regress"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def counts(self) -> Dict[str, int]:
        out = {outcome: 0 for outcome in OUTCOMES}
        for d in self.diffs:
            out[d.outcome] += 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "same_host": self.same_host,
            "counts": self.counts(),
            "diffs": [
                {
                    "family": d.family,
                    "metric": d.metric,
                    "key": dict(d.key),
                    "outcome": d.outcome,
                    "baseline": d.baseline,
                    "candidate": d.candidate,
                    "unit": d.unit,
                    "note": d.note,
                }
                for d in self.diffs
            ],
        }


def _sample_key(
    entry: Mapping[str, Any], key_fields: Sequence[str]
) -> Tuple[Tuple[str, Any], ...]:
    metadata = dict(entry.get("metadata", {}))
    if key_fields:
        items = [(k, metadata[k]) for k in key_fields if k in metadata]
    else:
        items = sorted(metadata.items())
    return tuple(items)


def _index_samples(
    report: Mapping[str, Any],
    specs: Mapping[str, BenchmarkSpec],
) -> Dict[Tuple[str, str, Tuple[Tuple[str, Any], ...]], Dict[str, Any]]:
    """(family, metric, key) -> best sample, per the metric's direction."""
    indexed: Dict[Tuple[str, str, Tuple[Tuple[str, Any], ...]], Dict[str, Any]] = {}
    for entry in report.get("samples", []):
        family = entry.get("family", report.get("suite", "unknown"))
        spec = specs.get(family)
        key_fields = spec.key_fields if spec is not None else ()
        key = (family, entry["metric"], _sample_key(entry, key_fields))
        prior = indexed.get(key)
        if prior is None:
            indexed[key] = dict(entry)
            continue
        rule = (
            spec.rule_for(entry["metric"], entry.get("unit", ""))
            if spec is not None
            else DEFAULT_UNIT_RULES.get(entry.get("unit", ""), MetricRule("info"))
        )
        better = (
            entry["value"] > prior["value"]
            if rule.direction == "higher"
            else entry["value"] < prior["value"]
        )
        if better:
            indexed[key] = dict(entry)
    return indexed


def _hosts_match(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """Conservative: absolute timings only gate on a provably-same host."""
    if not a or not b:
        return False
    return all(a.get(k) == b.get(k) for k in ("cpu_count", "platform", "python"))


def _worsening(rule: MetricRule, old: float, new: float) -> float:
    """Relative worsening of ``new`` vs ``old`` under the rule (<=0: not
    worse)."""
    if rule.direction == "higher":
        delta = old - new
    else:
        delta = new - old
    if old == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(old)


def compare(
    baseline_path: str,
    candidate_path: str,
    specs: Optional[Mapping[str, BenchmarkSpec]] = None,
) -> Comparison:
    """Diff two published files per metric with per-family tolerance.

    Outcomes per baseline metric: ``improved``/``pass`` (within the
    warn band), ``warn`` (worse than the warn band but inside the fail
    tolerance — or beyond it on a *different* host for a non-portable
    metric), ``regress`` (beyond tolerance and gated), ``missing`` (the
    candidate stopped publishing it).  Candidate-only metrics report as
    ``new``.  A comparison fails iff any metric regresses.
    """
    if specs is None:
        from .families import registered_specs

        specs = registered_specs()
    old_report = load_report(baseline_path)
    new_report = load_report(candidate_path)
    same_host = _hosts_match(
        old_report.get("host", {}), new_report.get("host", {})
    )
    old_index = _index_samples(old_report, specs)
    new_index = _index_samples(new_report, specs)
    diffs: List[MetricDiff] = []
    for key in sorted(old_index, key=repr):
        family, metric, sample_key = key
        old_entry = old_index[key]
        unit = old_entry.get("unit", "")
        new_entry = new_index.get(key)
        if new_entry is None:
            diffs.append(
                MetricDiff(
                    family,
                    metric,
                    sample_key,
                    "missing",
                    baseline=old_entry["value"],
                    unit=unit,
                    note="metric no longer published",
                )
            )
            continue
        spec = specs.get(family)
        rule = (
            spec.rule_for(metric, unit)
            if spec is not None
            else DEFAULT_UNIT_RULES.get(unit, MetricRule("info"))
        )
        old_value, new_value = old_entry["value"], new_entry["value"]
        if rule.direction == "info":
            diffs.append(
                MetricDiff(
                    family, metric, sample_key, "pass",
                    baseline=old_value, candidate=new_value, unit=unit,
                    note="informational",
                )
            )
            continue
        worse = _worsening(rule, old_value, new_value)
        gated = same_host or rule.portable
        if worse <= 0:
            outcome = "improved" if worse < 0 else "pass"
            note = ""
        elif abs(new_value - old_value) < rule.min_delta:
            outcome, note = "pass", (
                f"change below the {rule.min_delta:g}-{unit} noise floor"
            )
        elif worse <= rule.warn_at:
            outcome, note = "pass", "within warn tolerance"
        elif worse <= rule.tolerance:
            outcome, note = "warn", f"worse by {worse:.0%} (tolerance {rule.tolerance:.0%})"
        elif not gated:
            outcome = "warn"
            note = (
                f"worse by {worse:.0%}, beyond tolerance "
                f"{rule.tolerance:.0%}, but hosts differ and "
                f"{metric} is not machine-portable"
            )
        else:
            outcome, note = "regress", (
                f"worse by {worse:.0%}, beyond tolerance {rule.tolerance:.0%}"
            )
        diffs.append(
            MetricDiff(
                family, metric, sample_key, outcome,
                baseline=old_value, candidate=new_value, unit=unit, note=note,
            )
        )
    for key in sorted(set(new_index) - set(old_index), key=repr):
        family, metric, sample_key = key
        entry = new_index[key]
        diffs.append(
            MetricDiff(
                family, metric, sample_key, "new",
                candidate=entry["value"], unit=entry.get("unit", ""),
                note="not in baseline",
            )
        )
    return Comparison(
        baseline=baseline_path,
        candidate=candidate_path,
        same_host=same_host,
        diffs=diffs,
    )


def format_comparison(comparison: Comparison, *, verbose: bool = False) -> str:
    """A human-readable comparison summary (regressions always shown)."""
    counts = comparison.counts()
    lines = [
        f"compare {comparison.baseline} -> {comparison.candidate} "
        f"({'same host' if comparison.same_host else 'different hosts'}): "
        + ", ".join(f"{counts[o]} {o}" for o in OUTCOMES if counts[o])
    ]
    for d in comparison.diffs:
        if d.outcome in ("regress", "warn", "missing") or verbose:
            detail = ""
            if d.baseline is not None and d.candidate is not None:
                detail = f" {d.baseline:g} -> {d.candidate:g} {d.unit}"
            key = f" [{', '.join(f'{k}={v}' for k, v in d.key)}]" if d.key else ""
            note = f" ({d.note})" if d.note else ""
            lines.append(
                f"  {d.outcome.upper():8s} {d.family}.{d.metric}{key}{detail}{note}"
            )
    lines.append("PASS" if comparison.ok else "REGRESSION")
    return "\n".join(lines)
