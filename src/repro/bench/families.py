"""Every benchmark family, registered as a :class:`BenchmarkSpec`.

One catalog for everything the repo measures about itself: the solver
scaling families, the session amortisation claim, the
paper's fig8/fig9 tables and the incremental re-inference benchmark all
publish through the same staged runner (see :mod:`repro.bench.pkb` and
``docs/benchmarks.md``).

Each family declares

* ``smoke`` vs full parameter sets (smoke keeps the whole CI publish
  to seconds while still emitting at least one sample per family);
* ``key_fields`` — the metadata that identifies a sample across
  published files;
* ``thresholds`` — the floors and ceilings the repo's perf claims stand
  on, checked on every run: by ``repro bench run|publish`` and by the
  tier-1 test ``tests/bench/test_family_thresholds.py``, which runs
  every family here in smoke mode;
* ``rules`` — how ``repro bench compare`` judges each metric.

The ``measure_*`` functions are the measurement kernels the specs' run
stages build samples from.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .pkb import (
    BenchmarkSpec,
    MetricRule,
    RunContext,
    Sample,
    Threshold,
    best_of,
    interleaved_best,
    interleaved_pairs,
    median_ratio,
    sample,
)

__all__ = [
    "register",
    "get_spec",
    "registered_specs",
    "family_names",
    "measure_close_project",
    "measure_session_sweep",
    "measure_reinfer",
    "measure_gen_pipeline",
    "measure_warm_heap",
    "CONSTRAINT_FAMILIES",
]

_REGISTRY: Dict[str, BenchmarkSpec] = {}


def register(spec: BenchmarkSpec) -> BenchmarkSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"benchmark family {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> BenchmarkSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark family {name!r}; "
            f"registered: {sorted(_REGISTRY)}"
        ) from None


def registered_specs() -> Dict[str, BenchmarkSpec]:
    return dict(_REGISTRY)


def family_names() -> List[str]:
    return sorted(_REGISTRY)


# =====================================================================
# solver_scaling: synthetic constraint families through the region solver
# =====================================================================
def _chain(n):
    from ..regions import Constraint, Outlives, Region

    regions = Region.fresh_many(n + 1)
    atoms = [Outlives(a, b) for a, b in zip(regions, regions[1:])]
    return regions, Constraint.of(*atoms)


def _grid(side):
    from ..regions import Constraint, Outlives, Region

    cells = [[Region.fresh() for _ in range(side)] for _ in range(side)]
    atoms = []
    for y in range(side):
        for x in range(side):
            if x + 1 < side:
                atoms.append(Outlives(cells[y][x], cells[y][x + 1]))
            if y + 1 < side:
                atoms.append(Outlives(cells[y][x], cells[y + 1][x]))
    regions = [r for row in cells for r in row]
    return regions, Constraint.of(*atoms)


def _clique(n):
    from ..regions import Constraint, Outlives, Region

    regions = Region.fresh_many(n)
    atoms = [
        Outlives(a, b) for i, a in enumerate(regions) for b in regions[i + 1 :]
    ]
    atoms.append(Outlives(regions[-1], regions[0]))
    return regions, Constraint.of(*atoms)


#: shape name -> builder taking the *region count* (grids take the square
#: root so every shape is parameterised the same way)
CONSTRAINT_FAMILIES: Dict[str, Callable[[int], Any]] = {
    "chain": _chain,
    "grid": lambda n: _grid(max(2, int(n**0.5))),
    "clique": _clique,
}

#: (shape, regions) for the close+project hot path; cliques get their own
#: smaller sizes (edge count is quadratic in the region count)
CLOSE_PROJECT_FULL = [
    ("chain", 100), ("chain", 400), ("chain", 1000),
    ("grid", 100), ("grid", 400), ("grid", 1000),
    ("clique", 40), ("clique", 80), ("clique", 160),
]
CLOSE_PROJECT_SMOKE = [("chain", 100), ("grid", 100), ("clique", 40)]


def _interface(regions, k=16):
    stride = max(1, len(regions) // k)
    return list(regions)[::stride]


def measure_close_project(
    shape: str, n: int, rounds: int = 3
) -> Tuple[float, int]:
    """Min-of-rounds seconds for build + close + project on one family,
    and the family's atom count."""
    regions, constraint = CONSTRAINT_FAMILIES[shape](n)
    interface = _interface(regions)
    from ..regions import RegionSolver

    def run():
        solver = RegionSolver(constraint)
        solver.close()
        return solver.project(interface)

    return best_of(run, rounds), len(constraint.atoms)


def _solver_prepare(ctx: RunContext) -> None:
    ctx.state["cases"] = (
        CLOSE_PROJECT_SMOKE if ctx.smoke else CLOSE_PROJECT_FULL
    )
    ctx.state["rounds"] = 2 if ctx.smoke else 3


def _solver_run(ctx: RunContext) -> List[Sample]:
    samples: List[Sample] = []
    rounds = ctx.state["rounds"]
    curves: Dict[str, List[Tuple[int, float]]] = {}
    for shape, n in ctx.state["cases"]:
        seconds, atoms = measure_close_project(shape, n, rounds)
        curves.setdefault(shape, []).append((atoms, seconds))
        samples.append(
            sample(
                "close_project",
                seconds * 1000.0,
                "ms",
                {"shape": shape, "regions": n, "atoms": atoms, "rounds": rounds},
            )
        )
    if not ctx.smoke:
        # time against *atom* count, so one bound fits every shape: a
        # clique's atoms grow quadratically in its regions.  Full runs
        # only, as in gen_scaling: smoke has one size per shape.
        for shape, points in curves.items():
            samples.append(
                sample(
                    "close_project_scaling_exponent",
                    fit_loglog_exponent(points),
                    "exponent",
                    {
                        "shape": shape,
                        "atoms": ",".join(str(a) for a, _ in points),
                        "rounds": rounds,
                    },
                )
            )
    return samples


register(
    BenchmarkSpec(
        name="solver_scaling",
        description="Region-solver build+close+project time on synthetic "
        "chain/grid/clique constraint families, and its scaling exponent "
        "in the atom count",
        prepare=_solver_prepare,
        run=_solver_run,
        key_fields=("shape", "regions"),
        # Tarjan and the bitset sweep are near-linear in the atoms at
        # these sizes: 60 full runs on a 2-core host (half of them beside
        # a tier-1 run) fitted 0.52-1.25 per shape; a closure quadratic
        # in the regions would fit ~2 on the chain and grid
        thresholds=(
            Threshold("close_project_scaling_exponent", ceiling=1.5, full_only=True),
        ),
    )
)


# =====================================================================
# incremental_reinfer: SCC-granular re-inference vs from-scratch
# =====================================================================
#: single-site body edit: bisort's nextRandom multiplier
REINFER_EDIT = ("1103515245", "1103515246")
REINFER_CORPUS = "composite(bisort+em3d+health+mst)"
REINFER_EDIT_LABEL = "one method body (bisort.nextRandom)"


def measure_reinfer(
    pairs: int = 5,
    *,
    source: Optional[str] = None,
    edited: Optional[str] = None,
) -> Dict[str, Any]:
    """Edit-one-method: full inference vs SCC splice, interleaved.

    Defaults to the Olden composite corpus with its canonical
    single-literal edit; pass any ``(source, edited)`` version pair --
    e.g. two adjacent :func:`repro.gen.edit_script` versions -- to
    measure the same thing on a synthetic corpus.  The times are
    min-of-pairs; ``speedup`` is the median of the per-pair ratios.
    """
    from ..core import infer_source
    from ..core.infer import reinfer_program
    from ..frontend import parse_program
    from .composite import composite_source, tweak_method_body

    if (source is None) != (edited is None):
        raise ValueError("pass both of source/edited, or neither")
    if source is None:
        source = composite_source()
        edited = tweak_method_body(source, *REINFER_EDIT)
    prior = infer_source(source)
    program = parse_program(edited)
    result = reinfer_program(program, prior)
    timings = interleaved_pairs(
        lambda: infer_source(edited),
        lambda: reinfer_program(program, prior),
        pairs,
    )
    return {
        "full_s": min(full for full, _ in timings),
        "incremental_s": min(inc for _, inc in timings),
        "speedup": median_ratio(timings),
        "result": result,
        "pairs": len(timings),
    }


def _reinfer_run(ctx: RunContext) -> List[Sample]:
    measured = measure_reinfer(5 if ctx.smoke else 9)
    result = measured["result"]
    meta = {
        "corpus": REINFER_CORPUS,
        "edit": REINFER_EDIT_LABEL,
        "sccs_total": result.reused_sccs + result.reinferred_sccs,
        "sccs_reused": result.reused_sccs,
        "sccs_reinferred": result.reinferred_sccs,
        "pairs": measured["pairs"],
    }
    return [
        sample("full_infer", measured["full_s"] * 1000, "ms", meta),
        sample(
            "incremental_reinfer", measured["incremental_s"] * 1000, "ms", meta
        ),
        sample("speedup", measured["speedup"], "x", meta),
    ]


register(
    BenchmarkSpec(
        name="incremental_reinfer",
        description="Edit-one-method SCC-granular incremental re-inference "
        "vs from-scratch on the composite corpus",
        run=_reinfer_run,
        key_fields=("corpus", "edit"),
        # The floor is relative to from-scratch inference, so it moves
        # when the baseline does: footprint-proportional inference
        # (docs/scaling.md) roughly halved full_infer on this corpus,
        # compressing the edit-one-method ratio from ~8.5x to ~4.5x
        # with the incremental path itself unchanged.  3x still fails
        # loudly if splicing stops engaging (the ratio would collapse
        # to ~1x); the portable compare rule below gates drift.
        thresholds=(Threshold("speedup", floor=3.0),),
        rules={
            "speedup": MetricRule(
                direction="higher", tolerance=0.6, portable=True
            )
        },
    )
)


# =====================================================================
# gen_scaling: pipeline scaling curve over generated corpora
# =====================================================================
#: class counts swept by the scaling curve (``GenSpec.sized`` presets)
GEN_SCALING_FULL = (10, 25, 50, 100)
GEN_SCALING_SMOKE = (4, 12)
#: class count of the synthetic reinfer corpus per run kind
GEN_REINFER_CLASSES = {"smoke": 12, "full": 40}
GEN_SCALING_SEED = 0
#: class count of the warm-heap probe per run kind, and the pairs it takes
GEN_WARM_HEAP = {"smoke": (6, 3), "full": (20, 9)}
#: cached results the warm session holds
WARM_HEAP_CACHED = 30


def measure_gen_pipeline(
    classes: int, seed: int = GEN_SCALING_SEED, rounds: int = 2
) -> Dict[str, Any]:
    """Stage timings for one ``GenSpec.sized`` program.

    Generation, lexing and parse are timed once (cheap, deterministic;
    ``parse_s`` includes its own lexing); field-mode inference and the
    independent check of the last inferred target are each
    min-of-rounds, so the scaling exponents are fitted to the same kind
    of sample.
    """
    from ..checking import check_target
    from ..core import InferenceConfig, SubtypingMode, infer_program
    from ..frontend import parse_program
    from ..frontend.lexer import tokenize
    from ..gen import GenSpec, generate_source

    spec = GenSpec.sized(classes, seed=seed)
    start = time.perf_counter()
    source = generate_source(spec)
    generate_s = time.perf_counter() - start
    start = time.perf_counter()
    tokenize(source)
    lex_s = time.perf_counter() - start
    start = time.perf_counter()
    program = parse_program(source)
    parse_s = time.perf_counter() - start
    config = InferenceConfig(mode=SubtypingMode.FIELD)
    last: Dict[str, Any] = {}

    def run():
        last["result"] = infer_program(parse_program(source), config)

    infer_s = best_of(run, rounds)

    def verify():
        verdict = check_target(last["result"].target, mode="field")
        assert verdict.ok, [str(i) for i in verdict.issues[:3]]

    verify_s = best_of(verify, rounds)
    return {
        "classes": classes,
        "seed": seed,
        "lines": len(source.splitlines()),
        "methods": sum(len(c.methods) for c in program.classes)
        + len(program.statics),
        "generate_s": generate_s,
        "lex_s": lex_s,
        "parse_s": parse_s,
        "infer_s": infer_s,
        "verify_s": verify_s,
    }


def measure_warm_heap(
    classes: int,
    cached: int = WARM_HEAP_CACHED,
    pairs: int = 5,
    seed: int = GEN_SCALING_SEED,
) -> Dict[str, Any]:
    """Inference through a session holding ``cached`` results vs an empty one.

    Each pair infers the same never-seen ``GenSpec.sized(classes)``
    program first through a fresh, empty session, then through a session
    holding ``cached`` other results of the same size.  The warm session
    is filled (untimed) just before its run and dropped just after it, so
    the empty run has none of its results alive.  ``ratio`` is the median
    of the per-pair warm/empty ratios; ``gc_pause_ms`` is the collector's
    mean pause per warm inference (:class:`repro.obs.GcPauses`), and
    ``gc_pause_share`` those pauses over the warm inferences' summed time.
    """
    from ..api import Session
    from ..gen import GenSpec, generate_source
    from ..obs import GcPauses

    probe = generate_source(GenSpec.sized(classes, seed=seed))
    others = [
        generate_source(GenSpec.sized(classes, seed=seed + 1 + i))
        for i in range(cached)
    ]
    Session().infer(probe)  # untimed: imports and the first store
    pauses = GcPauses()
    timings: List[Tuple[float, float]] = []
    for i in range(max(1, pairs)):
        source = probe + f"\n// pair {i}\n"
        start = time.perf_counter()
        Session().infer(source)
        empty_s = time.perf_counter() - start
        warm = Session()
        for other in others:
            warm.infer(other)
        with pauses:
            start = time.perf_counter()
            warm.infer(source)
            warm_s = time.perf_counter() - start
        del warm
        timings.append((warm_s, empty_s))
    return {
        "cached": cached,
        "pairs": len(timings),
        "ratio": median_ratio(timings),
        "gc_pause_ms": pauses.pause_ms / len(timings),
        "gc_pause_share": pauses.pause_s / sum(warm for warm, _ in timings),
    }


def fit_loglog_exponent(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ``log(value)`` against ``log(size)``.

    For a curve ``t = c * n^k`` the fitted slope *is* ``k``: 1.0 means
    linear scaling, 2.0 quadratic.  Being a pure shape statistic it is
    host-independent, so the exponent can be gated as a *portable*
    metric where raw wall-clock comparisons must stay same-host.
    """
    import math

    if len(points) < 2:
        raise ValueError("need at least two points to fit an exponent")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(v) for _, v in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def _gen_prepare(ctx: RunContext) -> None:
    kind = "smoke" if ctx.smoke else "full"
    ctx.state["sizes"] = GEN_SCALING_SMOKE if ctx.smoke else GEN_SCALING_FULL
    # min-of-2 even in smoke: a single round can land on a load spike or
    # a young-generation collection (the reinfer and warm-heap ratios
    # take their own interleaved pairs)
    ctx.state["rounds"] = 2
    ctx.state["reinfer_classes"] = GEN_REINFER_CLASSES[kind]
    ctx.state["warm_heap"] = GEN_WARM_HEAP[kind]


def _gen_run(ctx: RunContext) -> List[Sample]:
    from ..gen import GenSpec, edit_script

    samples: List[Sample] = []
    rounds = ctx.state["rounds"]
    curve: List[Dict[str, Any]] = []
    for classes in ctx.state["sizes"]:
        measured = measure_gen_pipeline(classes, rounds=rounds)
        curve.append(measured)
        meta = {
            "corpus": "generated",
            "classes": classes,
            "seed": measured["seed"],
            "lines": measured["lines"],
            "methods": measured["methods"],
            "rounds": rounds,
        }
        for stage in ("generate", "lex", "parse", "infer", "verify"):
            samples.append(
                sample(stage, measured[f"{stage}_s"] * 1000.0, "ms", meta)
            )

    if not ctx.smoke:
        # the log-log slope over the full size sweep: a pure shape
        # statistic, so (unlike the per-size wall-clock samples) it is
        # portable across hosts and CI gates superlinearity directly.
        # Emitted at full sizes only: two tiny smoke sizes fit anything
        # from ~1.1 to ~2.1, so the exponent thresholds are full_only
        # and smoke compares see the samples as "missing", which never
        # fails a comparison.
        exp_meta = {
            "corpus": "generated",
            "seed": GEN_SCALING_SEED,
            "sizes": ",".join(str(m["classes"]) for m in curve),
            "rounds": rounds,
        }
        for stage in ("infer", "verify"):
            exponent = fit_loglog_exponent(
                [(m["classes"], m[f"{stage}_s"]) for m in curve]
            )
            samples.append(
                sample(
                    f"{stage}_scaling_exponent", exponent, "exponent", exp_meta
                )
            )

    classes = ctx.state["reinfer_classes"]
    versions = edit_script(GenSpec.sized(classes, seed=GEN_SCALING_SEED), 1)
    measured = measure_reinfer(5, source=versions[0], edited=versions[1])
    result = measured["result"]
    meta = {
        "corpus": "generated",
        "classes": classes,
        "seed": GEN_SCALING_SEED,
        "edit": "one body literal (edit_script)",
        "sccs_total": result.reused_sccs + result.reinferred_sccs,
        "sccs_reused": result.reused_sccs,
        "pairs": measured["pairs"],
    }
    samples.append(sample("gen_full_infer", measured["full_s"] * 1000, "ms", meta))
    samples.append(
        sample(
            "gen_incremental_reinfer", measured["incremental_s"] * 1000, "ms", meta
        )
    )
    samples.append(sample("gen_reinfer_speedup", measured["speedup"], "x", meta))

    classes, pairs = ctx.state["warm_heap"]
    measured = measure_warm_heap(classes, pairs=pairs)
    meta = {
        "corpus": "generated",
        "classes": classes,
        "seed": GEN_SCALING_SEED,
        "cached": measured["cached"],
        "pairs": measured["pairs"],
    }
    samples.append(sample("warm_heap_ratio", measured["ratio"], "x", meta))
    samples.append(sample("gc_pause_ms", measured["gc_pause_ms"], "ms", meta))
    samples.append(
        sample("gc_pause_share", measured["gc_pause_share"], "ratio", meta)
    )
    return samples


register(
    BenchmarkSpec(
        name="gen_scaling",
        description="Lex/parse/infer/verify scaling curve over GenSpec.sized "
        "generated corpora, plus edit-one-literal incremental re-inference "
        "on a synthetic corpus",
        prepare=_gen_prepare,
        run=_gen_run,
        key_fields=("corpus", "classes", "seed"),
        thresholds=(
            Threshold("gen_reinfer_speedup", floor=1.5),
            # near-linear scaling is the contract of footprint-scoped
            # inference; ~1.3 leaves headroom over the fitted ~1.2 while
            # rejecting any relapse toward the old quadratic curve.  Only
            # full runs fit the exponents (see _gen_run).
            Threshold("infer_scaling_exponent", ceiling=1.35, full_only=True),
            Threshold("verify_scaling_exponent", ceiling=1.35, full_only=True),
            # a session's cached results are frozen out of the cyclic
            # collector at each store, so holding 30 of them must not slow
            # the next inference.  Full runs only: three sized(6) pairs
            # are too few and too small to gate on
            Threshold("warm_heap_ratio", ceiling=1.1, full_only=True),
            # the median ratio skips the pairs a full collection lands on;
            # the collector's share of warm inference time sees every
            # pause, and re-walking 30 unfrozen results costs several
            # times this ceiling
            Threshold("gc_pause_share", ceiling=0.1, full_only=True),
        ),
        rules={
            "gen_reinfer_speedup": MetricRule(
                direction="higher", tolerance=0.6, portable=True
            ),
            "infer_scaling_exponent": MetricRule(
                direction="lower", tolerance=0.12, min_delta=0.05, portable=True
            ),
            "verify_scaling_exponent": MetricRule(
                direction="lower", tolerance=0.12, min_delta=0.05, portable=True
            ),
        },
    )
)


# =====================================================================
# session_reuse: cached ablation sweeps vs cold one-shot loops
# =====================================================================
def _sweep_configs():
    from ..core import InferenceConfig, SubtypingMode

    return (
        InferenceConfig(mode=SubtypingMode.NONE),
        InferenceConfig(mode=SubtypingMode.OBJECT),
        InferenceConfig(mode=SubtypingMode.FIELD),
        InferenceConfig(mode=SubtypingMode.FIELD, localize_blocks=False),
    )


def measure_session_sweep(rounds: int = 5) -> Dict[str, Any]:
    """The reynolds3 ablation sweep: per-config cold loop vs one session."""
    from ..api import Session
    from ..core import infer_source
    from .regjava import REGJAVA_PROGRAMS

    program = REGJAVA_PROGRAMS["reynolds3"]
    configs = _sweep_configs()

    def cold():
        return [infer_source(program.source, config) for config in configs]

    def swept():
        return Session().sweep(program.source, configs)

    cold_s, warm_s = interleaved_best(cold, swept, rounds)
    return {
        "program": "reynolds3",
        "configs": len(configs),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
    }


def _session_run(ctx: RunContext) -> List[Sample]:
    # min-of-5 in smoke too: the ratio sits only ~10% above its floor,
    # and with two rounds one load spike or collection could decide it
    measured = measure_session_sweep(rounds=5)
    meta = {"program": measured["program"], "configs": measured["configs"]}
    return [
        sample("cold_sweep", measured["cold_s"] * 1000, "ms", meta),
        sample("session_sweep", measured["warm_s"] * 1000, "ms", meta),
        sample("sweep_speedup", measured["speedup"], "x", meta),
    ]


register(
    BenchmarkSpec(
        name="session_reuse",
        description="Ablation sweep through one Session (parse/annotate "
        "built once per sweep, shared across configs) vs a cold "
        "per-config loop",
        run=_session_run,
        key_fields=("program", "configs"),
        # the deterministic cache behaviour is asserted in tests; the
        # timing bar is only "never lose to the cold loop"
        thresholds=(Threshold("sweep_speedup", floor=0.95),),
        rules={"sweep_speedup": MetricRule(direction="higher", tolerance=0.5)},
    )
)


# =====================================================================
# fig8 / fig9: the paper's evaluation tables
# =====================================================================
FIG8_SMOKE_NAMES = ("sieve", "reynolds3", "foo-sum")
FIG9_SMOKE_NAMES = ("bisort", "em3d", "mst", "treeadd")


def _fig8_run(ctx: RunContext) -> List[Sample]:
    from .harness import fig8_rows

    names = FIG8_SMOKE_NAMES if ctx.smoke else None
    rows = fig8_rows(quick=True, names=names)
    samples: List[Sample] = []
    for row in rows:
        meta = {"program": row.name, "input": row.input_label, "mode": "field"}
        samples.append(
            sample("inference", row.inference_seconds * 1000, "ms", meta)
        )
        samples.append(
            sample("checking", row.checking_seconds * 1000, "ms", meta)
        )
        for mode, ratio in sorted(row.ratios.items()):
            samples.append(
                sample(
                    "space_ratio",
                    ratio,
                    "ratio",
                    {"program": row.name, "input": row.input_label, "mode": mode},
                )
            )
    return samples


register(
    BenchmarkSpec(
        name="fig8",
        description="The paper's Fig 8 table: per-RegJava-program inference "
        "and checking time plus space-usage ratios per subtyping mode "
        "(quick inputs)",
        run=_fig8_run,
        key_fields=("program", "mode"),
        # the paper's prototype infers and checks each program well
        # under a second; so must the reproduction
        thresholds=(
            Threshold("inference", ceiling=1000.0),
            Threshold("checking", ceiling=1000.0),
        ),
    )
)


def _fig9_run(ctx: RunContext) -> List[Sample]:
    from .harness import fig9_rows

    names = FIG9_SMOKE_NAMES if ctx.smoke else None
    rows = fig9_rows(names=names)
    return [
        sample(
            "inference",
            row.inference_seconds * 1000,
            "ms",
            {"program": row.name},
        )
        for row in rows
    ]


register(
    BenchmarkSpec(
        name="fig9",
        description="The paper's Fig 9 table: inference time per Olden "
        "program (the suite inferred as one batch)",
        run=_fig9_run,
        key_fields=("program",),
        # the paper reports 0.07-4.63 s per Olden program; the denser
        # ports here must stay within 2 s each
        thresholds=(Threshold("inference", ceiling=2000.0),),
    )
)
