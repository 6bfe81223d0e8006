"""repro -- Region Inference for an Object-Oriented Language (PLDI 2004).

A complete Python reproduction of Chin, Craciun, Qin & Rinard's automatic
region inference system for Core-Java, including:

* the Core-Java frontend (lexer, parser, loop conversion, normal typing);
* the region-constraint substrate (solver, abstractions, fixed points);
* the inference engine (Fig 3 rules, three subtyping modes, letreg
  localisation, override resolution, downcast safety);
* an independent region type checker (the Theorem 1 oracle);
* a region-stack runtime with space accounting and a dangling oracle;
* the RegJava (Fig 8) and Olden (Fig 9) benchmark suites and the harness
  that regenerates both tables;
* the staged :mod:`repro.api` pipeline (sessions, caching, structured
  diagnostics, batch inference) that the CLI and harness are built on.

Quickstart — the staged API::

    from repro import Session

    session = Session()
    pipeline = session.pipeline(open("program.cj").read())
    result = pipeline.infer().unwrap()     # InferenceResult
    assert pipeline.verify().ok            # independent region check
    print(pretty_target(result.target))

    # ablation sweep: parsing/annotation run once, only inference re-runs
    from repro import InferenceConfig, SubtypingMode
    sweep = session.sweep(source, [InferenceConfig(mode=m) for m in SubtypingMode])
    print(session.stats)                   # cache hit/miss counters

    # batch inference over many programs, in input order
    results = session.infer_many([src_a, src_b, src_c])

Failures surface as structured diagnostics rather than bare strings::

    bad = session.pipeline("class A {", collect=True)
    for diagnostic in bad.run("verify")[-1].diagnostics:
        print(diagnostic)                  # file:line:col: error[code]: ...

One-shot convenience calls (thin shims over the same machinery)::

    from repro import infer_source, pretty_target, check_target

    result = infer_source(open("program.cj").read())
    print(pretty_target(result.target))
    assert check_target(result.target).ok

See ``docs/api.md`` for the migration guide from the one-shot calls to
pipelines and sessions.
"""

from .api import (
    Diagnostic,
    ExecutionResult,
    Pipeline,
    Session,
    SessionStats,
    Severity,
    StageFailure,
    StageResult,
)
from .checking import check_target, erase_program
from .core import (
    AnnotatedProgram,
    DowncastStrategy,
    InferenceConfig,
    InferenceError,
    InferenceResult,
    RegionInference,
    SubtypingMode,
    infer_program,
    infer_source,
)
from .frontend import parse_expr, parse_program, parse_program_tolerant
from .lang.pretty import pretty_program, pretty_target
from .runtime import DanglingAccessError, Interpreter, SourceInterpreter
from .typing import NormalTypeError, check_program

__version__ = "0.2.0"

__all__ = [
    "Diagnostic",
    "ExecutionResult",
    "Pipeline",
    "Session",
    "SessionStats",
    "Severity",
    "StageFailure",
    "StageResult",
    "check_target",
    "erase_program",
    "AnnotatedProgram",
    "DowncastStrategy",
    "InferenceConfig",
    "InferenceError",
    "InferenceResult",
    "RegionInference",
    "SubtypingMode",
    "infer_program",
    "infer_source",
    "parse_expr",
    "parse_program",
    "parse_program_tolerant",
    "pretty_program",
    "pretty_target",
    "DanglingAccessError",
    "Interpreter",
    "SourceInterpreter",
    "NormalTypeError",
    "check_program",
    "__version__",
]
