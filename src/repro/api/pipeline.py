"""The staged inference pipeline.

A :class:`Pipeline` decomposes the seed's monolithic ``infer_source`` /
``check_target`` flow into six explicit, individually-invokable stages::

    parse -> typecheck -> annotate -> infer -> verify -> execute

Each stage returns a typed :class:`StageResult` carrying its value, its
structured :class:`~repro.api.diagnostics.Diagnostic` list, and its wall
time.  Callers can stop anywhere (``pipeline.typecheck()`` never runs
inference), inspect intermediates (the ``annotate`` stage exposes the
shared :class:`~repro.core.AnnotatedProgram`), or drive everything with
:meth:`Pipeline.run`, which short-circuits at the first failing stage.

Stage values:

====================  =====================================================
``parse``             :class:`repro.lang.ast.Program`
``typecheck``         :class:`repro.lang.class_table.ClassTable`
``annotate``          :class:`repro.core.AnnotatedProgram`
``infer``             :class:`repro.core.InferenceResult`
``verify``            :class:`repro.checking.CheckReport`
``execute``           :class:`ExecutionResult`
====================  =====================================================

Pipelines created through a :class:`~repro.api.Session` share that
session's artifact cache, so the parse/typecheck/annotate prefix is reused
across configurations and repeated queries, and a cached ``infer`` result
answers :meth:`Pipeline.infer` (and the stages after it) without running
its predecessors at all.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, List, Optional, Sequence, Tuple

from ..checking import check_target
from ..core import (
    AnnotatedProgram,
    InferenceConfig,
    InferenceError,
    InferenceResult,
    RegionInference,
    reinfer_program,
)
from ..deadline import check as check_deadline
from ..frontend.lexer import LexError
from ..frontend.parser import ParseError, parse_program, parse_program_tolerant
from ..runtime import DanglingAccessError, Interpreter, RuntimeError_
from ..typing import NormalTypeError
from ..typing.normal import NormalTypeChecker
from .diagnostics import Diagnostic, DiagnosticCode, Severity, from_exception

__all__ = [
    "STAGES",
    "ExecutionResult",
    "StageFailure",
    "StageResult",
    "Pipeline",
    "config_key",
]

#: canonical stage order
STAGES = ("parse", "typecheck", "annotate", "infer", "verify", "execute")


def config_key(config: InferenceConfig) -> Tuple[Hashable, ...]:
    """A hashable cache key capturing every knob of a config."""
    return tuple(
        (f.name, getattr(config, f.name)) for f in dataclasses.fields(config)
    )


class StageFailure(Exception):
    """Raised by :meth:`StageResult.unwrap` on a failed stage."""

    def __init__(self, stage: str, diagnostics: Sequence[Diagnostic]):
        self.stage = stage
        self.diagnostics = list(diagnostics)
        detail = "; ".join(str(d) for d in self.diagnostics[:3]) or "stage failed"
        super().__init__(f"stage {stage!r} failed: {detail}")

    def __reduce__(self):
        # Exception's default reduce replays ``args`` (the formatted
        # message) into ``__init__``, which takes (stage, diagnostics) —
        # unpicklable without this.  The process backend ships these
        # across worker boundaries, so rebuild from the real fields.
        return (StageFailure, (self.stage, self.diagnostics))


@dataclass
class StageResult:
    """Outcome of one pipeline stage."""

    stage: str
    ok: bool
    value: Any = None
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: wall-clock seconds spent producing the value (near zero on cache hits)
    elapsed: float = 0.0
    #: the value came from a session cache rather than being recomputed
    cached: bool = False
    #: the stage never ran because an earlier stage failed
    skipped: bool = False
    #: for skipped stages: the stage result that actually failed (the root
    #: of the skip chain), so failures are never blamed on a stage that
    #: never ran
    cause: Optional["StageResult"] = None

    def unwrap(self) -> Any:
        """The stage value, or :class:`StageFailure` if the stage failed.

        A *skipped* stage re-raises on behalf of its :attr:`cause`: the
        failure names the stage that actually failed (parse, typecheck,
        annotate, ...) and carries that stage's diagnostics, not an empty
        report attributed to a stage that never ran.
        """
        if not self.ok:
            if self.skipped and self.cause is not None:
                raise StageFailure(self.cause.stage, self.cause.diagnostics)
            raise StageFailure(self.stage, self.diagnostics)
        return self.value

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]


@dataclass
class ExecutionResult:
    """Outcome of running an inferred program on the region runtime."""

    entry: str
    args: Sequence[int]
    value: Any  # a runtime Value
    stats: Any  # a RegionStats snapshot

    def to_dict(self) -> dict:
        stats = self.stats
        return {
            "entry": self.entry,
            "args": list(self.args),
            "result": str(self.value),
            "stats": {
                "objects_allocated": stats.objects_allocated,
                "total_allocated": stats.total_allocated,
                "peak_live": stats.peak_live,
                "regions_created": stats.regions_created,
                "space_usage_ratio": stats.space_usage_ratio,
            },
        }


class _InlineStore:
    """No-op artifact store used by pipelines without a session."""

    def peek(self, kind: str, key: Hashable, *, record_hit: bool = False) -> None:
        return None

    def get_or_build(self, kind: str, key: Hashable, builder: Callable[[], Any]):
        return builder(), False


class Pipeline:
    """One program's staged flow.  See the module docstring.

    ``collect`` switches the parse stage to the tolerant parser, which
    gathers every top-level syntax error instead of dying on the first
    (collect-mode artifacts are never shared through a session cache, since
    they may be partial).  Stage results are memoised per pipeline;
    cross-pipeline reuse comes from the ``store`` a
    :class:`~repro.api.Session` injects.
    """

    def __init__(
        self,
        source: str,
        config: Optional[InferenceConfig] = None,
        *,
        filename: Optional[str] = None,
        collect: bool = False,
        store: Optional[Any] = None,
        source_key: Optional[Hashable] = None,
    ):
        self.source = source
        self.config = config or InferenceConfig()
        self.filename = filename
        self.collect = collect
        self._store = store if store is not None else _InlineStore()
        self._key = source_key if source_key is not None else source
        self._results: dict = {}

    # -- plumbing ----------------------------------------------------------
    def _skipped(self, name: str, memo: Hashable, prev: StageResult) -> StageResult:
        # chain through already-skipped predecessors to the root failure
        cause = prev.cause if prev.skipped and prev.cause is not None else prev
        result = StageResult(stage=name, ok=False, skipped=True, cause=cause)
        self._results[memo] = result
        return result

    def _run_stage(
        self,
        name: str,
        builder: Callable[[], Any],
        *,
        errors: Tuple[type, ...],
        cache_key: Optional[Hashable] = None,
        memo: Optional[Hashable] = None,
    ) -> StageResult:
        """Build one stage value with timing, caching and error adaptation.

        ``RecursionError`` is adapted for every stage: input nested deeper
        than the recursive walkers' stack allows must come back as a
        diagnostic, never as an uncaught exception.  A
        :class:`~repro.deadline.DeadlineExceeded` is not a property of the
        program: it propagates, and the store keeps nothing for the stage.
        """
        check_deadline()
        memo = memo if memo is not None else name
        start = time.perf_counter()
        try:
            if cache_key is not None and not self.collect:
                value, cached = self._store.get_or_build(name, cache_key, builder)
            else:
                value, cached = builder(), False
        except (RecursionError, *errors) as err:
            result = StageResult(
                stage=name,
                ok=False,
                diagnostics=[from_exception(err, stage=name, file=self.filename)],
                elapsed=time.perf_counter() - start,
            )
            self._results[memo] = result
            return result
        result = StageResult(
            stage=name,
            ok=True,
            value=value,
            elapsed=time.perf_counter() - start,
            cached=cached,
        )
        self._results[memo] = result
        return result

    # -- stages ------------------------------------------------------------
    def parse(self) -> StageResult:
        """Source text -> AST (:class:`~repro.lang.ast.Program`)."""
        if "parse" in self._results:
            return self._results["parse"]
        if self.collect:
            start = time.perf_counter()
            try:
                program, errs = parse_program_tolerant(self.source)
            except RecursionError as err:
                program, errs = None, [err]
            result = StageResult(
                stage="parse",
                ok=not errs,
                value=program,
                diagnostics=[
                    from_exception(e, stage="parse", file=self.filename)
                    for e in errs
                ],
                elapsed=time.perf_counter() - start,
            )
            self._results["parse"] = result
            return result
        return self._run_stage(
            "parse",
            lambda: parse_program(self.source),
            errors=(LexError, ParseError),
            cache_key=self._key,
        )

    def typecheck(self) -> StageResult:
        """AST -> normal-typed :class:`~repro.lang.class_table.ClassTable`."""
        if "typecheck" in self._results:
            return self._results["typecheck"]
        prev = self.parse()
        if not prev.ok:
            return self._skipped("typecheck", "typecheck", prev)
        program = prev.value
        return self._run_stage(
            "typecheck",
            lambda: NormalTypeChecker(program).check(),
            errors=(NormalTypeError,),
            cache_key=self._key,
        )

    def annotate(self) -> StageResult:
        """Class table -> shared :class:`~repro.core.AnnotatedProgram`."""
        if "annotate" in self._results:
            return self._results["annotate"]
        prev = self.typecheck()
        if not prev.ok:
            return self._skipped("annotate", "annotate", prev)
        program = self._results["parse"].value
        table = prev.value
        return self._run_stage(
            "annotate",
            lambda: AnnotatedProgram.from_table(program, table),
            errors=(InferenceError, NormalTypeError),
            cache_key=self._key,
        )

    def infer(self) -> StageResult:
        """Annotated program + config -> :class:`~repro.core.InferenceResult`.

        The session's cached ``infer`` entry is probed first: a hit answers
        without running parse, typecheck or annotate, which the cached
        result already embodies.  Collect mode never probes (its artifacts
        stay out of the session cache).
        """
        if "infer" in self._results:
            return self._results["infer"]
        cache_key = (self._key, config_key(self.config))
        if not self.collect:
            start = time.perf_counter()
            value = self._store.peek("infer", cache_key, record_hit=True)
            if value is not None:
                result = StageResult(
                    stage="infer",
                    ok=True,
                    value=value,
                    elapsed=time.perf_counter() - start,
                    cached=True,
                )
                self._results["infer"] = result
                return result
        prev = self.annotate()
        if not prev.ok:
            return self._skipped("infer", "infer", prev)
        annotated = prev.value
        return self._run_stage(
            "infer",
            lambda: RegionInference(
                annotated.program, self.config, prepared=annotated
            ).infer(),
            errors=(InferenceError, NormalTypeError),
            cache_key=cache_key,
        )

    def reinfer(self, prior: "InferenceResult") -> StageResult:
        """Incremental variant of :meth:`infer` against a prior result.

        Parses this pipeline's source, then re-infers it through
        :func:`repro.core.reinfer_program` — only the method SCCs dirtied
        relative to ``prior`` re-run their fixed points; everything else
        is spliced from the prior result.  The stage memoises and
        caches under the same ``infer`` key as :meth:`infer`, so an
        unchanged resubmission is an ordinary file-level cache hit and
        downstream stages (:meth:`verify`, :meth:`execute`) consume the
        incremental result transparently.
        """
        if "infer" in self._results:
            return self._results["infer"]
        prev = self.parse()
        if not prev.ok:
            return self._skipped("infer", "infer", prev)
        program = prev.value
        return self._run_stage(
            "infer",
            lambda: reinfer_program(program, prior, self.config),
            errors=(InferenceError, NormalTypeError),
            cache_key=(self._key, config_key(self.config)),
        )

    def verify(self) -> StageResult:
        """Inference result -> independently checked ``CheckReport``.

        Unlike the other stages, a failing verify still carries its value
        (the report), with one error diagnostic per failed obligation — the
        ``collect`` behaviour is inherent here, the checker already gathers
        every issue instead of stopping at the first.
        """
        if "verify" in self._results:
            return self._results["verify"]
        prev = self.infer()
        if not prev.ok:
            return self._skipped("verify", "verify", prev)
        check_deadline()
        start = time.perf_counter()
        report = check_target(
            prev.value.target,
            mode=self.config.mode.value,
            downcast=self.config.downcast.value,
        )
        result = StageResult(
            stage="verify",
            ok=report.ok,
            value=report,
            diagnostics=[
                Diagnostic(
                    severity=Severity.ERROR,
                    stage="verify",
                    code=DiagnosticCode.REGION_CHECK,
                    message=str(issue),
                    file=self.filename,
                )
                for issue in report.issues
            ],
            elapsed=time.perf_counter() - start,
        )
        self._results["verify"] = result
        return result

    def execute(
        self,
        entry: str = "main",
        args: Sequence[int] = (),
        *,
        recursion_limit: Optional[int] = None,
    ) -> StageResult:
        """Run a static entry point on the region runtime."""
        memo = ("execute", entry, tuple(args))
        if memo in self._results:
            return self._results[memo]
        prev = self.infer()
        if not prev.ok:
            return self._skipped("execute", memo, prev)
        check_deadline()
        start = time.perf_counter()
        try:
            kwargs = {}
            if recursion_limit is not None:
                kwargs["recursion_limit"] = recursion_limit
            interp = Interpreter(prev.value.target, **kwargs)
            value = interp.run_static(entry, list(args))
        except (RuntimeError_, DanglingAccessError, RecursionError) as err:
            result = StageResult(
                stage="execute",
                ok=False,
                diagnostics=[
                    from_exception(err, stage="execute", file=self.filename)
                ],
                elapsed=time.perf_counter() - start,
            )
            self._results[memo] = result
            return result
        result = StageResult(
            stage="execute",
            ok=True,
            value=ExecutionResult(
                entry=entry, args=list(args), value=value, stats=interp.stats
            ),
            elapsed=time.perf_counter() - start,
        )
        self._results[memo] = result
        return result

    # -- drivers -----------------------------------------------------------
    def run(
        self,
        until: str = "verify",
        *,
        entry: str = "main",
        args: Sequence[int] = (),
    ) -> List[StageResult]:
        """Run stages in order up to ``until``; stop at the first failure.

        Returns the stage results actually produced, in stage order; the
        last entry is either the ``until`` stage or the stage that failed
        (skipped placeholders are not included).
        """
        if until not in STAGES:
            raise ValueError(f"unknown stage {until!r}; expected one of {STAGES}")
        out: List[StageResult] = []
        for name in STAGES[: STAGES.index(until) + 1]:
            if name == "execute":
                result = self.execute(entry, args)
            else:
                result = getattr(self, name)()
            out.append(result)
            if not result.ok:
                break
        return out

    def failure(self) -> Optional[StageResult]:
        """The earliest stage that actually *failed*, if any.

        Skipped placeholders (stages that never ran because a predecessor
        failed) are not failures; this walks the memoised results in stage
        order and returns the first one that ran and came back not-ok —
        the stage to blame in a :class:`StageFailure`.
        """
        ordered = sorted(
            {id(r): r for r in self._results.values()}.values(),
            key=lambda r: STAGES.index(r.stage),
        )
        for result in ordered:
            if not result.ok and not result.skipped:
                return result
        return None

    def diagnostics(self) -> List[Diagnostic]:
        """Every diagnostic gathered so far, in stage order."""
        ordered = sorted(
            {id(r): r for r in self._results.values()}.values(),
            key=lambda r: STAGES.index(r.stage),
        )
        out: List[Diagnostic] = []
        for result in ordered:
            out.extend(result.diagnostics)
        return out
