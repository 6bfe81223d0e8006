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

Stage results are memoised per pipeline.  Pipelines created through a
:class:`~repro.api.Session` also share that session's cache, which holds
``infer`` results only: a cached result answers :meth:`Pipeline.infer`
(and the stages after it) without running parse, typecheck or annotate
at all, and :meth:`Pipeline.verify` with the verdict kept on it.
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


class Pipeline:
    """One program's staged flow.  See the module docstring.

    ``collect`` switches the parse stage to the tolerant parser, which
    gathers every top-level syntax error instead of dying on the first
    (collect-mode results are never shared through a session cache, since
    they may be partial).  Stage results are memoised per pipeline;
    cross-pipeline reuse is the ``infer`` entry in the ``store`` a
    :class:`~repro.api.Session` injects.  A caller that already holds
    this program's inference result passes it as ``inferred``: the
    ``infer`` stage then answers with it and probes nothing.
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
        inferred: Optional[InferenceResult] = None,
    ):
        self.source = source
        self.config = config or InferenceConfig()
        self.filename = filename
        self.collect = collect
        self._store = None if collect else store
        self._key = source_key if source_key is not None else source
        self._results: dict = {}
        if inferred is not None:
            self._results["infer"] = StageResult(
                stage="infer", ok=True, value=inferred, cached=True
            )

    def fork(self, config: InferenceConfig) -> "Pipeline":
        """This pipeline under ``config``, keeping its memoised front half
        (parse, typecheck and annotate do not depend on the config)."""
        other = Pipeline(
            self.source,
            config,
            filename=self.filename,
            collect=self.collect,
            store=self._store,
            source_key=self._key,
        )
        other._results = {
            stage: result
            for stage, result in self._results.items()
            if stage in ("parse", "typecheck", "annotate")
        }
        return other

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
    ) -> StageResult:
        """Build one stage value with timing and error adaptation.

        ``RecursionError`` is adapted for every stage: input nested deeper
        than the recursive walkers' stack allows must come back as a
        diagnostic, never as an uncaught exception.  A
        :class:`~repro.deadline.DeadlineExceeded` is not a property of the
        program: it propagates, and nothing is cached for the stage.
        """
        check_deadline()
        start = time.perf_counter()
        try:
            value = builder()
        except (RecursionError, *errors) as err:
            result = StageResult(
                stage=name,
                ok=False,
                diagnostics=[from_exception(err, stage=name, file=self.filename)],
                elapsed=time.perf_counter() - start,
            )
            self._results[name] = result
            return result
        result = StageResult(
            stage=name,
            ok=True,
            value=value,
            elapsed=time.perf_counter() - start,
        )
        self._results[name] = result
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
        )

    def annotate(self) -> StageResult:
        """Class table -> :class:`~repro.core.AnnotatedProgram`."""
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
        )

    def _infer_stage(
        self,
        front: Callable[[], StageResult],
        build: Callable[[Any], InferenceResult],
    ) -> StageResult:
        """The one probe path behind :meth:`infer` and :meth:`reinfer`.

        A cached ``infer`` entry answers without running ``front``.  A probe
        that finds nothing is one ``infer`` miss, whatever happens next; a
        successful build is installed without a second count.  Collect
        mode never probes.
        """
        if "infer" in self._results:
            return self._results["infer"]
        cache_key = (self._key, config_key(self.config))
        if self._store is not None:
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
            self._store.record_miss("infer")
        prev = front()
        if not prev.ok:
            return self._skipped("infer", "infer", prev)
        result = self._run_stage(
            "infer",
            lambda: build(prev.value),
            errors=(InferenceError, NormalTypeError),
        )
        if result.ok and self._store is not None:
            self._store.put("infer", cache_key, result.value)
        return result

    def infer(self) -> StageResult:
        """Annotated program + config -> :class:`~repro.core.InferenceResult`."""
        return self._infer_stage(
            self.annotate,
            lambda annotated: RegionInference(
                annotated.program, self.config, prepared=annotated
            ).infer(),
        )

    def reinfer(self, prior: "InferenceResult") -> StageResult:
        """Incremental variant of :meth:`infer` against a prior result.

        Probes the ``infer`` entry exactly as :meth:`infer` does; on a miss
        it runs the ``typecheck`` stage (so a type error is reported by
        that stage, as on the from-scratch path) and re-infers through
        :func:`repro.core.reinfer_program`, which re-runs fixed points
        only for the method SCCs dirtied relative to ``prior`` and splices
        the rest.  The result is cached under the same ``infer`` key, so
        later stages consume it as usual.
        """
        return self._infer_stage(
            self.typecheck,
            lambda table: reinfer_program(
                table.program, prior, self.config, table=table
            ),
        )

    def verify(self) -> StageResult:
        """Inference result -> independently checked ``CheckReport``.

        Unlike the other stages, a failing verify still carries its value
        (the report), with one error diagnostic per failed obligation — the
        ``collect`` behaviour is inherent here, the checker already gathers
        every issue instead of stopping at the first.

        The report is kept on the inference result
        (:attr:`InferenceResult.report <repro.core.InferenceResult.report>`),
        checked under the result's own config, so verifying a cached result
        again does no checker work (the stage comes back ``cached``).  It is
        stored only once the checker has returned: a deadline that fires
        inside the check leaves nothing behind.
        """
        if "verify" in self._results:
            return self._results["verify"]
        prev = self.infer()
        if not prev.ok:
            return self._skipped("verify", "verify", prev)
        check_deadline()
        start = time.perf_counter()
        inferred = prev.value
        report = inferred.report
        cached = report is not None
        if not cached:
            # two threads verifying one result at once both run the
            # checker; their reports are equal, so either may be kept
            report = check_target(
                inferred.target,
                mode=inferred.config.mode.value,
                downcast=inferred.config.downcast.value,
            )
            inferred.report = report
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
            cached=cached,
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
