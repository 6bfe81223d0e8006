"""Structured diagnostics for the staged pipeline API.

Every failure surfaced by :mod:`repro.api` is a :class:`Diagnostic`: a
severity, the pipeline stage that produced it, a stable machine-readable
``code``, a human message, and (when the underlying error carries a source
position) a source span.  This replaces the seed's string-only exception
surfacing: callers can route on ``code``, report ``file:line:col`` like a
compiler, or serialise the whole list with :func:`diagnostics_to_json`.

:func:`from_exception` adapts every exception family of the reproduction
(`ParseError`, `LexError`, `NormalTypeError`, `InferenceError`, the runtime
errors) onto this one type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Optional, Sequence

__all__ = [
    "Severity",
    "Diagnostic",
    "DiagnosticCode",
    "from_exception",
    "render_diagnostics",
    "diagnostics_to_json",
]


class Severity(str, Enum):
    """How bad a diagnostic is.  ``ERROR`` stops the pipeline stage."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


class DiagnosticCode:
    """Stable machine-readable codes (the ``code`` field of a diagnostic)."""

    LEX = "lex-error"
    PARSE = "parse-error"
    NORMAL_TYPE = "normal-type-error"
    INFERENCE = "inference-error"
    REGION_CHECK = "region-check-failure"
    RUNTIME = "runtime-error"
    IO = "io-error"
    INTERNAL = "internal-error"


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding from a pipeline stage."""

    severity: Severity
    stage: str
    code: str
    message: str
    file: Optional[str] = None
    line: Optional[int] = None
    col: Optional[int] = None

    @property
    def span(self) -> Optional[Dict[str, int]]:
        """The source span as ``{"line": .., "col": ..}``, if known."""
        if self.line is None:
            return None
        return {"line": self.line, "col": self.col if self.col is not None else 1}

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready representation (stable key set)."""
        return {
            "severity": self.severity.value,
            "stage": self.stage,
            "code": self.code,
            "message": self.message,
            "file": self.file,
            "span": self.span,
        }

    def __str__(self) -> str:
        where = self.file if self.file is not None else "<source>"
        if self.line is not None:
            where += f":{self.line}:{self.col if self.col is not None else 1}"
        return f"{where}: {self.severity.value}[{self.code}]: {self.message}"


#: exception-class-name -> diagnostic code (subclasses fall back to scans)
_CODE_BY_EXC = {
    "LexError": DiagnosticCode.LEX,
    "ParseError": DiagnosticCode.PARSE,
    "NormalTypeError": DiagnosticCode.NORMAL_TYPE,
    "InferenceError": DiagnosticCode.INFERENCE,
    "RegionCheckError": DiagnosticCode.REGION_CHECK,
    "RuntimeError_": DiagnosticCode.RUNTIME,
    "NullAccessError": DiagnosticCode.RUNTIME,
    "CastFailedError": DiagnosticCode.RUNTIME,
    "StepBudgetExceeded": DiagnosticCode.RUNTIME,
    "DanglingAccessError": DiagnosticCode.RUNTIME,
    "RecursionError": DiagnosticCode.RUNTIME,
    "OSError": DiagnosticCode.IO,
    "FileNotFoundError": DiagnosticCode.IO,
}


def _code_for(exc: BaseException) -> str:
    for klass in type(exc).__mro__:
        code = _CODE_BY_EXC.get(klass.__name__)
        if code is not None:
            return code
    return DiagnosticCode.INTERNAL


def from_exception(
    exc: BaseException,
    *,
    stage: str,
    file: Optional[str] = None,
    severity: Severity = Severity.ERROR,
) -> Diagnostic:
    """Adapt any reproduction exception onto a :class:`Diagnostic`.

    A front-end error (:class:`~repro.lang.ast.SourceError`) contributes
    the ``line``/``col`` it worked out from its source offset as the span;
    its ``.msg`` (the message without the position prefix) is preferred
    over ``str(exc)`` so the span is not duplicated in the text.
    """
    line = getattr(exc, "line", None)
    col = getattr(exc, "col", None)
    message = getattr(exc, "msg", None) or str(exc) or type(exc).__name__
    return Diagnostic(
        severity=severity,
        stage=stage,
        code=_code_for(exc),
        message=message,
        file=file,
        line=line,
        col=col,
    )


def render_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    """One diagnostic per line, compiler style."""
    return "\n".join(str(d) for d in diagnostics)


def diagnostics_to_json(diagnostics: Sequence[Diagnostic], **dumps_kwargs: Any) -> str:
    """Serialise a diagnostic list as a JSON array."""
    return json.dumps([d.to_dict() for d in diagnostics], **dumps_kwargs)
