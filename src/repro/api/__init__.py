"""repro.api -- the staged pipeline API over the region inference engine.

This package is the composable, observable, cache-friendly surface of the
reproduction (the seed's one-shot ``infer_source`` / ``check_target`` calls
remain as thin shims over it):

* :class:`Pipeline` — explicit ``parse -> typecheck -> annotate -> infer ->
  verify -> execute`` stages, each returning a typed :class:`StageResult`;
  stop early, inspect intermediates, or swap configs mid-stream.
* :class:`Session` — a long-lived engine handle that caches inference
  results keyed by config + source hash; repeated queries are answered
  from the cache and ablation sweeps annotate classes once (observable
  via :attr:`Session.stats`).
* :class:`Diagnostic` — structured errors (severity, stage, machine code,
  source span) replacing bare exception strings, with a ``collect`` mode
  that gathers multiple diagnostics instead of dying on the first.
* :meth:`Session.infer_many` — batch inference over many programs, one
  ordered loop in the calling thread; the Fig 9 benchmark harness and the
  ``batch`` CLI subcommand run on it.

See ``docs/api.md`` for the migration guide from the one-shot calls.
"""

from .diagnostics import (
    Diagnostic,
    DiagnosticCode,
    Severity,
    diagnostics_to_json,
    from_exception,
    render_diagnostics,
)
from .pipeline import (
    STAGES,
    ExecutionResult,
    Pipeline,
    StageFailure,
    StageResult,
    config_key,
)
from .session import Session, SessionStats

__all__ = [
    "Diagnostic",
    "DiagnosticCode",
    "Severity",
    "diagnostics_to_json",
    "from_exception",
    "render_diagnostics",
    "ExecutionResult",
    "STAGES",
    "Pipeline",
    "StageFailure",
    "StageResult",
    "config_key",
    "Session",
    "SessionStats",
]
