"""The evaluation harness: regenerates the paper's Fig 8 and Fig 9 tables.

* :func:`fig8_rows` / :func:`fig8_table` -- per-RegJava-program statistics:
  source size, annotation size, inference and checking time, space-usage /
  total-allocation ratio under the three subtyping modes, and localised
  region counts, side by side with the paper's reported numbers.
* :func:`fig9_rows` / :func:`fig9_table` -- Olden inference times.

The harness drives the staged :mod:`repro.api` pipeline through one shared
:class:`~repro.api.Session`: the three per-program subtyping modes of Fig 8
reuse one parse and one class annotation (only inference re-runs), and the
Fig 9 suite goes through :meth:`Session.infer_many` as one batch.  Reported
"inference seconds" are therefore pure engine time
(:attr:`InferenceResult.elapsed`), not parse time.

Absolute times and sizes differ from the paper (Python tree-walker vs GHC
prototype, scaled inputs); the reproduction target is the *shape*: which
programs reuse space, under which subtyping mode, and that inference stays
well under a second per program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api import Session
from ..core import InferenceConfig, SubtypingMode
from ..lang.pretty import pretty_target
from .olden import OLDEN_PROGRAMS
from .regjava import REGJAVA_PROGRAMS, BenchmarkProgram

__all__ = [
    "Fig8Row",
    "Fig9Row",
    "fig8_rows",
    "fig8_table",
    "fig9_rows",
    "fig9_table",
    "count_annotation_lines",
    "measure_program",
    "MODES",
]

MODES = (SubtypingMode.NONE, SubtypingMode.OBJECT, SubtypingMode.FIELD)


#: Region syntax in renumbered pretty-printed target text: a ``letreg``
#: binder, a ``where`` constraint clause, or a region instantiation such as
#: ``List<r1, r2>`` / ``Tree<heap>``.  An instantiation bracket follows an
#: identifier directly and opens with a region name (``r<N>``, ``heap`` or
#: ``rnull``, the renumbered printer's only spellings), which keeps
#: comparison expressions like ``(a < r)`` and incidental ``<rNN``
#: substrings inside other tokens from being miscounted.
_ANNOTATION_SYNTAX = re.compile(
    r"\bletreg\b|\bwhere\b|(?<=\w)<(?:heap|rnull|r\d+)\s*[,>]"
)


def count_annotation_lines(target_text: str) -> int:
    """Lines of a pretty-printed target program carrying region syntax.

    Approximates the paper's "Ann. (lines)" column: a line counts when it
    mentions a region instantiation, a ``letreg``, or a ``where`` clause.
    Expects the renumbered printer's output
    (:func:`~repro.lang.pretty.pretty_target` with ``renumber=True``).
    """
    return sum(
        1 for line in target_text.splitlines() if _ANNOTATION_SYNTAX.search(line)
    )


@dataclass
class Fig8Row:
    """One measured row of the Fig 8 table."""

    name: str
    source_lines: int
    annotation_lines: int
    inference_seconds: float
    checking_seconds: float
    input_label: str
    ratios: Dict[str, float] = field(default_factory=dict)  # mode -> ratio
    localized: Dict[str, int] = field(default_factory=dict)  # mode -> letregs
    paper: Optional[object] = None

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready row (backs ``repro fig8 --format json``)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "source_lines": self.source_lines,
            "annotation_lines": self.annotation_lines,
            "inference_seconds": self.inference_seconds,
            "checking_seconds": self.checking_seconds,
            "input": self.input_label,
            "space_ratios": dict(self.ratios),
            "localized_regions": dict(self.localized),
        }
        if self.paper is not None:
            out["paper"] = {
                "ratio_no_sub": self.paper.ratio_no_sub,
                "ratio_object_sub": self.paper.ratio_object_sub,
                "ratio_field_sub": self.paper.ratio_field_sub,
                "diff_vs_regjava": self.paper.diff_vs_regjava,
            }
        return out


@dataclass
class Fig9Row:
    """One measured row of the Fig 9 table."""

    name: str
    source_lines: int
    annotation_lines: int
    inference_seconds: float
    paper: Optional[object] = None

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready row (backs ``repro fig9 --format json``)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "source_lines": self.source_lines,
            "annotation_lines": self.annotation_lines,
            "inference_seconds": self.inference_seconds,
        }
        if self.paper is not None:
            out["paper"] = {
                "source_lines": self.paper.source_lines,
                "annotation_lines": self.paper.annotation_lines,
                "inference_seconds": self.paper.inference_seconds,
            }
        return out


def _source_lines(text: str) -> int:
    return sum(
        1
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("//")
    )


def measure_program(
    program: BenchmarkProgram,
    mode: SubtypingMode,
    *,
    run: bool = True,
    args: Optional[Sequence[int]] = None,
    session: Optional[Session] = None,
) -> Tuple[float, float, float, int, int]:
    """(inference s, checking s, space ratio, letregs, annotation lines).

    Each mode builds its own front half (parse, typecheck and class
    annotation take milliseconds per program, little next to execution);
    with a shared ``session``, re-measuring a (program, mode) pair is an
    ``infer`` hit.  Reported inference time is always the
    engine's own :attr:`InferenceResult.elapsed` — never the stage wall
    time, which includes cache bookkeeping — so the same row value comes
    back whether the inference result was a cache hit or a miss.
    """
    session = session or Session()
    pipe = session.pipeline(program.source, InferenceConfig(mode=mode))
    infer_stage = pipe.infer()
    result = infer_stage.unwrap()
    t_inf = result.elapsed
    verify_stage = pipe.verify()
    report = verify_stage.value
    if not report.ok:
        raise AssertionError(
            f"{program.name} failed region checking under {mode.value}: "
            f"{report.issues[0]}"
        )
    t_chk = verify_stage.elapsed
    ann = count_annotation_lines(pretty_target(result.target))
    ratio = float("nan")
    if run:
        execution = pipe.execute(
            program.entry, list(args or program.run_args)
        ).unwrap()
        ratio = execution.stats.space_usage_ratio
    return t_inf, t_chk, ratio, result.total_localized, ann


def fig8_rows(
    *,
    run: bool = True,
    quick: bool = False,
    names: Optional[Sequence[str]] = None,
    session: Optional[Session] = None,
) -> List[Fig8Row]:
    """Measure every RegJava program (or the named subset), one (program,
    mode) pair after another in the calling thread."""
    selected = [
        (name, program)
        for name, program in REGJAVA_PROGRAMS.items()
        if names is None or name in names
    ]
    tasks: List[Tuple[str, Any, SubtypingMode, Sequence[int]]] = []
    for name, program in selected:
        args = program.test_args if quick else program.run_args
        for mode in MODES:
            tasks.append((name, program, mode, args))
    session = session or Session()
    measured = [
        measure_program(program, mode, run=run, args=args, session=session)
        for _, program, mode, args in tasks
    ]
    rows_by_name: Dict[str, Fig8Row] = {}
    for (name, program, mode, args), outcome in zip(tasks, measured):
        t_inf, t_chk, ratio, localized, ann = outcome
        row = rows_by_name.get(name)
        if row is None:
            row = rows_by_name[name] = Fig8Row(
                name=name,
                source_lines=_source_lines(program.source),
                annotation_lines=0,
                inference_seconds=0.0,
                checking_seconds=0.0,
                input_label=str(args[0]),
                paper=program.paper,
            )
        row.ratios[mode.value] = ratio
        row.localized[mode.value] = localized
        if mode is SubtypingMode.FIELD:
            row.inference_seconds = t_inf
            row.checking_seconds = t_chk
            row.annotation_lines = ann
    return [rows_by_name[name] for name, _ in selected]


def fig9_rows(
    names: Optional[Sequence[str]] = None,
    *,
    session: Optional[Session] = None,
) -> List[Fig9Row]:
    """Measure inference time for every Olden program.

    The whole suite is inferred as one :meth:`Session.infer_many` batch,
    then each program is verified with :meth:`Session.check`, which finds
    the batch's result in the session cache and only runs the checker.
    Each program's reported time is its engine time
    (:attr:`InferenceResult.elapsed`), not the batch's wall-clock.
    """
    session = session or Session()
    selected = [
        (name, program)
        for name, program in OLDEN_PROGRAMS.items()
        if names is None or name in names
    ]
    results = session.infer_many([program.source for _, program in selected])
    rows: List[Fig9Row] = []
    for (name, program), result in zip(selected, results):
        report = session.check(program.source)
        if not report.ok:
            raise AssertionError(
                f"{name} failed region checking: {report.issues[0]}"
            )
        rows.append(
            Fig9Row(
                name=name,
                source_lines=_source_lines(program.source),
                annotation_lines=count_annotation_lines(pretty_target(result.target)),
                inference_seconds=result.elapsed,
                paper=program.paper,
            )
        )
    return rows


def _fmt_ratio(x: Optional[float]) -> str:
    if x is None:
        return "   - "
    if x != x:  # NaN
        return "  n/a"
    return f"{x:5.3f}"


def _fmt_int(x: Optional[int], width: int) -> str:
    return f"{x:{width}d}" if x is not None else f"{'-':>{width}}"


def _fmt_float(x: Optional[float], width: int, precision: int) -> str:
    return f"{x:{width}.{precision}f}" if x is not None else f"{'-':>{width}}"


def fig8_table(rows: Optional[List[Fig8Row]] = None, **kwargs) -> str:
    """Render the Fig 8 comparison table (paper vs measured)."""
    rows = rows if rows is not None else fig8_rows(**kwargs)
    out: List[str] = []
    out.append(
        "Fig 8: Comparative statistics on inference/checking and region subtyping"
    )
    out.append(
        f"{'program':18s} {'lines':>5s} {'ann':>4s} {'inf(s)':>7s} {'chk(s)':>7s} "
        f"{'input':>7s} | {'no-sub':>6s} {'objsub':>6s} {'fldsub':>6s} "
        f"| paper: {'no':>5s} {'obj':>5s} {'fld':>5s} {'diff':>4s}"
    )
    out.append("-" * 118)
    for r in rows:
        p = r.paper
        diff = p.diff_vs_regjava if p is not None else None
        out.append(
            f"{r.name:18s} {r.source_lines:5d} {r.annotation_lines:4d} "
            f"{r.inference_seconds:7.3f} {r.checking_seconds:7.3f} {r.input_label:>7s} | "
            f"{_fmt_ratio(r.ratios.get('none')):>6s} "
            f"{_fmt_ratio(r.ratios.get('object')):>6s} "
            f"{_fmt_ratio(r.ratios.get('field')):>6s} | "
            f"{'':6s} {_fmt_ratio(p.ratio_no_sub if p else None):>5s} "
            f"{_fmt_ratio(p.ratio_object_sub if p else None):>5s} "
            f"{_fmt_ratio(p.ratio_field_sub if p else None):>5s} "
            f"{diff if diff is not None else '-':>4}"
        )
    return "\n".join(out)


def fig9_table(rows: Optional[List[Fig9Row]] = None, **kwargs) -> str:
    """Render the Fig 9 comparison table (paper vs measured)."""
    rows = rows if rows is not None else fig9_rows(**kwargs)
    out: List[str] = []
    out.append("Fig 9: Region inference times for the Olden benchmark programs")
    out.append(
        f"{'program':12s} {'lines':>6s} {'ann':>5s} {'inf(s)':>8s} | "
        f"paper: {'lines':>6s} {'ann':>5s} {'inf(s)':>7s}"
    )
    out.append("-" * 70)
    for r in rows:
        p = r.paper
        out.append(
            f"{r.name:12s} {r.source_lines:6d} {r.annotation_lines:5d} "
            f"{r.inference_seconds:8.3f} |        "
            f"{_fmt_int(p.source_lines if p else None, 6)} "
            f"{_fmt_int(p.annotation_lines if p else None, 5)} "
            f"{_fmt_float(p.inference_seconds if p else None, 7, 2)}"
        )
    return "\n".join(out)
