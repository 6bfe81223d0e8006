"""The differential fuzzing oracle over generated programs.

One generated program, many independent implementations that must agree:

* **pipeline invariants** -- the program parses, normal-typechecks, and
  for every subtyping mode the inferred target passes the *independent*
  region checker (the paper's Theorem 1) and erasure recovers the
  source;
* **bisimulation** -- executing the region-annotated target on the
  region runtime (dangling oracle armed) produces the same value as the
  region-free source interpreter, for a range of entry arguments.

``tests/fuzz/`` asserts these over seeded corpora and the feature
matrix; any failing program is frozen into
``tests/fuzz/fixtures/`` so the finding replays forever as a plain
tier-1 regression test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

__all__ = [
    "OracleFailure",
    "OracleReport",
    "check_program_invariants",
]

#: entry arguments the bisimulation sweep runs by default
DEFAULT_ARGS = (0, 1, 2, 5)


class OracleFailure(AssertionError):
    """A differential oracle violation (the report carries the rest)."""


@dataclass
class OracleReport:
    """What the oracle checked for one program, and what disagreed."""

    source: str
    checked_modes: List[str] = field(default_factory=list)
    executed_args: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self) -> None:
        if self.failures:
            head = "\n".join(f"  - {f}" for f in self.failures)
            raise OracleFailure(
                f"differential oracle failed:\n{head}\n"
                f"--- program ---\n{self.source}"
            )


def check_program_invariants(
    source: str,
    *,
    modes: Optional[Sequence[object]] = None,
    entry: str = "main",
    args: Sequence[int] = DEFAULT_ARGS,
    execute: bool = True,
) -> OracleReport:
    """Run every single-process oracle over one program.

    Never raises for a *disagreement* -- failures are collected into the
    report so a fuzz loop can keep going and report all of them (use
    :meth:`OracleReport.raise_if_failed` to assert).  A crash inside a
    stage is itself a finding and is recorded the same way.
    """
    from ..checking import check_target, erase_program
    from ..core import InferenceConfig, SubtypingMode, infer_program
    from ..frontend import parse_program
    from ..lang.pretty import pretty_program
    from ..runtime import Interpreter, SourceInterpreter
    from ..runtime.source_interp import value_snapshot
    from ..typing import check_program

    report = OracleReport(source=source)
    if modes is None:
        modes = (SubtypingMode.NONE, SubtypingMode.OBJECT, SubtypingMode.FIELD)
    try:
        program = parse_program(source)
        check_program(program)
        # the typechecker normalises in place (implicit ``this`` receivers,
        # null class ascription): the erasure oracle compares against this
        # normalised rendering, like the erasure property test does
        normalized = pretty_program(program)
    except Exception as err:  # noqa: BLE001 -- a crash is a finding
        report.failures.append(f"parse/typecheck: {err!r}")
        return report

    field_result = None
    for mode in modes:
        label = getattr(mode, "value", str(mode))
        report.checked_modes.append(label)
        try:
            result = infer_program(
                parse_program(source), InferenceConfig(mode=mode)
            )
        except Exception as err:  # noqa: BLE001
            report.failures.append(f"infer[{label}]: {err!r}")
            continue
        try:
            verdict = check_target(result.target, mode=label)
            if not verdict.ok:
                issues = "; ".join(str(i) for i in verdict.issues[:3])
                report.failures.append(f"verify[{label}]: {issues}")
        except Exception as err:  # noqa: BLE001
            report.failures.append(f"verify[{label}]: {err!r}")
        try:
            erased = pretty_program(erase_program(result.target))
            if erased != normalized:
                report.failures.append(
                    f"erasure[{label}]: erased target differs from source"
                )
        except Exception as err:  # noqa: BLE001
            report.failures.append(f"erasure[{label}]: {err!r}")
        if getattr(mode, "value", None) == "field":
            field_result = result

    if execute and field_result is not None:
        for n in args:
            report.executed_args.append(n)
            try:
                target_value = Interpreter(
                    field_result.target, check_dangling=True
                ).run_static(entry, [n])
                source_value = SourceInterpreter(
                    parse_program(source)
                ).run_static(entry, [n])
            except Exception as err:  # noqa: BLE001
                report.failures.append(f"execute[{entry}({n})]: {err!r}")
                continue
            if value_snapshot(target_value) != value_snapshot(source_value):
                report.failures.append(
                    f"bisimulation[{entry}({n})]: target "
                    f"{value_snapshot(target_value)!r} != source "
                    f"{value_snapshot(source_value)!r}"
                )
    return report

