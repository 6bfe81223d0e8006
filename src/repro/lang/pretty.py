"""Pretty printers for source and region-annotated Core-Java.

The target printer can optionally re-number regions ``r1, r2, ...`` in
first-use order (like the paper's figures) via
:class:`~repro.regions.constraints.RegionNames`.
"""

from __future__ import annotations

from typing import List, Optional

from ..regions.abstraction import AbstractionEnv
from ..regions.constraints import (
    Constraint,
    Outlives,
    PredAtom,
    Region,
    RegionEq,
    RegionNames,
)
from . import ast as S
from . import target as T

__all__ = ["pretty_program", "pretty_expr", "pretty_target", "pretty_texpr", "pretty_constraint"]

_INDENT = "  "


# ---------------------------------------------------------------------------
# Source printer
# ---------------------------------------------------------------------------


def pretty_type(t: S.Type) -> str:
    return str(t)


def pretty_expr(e: S.Expr, indent: int = 0) -> str:
    """Render a source expression."""
    pad = _INDENT * indent
    if isinstance(e, S.Var):
        return e.name
    if isinstance(e, S.IntLit):
        return str(e.value)
    if isinstance(e, S.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, S.Null):
        return f"({e.class_name}) null" if e.class_name else "null"
    if isinstance(e, S.FieldRead):
        return f"{pretty_expr(e.receiver)}.{e.field_name}"
    if isinstance(e, S.Assign):
        return f"{pretty_expr(e.lhs)} = {pretty_expr(e.rhs)}"
    if isinstance(e, S.New):
        args = ", ".join(pretty_expr(a) for a in e.args)
        return f"new {e.class_name}({args})"
    if isinstance(e, S.Call):
        args = ", ".join(pretty_expr(a) for a in e.args)
        if e.receiver is None:
            return f"{e.method_name}({args})"
        return f"{pretty_expr(e.receiver)}.{e.method_name}({args})"
    if isinstance(e, S.Cast):
        return f"({e.class_name}) {pretty_expr(e.expr)}"
    if isinstance(e, S.If):
        # arms are always braced and the whole conditional parenthesised,
        # so nesting under operators reparses unambiguously
        def arm(x: S.Expr) -> str:
            text = pretty_expr(x, indent)
            if isinstance(x, S.Block):
                return text
            return f"{{ {text} }}"

        return f"(if ({pretty_expr(e.cond)}) {arm(e.then)} else {arm(e.els)})"
    if isinstance(e, S.While):
        return f"while ({pretty_expr(e.cond)}) {pretty_expr(e.body, indent)}"
    if isinstance(e, S.Binop):
        return f"({pretty_expr(e.left)} {e.op} {pretty_expr(e.right)})"
    if isinstance(e, S.Unop):
        return f"{e.op}{pretty_expr(e.operand)}"
    if isinstance(e, S.Block):
        inner = _INDENT * (indent + 1)
        lines = ["{"]
        for s in e.stmts:
            if isinstance(s, S.LocalDecl):
                init = f" = {pretty_expr(s.init, indent + 1)}" if s.init else ""
                lines.append(f"{inner}{pretty_type(s.decl_type)} {s.name}{init};")
            else:
                assert isinstance(s, S.ExprStmt)
                lines.append(f"{inner}{pretty_expr(s.expr, indent + 1)};")
        if e.result is not None:
            lines.append(f"{inner}{pretty_expr(e.result, indent + 1)}")
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    raise TypeError(f"unknown expression {e!r}")


def _pretty_method(m: S.MethodDecl, indent: int) -> str:
    pad = _INDENT * indent
    params = ", ".join(f"{pretty_type(p.param_type)} {p.name}" for p in m.params)
    static = "static " if m.is_static and m.owner is None else ""
    body = pretty_expr(m.body, indent)
    return f"{pad}{static}{pretty_type(m.ret_type)} {m.name}({params}) {body}"


def pretty_program(p: S.Program) -> str:
    """Render a whole source program."""
    parts: List[str] = []
    for c in p.classes:
        header = f"class {c.name} extends {c.super_name} {{"
        lines = [header]
        for f in c.fields:
            lines.append(f"{_INDENT}{pretty_type(f.field_type)} {f.name};")
        for m in c.methods:
            lines.append(_pretty_method(m, 1))
        lines.append("}")
        parts.append("\n".join(lines))
    for m in p.statics:
        parts.append(_pretty_method(m, 0))
    return "\n\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Target printer
# ---------------------------------------------------------------------------


class _Namer:
    """Region display names, optionally renumbered."""

    def __init__(self, renumber: bool):
        self._names: Optional[RegionNames] = RegionNames() if renumber else None

    def __call__(self, r: Region) -> str:
        if self._names is None:
            return str(r)
        return self._names.name(r)


def pretty_rtype(t: T.RType, name=str) -> str:
    if isinstance(t, T.RClass):
        core = f"{t.name}<{', '.join(name(r) for r in t.regions)}>"
        if t.padding:
            core += f"[{', '.join(name(r) for r in t.padding)}]"
        return core
    return str(t)


def pretty_constraint(c: Constraint, name=str) -> str:
    """Render a constraint with the given region-naming function."""
    if c.is_true:
        return "true"
    parts = []
    for a in c.sorted_atoms():
        if isinstance(a, Outlives):
            parts.append(f"{name(a.left)} >= {name(a.right)}")
        elif isinstance(a, RegionEq):
            parts.append(f"{name(a.left)} = {name(a.right)}")
        else:
            assert isinstance(a, PredAtom)
            parts.append(f"{a.name}<{', '.join(name(r) for r in a.args)}>")
    return " /\\ ".join(parts)


def pretty_texpr(e: T.TExpr, indent: int = 0, name=str) -> str:
    """Render a target expression with region annotations."""
    pad = _INDENT * indent
    if isinstance(e, T.TVar):
        return e.name
    if isinstance(e, T.TIntLit):
        return str(e.value)
    if isinstance(e, T.TBoolLit):
        return "true" if e.value else "false"
    if isinstance(e, T.TNull):
        return f"({pretty_rtype(e.type, name)}) null"
    if isinstance(e, T.TFieldRead):
        return f"{pretty_texpr(e.receiver, indent, name)}.{e.field_name}"
    if isinstance(e, T.TAssign):
        return (
            f"{pretty_texpr(e.lhs, indent, name)} = "
            f"{pretty_texpr(e.rhs, indent, name)}"
        )
    if isinstance(e, T.TNew):
        args = ", ".join(pretty_texpr(a, indent, name) for a in e.args)
        regions = ", ".join(name(r) for r in e.regions)
        return f"new {e.class_name}<{regions}>({args})"
    if isinstance(e, T.TCall):
        args = ", ".join(pretty_texpr(a, indent, name) for a in e.args)
        regions = ", ".join(name(r) for r in e.region_args)
        rpart = f"<{regions}>" if e.region_args else "<>"
        if e.receiver is None:
            return f"{e.method_name}{rpart}({args})"
        return f"{pretty_texpr(e.receiver, indent, name)}.{e.method_name}{rpart}({args})"
    if isinstance(e, T.TCast):
        return f"({pretty_rtype(e.type, name)}) {pretty_texpr(e.expr, indent, name)}"
    if isinstance(e, T.TIf):
        return (
            f"if ({pretty_texpr(e.cond, indent, name)}) "
            f"{pretty_texpr(e.then, indent, name)} else "
            f"{pretty_texpr(e.els, indent, name)}"
        )
    if isinstance(e, T.TWhile):
        return f"while ({pretty_texpr(e.cond, indent, name)}) {pretty_texpr(e.body, indent, name)}"
    if isinstance(e, T.TBinop):
        return (
            f"({pretty_texpr(e.left, indent, name)} {e.op} "
            f"{pretty_texpr(e.right, indent, name)})"
        )
    if isinstance(e, T.TUnop):
        return f"{e.op}{pretty_texpr(e.operand, indent, name)}"
    if isinstance(e, T.TLetreg):
        regions = ", ".join(name(r) for r in e.regions)
        return f"letreg {regions} in {pretty_texpr(e.body, indent, name)}"
    if isinstance(e, T.TBlock):
        inner = _INDENT * (indent + 1)
        lines = ["{"]
        for s in e.stmts:
            if isinstance(s, T.TLocalDecl):
                init = f" = {pretty_texpr(s.init, indent + 1, name)}" if s.init else ""
                lines.append(
                    f"{inner}{pretty_rtype(s.decl_type, name)} {s.name}{init};"
                )
            else:
                assert isinstance(s, T.TExprStmt)
                lines.append(f"{inner}{pretty_texpr(s.expr, indent + 1, name)};")
        if e.result is not None:
            lines.append(f"{inner}{pretty_texpr(e.result, indent + 1, name)}")
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    raise TypeError(f"unknown target expression {e!r}")


def _pretty_tmethod(m: T.TMethodDecl, q: AbstractionEnv, indent: int, name) -> str:
    pad = _INDENT * indent
    params = ", ".join(f"{pretty_rtype(p.param_type, name)} {p.name}" for p in m.params)
    regions = ", ".join(name(r) for r in m.region_params)
    pre = ""
    if m.pre_name and m.pre_name in q and not q[m.pre_name].body.is_true:
        pre = f" where {pretty_constraint(q[m.pre_name].body, name)}"
    static = "static " if m.is_static and m.owner is None else ""
    body = pretty_texpr(m.body, indent, name)
    return (
        f"{pad}{static}{pretty_rtype(m.ret_type, name)} {m.name}"
        f"<{regions}>({params}){pre} {body}"
    )


def pretty_target(p: T.TProgram, renumber: bool = True) -> str:
    """Render a region-annotated program, paper-figure style."""
    name = _Namer(renumber)
    parts: List[str] = []
    for c in p.classes:
        regions = ", ".join(name(r) for r in c.regions)
        sup_regions = ", ".join(name(r) for r in c.super_regions)
        sup = f"{c.super_name}<{sup_regions}>" if c.super_regions else c.super_name
        inv = ""
        if c.inv_name and c.inv_name in p.q and not p.q[c.inv_name].body.is_true:
            inv = f" where {pretty_constraint(p.q[c.inv_name].body, name)}"
        lines = [f"class {c.name}<{regions}> extends {sup}{inv} {{"]
        for f in c.fields:
            lines.append(f"{_INDENT}{pretty_rtype(f.field_type, name)} {f.name};")
        for m in c.methods:
            lines.append(_pretty_tmethod(m, p.q, 1, name))
        lines.append("}")
        parts.append("\n".join(lines))
    for m in p.statics:
        parts.append(_pretty_tmethod(m, p.q, 0, name))
    return "\n\n".join(parts) + "\n"
