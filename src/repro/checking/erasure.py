"""Region erasure (paper Sec 4.1 / 4.5).

``erase`` maps a region-annotated target program back to plain Core-Java by
forgetting every region annotation; Theorem 1's companion property is that
the erasure of the inferred program is the original program (so source and
target have the same observable behaviour, via bisimulation).

The erasure is structural; the test suite compares it against the
(elaborated) source program.
"""

from __future__ import annotations

from typing import List

from ..lang import ast as S
from ..lang import target as T

__all__ = ["erase_type", "erase_expr", "erase_method", "erase_program"]


def erase_type(t: T.RType) -> S.Type:
    """Forget the regions of an annotated type."""
    if isinstance(t, T.RPrim):
        return S.PrimType(t.name)
    assert isinstance(t, T.RClass)
    return S.ClassType(t.name)


def erase_expr(e: T.TExpr) -> S.Expr:
    """Forget the annotations of a target expression.

    ``letreg`` disappears entirely (it has no source counterpart); blocks,
    statements and every other construct erase pointwise.
    """
    if isinstance(e, T.TVar):
        return S.Var(e.name)
    if isinstance(e, T.TIntLit):
        return S.IntLit(e.value)
    if isinstance(e, T.TBoolLit):
        return S.BoolLit(e.value)
    if isinstance(e, T.TNull):
        return S.Null(e.type.name)
    if isinstance(e, T.TFieldRead):
        return S.FieldRead(erase_expr(e.receiver), e.field_name)
    if isinstance(e, T.TAssign):
        return S.Assign(erase_expr(e.lhs), erase_expr(e.rhs))
    if isinstance(e, T.TNew):
        return S.New(e.class_name, [erase_expr(a) for a in e.args], label=e.label)
    if isinstance(e, T.TCall):
        recv = erase_expr(e.receiver) if e.receiver is not None else None
        return S.Call(recv, e.method_name, [erase_expr(a) for a in e.args])
    if isinstance(e, T.TCast):
        return S.Cast(e.type.name, erase_expr(e.expr))
    if isinstance(e, T.TIf):
        return S.If(erase_expr(e.cond), erase_expr(e.then), erase_expr(e.els))
    if isinstance(e, T.TWhile):
        body = erase_expr(e.body)
        if not isinstance(body, S.Block):
            body = S.Block(stmts=[S.ExprStmt(body)], result=None)
        return S.While(erase_expr(e.cond), body)
    if isinstance(e, (T.TBinop,)):
        return S.Binop(e.op, erase_expr(e.left), erase_expr(e.right))
    if isinstance(e, T.TUnop):
        return S.Unop(e.op, erase_expr(e.operand))
    if isinstance(e, T.TLetreg):
        return erase_expr(e.body)
    if isinstance(e, T.TBlock):
        stmts: List[S.Stmt] = []
        for s in e.stmts:
            if isinstance(s, T.TLocalDecl):
                init = erase_expr(s.init) if s.init is not None else None
                stmts.append(S.LocalDecl(erase_type(s.decl_type), s.name, init))
            else:
                assert isinstance(s, T.TExprStmt)
                stmts.append(S.ExprStmt(erase_expr(s.expr)))
        result = erase_expr(e.result) if e.result is not None else None
        return S.Block(stmts=stmts, result=result)
    raise TypeError(f"cannot erase {e!r}")


def erase_method(m: T.TMethodDecl) -> S.MethodDecl:
    body = erase_expr(m.body)
    if not isinstance(body, S.Block):
        body = S.Block(stmts=[], result=body)
    return S.MethodDecl(
        ret_type=erase_type(m.ret_type),
        name=m.name,
        params=[S.Param(erase_type(p.param_type), p.name) for p in m.params],
        body=body,
        is_static=m.is_static,
        owner=m.owner,
    )


def erase_program(p: T.TProgram) -> S.Program:
    classes = [
        S.ClassDecl(
            name=c.name,
            super_name=c.super_name,
            fields=[S.FieldDecl(erase_type(f.field_type), f.name) for f in c.fields],
            methods=[erase_method(m) for m in c.methods],
        )
        for c in p.classes
    ]
    statics = [erase_method(m) for m in p.statics]
    return S.Program(classes=classes, statics=statics)
