"""Loop-to-tail-recursion conversion (paper Sec 2).

Core-Java's formal grammar has no loops; the paper handles them "through
conversion to equivalent tail-recursive methods" whose parameters are passed
*by reference* (so the regions of actuals and formals coincide -- mimicking a
loop's reuse of the same mutable variables).  The conversion is used for
*inference purposes only*: the generated program still executes the loop
directly.

This module implements that conversion: every ``while (c) { body }`` becomes

.. code-block:: java

    loop$k(x1, ..., xn);                       // call site, by-reference

    static void loop$k(T1 x1, ..., Tn xn) {    // by_ref method
        if (c) { body; loop$k(x1, ..., xn); } else { }
    }

where ``x1..xn`` are the free variables of the loop (``this`` is passed as
an ordinary first parameter and renamed in the body).  Nested loops are
converted innermost-first.

The main inference pipeline instead uses the equivalent *flow-insensitive
loop rule* directly on ``While`` nodes (one pass over the body gathers all
constraints; by-reference equivalence holds because the loop reuses the same
variables with the same region types on every iteration).
``tests/infer/test_loop_conversion.py`` checks the two paths agree.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, List, Optional, Set

from ..lang import ast as S
from ..lang.class_table import ClassTable

__all__ = ["convert_loops", "free_vars", "clone_expr"]

_loop_counter = itertools.count(1)

#: name used for the receiver parameter of loop methods hoisted out of
#: instance methods
_SELF = "self$"


def clone_expr(e: S.Expr, rename: Optional[Dict[str, str]] = None) -> S.Expr:
    """A deep copy of ``e`` with variables renamed per ``rename``."""
    rename = rename or {}
    if isinstance(e, S.Var):
        return S.Var(rename.get(e.name, e.name), pos=e.pos)
    if isinstance(e, S.IntLit):
        return S.IntLit(e.value, pos=e.pos)
    if isinstance(e, S.BoolLit):
        return S.BoolLit(e.value, pos=e.pos)
    if isinstance(e, S.Null):
        return S.Null(e.class_name, pos=e.pos)
    if isinstance(e, S.FieldRead):
        return S.FieldRead(clone_expr(e.receiver, rename), e.field_name, pos=e.pos)
    if isinstance(e, S.Assign):
        return S.Assign(clone_expr(e.lhs, rename), clone_expr(e.rhs, rename), pos=e.pos)
    if isinstance(e, S.New):
        return S.New(
            e.class_name,
            [clone_expr(a, rename) for a in e.args],
            label=e.label,
            pos=e.pos,
        )
    if isinstance(e, S.Call):
        recv = clone_expr(e.receiver, rename) if e.receiver is not None else None
        return S.Call(recv, e.method_name, [clone_expr(a, rename) for a in e.args], pos=e.pos)
    if isinstance(e, S.Cast):
        return S.Cast(e.class_name, clone_expr(e.expr, rename), pos=e.pos)
    if isinstance(e, S.If):
        return S.If(
            clone_expr(e.cond, rename),
            clone_expr(e.then, rename),
            clone_expr(e.els, rename),
            pos=e.pos,
        )
    if isinstance(e, S.While):
        body = clone_expr(e.body, rename)
        assert isinstance(body, S.Block)
        return S.While(clone_expr(e.cond, rename), body, pos=e.pos)
    if isinstance(e, S.Binop):
        return S.Binop(e.op, clone_expr(e.left, rename), clone_expr(e.right, rename), pos=e.pos)
    if isinstance(e, S.Unop):
        return S.Unop(e.op, clone_expr(e.operand, rename), pos=e.pos)
    if isinstance(e, S.Block):
        stmts: List[S.Stmt] = []
        inner = dict(rename)
        for s in e.stmts:
            if isinstance(s, S.LocalDecl):
                inner.pop(s.name, None)  # shadowing kills outer renames
                init = clone_expr(s.init, inner) if s.init is not None else None
                stmts.append(S.LocalDecl(s.decl_type, s.name, init, pos=s.pos))
            else:
                assert isinstance(s, S.ExprStmt)
                stmts.append(S.ExprStmt(clone_expr(s.expr, inner)))
        result = clone_expr(e.result, inner) if e.result is not None else None
        return S.Block(stmts=stmts, result=result, pos=e.pos)
    raise TypeError(f"unknown expression {e!r}")


def free_vars(e: S.Expr, bound: Set[str]) -> List[str]:
    """Free variables of ``e`` (incl. ``this``), first-use order."""
    out: List[str] = []
    seen: Set[str] = set()

    def go(node: S.Expr, bound_here: Set[str]) -> None:
        if isinstance(node, S.Var):
            if node.name not in bound_here and node.name not in seen:
                seen.add(node.name)
                out.append(node.name)
            return
        if isinstance(node, S.Block):
            inner = set(bound_here)
            for s in node.stmts:
                if isinstance(s, S.LocalDecl):
                    if s.init is not None:
                        go(s.init, inner)
                    inner.add(s.name)
                else:
                    assert isinstance(s, S.ExprStmt)
                    go(s.expr, inner)
            if node.result is not None:
                go(node.result, inner)
            return
        for child in node.children():
            go(child, bound_here)

    go(e, set(bound))
    return out


class _Converter:
    """Converts the loops of one program, accumulating loop methods."""

    def __init__(self, program: S.Program):
        self.program = program
        self.table = ClassTable(program)
        self.generated: List[S.MethodDecl] = []
        #: the method being converted: a loop method's body keeps offsets
        #: from its ``pos``
        self.method_pos: Optional[int] = None

    # -- scope tracking -------------------------------------------------------
    def convert_method(self, method: S.MethodDecl) -> S.MethodDecl:
        env: Dict[str, S.Type] = {p.name: p.param_type for p in method.params}
        if method.owner is not None:
            env[S.THIS] = S.ClassType(method.owner)
        self.method_pos = method.pos
        body = self._convert(method.body, env)
        assert isinstance(body, S.Block)
        return replace(method, body=body)

    def _convert(self, e: S.Expr, env: Dict[str, S.Type]) -> S.Expr:
        if isinstance(e, S.Block):
            inner = dict(env)
            stmts: List[S.Stmt] = []
            for s in e.stmts:
                if isinstance(s, S.LocalDecl):
                    init = self._convert(s.init, inner) if s.init is not None else None
                    inner[s.name] = s.decl_type
                    stmts.append(S.LocalDecl(s.decl_type, s.name, init, pos=s.pos))
                else:
                    assert isinstance(s, S.ExprStmt)
                    stmts.append(S.ExprStmt(self._convert(s.expr, inner)))
            result = self._convert(e.result, inner) if e.result is not None else None
            return S.Block(stmts=stmts, result=result, pos=e.pos)
        if isinstance(e, S.While):
            return self._convert_loop(e, env)
        # generic rebuild
        if isinstance(e, S.FieldRead):
            return S.FieldRead(self._convert(e.receiver, env), e.field_name, pos=e.pos)
        if isinstance(e, S.Assign):
            return S.Assign(self._convert(e.lhs, env), self._convert(e.rhs, env), pos=e.pos)
        if isinstance(e, S.New):
            return S.New(
                e.class_name, [self._convert(a, env) for a in e.args], label=e.label, pos=e.pos
            )
        if isinstance(e, S.Call):
            recv = self._convert(e.receiver, env) if e.receiver is not None else None
            return S.Call(recv, e.method_name, [self._convert(a, env) for a in e.args], pos=e.pos)
        if isinstance(e, S.Cast):
            return S.Cast(e.class_name, self._convert(e.expr, env), pos=e.pos)
        if isinstance(e, S.If):
            return S.If(
                self._convert(e.cond, env),
                self._convert(e.then, env),
                self._convert(e.els, env),
                pos=e.pos,
            )
        if isinstance(e, S.Binop):
            return S.Binop(e.op, self._convert(e.left, env), self._convert(e.right, env), pos=e.pos)
        if isinstance(e, S.Unop):
            return S.Unop(e.op, self._convert(e.operand, env), pos=e.pos)
        return clone_expr(e)

    def _convert_loop(self, loop: S.While, env: Dict[str, S.Type]) -> S.Expr:
        # convert nested loops inside the body first
        body = self._convert(loop.body, env)
        cond = self._convert(loop.cond, env)
        assert isinstance(body, S.Block)

        fv = [
            v
            for v in free_vars(S.Block(stmts=[S.ExprStmt(cond), S.ExprStmt(body)]), set())
            if v in env
        ]
        rename = {S.THIS: _SELF} if S.THIS in fv else {}
        name = f"loop${next(_loop_counter)}"
        params = [
            S.Param(env[v], rename.get(v, v))
            for v in fv
        ]
        rec_args: List[S.Expr] = [S.Var(rename.get(v, v)) for v in fv]
        then_block = S.Block(
            stmts=[S.ExprStmt(clone_expr(body, rename))],
            result=S.Call(None, name, rec_args),
        )
        method_body = S.Block(
            stmts=[],
            result=S.If(
                clone_expr(cond, rename),
                then_block,
                S.Block(stmts=[], result=None),
            ),
        )
        decl = S.MethodDecl(
            ret_type=S.VOID,
            name=name,
            params=params,
            body=method_body,
            is_static=True,
            pos=self.method_pos,
            by_ref=True,
        )
        self.generated.append(decl)
        call_args: List[S.Expr] = [S.Var(v) for v in fv]
        return S.Call(None, name, call_args, pos=loop.pos)


def convert_loops(program: S.Program) -> S.Program:
    """The program with every ``while`` replaced by a by-ref loop method.

    The result contains no :class:`~repro.lang.ast.While` nodes; generated
    methods are appended to the program's statics with ``by_ref=True``.
    """
    converter = _Converter(program)
    classes = [
        replace(c, methods=[converter.convert_method(m) for m in c.methods])
        for c in program.classes
    ]
    statics = [converter.convert_method(m) for m in program.statics] + converter.generated
    return S.Program(classes, statics, source=program.source)
