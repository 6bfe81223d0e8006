"""The *normal* (region-free) type system for Core-Java.

Region inference assumes its input is well-normal-typed (paper Sec 4.1:
"if |- P ~> P' then |-N erase(P')").  This module implements that normal
type system: a conventional class-based checker with subsumption.

Besides checking, it elaborates the program in place with the answers the
later passes rely on:

* every ``null`` literal is resolved to a class-ascribed null
  ``(cn) null`` (the paper's core syntax), with the class taken from the
  expected type at the point of use;
* every call records its target in ``Call.callee`` (the qualified name
  of the method the receiver's static class resolves it to);
* every field read records the class declaring the field in
  ``FieldRead.declaring_class``;
* every cast records its operand's static class in
  ``Cast.operand_class``.

The dependency graph, the downcast analysis and region inference read
these recorded answers instead of resolving calls, fields and casts again.

The checker is deliberately strict: unknown names, arity mismatches,
unrelated casts ("stupid casts"), void misuse and primitive/class mixups are
all :class:`NormalTypeError`\\ s.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..lang import ast as S
from ..lang.class_table import ClassTable, ClassTableError

__all__ = ["NormalTypeError", "NormalTypeChecker", "check_program"]


class NormalTypeError(S.SourceError):
    """Raised when a source program is not well-normal-typed."""


class NormalTypeChecker:
    """Checks a whole :class:`~repro.lang.ast.Program`.

    Usage::

        table = NormalTypeChecker(program).check()

    Returns the :class:`~repro.lang.class_table.ClassTable` (which callers
    almost always need next).  As a side effect the program is elaborated
    in place: ``null`` literals are class-ascribed, and each call, field
    read and cast records its resolved callee, declaring class and operand
    class (see the module docstring).
    """

    def __init__(self, program: S.Program):
        self.program = program
        try:
            self.table = ClassTable(program)
        except ClassTableError as exc:
            raise NormalTypeError(str(exc)) from exc

    # -- entry points -----------------------------------------------------------
    def check(self) -> ClassTable:
        for method in self.program.all_methods():
            try:
                self._check_method(method, method.owner)
            except NormalTypeError as err:
                # the offset is from the method's pos: make it one into the source
                if err.pos is None or method.pos is None:
                    raise
                raise NormalTypeError(
                    err.msg, method.pos + err.pos, self.program.source
                ) from None
        return self.table

    def _check_method(self, method: S.MethodDecl, owner: Optional[str]) -> None:
        # positions here are offsets from the method's pos; the header's
        # errors are at the pos itself, offset 0
        env: Dict[str, S.Type] = {}
        if owner is not None:
            env[S.THIS] = S.ClassType(owner)
            _resolve_implicit_this(method, owner, self.table)
        for p in method.params:
            if p.name in env:
                raise NormalTypeError(
                    f"duplicate parameter {p.name!r} in {method.qualified_name}", 0
                )
            self._check_type(p.param_type, 0)
            env[p.name] = p.param_type
        self._check_type(method.ret_type, 0)
        body_t = self._check_expr(method.body, env, expected=_non_void(method.ret_type))
        if method.ret_type != S.VOID and not self._assignable(body_t, method.ret_type):
            raise NormalTypeError(
                f"{method.qualified_name}: body has type {body_t}, "
                f"declared return type is {method.ret_type}",
                0,
            )

    # -- helpers --------------------------------------------------------------
    def _check_type(self, t: S.Type, pos: Optional[int]) -> None:
        if isinstance(t, S.ClassType) and not self.table.has_class(t.name):
            raise NormalTypeError(f"unknown class {t.name!r}", pos)

    def _assignable(self, src: S.Type, dst: S.Type) -> bool:
        """May a value of type ``src`` flow into a slot of type ``dst``?"""
        if src == dst:
            return True
        if isinstance(src, S.ClassType) and isinstance(dst, S.ClassType):
            return self.table.is_subclass(src.name, dst.name)
        return False

    def _expect_class(self, t: S.Type, what: str, pos: Optional[int]) -> str:
        if not isinstance(t, S.ClassType):
            raise NormalTypeError(f"{what} must have a class type, found {t}", pos)
        return t.name

    # -- expression checking ------------------------------------------------------
    def _check_expr(
        self,
        e: S.Expr,
        env: Dict[str, S.Type],
        expected: Optional[S.Type] = None,
    ) -> S.Type:
        """Type of ``e`` under ``env``.

        ``expected`` is only a hint used to resolve bare ``null`` literals;
        it never relaxes the subtyping obligations enforced by the caller.
        """
        if isinstance(e, S.Var):
            if e.name not in env:
                raise NormalTypeError(f"unbound variable {e.name!r}", e.pos)
            return env[e.name]

        if isinstance(e, S.IntLit):
            return S.INT

        if isinstance(e, S.BoolLit):
            return S.BOOL

        if isinstance(e, S.Null):
            if e.class_name is None:
                if expected is None or not isinstance(expected, S.ClassType):
                    raise NormalTypeError(
                        "cannot determine the class of this null literal; "
                        "ascribe it, e.g. (List) null",
                        e.pos,
                    )
                e.class_name = expected.name
            self._check_type(S.ClassType(e.class_name), e.pos)
            return S.ClassType(e.class_name)

        if isinstance(e, S.FieldRead):
            recv_t = self._check_expr(e.receiver, env)
            cn = self._expect_class(recv_t, "field receiver", e.pos)
            found = self.table.lookup_field(cn, e.field_name)
            if found is None:
                raise NormalTypeError(f"class {cn} has no field {e.field_name!r}", e.pos)
            e.declaring_class = found[1]
            return found[0].field_type

        if isinstance(e, S.Assign):
            if isinstance(e.lhs, S.Var):
                lhs_t = self._check_expr(e.lhs, env)
            elif isinstance(e.lhs, S.FieldRead):
                lhs_t = self._check_expr(e.lhs, env)
            else:
                raise NormalTypeError("invalid assignment target", e.pos)
            if lhs_t == S.VOID:
                raise NormalTypeError("cannot assign to a void location", e.pos)
            rhs_t = self._check_expr(e.rhs, env, expected=lhs_t)
            if not self._assignable(rhs_t, lhs_t):
                raise NormalTypeError(
                    f"cannot assign {rhs_t} to location of type {lhs_t}", e.pos
                )
            return S.VOID

        if isinstance(e, S.New):
            if not self.table.has_class(e.class_name):
                raise NormalTypeError(f"unknown class {e.class_name!r}", e.pos)
            fields = self.table.fields(e.class_name)
            if len(e.args) != len(fields):
                raise NormalTypeError(
                    f"new {e.class_name} expects {len(fields)} field initialisers, "
                    f"got {len(e.args)}",
                    e.pos,
                )
            for arg, fdecl in zip(e.args, fields):
                arg_t = self._check_expr(arg, env, expected=fdecl.field_type)
                if not self._assignable(arg_t, fdecl.field_type):
                    raise NormalTypeError(
                        f"field {e.class_name}.{fdecl.name} expects "
                        f"{fdecl.field_type}, got {arg_t}",
                        e.pos,
                    )
            return S.ClassType(e.class_name)

        if isinstance(e, S.Call):
            return self._check_call(e, env)

        if isinstance(e, S.Cast):
            if not self.table.has_class(e.class_name):
                raise NormalTypeError(f"unknown class {e.class_name!r}", e.pos)
            src_t = self._check_expr(e.expr, env, expected=S.ClassType(e.class_name))
            src = self._expect_class(src_t, "cast operand", e.pos)
            if not self.table.related(src, e.class_name):
                raise NormalTypeError(
                    f"cast between unrelated classes {src} and {e.class_name}", e.pos
                )
            e.operand_class = src
            return S.ClassType(e.class_name)

        if isinstance(e, S.If):
            cond_t = self._check_expr(e.cond, env, expected=S.BOOL)
            if cond_t != S.BOOL:
                raise NormalTypeError(f"if condition must be bool, got {cond_t}", e.pos)
            then_t = self._check_expr(e.then, env, expected=expected)
            els_t = self._check_expr(e.els, env, expected=expected or _non_void(then_t))
            return self._merge_branches(then_t, els_t, e.pos)

        if isinstance(e, S.While):
            cond_t = self._check_expr(e.cond, env, expected=S.BOOL)
            if cond_t != S.BOOL:
                raise NormalTypeError(f"while condition must be bool, got {cond_t}", e.pos)
            self._check_expr(e.body, env)
            return S.VOID

        if isinstance(e, S.Binop):
            return self._check_binop(e, env)

        if isinstance(e, S.Unop):
            t = self._check_expr(e.operand, env)
            if e.op == "!":
                if t != S.BOOL:
                    raise NormalTypeError(f"'!' needs bool, got {t}", e.pos)
                return S.BOOL
            if e.op == "-":
                if t != S.INT:
                    raise NormalTypeError(f"unary '-' needs int, got {t}", e.pos)
                return S.INT
            raise NormalTypeError(f"unknown unary operator {e.op!r}", e.pos)

        if isinstance(e, S.Block):
            inner = dict(env)
            for s in e.stmts:
                if isinstance(s, S.LocalDecl):
                    self._check_type(s.decl_type, s.pos)
                    if s.decl_type == S.VOID:
                        raise NormalTypeError(
                            f"local {s.name!r} cannot have type void", s.pos
                        )
                    if s.init is not None:
                        init_t = self._check_expr(s.init, inner, expected=s.decl_type)
                        if not self._assignable(init_t, s.decl_type):
                            raise NormalTypeError(
                                f"initialiser of {s.name!r} has type {init_t}, "
                                f"expected {s.decl_type}",
                                s.pos,
                            )
                    inner[s.name] = s.decl_type
                else:
                    assert isinstance(s, S.ExprStmt)
                    self._check_expr(s.expr, inner)
            if e.result is None:
                return S.VOID
            return self._check_expr(e.result, inner, expected=expected)

        raise NormalTypeError(f"unknown expression {e!r}")

    def _check_call(self, e: S.Call, env: Dict[str, S.Type]) -> S.Type:
        if e.receiver is None:
            decl = self.table.lookup_static(e.method_name)
            if decl is None:
                raise NormalTypeError(f"unknown static method {e.method_name!r}", e.pos)
        else:
            recv_t = self._check_expr(e.receiver, env)
            cn = self._expect_class(recv_t, "method receiver", e.pos)
            found = self.table.lookup_method(cn, e.method_name)
            if found is None:
                raise NormalTypeError(
                    f"class {cn} has no method {e.method_name!r}", e.pos
                )
            decl = found[0]
        if len(e.args) != len(decl.params):
            raise NormalTypeError(
                f"{decl.qualified_name} expects {len(decl.params)} arguments, "
                f"got {len(e.args)}",
                e.pos,
            )
        for arg, param in zip(e.args, decl.params):
            arg_t = self._check_expr(arg, env, expected=param.param_type)
            if not self._assignable(arg_t, param.param_type):
                raise NormalTypeError(
                    f"argument for {decl.qualified_name}/{param.name} has type "
                    f"{arg_t}, expected {param.param_type}",
                    e.pos,
                )
        e.callee = decl.qualified_name
        return decl.ret_type

    def _check_binop(self, e: S.Binop, env: Dict[str, S.Type]) -> S.Type:
        if e.op in S.ARITH_OPS:
            lt = self._check_expr(e.left, env)
            rt = self._check_expr(e.right, env)
            if lt != S.INT or rt != S.INT:
                raise NormalTypeError(f"'{e.op}' needs int operands, got {lt}, {rt}", e.pos)
            return S.INT
        if e.op in S.COMPARE_OPS:
            lt = self._check_expr(e.left, env)
            rt = self._check_expr(e.right, env)
            if lt != S.INT or rt != S.INT:
                raise NormalTypeError(f"'{e.op}' needs int operands, got {lt}, {rt}", e.pos)
            return S.BOOL
        if e.op in S.LOGIC_OPS:
            lt = self._check_expr(e.left, env)
            rt = self._check_expr(e.right, env)
            if lt != S.BOOL or rt != S.BOOL:
                raise NormalTypeError(f"'{e.op}' needs bool operands, got {lt}, {rt}", e.pos)
            return S.BOOL
        if e.op in S.EQUALITY_OPS:
            lt = self._check_expr(e.left, env)
            rt = self._check_expr(e.right, env, expected=_non_void(lt))
            if isinstance(lt, S.ClassType) != isinstance(rt, S.ClassType):
                raise NormalTypeError(
                    f"'{e.op}' cannot compare {lt} with {rt}", e.pos
                )
            if isinstance(lt, S.ClassType):
                if not self.table.related(lt.name, rt.name):
                    raise NormalTypeError(
                        f"'{e.op}' on unrelated classes {lt} and {rt}", e.pos
                    )
            elif lt != rt or lt == S.VOID:
                raise NormalTypeError(f"'{e.op}' cannot compare {lt} with {rt}", e.pos)
            return S.BOOL
        raise NormalTypeError(f"unknown operator {e.op!r}", e.pos)

    def _merge_branches(self, a: S.Type, b: S.Type, pos: Optional[int]) -> S.Type:
        """Result type of a two-armed if: ``msst`` for classes."""
        if a == S.VOID or b == S.VOID:
            return S.VOID
        if a == b:
            return a
        if isinstance(a, S.ClassType) and isinstance(b, S.ClassType):
            return S.ClassType(self.table.msst(a.name, b.name))
        raise NormalTypeError(f"if branches have incompatible types {a} and {b}", pos)


def _non_void(t: Optional[S.Type]) -> Optional[S.Type]:
    return None if t == S.VOID else t


def _resolve_implicit_this(method: S.MethodDecl, owner: str, table: ClassTable) -> None:
    """Rewrite bare field references ``f`` into ``this.f``.

    The paper's figures use bare field names inside method bodies
    (``{fst}`` in ``getFst``); this elaboration makes the core rules --
    which only know explicit ``v.f`` accesses -- applicable.  A local
    variable or parameter of the same name shadows the field.  The same
    treatment applies to bare *instance-method* calls ``mn(..)`` on the
    current class (static methods take priority, as they are unambiguous).
    """
    rewriter = _ImplicitThis(
        {f.name for f in table.fields(owner)},
        {m.name for (m, _) in table.methods(owner)},
        table,
    )
    body = rewriter.rewrite(method.body, {p.name for p in method.params})
    assert isinstance(body, S.Block)
    method.body = body


class _ImplicitThis:
    """The rewrite of :func:`_resolve_implicit_this` for one class.

    A class rather than a nested recursive function, which would be a
    reference cycle (function -> closure cell -> function) on every call.
    """

    def __init__(self, field_names: Set[str], method_names: Set[str], table: ClassTable):
        self.field_names = field_names
        self.method_names = method_names
        self.table = table

    def rewrite(self, e: S.Expr, bound: set) -> S.Expr:
        if isinstance(e, S.Var):
            if e.name not in bound and e.name != S.THIS and e.name in self.field_names:
                return S.FieldRead(S.Var(S.THIS, pos=e.pos), e.name, pos=e.pos)
            return e
        if isinstance(e, S.Call) and e.receiver is None:
            args = [self.rewrite(a, bound) for a in e.args]
            if self.table.lookup_static(e.method_name) is None and e.method_name in self.method_names:
                return S.Call(S.Var(S.THIS, pos=e.pos), e.method_name, args, pos=e.pos)
            e.args = args
            return e
        if isinstance(e, S.Block):
            inner = set(bound)
            for s in e.stmts:
                if isinstance(s, S.LocalDecl):
                    if s.init is not None:
                        s.init = self.rewrite(s.init, inner)
                    inner.add(s.name)
                else:
                    assert isinstance(s, S.ExprStmt)
                    s.expr = self.rewrite(s.expr, inner)
            if e.result is not None:
                e.result = self.rewrite(e.result, inner)
            return e
        # generic in-place rebuild for the remaining node kinds
        if isinstance(e, S.FieldRead):
            e.receiver = self.rewrite(e.receiver, bound)
        elif isinstance(e, S.Assign):
            e.lhs = self.rewrite(e.lhs, bound)
            e.rhs = self.rewrite(e.rhs, bound)
        elif isinstance(e, S.New):
            e.args = [self.rewrite(a, bound) for a in e.args]
        elif isinstance(e, S.Call):
            if e.receiver is not None:
                e.receiver = self.rewrite(e.receiver, bound)
            e.args = [self.rewrite(a, bound) for a in e.args]
        elif isinstance(e, S.Cast):
            e.expr = self.rewrite(e.expr, bound)
        elif isinstance(e, S.If):
            e.cond = self.rewrite(e.cond, bound)
            e.then = self.rewrite(e.then, bound)
            e.els = self.rewrite(e.els, bound)
        elif isinstance(e, S.While):
            e.cond = self.rewrite(e.cond, bound)
            body = self.rewrite(e.body, bound)
            assert isinstance(body, S.Block)
            e.body = body
        elif isinstance(e, S.Binop):
            e.left = self.rewrite(e.left, bound)
            e.right = self.rewrite(e.right, bound)
        elif isinstance(e, S.Unop):
            e.operand = self.rewrite(e.operand, bound)
        return e


def check_program(program: S.Program) -> ClassTable:
    """Check ``program``; returns its class table.  Raises on error."""
    return NormalTypeChecker(program).check()
