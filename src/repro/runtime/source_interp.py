"""A region-free interpreter for *source* Core-Java programs.

Used for the bisimulation half of the correctness story: the observable
behaviour of an inferred program (run on the region interpreter) must equal
the behaviour of the original source program run here (where every object
lives forever, as under a garbage collector that never collects).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..lang import ast as S
from .interp import (
    CastFailedError,
    NullAccessError,
    RuntimeError_,
    _entry_locals,
    _java_div,
    _same_value,
    _Stepper,
)
from .values import (
    NULL_VALUE,
    Obj,
    Value,
    VBool,
    VInt,
    VNull,
    VObj,
    VOID_VALUE,
)

__all__ = ["SourceInterpreter", "value_snapshot"]


class SourceInterpreter(_Stepper):
    """Evaluates source programs with unbounded-lifetime objects."""

    def __init__(self, program: S.Program, *, step_budget: Optional[int] = None):
        from ..typing.normal import NormalTypeChecker

        super().__init__(step_budget)
        self.program = program
        # normal checking elaborates implicit-this references and bare
        # nulls in place -- required before direct evaluation
        self.table = NormalTypeChecker(program).check()
        self.total_allocated = 0

    def run_static(self, name: str, args: Sequence[object] = ()) -> Value:
        decl = self.table.lookup_static(name)
        if decl is None:
            raise RuntimeError_(f"no static method {name!r}")
        return self._eval(decl.body, _entry_locals(decl, args))

    # -- evaluation -----------------------------------------------------------------
    def _obj(self, v: Value, what: str) -> Obj:
        if isinstance(v, VNull):
            raise NullAccessError(f"{what} on null")
        if not isinstance(v, VObj):
            raise RuntimeError_(f"{what} on non-object {v}")
        return v.obj

    def _eval(self, e: S.Expr, env: Dict[str, Value]) -> Value:
        self._tick()
        if isinstance(e, S.Var):
            try:
                return env[e.name]
            except KeyError:
                raise RuntimeError_(f"unbound variable {e.name!r}") from None
        if isinstance(e, S.IntLit):
            return VInt(e.value)
        if isinstance(e, S.BoolLit):
            return VBool(e.value)
        if isinstance(e, S.Null):
            return NULL_VALUE
        if isinstance(e, S.FieldRead):
            obj = self._obj(self._eval(e.receiver, env), f"read of {e.field_name}")
            return obj.fields[e.field_name]
        if isinstance(e, S.Assign):
            value = self._eval(e.rhs, env)
            if isinstance(e.lhs, S.Var):
                env[e.lhs.name] = value
            else:
                assert isinstance(e.lhs, S.FieldRead)
                obj = self._obj(
                    self._eval(e.lhs.receiver, env), f"write of {e.lhs.field_name}"
                )
                obj.fields[e.lhs.field_name] = value
            return VOID_VALUE
        if isinstance(e, S.New):
            fields = self.table.fields(e.class_name)
            values: Dict[str, Value] = {}
            for fdecl, arg in zip(fields, e.args):
                values[fdecl.name] = self._eval(arg, env)
            obj = Obj(e.class_name, values)
            self.total_allocated += obj.size
            return VObj(obj)
        if isinstance(e, S.Call):
            return self._eval_call(e, env)
        if isinstance(e, S.Cast):
            value = self._eval(e.expr, env)
            if isinstance(value, VNull):
                return value
            obj = self._obj(value, "cast")
            if not self.table.is_subclass(obj.class_name, e.class_name):
                raise CastFailedError(
                    f"cannot cast {obj.class_name} to {e.class_name}"
                )
            return value
        if isinstance(e, S.If):
            cond = self._eval(e.cond, env)
            assert isinstance(cond, VBool)
            return self._eval(e.then if cond.value else e.els, env)
        if isinstance(e, S.While):
            while True:
                cond = self._eval(e.cond, env)
                assert isinstance(cond, VBool)
                if not cond.value:
                    return VOID_VALUE
                self._eval(e.body, env)
        if isinstance(e, S.Binop):
            return self._eval_binop(e, env)
        if isinstance(e, S.Unop):
            v = self._eval(e.operand, env)
            if e.op == "!":
                assert isinstance(v, VBool)
                return VBool(not v.value)
            assert isinstance(v, VInt)
            return VInt(-v.value)
        if isinstance(e, S.Block):
            saved: List[Tuple[str, Optional[Value], bool]] = []
            for s in e.stmts:
                if isinstance(s, S.LocalDecl):
                    saved.append((s.name, env.get(s.name), s.name in env))
                    env[s.name] = (
                        self._eval(s.init, env)
                        if s.init is not None
                        else _default(s.decl_type)
                    )
                else:
                    assert isinstance(s, S.ExprStmt)
                    self._eval(s.expr, env)
            result = self._eval(e.result, env) if e.result is not None else VOID_VALUE
            for name, old, had in reversed(saved):
                if had:
                    env[name] = old  # type: ignore[assignment]
                else:
                    env.pop(name, None)
            return result
        raise RuntimeError_(f"cannot evaluate {type(e).__name__}")

    def _eval_call(self, e: S.Call, env: Dict[str, Value]) -> Value:
        if e.receiver is None:
            decl = self.table.lookup_static(e.method_name)
            if decl is None:
                raise RuntimeError_(f"no static method {e.method_name!r}")
            locals_: Dict[str, Value] = {}
        else:
            recv = self._eval(e.receiver, env)
            obj = self._obj(recv, f"call of {e.method_name}")
            found = self.table.lookup_method(obj.class_name, e.method_name)
            if found is None:
                raise RuntimeError_(
                    f"class {obj.class_name} has no method {e.method_name!r}"
                )
            decl = found[0]
            locals_ = {"this": recv}
        for p, arg in zip(decl.params, e.args):
            locals_[p.name] = self._eval(arg, env)
        return self._eval(decl.body, locals_)

    def _eval_binop(self, e: S.Binop, env: Dict[str, Value]) -> Value:
        if e.op == "&&":
            left = self._eval(e.left, env)
            assert isinstance(left, VBool)
            return self._eval(e.right, env) if left.value else VBool(False)
        if e.op == "||":
            left = self._eval(e.left, env)
            assert isinstance(left, VBool)
            return VBool(True) if left.value else self._eval(e.right, env)
        lv = self._eval(e.left, env)
        rv = self._eval(e.right, env)
        if e.op in ("==", "!="):
            same = _same_value(lv, rv)
            return VBool(same if e.op == "==" else not same)
        assert isinstance(lv, VInt) and isinstance(rv, VInt)
        a, b = lv.value, rv.value
        if e.op == "+":
            return VInt(a + b)
        if e.op == "-":
            return VInt(a - b)
        if e.op == "*":
            return VInt(a * b)
        if e.op == "/":
            if b == 0:
                raise RuntimeError_("division by zero")
            return VInt(_java_div(a, b))
        if e.op == "%":
            if b == 0:
                raise RuntimeError_("modulo by zero")
            return VInt(a - b * _java_div(a, b))
        if e.op == "<":
            return VBool(a < b)
        if e.op == "<=":
            return VBool(a <= b)
        if e.op == ">":
            return VBool(a > b)
        if e.op == ">=":
            return VBool(a >= b)
        raise RuntimeError_(f"unknown operator {e.op!r}")


def _default(t: S.Type) -> Value:
    if t == S.INT:
        return VInt(0)
    if t == S.BOOL:
        return VBool(False)
    return NULL_VALUE


def value_snapshot(v: Value, _seen: Optional[Dict[int, int]] = None) -> object:
    """A comparable, cycle-safe snapshot of a value graph.

    Objects become ``(class, id_or_backref, sorted fields)``; identical
    structure (up to object identity numbering) compares equal, which is
    what the bisimulation tests need.
    """
    if _seen is None:
        _seen = {}
    if isinstance(v, VInt):
        return ("int", v.value)
    if isinstance(v, VBool):
        return ("bool", v.value)
    if isinstance(v, VNull):
        return ("null",)
    if isinstance(v, VObj):
        oid = id(v.obj)
        if oid in _seen:
            return ("backref", _seen[oid])
        _seen[oid] = len(_seen)
        fields = tuple(
            (name, value_snapshot(val, _seen))
            for name, val in sorted(v.obj.fields.items())
        )
        return ("obj", v.obj.class_name, fields)
    return ("void",)
