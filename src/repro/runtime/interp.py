"""An interpreter for region-annotated Core-Java programs.

Executes a :class:`~repro.lang.target.TProgram` on the region-stack
allocator of :mod:`repro.runtime.regions_rt`:

* ``letreg r in e`` pushes a region for exactly the evaluation of ``e``;
* ``new cn<r..>(..)`` allocates into the runtime region bound to ``r``;
* every object stores the full runtime bindings of its class's region
  formals, so dynamically dispatched methods (whose class may be a strict
  subclass of the call's static class) see correct region arguments;
* every object access is checked against region liveness -- the *dangling
  oracle* used by the safety tests (Theorem 1 says it can never fire for
  inferred programs).

The interpreter reports the statistics behind Fig 8's "Space Usage / Total
Allocation" column via ``Interpreter.manager.stats``.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..checking.region_check import _TargetTable
from ..deadline import check as check_deadline
from ..lang import target as T
from ..regions.constraints import Region
from .regions_rt import RegionManager, RuntimeRegion
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

__all__ = [
    "DEFAULT_RECURSION_LIMIT",
    "RuntimeError_",
    "NullAccessError",
    "CastFailedError",
    "StepBudgetExceeded",
    "Interpreter",
]

#: Python stack headroom the tree-walking evaluator needs for the deeper
#: benchmark runs; every entry point raises the interpreter limit to this
#: while it runs (library users get the same behaviour as the CLI).
DEFAULT_RECURSION_LIMIT = 400_000


class _RecursionHeadroom:
    """Refcounted guard over the process-global recursion limit.

    ``sys.setrecursionlimit`` is process state, and batch APIs run several
    interpreters concurrently: a naive save/raise/restore pair would let
    the first finisher clamp the limit back down underneath a still-running
    sibling.  The guard raises the limit on first entry, never lowers it
    while any run is active, and restores the original only when the last
    active run exits.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = 0
        self._saved: Optional[int] = None

    def enter(self, limit: Optional[int]) -> None:
        with self._lock:
            current = sys.getrecursionlimit()
            if self._active == 0:
                self._saved = current
            self._active += 1
            if limit is not None and limit > current:
                sys.setrecursionlimit(limit)

    def exit(self) -> None:
        with self._lock:
            self._active -= 1
            if self._active == 0 and self._saved is not None:
                sys.setrecursionlimit(self._saved)
                self._saved = None


_HEADROOM = _RecursionHeadroom()


class RuntimeError_(Exception):
    """Base class of interpreter errors."""


class NullAccessError(RuntimeError_):
    """Field access or method call on null."""


class CastFailedError(RuntimeError_):
    """A downcast on an object of the wrong runtime class."""


class StepBudgetExceeded(RuntimeError_):
    """The configured evaluation step budget ran out."""


#: evaluation steps between two checks of the enclosing deadline
DEADLINE_STRIDE = 1024


class _Stepper:
    """Step accounting shared by both interpreters.

    :meth:`_tick` pays one compare per step: ``_checkpoint`` is the next
    step count at which the step budget may have run out or the deadline
    (:mod:`repro.deadline`) is due for a check, every
    :data:`DEADLINE_STRIDE` steps.
    """

    def __init__(self, step_budget: Optional[int]) -> None:
        self.step_budget = step_budget
        self._steps = 0
        self._checkpoint = 0

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self._checkpoint:
            self._at_checkpoint()

    def _at_checkpoint(self) -> None:
        budget = self.step_budget
        if budget is not None and self._steps > budget:
            raise StepBudgetExceeded(f"exceeded {budget} steps")
        check_deadline()
        self._checkpoint = self._steps + DEADLINE_STRIDE
        if budget is not None and budget < self._checkpoint:
            self._checkpoint = budget


def _entry_locals(decl, args: Sequence[object]) -> Dict[str, Value]:
    """Bind an entry method's parameters, refusing a wrong argument count."""
    if len(args) != len(decl.params):
        raise RuntimeError_(
            f"entry method {decl.name!r} takes {len(decl.params)} "
            f"argument(s), {len(args)} given"
        )
    return {p.name: _to_value(a) for p, a in zip(decl.params, args)}


class _Frame:
    """One activation: local variables and region bindings."""

    __slots__ = ("locals", "regions")

    def __init__(
        self,
        locals_: Dict[str, Value],
        regions: Dict[Region, RuntimeRegion],
    ):
        self.locals = locals_
        self.regions = regions


class Interpreter(_Stepper):
    """Evaluates target programs.  See the module docstring."""

    def __init__(
        self,
        program: T.TProgram,
        *,
        check_dangling: bool = True,
        step_budget: Optional[int] = None,
        recursion_limit: Optional[int] = DEFAULT_RECURSION_LIMIT,
    ):
        """``recursion_limit`` is the Python stack depth ensured while the
        interpreter runs (the tree-walker recurses once per evaluated
        node); pass ``None`` to leave the interpreter's limit untouched.
        """
        super().__init__(step_budget)
        self.program = program
        self.table = _TargetTable(program)
        self.manager = RegionManager()
        self.check_dangling = check_dangling
        self.recursion_limit = recursion_limit

    # -- entry points ------------------------------------------------------------
    def run_static(self, name: str, args: Sequence[object] = ()) -> Value:
        """Run a top-level static method.

        ``args`` may be Python ints/bools or :class:`Value` objects.  The
        entry method's region parameters are bound to one top-level region
        that is deleted when the run completes.
        """
        decl = self.table.statics.get(name)
        if decl is None:
            raise RuntimeError_(f"no static method {name!r}")
        locals_ = _entry_locals(decl, args)
        _HEADROOM.enter(self.recursion_limit)
        top = self.manager.push("main")
        try:
            regions = {r: top for r in decl.region_params}
            frame = _Frame(locals_, regions)
            return self._eval(decl.body, frame)
        finally:
            self.manager.pop(top)
            _HEADROOM.exit()

    @property
    def stats(self):
        return self.manager.stats

    # -- evaluation -----------------------------------------------------------------
    def _region_of(self, r: Region, frame: _Frame) -> RuntimeRegion:
        if r.is_heap:
            return self.manager.heap
        region = frame.regions.get(r)
        if region is None:
            # regions that escaped static accounting (e.g. view regions of
            # unconstrained nulls) behave like the heap
            return self.manager.heap
        return region

    def _check_obj(self, v: Value, what: str) -> Obj:
        if isinstance(v, VNull):
            raise NullAccessError(f"{what} on null")
        if not isinstance(v, VObj):
            raise RuntimeError_(f"{what} on non-object {v}")
        if self.check_dangling:
            self.manager.check_live(v.obj.region, what)
        return v.obj

    def _eval(self, e: T.TExpr, frame: _Frame) -> Value:
        self._tick()

        if isinstance(e, T.TVar):
            try:
                return frame.locals[e.name]
            except KeyError:
                raise RuntimeError_(f"unbound variable {e.name!r}") from None

        if isinstance(e, T.TIntLit):
            return VInt(e.value)

        if isinstance(e, T.TBoolLit):
            return VBool(e.value)

        if isinstance(e, T.TNull):
            return NULL_VALUE

        if isinstance(e, T.TFieldRead):
            recv = self._eval(e.receiver, frame)
            obj = self._check_obj(recv, f"read of {e.field_name}")
            return obj.fields[e.field_name]

        if isinstance(e, T.TAssign):
            value = self._eval(e.rhs, frame)
            if isinstance(e.lhs, T.TVar):
                frame.locals[e.lhs.name] = value
            else:
                assert isinstance(e.lhs, T.TFieldRead)
                recv = self._eval(e.lhs.receiver, frame)
                obj = self._check_obj(recv, f"write of {e.lhs.field_name}")
                obj.fields[e.lhs.field_name] = value
            return VOID_VALUE

        if isinstance(e, T.TNew):
            return self._eval_new(e, frame)

        if isinstance(e, T.TCall):
            return self._eval_call(e, frame)

        if isinstance(e, T.TCast):
            value = self._eval(e.expr, frame)
            if isinstance(value, VNull):
                return value
            obj = self._check_obj(value, "cast")
            if not self.table.is_subclass(obj.class_name, e.type.name):
                raise CastFailedError(
                    f"cannot cast {obj.class_name} to {e.type.name}"
                )
            return value

        if isinstance(e, T.TIf):
            cond = self._eval(e.cond, frame)
            assert isinstance(cond, VBool)
            return self._eval(e.then if cond.value else e.els, frame)

        if isinstance(e, T.TWhile):
            while True:
                cond = self._eval(e.cond, frame)
                assert isinstance(cond, VBool)
                if not cond.value:
                    return VOID_VALUE
                self._eval(e.body, frame)

        if isinstance(e, T.TBinop):
            return self._eval_binop(e, frame)

        if isinstance(e, T.TUnop):
            v = self._eval(e.operand, frame)
            if e.op == "!":
                assert isinstance(v, VBool)
                return VBool(not v.value)
            assert isinstance(v, VInt)
            return VInt(-v.value)

        if isinstance(e, T.TBlock):
            saved: List[Tuple[str, Optional[Value], bool]] = []
            for s in e.stmts:
                if isinstance(s, T.TLocalDecl):
                    had = s.name in frame.locals
                    saved.append((s.name, frame.locals.get(s.name), had))
                    init = (
                        self._eval(s.init, frame)
                        if s.init is not None
                        else _default_value(s.decl_type)
                    )
                    frame.locals[s.name] = init
                else:
                    assert isinstance(s, T.TExprStmt)
                    self._eval(s.expr, frame)
            result = (
                self._eval(e.result, frame) if e.result is not None else VOID_VALUE
            )
            for name, old, had in reversed(saved):
                if had:
                    frame.locals[name] = old  # type: ignore[assignment]
                else:
                    frame.locals.pop(name, None)
            return result

        if isinstance(e, T.TLetreg):
            pushed = [self.manager.push(str(r)) for r in e.regions]
            for r, rr in zip(e.regions, pushed):
                frame.regions[r] = rr
            try:
                return self._eval(e.body, frame)
            finally:
                for r, rr in zip(reversed(e.regions), reversed(pushed)):
                    self.manager.pop(rr)
                    frame.regions.pop(r, None)

        raise RuntimeError_(f"cannot evaluate {type(e).__name__}")

    def _eval_new(self, e: T.TNew, frame: _Frame) -> Value:
        runtime_regions = [self._region_of(r, frame) for r in e.regions]
        field_list = self.table.field_types(e.class_name)
        values: Dict[str, Value] = {}
        for (fname, ftype), arg in zip(field_list, e.args):
            values[fname] = self._eval(arg, frame)
        formals = self.table.regions_of(e.class_name)
        bindings = dict(zip(formals, runtime_regions))
        obj = Obj(e.class_name, values, runtime_regions[0], bindings)
        self.manager.allocate(runtime_regions[0], obj.size)
        return VObj(obj)

    def _eval_call(self, e: T.TCall, frame: _Frame) -> Value:
        if e.receiver is None:
            decl = self.table.statics.get(e.method_name)
            if decl is None:
                raise RuntimeError_(f"no static method {e.method_name!r}")
            callee_regions: Dict[Region, RuntimeRegion] = {}
            this_value: Optional[Value] = None
        else:
            recv = self._eval(e.receiver, frame)
            obj = self._check_obj(recv, f"call of {e.method_name}")
            found = self.table.lookup_method(obj.class_name, e.method_name)
            if found is None:
                raise RuntimeError_(
                    f"class {obj.class_name} has no method {e.method_name!r}"
                )
            decl = found[0]
            decl_cn = found[1]
            # bind the *declaring* class's formals from the object's own
            # region bindings (exact even under dynamic dispatch)
            callee_regions = {}
            decl_formals = self.table.regions_of(decl_cn)
            obj_formals = self.table.regions_of(obj.class_name)
            for i, formal in enumerate(decl_formals):
                # the declaring class's formals are a prefix of the runtime
                # class's formals positionally
                runtime = obj.region_bindings.get(obj_formals[i]) if i < len(obj_formals) else None
                callee_regions[formal] = runtime or self.manager.heap
            this_value = recv

        for formal, actual in zip(decl.region_params, e.region_args):
            callee_regions[formal] = self._region_of(actual, frame)

        locals_: Dict[str, Value] = {}
        if this_value is not None:
            locals_["this"] = this_value
        for p, arg in zip(decl.params, e.args):
            locals_[p.name] = self._eval(arg, frame)
        callee = _Frame(locals_, callee_regions)
        return self._eval(decl.body, callee)

    def _eval_binop(self, e: T.TBinop, frame: _Frame) -> Value:
        if e.op == "&&":
            left = self._eval(e.left, frame)
            assert isinstance(left, VBool)
            if not left.value:
                return VBool(False)
            right = self._eval(e.right, frame)
            assert isinstance(right, VBool)
            return right
        if e.op == "||":
            left = self._eval(e.left, frame)
            assert isinstance(left, VBool)
            if left.value:
                return VBool(True)
            right = self._eval(e.right, frame)
            assert isinstance(right, VBool)
            return right
        lv = self._eval(e.left, frame)
        rv = self._eval(e.right, frame)
        if e.op in ("==", "!="):
            same = _same_value(lv, rv)
            return VBool(same if e.op == "==" else not same)
        assert isinstance(lv, VInt) and isinstance(rv, VInt), (e.op, lv, rv)
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


def _java_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (Java semantics)."""
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _same_value(a: Value, b: Value) -> bool:
    if isinstance(a, VNull) and isinstance(b, VNull):
        return True
    if isinstance(a, VObj) and isinstance(b, VObj):
        return a.obj is b.obj
    if isinstance(a, VInt) and isinstance(b, VInt):
        return a.value == b.value
    if isinstance(a, VBool) and isinstance(b, VBool):
        return a.value == b.value
    return False


def _default_value(t: T.RType) -> Value:
    if isinstance(t, T.RPrim):
        if t.name == "int":
            return VInt(0)
        if t.name == "bool":
            return VBool(False)
        return VOID_VALUE
    return NULL_VALUE


def _to_value(a: object) -> Value:
    if isinstance(a, Value):
        return a
    if isinstance(a, bool):
        return VBool(a)
    if isinstance(a, int):
        return VInt(a)
    raise TypeError(f"cannot convert {a!r} to a runtime value")
