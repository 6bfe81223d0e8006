"""The region type checking system (paper Sec 4.5 and companion report).

A *standalone* verifier for region-annotated programs: it shares no state
with the inference engine, so it can serve as the oracle for the paper's
correctness theorem (Thm 1: inference always produces well-region-typed
programs).

For every method the checker assumes the class invariant of ``this``, the
method's precondition, and the invariants of the parameter/result types,
plus one axiom per enclosing ``letreg`` (a letreg region is the youngest
region in scope, so every region already in scope outlives it).  It then
walks the body and discharges one obligation per operation:

* assignments, initialisers, argument passing and result delivery must be
  region-subtype flows under the configured mode (Sec 3.2);
* ``new`` must establish the class invariant at its region instantiation;
* calls must establish the callee's (instantiated) precondition;
* downcasts must recover regions consistently with the configured Sec 5
  strategy;
* ``letreg`` must be well-scoped (its regions cannot appear in the block's
  result type or the enclosing environment).

Class-level checks enforce the no-dangling invariant shape, subclass
invariant strengthening, and the soundness of method overriding
(Sec 3.4/4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..deadline import check as check_deadline
from ..lang import target as T
from ..regions.abstraction import AbstractionEnv
from ..regions.constraints import (
    Constraint,
    HEAP,
    Outlives,
    PredAtom,
    Region,
    RegionEq,
    TRUE,
)
from ..regions.solver import RegionSolver
from ..regions.substitution import RegionSubst

__all__ = ["RegionCheckError", "CheckReport", "RegionTypeChecker", "check_target"]


class RegionCheckError(Exception):
    """Raised (in strict mode) when a target program is not well-typed."""


@dataclass
class CheckIssue:
    """One failed obligation."""

    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


@dataclass
class CheckReport:
    """Outcome of checking a whole program."""

    issues: List[CheckIssue]
    #: number of discharged obligations (a coverage indicator for tests)
    obligations: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues


class _TargetTable:
    """Hierarchy/member queries over a *target* program (self-contained)."""

    def __init__(self, program: T.TProgram):
        self.program = program
        self.classes: Dict[str, T.TClassDecl] = {c.name: c for c in program.classes}
        self.statics: Dict[str, T.TMethodDecl] = {m.name: m for m in program.statics}
        self._mutated_field_names: Optional[Set[str]] = None
        self._rec_read_only: Dict[str, bool] = {}

    def arity(self, cn: str) -> int:
        if cn == "Object":
            return 1
        return len(self.classes[cn].regions)

    def has_class(self, cn: str) -> bool:
        return cn == "Object" or cn in self.classes

    def ancestors(self, cn: str) -> Tuple[str, ...]:
        out = [cn]
        while cn != "Object":
            cn = self.classes[cn].super_name
            out.append(cn)
        return tuple(out)

    def is_subclass(self, sub: str, sup: str) -> bool:
        return sup in self.ancestors(sub)

    def regions_of(self, cn: str) -> Tuple[Region, ...]:
        if cn == "Object":
            # Object's single formal never appears in target decls; checking
            # instantiates invariants (all trivially true), so a stand-in
            # formal suffices.
            return (HEAP,)
        return self.classes[cn].regions

    def rec_region(self, cn: str) -> Optional[Region]:
        if cn == "Object":
            return None
        return self.classes[cn].rec_region

    def field_types(self, cn: str) -> Tuple[Tuple[str, T.RType], ...]:
        """fieldlist at the class's own formals (inherited first)."""
        if cn == "Object":
            return ()
        decl = self.classes[cn]
        sup = decl.super_name
        if sup == "Object":
            inherited: Tuple[Tuple[str, T.RType], ...] = ()
        else:
            sup_decl = self.classes[sup]
            subst = RegionSubst.zip(sup_decl.regions, decl.super_regions)
            inherited = tuple(
                (n, T.subst_type(subst, t)) for n, t in self.field_types(sup)
            )
        own = tuple((f.name, f.field_type) for f in decl.fields)
        return inherited + own

    def field_type_at(
        self, cn: str, fname: str, regions: Sequence[Region]
    ) -> Optional[T.RType]:
        for n, t in self.field_types(cn):
            if n == fname:
                subst = RegionSubst.zip(self.regions_of(cn), list(regions))
                return T.subst_type(subst, t)
        return None

    def lookup_method(self, cn: str, mn: str) -> Optional[Tuple[T.TMethodDecl, str]]:
        for cls in self.ancestors(cn):
            if cls == "Object":
                continue
            m = self.classes[cls].method(mn)
            if m is not None:
                return (m, cls)
        return None

    def is_rec_read_only(self, cn: str) -> bool:
        """No assignment in the target program mutates a recursive field.

        The assigned-field-name set is built once per table and each
        class's verdict is memoised, so a query costs O(own fields)
        instead of walking every method body in the program.
        """
        cached = self._rec_read_only.get(cn)
        if cached is not None:
            return cached
        if cn == "Object" or self.rec_region(cn) is None:
            self._rec_read_only[cn] = False
            return False
        rec_names = set()
        decl = self.classes[cn]
        for f in decl.fields:
            if isinstance(f.field_type, T.RClass) and f.field_type.regions and (
                f.field_type.regions[0] == decl.rec_region
            ):
                rec_names.add(f.name)
        if not rec_names:
            self._rec_read_only[cn] = False
            return False
        if self._mutated_field_names is None:
            mutated: Set[str] = set()
            for method in self.program.all_methods():
                for node in T.twalk(method.body):
                    if isinstance(node, T.TAssign) and isinstance(node.lhs, T.TFieldRead):
                        mutated.add(node.lhs.field_name)
            self._mutated_field_names = mutated
        verdict = not (rec_names & self._mutated_field_names)
        self._rec_read_only[cn] = verdict
        return verdict


class RegionTypeChecker:
    """Checks a :class:`~repro.lang.target.TProgram`.  See module docstring."""

    def __init__(
        self,
        program: T.TProgram,
        *,
        mode: str = "field",
        downcast: str = "padding",
    ):
        self.program = program
        self.q: AbstractionEnv = program.q
        self.table = _TargetTable(program)
        self.mode = mode
        self.downcast = downcast
        self.issues: List[CheckIssue] = []
        self.obligations = 0
        # closed solvers keyed by hypothesis atom set: class invariants and
        # method hypotheses repeat across obligations, so each distinct
        # constraint is solved (closed + reachability-cached) exactly once
        self._solvers: Dict[FrozenSet, RegionSolver] = {}

    def _closed_solver(self, hypotheses: Constraint) -> RegionSolver:
        """A closed solver for ``hypotheses``, cached per atom set.

        Queries never mutate the constraint graph, so read-only callers
        (class-level checks, letreg-free method bodies) use the cached
        instance directly.  Callers that extend the hypotheses (letreg
        axioms) must work on a :meth:`RegionSolver.copy`, never on the
        cached instance.
        """
        solver = self._solvers.get(hypotheses.atoms)
        if solver is None:
            solver = RegionSolver(hypotheses)
            solver.close()
            self._solvers[hypotheses.atoms] = solver
        return solver

    # -- entry point -----------------------------------------------------------
    def check(self) -> CheckReport:
        for cls in self.program.classes:
            self._check_class(cls)
        for m in self.program.statics:
            self._check_method(m, owner=None)
        return CheckReport(self.issues, self.obligations)

    # -- helpers ------------------------------------------------------------------
    def _fail(self, where: str, message: str) -> None:
        self.issues.append(CheckIssue(where, message))

    def _invariant(self, cn: str, regions: Sequence[Region]) -> Constraint:
        if cn == "Object":
            return TRUE
        decl = self.table.classes[cn]
        if not decl.inv_name or decl.inv_name not in self.q:
            return TRUE
        return self.q.instantiate(decl.inv_name, list(regions))

    def _pre(self, method: T.TMethodDecl, args: Sequence[Region]) -> Constraint:
        if not method.pre_name or method.pre_name not in self.q:
            return TRUE
        return self.q.expand(
            Constraint.of(PredAtom(method.pre_name, tuple(args)))
        )

    def _require(
        self, solver: RegionSolver, c: Constraint, where: str, what: str
    ) -> None:
        self.obligations += len(c)
        missing = solver.failing_atoms(c)
        if missing:
            self._fail(where, f"{what}: unestablished {', '.join(map(str, missing))}")

    def _subtype_constraint(
        self, src: T.RType, dst: T.RType, where: str
    ) -> Optional[Constraint]:
        """The mode-appropriate flow constraint, or None on class error."""
        if isinstance(src, T.RPrim) or isinstance(dst, T.RPrim):
            if isinstance(src, T.RPrim) and isinstance(dst, T.RPrim):
                return TRUE
            self._fail(where, f"cannot relate {src} and {dst}")
            return None
        assert isinstance(src, T.RClass) and isinstance(dst, T.RClass)
        if not self.table.is_subclass(src.name, dst.name):
            self._fail(where, f"{src.name} is not a subclass of {dst.name}")
            return None
        prefix = src.regions[: len(dst.regions)]
        atoms: List = []
        if self.mode == "none":
            atoms.extend(RegionEq(a, b) for a, b in zip(prefix, dst.regions))
            return Constraint.of(*atoms)
        atoms.append(Outlives(prefix[0], dst.regions[0]))
        covariant_last = (
            self.mode == "field"
            and self.table.rec_region(dst.name) is not None
            and self.table.is_rec_read_only(dst.name)
        )
        if covariant_last and len(prefix) > 1:
            atoms.extend(RegionEq(a, b) for a, b in zip(prefix[1:-1], dst.regions[1:-1]))
            atoms.append(Outlives(prefix[-1], dst.regions[-1]))
        else:
            atoms.extend(RegionEq(a, b) for a, b in zip(prefix[1:], dst.regions[1:]))
        return Constraint.of(*atoms)

    # -- class-level checks ----------------------------------------------------------
    def _check_class(self, cls: T.TClassDecl) -> None:
        where = f"class {cls.name}"
        if not cls.regions:
            self._fail(where, "class has no region parameters")
            return
        inv = self._invariant(cls.name, cls.regions)
        solver = self._closed_solver(inv)
        # (a) the no-dangling requirement must be part of the invariant
        for r in cls.regions[1:]:
            self.obligations += 1
            if not solver.entails_outlives(r, cls.regions[0]):
                self._fail(
                    where,
                    f"invariant misses no-dangling atom {r} >= {cls.regions[0]}",
                )
        # (b) field types must satisfy their own class invariants
        for fname, ftype in self.table.field_types(cls.name):
            if isinstance(ftype, T.RClass):
                self._require(
                    solver,
                    self._invariant(ftype.name, ftype.regions),
                    where,
                    f"field {fname} invariant",
                )
        # (c) subclass invariant strengthens the superclass's
        if cls.super_name != "Object":
            sup_inv = self._invariant(cls.super_name, cls.super_regions)
            self._require(solver, sup_inv, where, "superclass invariant")
        # (d) override soundness: inv.B /\ pre.A.mn |= pre.B.mn
        for m in cls.methods:
            over = (
                self.table.lookup_method(cls.super_name, m.name)
                if cls.super_name != "Object"
                else None
            )
            if over is not None:
                self._check_override(cls, m, over[0], over[1])
        for m in cls.methods:
            self._check_method(m, owner=cls.name)

    def _check_override(
        self,
        cls: T.TClassDecl,
        sub_m: T.TMethodDecl,
        super_m: T.TMethodDecl,
        super_cn: str,
    ) -> None:
        where = f"override {cls.name}.{sub_m.name}"
        if len(sub_m.region_params) != len(super_m.region_params):
            self._fail(where, "method region parameter arity mismatch")
            return
        sup_regions = cls.regions[: self.table.arity(super_cn)]
        subst = RegionSubst.zip(
            list(self.table.regions_of(super_cn)) + list(super_m.region_params),
            list(sup_regions) + list(sub_m.region_params),
        )
        hyp = self._invariant(cls.name, cls.regions)
        hyp = hyp.conj(
            subst.apply_constraint(
                self._pre(super_m, list(self.table.regions_of(super_cn)) + list(super_m.region_params))
            )
        )
        solver = self._closed_solver(hyp)
        goal = self._pre(
            sub_m, list(cls.regions) + list(sub_m.region_params)
        )
        self._require(solver, goal, where, "overriding precondition")

    # -- method-level checks -----------------------------------------------------------
    def _method_hypotheses(
        self, method: T.TMethodDecl, owner: Optional[str]
    ) -> Constraint:
        hyp = TRUE
        if owner is not None:
            regions = self.table.regions_of(owner)
            hyp = hyp.conj(self._invariant(owner, regions))
            hyp = hyp.conj(
                self._pre(method, list(regions) + list(method.region_params))
            )
        else:
            hyp = hyp.conj(self._pre(method, list(method.region_params)))
        for t in [p.param_type for p in method.params] + [method.ret_type]:
            if isinstance(t, T.RClass):
                hyp = hyp.conj(self._invariant(t.name, t.regions))
        return hyp

    def _check_method(self, method: T.TMethodDecl, owner: Optional[str]) -> None:
        check_deadline()
        where = f"method {method.qualified_name}"
        # only a letreg body extends the hypotheses (one axiom per region in
        # scope, fed to a live solver one at a time); the common letreg-free
        # path queries the shared cached solver directly, no clone at all
        solver = self._closed_solver(self._method_hypotheses(method, owner))
        if any(isinstance(node, T.TLetreg) for node in T.twalk(method.body)):
            solver = solver.copy()
        env: Dict[str, T.RType] = {}
        if owner is not None:
            env["this"] = T.RClass(owner, self.table.regions_of(owner))
        for p in method.params:
            env[p.name] = p.param_type
        scope: List[Region] = [HEAP]
        if owner is not None:
            scope.extend(self.table.regions_of(owner))
        scope.extend(method.region_params)
        t = self._check_expr(method.body, env, solver, scope, where)
        if t is not None and not isinstance(method.ret_type, T.RPrim):
            c = self._subtype_constraint(t, method.ret_type, where)
            if c is not None:
                self._require(solver, c, where, "result flow")

    # -- expression checks ------------------------------------------------------------
    def _types_equal(
        self, solver: RegionSolver, a: T.RType, b: T.RType
    ) -> bool:
        if isinstance(a, T.RPrim) and isinstance(b, T.RPrim):
            return a.name == b.name or "void" in (a.name, b.name)
        if isinstance(a, T.RClass) and isinstance(b, T.RClass):
            if a.name != b.name or len(a.regions) != len(b.regions):
                return False
            return all(solver.same_region(x, y) for x, y in zip(a.regions, b.regions))
        return False

    def _check_expr(
        self,
        e: T.TExpr,
        env: Dict[str, T.RType],
        solver: RegionSolver,
        scope: List[Region],
        where: str,
    ) -> Optional[T.RType]:
        if isinstance(e, T.TVar):
            declared = env.get(e.name)
            if declared is None:
                self._fail(where, f"unbound variable {e.name!r}")
                return None
            if not self._types_equal(solver, declared, e.type):
                self._fail(
                    where,
                    f"variable {e.name} annotated {e.type}, environment has {declared}",
                )
            return declared

        if isinstance(e, (T.TIntLit, T.TBoolLit)):
            return e.type

        if isinstance(e, T.TNull):
            if not self.table.has_class(e.type.name):
                self._fail(where, f"null at unknown class {e.type.name}")
            return e.type

        if isinstance(e, T.TFieldRead):
            recv = self._check_expr(e.receiver, env, solver, scope, where)
            if not isinstance(recv, T.RClass):
                self._fail(where, f"field read on non-object {recv}")
                return None
            ft = self.table.field_type_at(recv.name, e.field_name, recv.regions)
            if ft is None:
                self._fail(where, f"class {recv.name} has no field {e.field_name}")
                return None
            return ft

        if isinstance(e, T.TAssign):
            lhs_t = self._check_expr(e.lhs, env, solver, scope, where)
            rhs_t = self._check_expr(e.rhs, env, solver, scope, where)
            if lhs_t is None or rhs_t is None:
                return T.R_VOID
            c = self._subtype_constraint(rhs_t, lhs_t, where)
            if c is not None:
                self._require(solver, c, where, "assignment flow")
            return T.R_VOID

        if isinstance(e, T.TNew):
            t = e.type
            self._require(
                solver,
                self._invariant(e.class_name, e.regions),
                where,
                f"new {e.class_name} invariant",
            )
            fts = self.table.field_types(e.class_name)
            if len(e.args) != len(fts):
                self._fail(where, f"new {e.class_name}: wrong initialiser count")
                return t
            for arg, (fname, _ftype) in zip(e.args, fts):
                at = self._check_expr(arg, env, solver, scope, where)
                expected = self.table.field_type_at(e.class_name, fname, e.regions)
                if at is not None and expected is not None and not isinstance(at, T.RPrim):
                    c = self._subtype_constraint(at, expected, where)
                    if c is not None:
                        self._require(solver, c, where, f"initialiser of {fname}")
            return t

        if isinstance(e, T.TCall):
            return self._check_call(e, env, solver, scope, where)

        if isinstance(e, T.TCast):
            return self._check_cast(e, env, solver, scope, where)

        if isinstance(e, T.TIf):
            self._check_expr(e.cond, env, solver, scope, where)
            t1 = self._check_expr(e.then, env, solver, scope, where)
            t2 = self._check_expr(e.els, env, solver, scope, where)
            if isinstance(e.type, T.RClass):
                for t in (t1, t2):
                    if t is not None and isinstance(t, T.RClass):
                        c = self._subtype_constraint(t, e.type, where)
                        if c is not None:
                            self._require(solver, c, where, "if-branch flow")
            return e.type

        if isinstance(e, T.TWhile):
            self._check_expr(e.cond, env, solver, scope, where)
            self._check_expr(e.body, env, solver, scope, where)
            return T.R_VOID

        if isinstance(e, (T.TBinop, T.TUnop)):
            for child in e.children():
                self._check_expr(child, env, solver, scope, where)
            return e.type

        if isinstance(e, T.TBlock):
            inner = dict(env)
            for s in e.stmts:
                if isinstance(s, T.TLocalDecl):
                    if s.init is not None:
                        it = self._check_expr(s.init, inner, solver, scope, where)
                        if it is not None and not isinstance(s.decl_type, T.RPrim):
                            c = self._subtype_constraint(it, s.decl_type, where)
                            if c is not None:
                                self._require(solver, c, where, f"init of {s.name}")
                    inner[s.name] = s.decl_type
                else:
                    assert isinstance(s, T.TExprStmt)
                    self._check_expr(s.expr, inner, solver, scope, where)
            if e.result is None:
                return T.R_VOID
            return self._check_expr(e.result, inner, solver, scope, where)

        if isinstance(e, T.TLetreg):
            # well-scopedness: the letreg regions may not escape via the
            # result type or the enclosing environment
            for r in e.regions:
                for t in env.values():
                    if r in T.type_regions(t):
                        self._fail(where, f"letreg region {r} occurs in the environment")
                if e.body is not None and r in T.type_regions(e.body.type or T.R_VOID):
                    self._fail(where, f"letreg region {r} escapes in the result type")
            # axiom: every region in scope outlives the new ones
            inner_scope = list(scope)
            for r in e.regions:
                for s_r in inner_scope:
                    solver.add_outlives(s_r, r)
                inner_scope.append(r)
            return self._check_expr(e.body, env, solver, inner_scope, where)

        self._fail(where, f"unknown target expression {type(e).__name__}")
        return None

    def _check_call(
        self,
        e: T.TCall,
        env: Dict[str, T.RType],
        solver: RegionSolver,
        scope: List[Region],
        where: str,
    ) -> Optional[T.RType]:
        if e.receiver is None:
            decl = self.table.statics.get(e.method_name)
            if decl is None:
                self._fail(where, f"unknown static method {e.method_name}")
                return None
            subst = RegionSubst.zip(decl.region_params, list(e.region_args))
            pre_args = list(e.region_args)
        else:
            recv = self._check_expr(e.receiver, env, solver, scope, where)
            if not isinstance(recv, T.RClass):
                self._fail(where, f"call on non-object {recv}")
                return None
            found = self.table.lookup_method(recv.name, e.method_name)
            if found is None:
                self._fail(where, f"class {recv.name} has no method {e.method_name}")
                return None
            decl, decl_cn = found
            n = self.table.arity(decl_cn)
            class_actuals = list(recv.regions[:n])
            subst = RegionSubst.zip(
                list(self.table.regions_of(decl_cn)) + list(decl.region_params),
                class_actuals + list(e.region_args),
            )
            pre_args = class_actuals + list(e.region_args)
        if len(e.args) != len(decl.params):
            self._fail(where, f"call {e.method_name}: wrong argument count")
            return None
        for arg, p in zip(e.args, decl.params):
            at = self._check_expr(arg, env, solver, scope, where)
            if at is None or isinstance(p.param_type, T.RPrim):
                continue
            expected = T.subst_type(subst, p.param_type)
            c = self._subtype_constraint(at, expected, where)
            if c is not None:
                self._require(solver, c, where, f"argument {p.name}")
        if decl.pre_name and decl.pre_name in self.q:
            pre = self.q.expand(
                Constraint.of(PredAtom(decl.pre_name, tuple(pre_args)))
            )
            self._require(solver, pre, where, f"precondition of {e.method_name}")
        if isinstance(decl.ret_type, T.RClass):
            return T.subst_type(subst, decl.ret_type)
        return decl.ret_type

    def _check_cast(
        self,
        e: T.TCast,
        env: Dict[str, T.RType],
        solver: RegionSolver,
        scope: List[Region],
        where: str,
    ) -> Optional[T.RType]:
        src = self._check_expr(e.expr, env, solver, scope, where)
        if not isinstance(src, T.RClass):
            self._fail(where, f"cast of non-object {src}")
            return e.type
        dst = e.type
        if self.table.is_subclass(src.name, dst.name):
            # upcast: plain subsumption
            c = self._subtype_constraint(src, dst, where)
            if c is not None:
                self._require(solver, c, where, "upcast flow")
            return dst
        if not self.table.is_subclass(dst.name, src.name):
            self._fail(where, f"cast between unrelated {src.name} / {dst.name}")
            return dst
        # downcast: the shared prefix must agree ...
        k = len(src.regions)
        for a, b in zip(src.regions, dst.regions[:k]):
            self.obligations += 1
            if not solver.same_region(a, b):
                self._fail(where, f"downcast changes shared region {a} to {b}")
        extras = dst.regions[k:]
        if self.downcast == "first-region":
            for r in extras:
                self.obligations += 1
                if not solver.same_region(r, src.regions[0]):
                    self._fail(
                        where,
                        f"downcast region {r} not equated to the first region",
                    )
        elif self.downcast == "padding":
            supply = src.padding
            if len(supply) < len(extras):
                self._fail(
                    where,
                    f"downcast to {dst.name} recovers {len(extras)} regions "
                    f"but the operand has only {len(supply)} pads",
                )
            for r, p in zip(extras, supply):
                self.obligations += 1
                if not solver.same_region(r, p):
                    self._fail(where, f"downcast region {r} does not match pad {p}")
        return dst


def check_target(
    program: T.TProgram, *, mode: str = "field", downcast: str = "padding",
    strict: bool = False,
) -> CheckReport:
    """Check a target program; optionally raise on the first failure."""
    report = RegionTypeChecker(program, mode=mode, downcast=downcast).check()
    if strict and not report.ok:
        raise RegionCheckError(
            "; ".join(str(i) for i in report.issues[:10])
        )
    return report
