"""Downcast safety analysis (paper Sec 5).

Upcasting to a superclass type drops the subclass-only region parameters;
a later downcast cannot recover them.  The paper offers two remedies:

* **first-region technique** -- at every upcast, equate the lost regions
  with the object's first region; a downcast then re-materialises them as
  that first region.  Simple and modular, but loses lifetime precision.

* **region padding** -- a *global backward-flow analysis* finds, for every
  variable and allocation site, the set of classes it may be downcast to;
  those sites are padded with enough extra regions to remember the lost
  ones, and downcasts read them back.  Sites whose class is unrelated to
  every possible downcast target (the paper's ``le`` example) are left
  unpadded -- any downcast through them fails at runtime anyway.

This module implements the flow analysis (flow gathering, backward-flow
closure, downcast-set closure) and the padding plan; the inference engine
(:mod:`repro.core.infer`) consumes the plan.  Flow gathering reads the
call targets, field owners and cast operand classes the normal type
checker recorded, so the analysis runs on a type-checked program.  The
parameters and results of an override and of the method it overrides
end up with the same downcast sets, so both methods are padded alike.
Strategy selection:

* ``DowncastStrategy.PADDING``       (default; Sec 5's preferred technique)
* ``DowncastStrategy.FIRST_REGION``
* ``DowncastStrategy.REJECT``        (refuse programs with downcasts)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..lang import ast as S
from ..lang.class_table import OBJECT_NAME, ClassTable

__all__ = [
    "DowncastStrategy",
    "FlowSource",
    "DowncastAnalysis",
    "PaddingPlan",
    "analyse_downcasts",
]


class DowncastStrategy(enum.Enum):
    """How lost regions are preserved across upcasts (Sec 5)."""

    PADDING = "padding"
    FIRST_REGION = "first-region"
    REJECT = "reject"


#: A flow node: a variable in a method ("var", method_qualified, name),
#: a field slot ("field", class, field), an allocation site ("new", label),
#: or a method's result ("ret", method_qualified).
FlowSource = Tuple[str, str, str]


def _var(method: str, name: str) -> FlowSource:
    return ("var", method, name)


def _field_slot(cn: str, fname: str) -> FlowSource:
    return ("field", cn, fname)


def _site(label: str) -> FlowSource:
    return ("new", label, "")


def _ret(method: str) -> FlowSource:
    return ("ret", method, "")


@dataclass
class PaddingPlan:
    """Where padding regions go and how many.

    ``pad_counts`` maps flow nodes (variables and allocation sites) to the
    number of extra regions they need; ``downcast_sets`` records the class
    sets driving those counts; ``doomed_sites`` are allocation sites whose
    class is unrelated to every downcast target (padding skipped -- any
    downcast of such an object fails).
    """

    pad_counts: Dict[FlowSource, int] = field(default_factory=dict)
    downcast_sets: Dict[FlowSource, FrozenSet[str]] = field(default_factory=dict)
    doomed_sites: Set[str] = field(default_factory=set)

    def pads_for_var(self, method: str, name: str) -> int:
        return self.pad_counts.get(_var(method, name), 0)

    def pads_for_site(self, label: str) -> int:
        return self.pad_counts.get(_site(label), 0)

    def pads_for_field(self, cn: str, fname: str) -> int:
        return self.pad_counts.get(_field_slot(cn, fname), 0)


class DowncastAnalysis:
    """The backward flow analysis of Sec 5.

    Collects flows ``dst <- src`` ("dst may capture a value from src") and
    downcast marks ``dst <-D src`` for every ``dst = (D) src``-shaped
    capture; closes the flow relation backwards and propagates downcast
    sets to all transitive sources.
    """

    def __init__(self, program: S.Program, table: ClassTable):
        self.program = program
        self.table = table
        #: reverse flow edges: src -> {dst that capture from src}
        self.captures_from: Dict[FlowSource, Set[FlowSource]] = {}
        #: downcast marks applied directly to a node
        self.direct_casts: Dict[FlowSource, Set[str]] = {}
        #: declared class of each variable, field slot, site and result
        self.static_class: Dict[FlowSource, str] = {}
        self._decls: Dict[str, S.MethodDecl] = {
            m.qualified_name: m for m in program.all_methods()
        }
        self._gather()

    # -- flow gathering -----------------------------------------------------------
    def _edge(self, dst: FlowSource, src: FlowSource) -> None:
        self.captures_from.setdefault(src, set()).add(dst)
        self.captures_from.setdefault(dst, set())

    def _gather(self) -> None:
        for cn in self.table.class_names():
            for f in self.table.own_fields(cn):
                if isinstance(f.field_type, S.ClassType):
                    self.static_class[_field_slot(cn, f.name)] = f.field_type.name
        for method in self.program.all_methods():
            self._gather_method(method)
        # a call resolved to an overridden method may run the override:
        # its arguments reach the override's parameters and its result
        # comes from the override's.  Linking each pair both ways also
        # pads both methods alike, so their region parameters line up for
        # the override check (Sec 4.4).
        for sub, sup, mn in self.table.override_pairs():
            a, b = f"{sub}.{mn}", f"{sup}.{mn}"
            links = [(_ret(a), _ret(b))] + [
                (_var(a, p.name), _var(b, q.name))
                for p, q in zip(self._decls[a].params, self._decls[b].params)
            ]
            for x, y in links:
                self._edge(x, y)
                self._edge(y, x)

    def _gather_method(self, method: S.MethodDecl) -> None:
        qn = method.qualified_name
        if method.owner is not None:
            self.static_class[_var(qn, S.THIS)] = method.owner
        for p in method.params:
            if isinstance(p.param_type, S.ClassType):
                self.static_class[_var(qn, p.name)] = p.param_type.name
        if isinstance(method.ret_type, S.ClassType):
            self.static_class[_ret(qn)] = method.ret_type.name
        self._visit(method.body, qn)

    def _sources(self, e: S.Expr, qn: str) -> List[Tuple[FlowSource, Optional[str]]]:
        """(flow node, downcast class) pairs a value may come from."""
        if isinstance(e, S.Var):
            return [(_var(qn, e.name), None)]
        if isinstance(e, S.New):
            self.static_class[_site(e.label)] = e.class_name
            return [(_site(e.label), None)]
        if isinstance(e, S.Cast):
            inner = self._sources(e.expr, qn)
            src = e.operand_class
            if e.class_name != src and self.table.is_subclass(e.class_name, src):
                # a true downcast: mark the sources
                return [(s, e.class_name) for (s, _d) in inner]
            return inner
        if isinstance(e, S.FieldRead):
            return [(_field_slot(e.declaring_class, e.field_name), None)]
        if isinstance(e, S.Call):
            return [(_ret(e.callee), None)]
        if isinstance(e, S.If):
            return self._sources(e.then, qn) + self._sources(e.els, qn)
        if isinstance(e, S.Block) and e.result is not None:
            return self._sources(e.result, qn)
        return []

    def _flow_into(self, dst: FlowSource, e: S.Expr, qn: str) -> None:
        for src, dcls in self._sources(e, qn):
            self._edge(dst, src)
            if dcls is not None:
                self.direct_casts.setdefault(src, set()).add(dcls)

    def _visit(self, e: S.Expr, qn: str) -> None:
        if isinstance(e, S.Assign):
            self._visit(e.rhs, qn)
            if isinstance(e.lhs, S.Var):
                self._flow_into(_var(qn, e.lhs.name), e.rhs, qn)
            elif isinstance(e.lhs, S.FieldRead):
                self._visit(e.lhs.receiver, qn)
                slot = _field_slot(e.lhs.declaring_class, e.lhs.field_name)
                self._flow_into(slot, e.rhs, qn)
            return
        if isinstance(e, S.New):
            for arg, fdecl in zip(e.args, self.table.fields(e.class_name)):
                self._visit(arg, qn)
                if isinstance(fdecl.field_type, S.ClassType):
                    owner = self.table.lookup_field(e.class_name, fdecl.name)
                    assert owner is not None
                    self._flow_into(_field_slot(owner[1], fdecl.name), arg, qn)
            self.static_class.setdefault(_site(e.label), e.class_name)
            return
        if isinstance(e, S.Call):
            if e.receiver is not None:
                self._visit(e.receiver, qn)
            params = self._decls[e.callee].params
            for arg, p in zip(e.args, params):
                self._visit(arg, qn)
                if isinstance(p.param_type, S.ClassType):
                    self._flow_into(_var(e.callee, p.name), arg, qn)
            return
        if isinstance(e, S.Cast):
            # visiting for marks even when the value is unused
            for src, dcls in self._sources(e, qn):
                if dcls is not None:
                    self.direct_casts.setdefault(src, set()).add(dcls)
            self._visit(e.expr, qn)
            return
        if isinstance(e, S.Block):
            for s in e.stmts:
                if isinstance(s, S.LocalDecl):
                    if s.init is not None:
                        self._visit(s.init, qn)
                    if isinstance(s.decl_type, S.ClassType):
                        self.static_class[_var(qn, s.name)] = s.decl_type.name
                        if s.init is not None:
                            self._flow_into(_var(qn, s.name), s.init, qn)
                else:
                    assert isinstance(s, S.ExprStmt)
                    self._visit(s.expr, qn)
            if e.result is not None:
                self._visit(e.result, qn)
                self._flow_into(_ret(qn), e.result, qn)
            return
        for child in e.children():
            self._visit(child, qn)

    # -- closures --------------------------------------------------------------------
    def downcast_sets(self) -> Dict[FlowSource, FrozenSet[str]]:
        """Downcast sets per node after both closure steps.

        A node's set contains every class that some value flowing *through*
        it may later be downcast to.  Computed by propagating direct marks
        backwards along the (transitively closed) flow relation:
        ``D-set(src) >= D-set(dst)`` for every capture ``dst <- src``.
        """
        sets: Dict[FlowSource, Set[str]] = {
            node: set(marks) for node, marks in self.direct_casts.items()
        }
        for node in self.captures_from:
            sets.setdefault(node, set())
        changed = True
        while changed:
            changed = False
            for src, dsts in self.captures_from.items():
                for dst in dsts:
                    extra = sets.get(dst, set()) - sets[src]
                    if extra:
                        sets[src] |= extra
                        changed = True
        return {node: frozenset(v) for node, v in sets.items() if v}

    def build_plan(self) -> PaddingPlan:
        """The padding plan: counts, sets and doomed sites."""
        plan = PaddingPlan()
        for node, dset in self.downcast_sets().items():
            cls = self.static_class.get(node)
            if cls is None:
                continue
            base = self._arity(cls)
            relevant = {d for d in dset if self.table.related(d, cls)}
            if node[0] == "new" and not relevant:
                # e.g. the paper's `le`: every downcast of this object fails
                plan.doomed_sites.add(node[1])
                continue
            if not relevant:
                continue
            need = max(self._arity(d) for d in relevant) - base
            if need > 0:
                plan.pad_counts[node] = need
                plan.downcast_sets[node] = frozenset(relevant)
        return plan

    def _arity(self, cn: str) -> int:
        """Number of region parameters a class will get.

        Computed structurally (1 + component slots + recursion slot) so the
        analysis can run before class annotation.
        """
        if cn == OBJECT_NAME:
            return 1
        decl = self.table.decl(cn)
        n = self._arity(decl.super_name)
        nonrec, rec = self.table.split(cn)
        for f in nonrec:
            if isinstance(f.field_type, S.ClassType):
                n += self._arity(f.field_type.name)
        if rec:
            n += 1
        return n


def analyse_downcasts(program: S.Program, table: ClassTable) -> PaddingPlan:
    """Convenience wrapper: run the analysis and return the padding plan."""
    return DowncastAnalysis(program, table).build_plan()
