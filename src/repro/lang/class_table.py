"""The class table: hierarchy queries over a Core-Java program.

Implements the auxiliary functions of the paper's Fig 3:

* ``fieldlist(cn)`` -- all fields of ``cn``, inherited first;
* ``methlist(cn)``  -- all methods visible on ``cn`` with overriding;
* ``mbrlist(cn)``   -- fields and methods together;
* ``split(fdl, cn)`` -- partition a class's *own* fields into non-recursive
  and recursive ones (a field is recursive when its class is in the same
  class-reference SCC as ``cn``, which covers both self- and
  mutually-recursive declarations);
* ``isRecReadOnly(cn)`` -- are all recursive fields of ``cn`` immutable
  after object initialisation?  (Enables *field* region subtyping,
  Sec 3.2.)

The table also provides subtype tests and ``msst`` (most specific supertype,
the lub used by the [e-if] rule), and validates the hierarchy (unknown
superclasses, inheritance cycles, duplicate definitions, field shadowing,
override signature mismatches are all rejected).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .ast import (
    Assign,
    ClassDecl,
    ClassType,
    FieldDecl,
    FieldRead,
    MethodDecl,
    Program,
    walk,
)

__all__ = ["ClassTableError", "ClassTable", "OBJECT_NAME"]

OBJECT_NAME = "Object"


class ClassTableError(Exception):
    """Raised for malformed class hierarchies."""


class ClassTable:
    """Hierarchy and member-lookup queries over a :class:`Program`."""

    def __init__(self, program: Program):
        self.program = program
        self._classes: Dict[str, ClassDecl] = {}
        self._statics: Dict[str, MethodDecl] = {}
        self._build()
        self._check_hierarchy()
        self._sccs = self._field_reference_sccs()
        self._scc_of: Dict[str, int] = {}
        for i, scc in enumerate(self._sccs):
            for name in scc:
                self._scc_of[name] = i
        self._check_members()
        self._mutated_field_names: Optional[Set[str]] = None
        self._rec_read_only: Dict[str, bool] = {}
        self._override_pairs: Optional[Tuple[Tuple[str, str, str], ...]] = None

    # -- construction --------------------------------------------------------
    def _build(self) -> None:
        root = ClassDecl(name=OBJECT_NAME, super_name=OBJECT_NAME)
        self._classes[OBJECT_NAME] = root
        for c in self.program.classes:
            if c.name in self._classes:
                raise ClassTableError(f"duplicate class {c.name!r}")
            self._classes[c.name] = c
        for m in self.program.statics:
            if m.name in self._statics:
                raise ClassTableError(f"duplicate static method {m.name!r}")
            self._statics[m.name] = m

    def _check_hierarchy(self) -> None:
        for c in self.program.classes:
            if c.super_name not in self._classes:
                raise ClassTableError(
                    f"class {c.name!r} extends unknown class {c.super_name!r}"
                )
        # cycle check by walking to the root from each class
        for c in self.program.classes:
            seen = {c.name}
            cur = c.super_name
            while cur != OBJECT_NAME:
                if cur in seen:
                    raise ClassTableError(f"inheritance cycle involving {cur!r}")
                seen.add(cur)
                cur = self._classes[cur].super_name

    def _check_members(self) -> None:
        for c in self.program.classes:
            own = set()
            for f in c.fields:
                if f.name in own:
                    raise ClassTableError(f"duplicate field {c.name}.{f.name}")
                own.add(f.name)
            inherited = {f.name for f in self.fields(c.super_name)} if c.super_name != c.name else set()
            shadow = own & inherited
            if shadow:
                raise ClassTableError(
                    f"class {c.name} shadows inherited field(s) {sorted(shadow)}"
                )
            meth_names = set()
            for m in c.methods:
                if m.name in meth_names:
                    raise ClassTableError(f"duplicate method {c.name}.{m.name}")
                meth_names.add(m.name)
                overridden = self.lookup_method(c.super_name, m.name)
                if overridden is not None and overridden[0].signature() != m.signature():
                    raise ClassTableError(
                        f"{c.name}.{m.name} overrides {overridden[1]}.{m.name} "
                        "with a different signature"
                    )

    # -- hierarchy -----------------------------------------------------------
    def has_class(self, name: str) -> bool:
        return name in self._classes

    def decl(self, name: str) -> ClassDecl:
        try:
            return self._classes[name]
        except KeyError:
            raise ClassTableError(f"unknown class {name!r}") from None

    def class_names(self) -> Tuple[str, ...]:
        """All declared classes (excluding the implicit Object), decl order."""
        return tuple(c.name for c in self.program.classes)

    def superclass(self, name: str) -> Optional[str]:
        """Direct superclass, or ``None`` for Object itself."""
        if name == OBJECT_NAME:
            return None
        return self.decl(name).super_name

    def ancestors(self, name: str) -> Tuple[str, ...]:
        """``name`` and its superclasses up to Object, most-derived first."""
        out = [name]
        cur = self.superclass(name)
        while cur is not None:
            out.append(cur)
            cur = self.superclass(cur)
        return tuple(out)

    def is_subclass(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive subclass test."""
        return sup in self.ancestors(sub)

    def strict_subclasses(self, name: str) -> Tuple[str, ...]:
        """All proper subclasses of ``name`` (declaration order)."""
        return tuple(
            c.name
            for c in self.program.classes
            if c.name != name and self.is_subclass(c.name, name)
        )

    def msst(self, a: str, b: str) -> str:
        """Most specific supertype of two classes (always exists: Object)."""
        bs = set(self.ancestors(b))
        for anc in self.ancestors(a):
            if anc in bs:
                return anc
        return OBJECT_NAME  # pragma: no cover - Object is a common ancestor

    def related(self, a: str, b: str) -> bool:
        """Are the classes comparable in the hierarchy (either direction)?"""
        return self.is_subclass(a, b) or self.is_subclass(b, a)

    # -- members ----------------------------------------------------------------
    def fields(self, name: str) -> Tuple[FieldDecl, ...]:
        """``fieldlist(cn)``: inherited fields first, then own fields."""
        if name == OBJECT_NAME:
            return ()
        decl = self.decl(name)
        return self.fields(decl.super_name) + tuple(decl.fields)

    def own_fields(self, name: str) -> Tuple[FieldDecl, ...]:
        if name == OBJECT_NAME:
            return ()
        return tuple(self.decl(name).fields)

    def lookup_field(self, name: str, field_name: str) -> Optional[Tuple[FieldDecl, str]]:
        """Find a field on ``name`` (or inherited); returns (decl, owner)."""
        for cls in self.ancestors(name):
            if cls == OBJECT_NAME:
                continue
            for f in self.decl(cls).fields:
                if f.name == field_name:
                    return (f, cls)
        return None

    def methods(self, name: str) -> Tuple[Tuple[MethodDecl, str], ...]:
        """``methlist(cn)``: visible methods with overriding applied.

        Each entry is ``(decl, declaring_class)``; an overriding subclass
        method hides the superclass one.
        """
        seen: Dict[str, Tuple[MethodDecl, str]] = {}
        for cls in reversed(self.ancestors(name)):  # Object first
            if cls == OBJECT_NAME:
                continue
            for m in self.decl(cls).methods:
                seen[m.name] = (m, cls)
        return tuple(seen.values())

    def lookup_method(self, name: str, method_name: str) -> Optional[Tuple[MethodDecl, str]]:
        """Most-derived visible method ``method_name`` on class ``name``."""
        for cls in self.ancestors(name):
            if cls == OBJECT_NAME:
                continue
            m = self.decl(cls).method(method_name)
            if m is not None:
                return (m, cls)
        return None

    def lookup_static(self, method_name: str) -> Optional[MethodDecl]:
        return self._statics.get(method_name)

    def overridden_method(self, owner: str, method_name: str) -> Optional[Tuple[MethodDecl, str]]:
        """The method that ``owner.method_name`` overrides, if any."""
        sup = self.superclass(owner)
        if sup is None:
            return None
        return self.lookup_method(sup, method_name)

    def override_pairs(self) -> Tuple[Tuple[str, str, str], ...]:
        """All (subclass, superclass, method) override relationships."""
        if self._override_pairs is None:
            out: List[Tuple[str, str, str]] = []
            for c in self.program.classes:
                for m in c.methods:
                    over = self.overridden_method(c.name, m.name)
                    if over is not None:
                        out.append((c.name, over[1], m.name))
            self._override_pairs = tuple(out)
        return self._override_pairs

    # -- recursion structure ----------------------------------------------------
    def _field_reference_sccs(self) -> List[List[str]]:
        """SCCs of the class graph with edges ``cn -> class-of-field``."""
        names = [OBJECT_NAME] + [c.name for c in self.program.classes]
        edges: Dict[str, Set[str]] = {n: set() for n in names}
        for c in self.program.classes:
            for f in c.fields:
                if isinstance(f.field_type, ClassType) and f.field_type.name in edges:
                    edges[c.name].add(f.field_type.name)
        return _tarjan(names, edges)

    def same_scc(self, a: str, b: str) -> bool:
        """Are two classes in the same field-reference SCC?"""
        return self._scc_of.get(a) == self._scc_of.get(b)

    def is_recursive_field(self, owner: str, f: FieldDecl) -> bool:
        """Does field ``f`` of ``owner`` point (possibly mutually) back?

        A field is *recursive* when its class belongs to the same SCC as the
        owner (self-reference gives a singleton SCC with a self-loop, which
        Tarjan reports as a cycle only if the edge exists -- handled below).
        """
        if not isinstance(f.field_type, ClassType):
            return False
        target = f.field_type.name
        if target == owner:
            return True
        if not self.same_scc(owner, target):
            return False
        # same (multi-element) SCC => mutually recursive
        scc = self._sccs[self._scc_of[owner]]
        return len(scc) > 1

    def split(self, name: str) -> Tuple[Tuple[FieldDecl, ...], Tuple[FieldDecl, ...]]:
        """``split(fieldlist(cn), cn)``: (non-recursive, recursive) own fields."""
        nonrec: List[FieldDecl] = []
        rec: List[FieldDecl] = []
        for f in self.own_fields(name):
            (rec if self.is_recursive_field(name, f) else nonrec).append(f)
        return tuple(nonrec), tuple(rec)

    def is_rec_read_only(self, name: str) -> bool:
        """``isRecReadOnly(cn)``: no assignment anywhere mutates a recursive
        field of ``cn`` (initialisation through ``new`` does not count).

        When true, *field* region subtyping may treat the recursive region
        covariantly (Sec 3.2), which is what lets Reynolds3 place each list
        cell in its own (possibly shorter-lived) region.

        The name-based conservative check ("an assignment anywhere to a
        field with this name might mutate a cn") only needs the set of
        field names ever assigned outside initialisation, so that set is
        built once per table and each class's verdict is memoised: a query
        costs O(own recursive fields) instead of a whole-program walk.
        """
        cached = self._rec_read_only.get(name)
        if cached is not None:
            return cached
        rec_names = {f.name for f in self.split(name)[1]}
        if not rec_names:
            self._rec_read_only[name] = False
            return False
        if self._mutated_field_names is None:
            mutated: Set[str] = set()
            for method in self.program.all_methods():
                for node in walk(method.body):
                    if isinstance(node, Assign) and isinstance(node.lhs, FieldRead):
                        mutated.add(node.lhs.field_name)
            self._mutated_field_names = mutated
        # conservatively assume any same-named assignment's receiver may
        # be a cn
        verdict = not (rec_names & self._mutated_field_names)
        self._rec_read_only[name] = verdict
        return verdict


def _tarjan(nodes: Sequence[str], edges: Dict[str, Set[str]]) -> List[List[str]]:
    """Iterative Tarjan SCC over string-labelled nodes."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for start in nodes:
        if start in index:
            continue
        work: List[Tuple[str, List[str], int]] = [(start, sorted(edges.get(start, ())), 0)]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, children, i = work[-1]
            if i < len(children):
                work[-1] = (node, children, i + 1)
                child = children[i]
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, sorted(edges.get(child, ())), 0))
                elif child in on_stack:
                    low[node] = min(low[node], index[child])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs
