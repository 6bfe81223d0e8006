"""The global dependency graph (paper Sec 4.3).

Region inference processes classes and methods bottom-up over a dependency
graph whose strongly connected components become the units of fixed-point
analysis.  The paper's five dependency kinds map onto our edges as follows
(``a -> b`` meaning *a depends on b*, so b is processed first):

* ``cn1 < cn2`` (component / superclass)  -- handled separately by the
  class annotation ordering in :mod:`repro.core.schemes`;
* ``mn1 < cn2`` (method uses class)       -- ``method -> classinv`` edges;
* ``mn1 < mn2`` (method calls method)     -- ``caller -> callee`` edges,
  one per call, to the target normal typing resolved (``Call.callee``);
* ``cn'.mn < cn.mn`` (override check)     -- the *superclass* method's
  finalisation depends on the subclass method's inferred precondition, so
  ``super_method -> sub_method``;
* ``cn' < cn.mn`` (override check)        -- the subclass's invariant may be
  strengthened by override resolution, so ``classinv(sub) -> methods``.

Method SCCs are mutually recursive nests solved together; ``classinv``
nodes are ordering markers only.  A method never takes a ``classinv`` edge
on its own class or superclasses (that would make every class trivially
cyclic with its methods).  The graph reads the call targets the normal
type checker recorded, so it must be built from a type-checked program;
it resolves nothing itself.

For incremental re-inference the graph also carries **structural
fingerprints**: a per-method AST hash independent of formatting,
positions and parse-order artifacts (``New`` labels), combined
per-SCC with the fingerprints of everything the SCC depends on --
callees, override partners and the class structures whose invariants it
expands.  Two programs agreeing on an SCC's *transitive* fingerprint
are guaranteed to present identical inference inputs for that SCC, so
:func:`diff` returns exactly the methods of the SCCs whose fingerprint
changed (or ``None`` when the class shapes changed), and the one
inference driver (:meth:`repro.core.infer.RegionInference.infer`)
splices the rest from a prior result.  A graph's side of that diff is
a :class:`GraphFingerprints` value that the inference result keeps, so
an edit hashes only the new program (:func:`dirty_methods`).

:class:`SccFootprints` gives each method SCC the abstraction names its
inference may read; every inference run gates its per-SCC reads to
them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields as dc_fields, is_dataclass
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..lang import ast as S
from ..lang.class_table import OBJECT_NAME, ClassTable

__all__ = [
    "Node",
    "method_node",
    "classinv_node",
    "DependencyGraph",
    "FootprintSet",
    "SccFootprints",
    "GraphFingerprints",
    "diff",
    "dirty_methods",
    "method_fingerprint",
    "class_fingerprint",
    "class_fingerprints",
]


# ---------------------------------------------------------------------------
# Structural fingerprints
# ---------------------------------------------------------------------------

#: dataclass fields that are not the method's own structure: source
#: positions, the global ``New`` allocation-site counter (two parses of
#: the same text disagree on it), and the answers normal typing records
#: (whole-program facts; the graph's edges carry the call targets).
_SKIP_FIELDS = frozenset(
    {"pos", "label", "callee", "declaring_class", "operand_class"}
)


def _layout(tp: type) -> Tuple[bytes, Tuple[Tuple[bytes, str], ...]]:
    """A dataclass type's opening tag and its ``(tag, field name)`` pairs."""
    return (
        b"\x00<" + tp.__name__.encode("ascii"),
        tuple(
            (b"\x00." + f.name.encode("ascii"), f.name)
            for f in dc_fields(tp)
            if f.name not in _SKIP_FIELDS
        ),
    )


#: the layout of every AST dataclass, worked out once at import instead of
#: once per hashed node
_LAYOUTS = {
    tp: _layout(tp)
    for tp in vars(S).values()
    if isinstance(tp, type) and is_dataclass(tp)
}


def _feed(out: List[bytes], obj) -> None:
    """Append a canonical byte encoding of an AST value to ``out``."""
    t = type(obj)
    layout = _LAYOUTS.get(t)
    if layout is None:
        if obj is None:
            out.append(b"\x00N")
        elif isinstance(obj, bool):
            out.append(b"\x00T" if obj else b"\x00F")
        elif isinstance(obj, str):
            out.append(b"\x00s")
            out.append(obj.encode("utf-8"))
        elif isinstance(obj, int):
            out.append(b"\x00i")
            out.append(str(obj).encode("ascii"))
        elif isinstance(obj, (list, tuple)):
            out.append(b"\x00[")
            for x in obj:
                _feed(out, x)
            out.append(b"\x00]")
        elif is_dataclass(obj):
            _feed_fields(out, obj, _layout(t))
        else:  # pragma: no cover - defensive (no other value kinds in the AST)
            out.append(b"\x00?")
            out.append(repr(obj).encode("utf-8"))
    else:
        _feed_fields(out, obj, layout)


def _feed_fields(
    out: List[bytes], obj, layout: Tuple[bytes, Tuple[Tuple[bytes, str], ...]]
) -> None:
    head, fields = layout
    out.append(head)
    for tag, name in fields:
        out.append(tag)
        value = getattr(obj, name)
        if type(value) is str:  # most fields: names and operators
            out.append(b"\x00s")
            out.append(value.encode("utf-8"))
        else:
            _feed(out, value)
    out.append(b"\x00>")


def method_fingerprint(decl: S.MethodDecl) -> str:
    """Structural hash of a method declaration (signature + body).

    Independent of source formatting, positions and ``New`` labels; two
    textually different but structurally identical declarations agree.
    """
    out: List[bytes] = []
    _feed(out, decl)
    return hashlib.sha256(b"".join(out)).hexdigest()


def class_fingerprint(decl: S.ClassDecl) -> str:
    """Structural hash of a class's *shape*: name, superclass, fields.

    Method bodies are excluded -- they are fingerprinted per method.
    This is the identity of the class annotation (region arity, field
    types, recursive region), so any change here invalidates the whole
    annotation universe (:func:`diff` then returns ``None``).
    """
    out = [
        b"\x00C",
        decl.name.encode("utf-8"),
        b"\x00<",
        decl.super_name.encode("utf-8"),
    ]
    for f in decl.fields:
        _feed(out, f)
    return hashlib.sha256(b"".join(out)).hexdigest()


def class_fingerprints(table: ClassTable) -> List[Tuple[str, str]]:
    """``(name, shape fingerprint)`` per declared class, in table order.

    Two programs agreeing on this list share one class annotation
    universe, which is what lets re-inference adopt a prior's annotations.
    """
    return [(cn, class_fingerprint(table.decl(cn))) for cn in table.class_names()]


@dataclass(frozen=True)
class Node:
    """A graph node: ``("method", qualified)`` or ``("classinv", cn)``."""

    kind: str
    name: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.name}"


def method_node(qualified: str) -> Node:
    return Node("method", qualified)


def classinv_node(cn: str) -> Node:
    return Node("classinv", cn)


class DependencyGraph:
    """Builds and orders the method/classinv dependency graph."""

    def __init__(self, program: S.Program, table: ClassTable):
        self.program = program
        self.table = table
        self.edges: Dict[Node, Set[Node]] = {}
        self._methods: Dict[str, S.MethodDecl] = {}
        self._build()
        # the graph never changes after it is built, so one Tarjan run
        # serves every reader (diff, footprints, the inference driver)
        self._sccs = self._tarjan()

    # -- building ----------------------------------------------------------------
    def _add_edge(self, a: Node, b: Node) -> None:
        if a != b:
            self.edges.setdefault(a, set()).add(b)
        self.edges.setdefault(b, set())

    def _ensure(self, n: Node) -> None:
        self.edges.setdefault(n, set())

    def _build(self) -> None:
        for cn in self.table.class_names():
            self._ensure(classinv_node(cn))
        for method in self.program.all_methods():
            self._methods[method.qualified_name] = method
            self._ensure(method_node(method.qualified_name))

        for method in self.program.all_methods():
            self._add_method_edges(method)

        # override-induced dependencies
        for sub_cn, sup_cn, mn in self.table.override_pairs():
            self._add_edge(
                method_node(f"{sup_cn}.{mn}"), method_node(f"{sub_cn}.{mn}")
            )
            self._add_edge(classinv_node(sub_cn), method_node(f"{sub_cn}.{mn}"))
            self._add_edge(classinv_node(sub_cn), method_node(f"{sup_cn}.{mn}"))

        # classinv ordering follows the hierarchy
        for cn in self.table.class_names():
            sup = self.table.superclass(cn)
            if sup is not None and sup != OBJECT_NAME:
                self._add_edge(classinv_node(cn), classinv_node(sup))

    def _add_method_edges(self, method: S.MethodDecl) -> None:
        me = method_node(method.qualified_name)
        owner_line = (
            set(self.table.ancestors(method.owner)) if method.owner else set()
        )
        for p in method.params:
            if isinstance(p.param_type, S.ClassType):
                self._uses_class(me, owner_line, p.param_type.name)
        if isinstance(method.ret_type, S.ClassType):
            self._uses_class(me, owner_line, method.ret_type.name)

        # walk the body for calls, news, casts, nulls and local decl types
        for e in S.walk(method.body):
            if isinstance(e, S.Call):
                self._add_edge(me, method_node(e.callee))
            elif isinstance(e, (S.New, S.Cast, S.Null)):
                self._uses_class(me, owner_line, e.class_name)
            elif isinstance(e, S.Block):
                for s in e.stmts:
                    if isinstance(s, S.LocalDecl) and isinstance(s.decl_type, S.ClassType):
                        self._uses_class(me, owner_line, s.decl_type.name)

    def _uses_class(self, me: Node, owner_line: Set[str], cn: str) -> None:
        if cn != OBJECT_NAME and self.table.has_class(cn) and cn not in owner_line:
            self._add_edge(me, classinv_node(cn))

    # -- ordering --------------------------------------------------------------------
    def sccs(self) -> Tuple[Tuple[Node, ...], ...]:
        """SCCs in reverse-topological (dependencies-first) order."""
        return self._sccs

    def _tarjan(self) -> Tuple[Tuple[Node, ...], ...]:
        index: Dict[Node, int] = {}
        low: Dict[Node, int] = {}
        on_stack: Set[Node] = set()
        stack: List[Node] = []
        out: List[Tuple[Node, ...]] = []
        counter = [0]
        nodes = sorted(self.edges, key=str)

        for start in nodes:
            if start in index:
                continue
            work: List[Tuple[Node, List[Node], int]] = [
                (start, sorted(self.edges[start], key=str), 0)
            ]
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
                        work.append((child, sorted(self.edges[child], key=str), 0))
                    elif child in on_stack:
                        low[node] = min(low[node], index[child])
                    continue
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == index[node]:
                    scc: List[Node] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    out.append(tuple(scc))
        # Tarjan emits SCCs in reverse topological order of the condensation
        # *with edges pointing at dependencies*, which is exactly
        # dependencies-first.
        return tuple(out)

    def method_sccs(self) -> List[List[str]]:
        """The method groups (qualified names) in processing order."""
        groups: List[List[str]] = []
        for scc in self.sccs():
            methods = [n.name for n in scc if n.kind == "method"]
            if methods:
                groups.append(sorted(methods))
        return groups

    # -- fingerprints ------------------------------------------------------------
    def _local_fingerprint(
        self,
        node: Node,
        salts: Optional[Mapping[str, str]],
        shapes: Dict[str, str],
    ) -> str:
        """Structural hash of one node in isolation (no dependencies).

        A ``classinv`` node's hash is its class's shape fingerprint, which
        is also recorded in ``shapes``.
        """
        if node.kind == "method":
            fp = method_fingerprint(self._methods[node.name])
            salt = salts.get(node.name) if salts else None
            if salt:
                h = hashlib.sha256()
                h.update(fp.encode("ascii"))
                h.update(b"\x00+")
                h.update(salt.encode("utf-8"))
                fp = h.hexdigest()
            return fp
        fp = shapes[node.name] = class_fingerprint(self.table.decl(node.name))
        return fp

    def node_fingerprints(
        self, salts: Optional[Mapping[str, str]] = None
    ) -> Dict[Node, str]:
        """Transitive structural fingerprint of every node.

        A node's fingerprint covers its own structure *and* (recursively)
        the structure of everything it depends on: callees, override
        partners, class shapes whose invariants it expands.  ``salts``
        optionally mixes an extra per-method string into that method's
        local hash -- used by the inference layer to fold in facts the
        AST alone does not determine (e.g. downcast padding plans).

        Agreement on this fingerprint between two programs guarantees
        the node sees identical inference inputs, which is the soundness
        condition for splicing its prior result.
        """
        return self._node_fingerprints(salts, {})

    def _node_fingerprints(
        self, salts: Optional[Mapping[str, str]], shapes: Dict[str, str]
    ) -> Dict[Node, str]:
        sccs = self.sccs()
        scc_of: Dict[Node, int] = {}
        for i, scc in enumerate(sccs):
            for n in scc:
                scc_of[n] = i
        scc_fp: List[str] = []
        out: Dict[Node, str] = {}
        for i, scc in enumerate(sccs):  # dependencies-first
            deps: Set[int] = set()
            for n in scc:
                for m in self.edges[n]:
                    j = scc_of[m]
                    if j != i:
                        deps.add(j)
            h = hashlib.sha256()
            h.update(b"\x00S")
            for fp in sorted(self._local_fingerprint(n, salts, shapes) for n in scc):
                h.update(fp.encode("ascii"))
                h.update(b"\x00,")
            h.update(b"\x00D")
            for fp in sorted(scc_fp[j] for j in deps):
                h.update(fp.encode("ascii"))
                h.update(b"\x00,")
            digest = h.hexdigest()
            scc_fp.append(digest)
            for n in scc:
                out[n] = digest
        return out

    def fingerprints(
        self, salts: Optional[Mapping[str, str]] = None
    ) -> "GraphFingerprints":
        """What :func:`dirty_methods` needs of this graph, hashed once."""
        shapes: Dict[str, str] = {}
        fps = self._node_fingerprints(salts, shapes)
        digests: Dict[str, bytes] = {}  # one object per SCC, shared by its nodes

        def digest(node: Node) -> bytes:
            fp = fps[node]
            raw = digests.get(fp)
            if raw is None:
                raw = digests[fp] = bytes.fromhex(fp)
            return raw

        classes = self.table.class_names()
        return GraphFingerprints(
            classes=tuple((cn, shapes[cn]) for cn in classes),
            methods=tuple(digest(method_node(qn)) for qn in self._methods),
            invs=tuple(digest(classinv_node(cn)) for cn in classes),
        )


@dataclass(frozen=True)
class GraphFingerprints:
    """One program's side of an edit diff: everything :func:`dirty_methods`
    reads of a graph, so a result can keep it instead of its graph.

    ``classes`` is :func:`class_fingerprints` as a tuple.  ``invs`` is
    the transitive fingerprint of each class's ``classinv`` node, in the
    same order, and ``methods`` that of each method, in program order;
    both are raw digests (an SCC's members share one).
    """

    classes: Tuple[Tuple[str, str], ...]
    invs: Tuple[bytes, ...]
    methods: Tuple[bytes, ...]


# ---------------------------------------------------------------------------
# Per-SCC reachable footprints
# ---------------------------------------------------------------------------


class FootprintSet:
    """The abstraction names one method SCC's inference may read.

    Backed by a big-int bitmask over the dependency graph's nodes, so
    membership is one dict probe plus a bit test and the set is never
    materialised -- the sum of footprint sizes over all SCCs can be
    quadratic in program size, the masks are not.
    """

    __slots__ = ("_mask", "_bit_of", "_names")

    def __init__(
        self, mask: int, bit_of: Mapping[str, int], names: Tuple[str, ...]
    ):
        self._mask = mask
        self._bit_of = bit_of
        self._names = names

    def __contains__(self, name: object) -> bool:
        i = self._bit_of.get(name)  # type: ignore[arg-type]
        return i is not None and (self._mask >> i) & 1 == 1

    def __len__(self) -> int:
        return bin(self._mask).count("1")

    def __iter__(self):
        mask = self._mask
        while mask:
            low = mask & -mask
            yield self._names[low.bit_length() - 1]
            mask ^= low


class SccFootprints:
    """Per-method-SCC reachable abstraction-name footprints.

    The footprint of an SCC is every constraint-abstraction name its
    per-SCC inference steps are entitled to read:

    * the ``pre`` names of the SCC's own methods and of every method
      node reachable through call/override edges (callee preconditions
      are closed when read, so one name per callee suffices);
    * the ``inv`` names of every reachable ``classinv`` node (the
      hierarchy edges between ``classinv`` nodes close superclass
      invariants transitively);
    * the ``inv`` names of each member's *owner line* -- methods
      deliberately take no ``classinv`` edge on their own hierarchy
      (it would be cyclic), yet their hypotheses expand the owner's
      invariant.

    Masks are built in one dependencies-first pass over the condensation
    (big-int unions, O(edges) word operations), which is what makes the
    per-SCC slice cheap enough to hand to every SCC of every run.
    """

    def __init__(self, graph: DependencyGraph):
        sccs = graph.sccs()
        names: List[str] = []
        bit_of: Dict[str, int] = {}
        node_bit: Dict[Node, int] = {}
        scc_of: Dict[Node, int] = {}
        for i, scc in enumerate(sccs):
            for n in scc:
                scc_of[n] = i
                node_bit[n] = len(names)
                prefix = "pre." if n.kind == "method" else "inv."
                bit_of[prefix + n.name] = len(names)
                names.append(prefix + n.name)
        # Object has no classinv node (``uses_class`` skips it -- every
        # method could otherwise reach it), yet any Object-typed value
        # expands its invariant; it is in every footprint by fiat.
        object_inv = f"inv.{OBJECT_NAME}"
        if object_inv not in bit_of:
            bit_of[object_inv] = len(names)
            names.append(object_inv)
        object_bit = 1 << bit_of[object_inv]
        self._names = tuple(names)
        self._bit_of = bit_of

        masks: List[int] = []
        for i, scc in enumerate(sccs):  # dependencies-first
            mask = 0
            for n in scc:
                mask |= 1 << node_bit[n]
                for m in graph.edges[n]:
                    j = scc_of[m]
                    if j != i:
                        mask |= masks[j]
            masks.append(mask)

        self._by_key: Dict[Tuple[str, ...], FootprintSet] = {}
        self._by_method: Dict[str, FootprintSet] = {}
        for i, scc in enumerate(sccs):
            methods = sorted(n.name for n in scc if n.kind == "method")
            if not methods:
                continue
            mask = masks[i] | object_bit
            for qn in methods:
                owner = graph._methods[qn].owner
                if owner is None:
                    continue
                for cn in graph.table.ancestors(owner):
                    b = bit_of.get(f"inv.{cn}")
                    if b is not None:
                        mask |= 1 << b
            fp = FootprintSet(mask, bit_of, self._names)
            self._by_key[tuple(methods)] = fp
            for qn in methods:
                self._by_method[qn] = fp

    def for_scc(self, methods: Sequence[str]) -> FootprintSet:
        """The footprint of the SCC with exactly these method names."""
        return self._by_key[tuple(sorted(methods))]

    def for_method(self, qualified: str) -> FootprintSet:
        """The footprint of the SCC ``qualified`` belongs to."""
        return self._by_method[qualified]


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


def diff(
    old: DependencyGraph,
    new: DependencyGraph,
    *,
    old_salts: Optional[Mapping[str, str]] = None,
    new_salts: Optional[Mapping[str, str]] = None,
) -> Optional[FrozenSet[str]]:
    """The methods of ``new`` whose SCC must be re-inferred after an edit.

    :func:`dirty_methods` over both graphs' fingerprints; see there.
    """
    return dirty_methods(
        old.fingerprints(old_salts), new, new.fingerprints(new_salts)
    )


def dirty_methods(
    old: GraphFingerprints, new: DependencyGraph, new_fps: GraphFingerprints
) -> Optional[FrozenSet[str]]:
    """The methods of ``new`` whose SCC must be re-inferred after an edit.

    ``old`` is the fingerprints of the program before the edit and
    ``new_fps`` those of ``new``.  ``None`` when the class shapes changed:
    every region annotation may then differ, so nothing of the old
    program's inference can be reused.

    Because the per-SCC fingerprints are transitive, a change anywhere
    below an SCC (edited callee body, changed override partner, a callee
    that disappeared and re-resolved elsewhere) changes the SCC's own
    fingerprint -- so "fingerprint not seen in the old graph" is exactly
    the reverse-reachable dirty set the incremental engine needs.

    One dependency is deliberately absent from the graph (a method never
    takes a ``classinv`` edge on its own class, which would make every
    class cyclic with its methods) yet real for re-inference: a method's
    hypotheses expand its *owner's* invariant, which override resolution
    may strengthen.  This closes that gap by dirtying every method whose
    owner's ``classinv`` transitive fingerprint changed.
    """
    if old.classes != new_fps.classes:
        return None

    old_method_fps = set(old.methods)
    dirty: Set[str] = {
        qn for qn, fp in zip(new._methods, new_fps.methods) if fp not in old_method_fps
    }
    changed_invs = {
        cn
        for (cn, _), fp, old_fp in zip(new_fps.classes, new_fps.invs, old.invs)
        if fp != old_fp
    }
    if changed_invs:
        for qn, decl in new._methods.items():
            if decl.owner is not None and decl.owner in changed_invs:
                dirty.add(qn)
    # a dirty method dirties its whole SCC (the nest is one fixed point)
    if dirty:
        for names in new.method_sccs():
            if any(qn in dirty for qn in names):
                dirty.update(names)
    return frozenset(dirty)
