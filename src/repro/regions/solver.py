"""The region-constraint solver.

The solver gives semantics to conjunctions of ``Outlives``/``RegionEq`` atoms.
It needs two rules (paper Sec 4.2.2): ``=`` merges regions into one class,
and ``>=`` is transitive, with cycles collapsing into equalities
(``r >= s /\\ s >= r  =>  r = s``) -- which is what forces every cyclic
data structure into a single region.  It is built from four parts:

* **union-find** for ``=`` (:meth:`RegionSolver.union`);
* **successor/predecessor sets** over equivalence-class representatives
  for ``>=`` (edge ``a -> b`` for ``a >= b``);
* **one Tarjan pass** (:meth:`RegionSolver.close`) that collapses every
  cycle, plus the heap-completion rule: anything with an outlives path
  into the heap class *is* heap;
* **descendant bitsets** per representative, built by the first query
  after a mutation and dropped by any mutation.

The heap outlives everything, and the fictitious null region both outlives
and is outlived by everything, so neither ever needs explicit edges.
Entailment ``C |= a >= b`` is reachability in the closed graph; ``project``
computes the strongest consequence of a constraint over a set of
*interface* regions -- used to turn the constraints gathered from a method
body into the method's precondition ``pre.m`` (existentially quantifying
the method's local regions).

The solver ignores :class:`~repro.regions.constraints.PredAtom` atoms; those
are eliminated beforehand by fixed-point analysis.  See ``docs/solver.md``
for the cost model.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .constraints import (
    Atom,
    Constraint,
    HEAP,
    Outlives,
    PredAtom,
    Region,
    RegionEq,
)
from .substitution import RegionSubst

__all__ = [
    "RegionSolver",
    "solve",
    "entails",
    "coalescing_substitution",
]


class RegionSolver:
    """Solver for outlives/equality constraints.

    Typical use::

        solver = RegionSolver()
        solver.add_constraint(gathered)
        solver.close()                      # collapse cycles
        assert solver.entails(Outlives(r2, r4))
        pre = solver.project([r1, r2, r4])  # strongest consequence

    The solver may be seeded with *hypotheses* (e.g. a class invariant and a
    method precondition during checking) and then asked whether obligations
    follow.  What-if tests (add atoms, query, forget them) run on a
    :meth:`copy`.
    """

    def __init__(self, constraint: Optional[Constraint] = None):
        # union-find parent pointers; regions are added lazily.
        self._parent: Dict[Region, Region] = {}
        # outlives edges over *representatives*: succ[a] = {b | a >= b}.
        # Invariant: every key and every member of every set is a current
        # representative, and _pred mirrors _succ exactly.  This makes the
        # two maps each other's back-reference index, which is what lets
        # union() re-point edges in O(degree) instead of O(V).
        self._succ: Dict[Region, Set[Region]] = {}
        self._pred: Dict[Region, Set[Region]] = {}
        self._closed = False
        # descendant bitsets over the closed graph, built by the first query
        # after a mutation: _bit numbers the representatives densely and
        # _reach[rep] is the mask of representatives reachable from rep
        # (its own bit included).  Never mutated in place -- a mutation
        # drops both -- so copies may share them.
        self._bit: Optional[Dict[Region, int]] = None
        self._reach: Optional[Dict[Region, int]] = None
        if constraint is not None:
            self.add_constraint(constraint)

    def _invalidate(self) -> None:
        """Drop the closure flag and the bitsets after a mutation."""
        self._closed = False
        self._bit = None
        self._reach = None

    # -- union-find -----------------------------------------------------------
    def _ensure(self, r: Region) -> Region:
        if r not in self._parent:
            self._parent[r] = r
            self._succ[r] = set()
            self._pred[r] = set()
        return self.find(r)

    def find(self, r: Region) -> Region:
        """Representative of ``r``'s equivalence class."""
        parent = self._parent
        if r not in parent:
            return r
        root = r
        while parent[root] != root:
            root = parent[root]
        # path compression
        while parent[r] != root:
            parent[r], r = root, parent[r]
        return root

    def union(self, a: Region, b: Region) -> Region:
        """Merge the classes of ``a`` and ``b``; returns the representative.

        Heap and null regions are canonical: if either side is heap (resp.
        null) the merged class is represented by it, so entailment rules for
        the distinguished regions stay uniform.  Otherwise the older
        (smaller-uid) region represents the class, so the representative
        never depends on the order of the merges.

        Cost is O(degree of the dropped representative): its adjacency sets
        are walked once to re-point the mirror edges held by its neighbours.
        """
        ra, rb = self._ensure(a), self._ensure(b)
        if ra == rb:
            return ra
        # prefer heap, then null, then the older (smaller-uid) region as rep:
        # older regions are usually interface regions, which keeps projected
        # constraints readable.
        keep, drop = ra, rb
        if rb.is_heap or (rb.is_null and not ra.is_heap):
            keep, drop = rb, ra
        elif not (ra.is_heap or ra.is_null) and rb.uid < ra.uid:
            keep, drop = rb, ra
        self._parent[drop] = keep
        succ_d = self._succ.pop(drop)
        pred_d = self._pred.pop(drop)
        # re-point the mirror edges held by the dropped rep's neighbours
        for s in succ_d:
            mirror = self._pred[s]
            mirror.discard(drop)
            mirror.add(keep)
        for p in pred_d:
            mirror = self._succ[p]
            mirror.discard(drop)
            mirror.add(keep)
        succ_k = self._succ[keep]
        pred_k = self._pred[keep]
        succ_k |= succ_d
        pred_k |= pred_d
        succ_k.discard(keep)
        succ_k.discard(drop)
        pred_k.discard(keep)
        pred_k.discard(drop)
        self._invalidate()
        return keep

    # -- building ----------------------------------------------------------------
    def add_outlives(self, left: Region, right: Region) -> None:
        """Record ``left >= right``."""
        if left.is_heap or left.is_null or right.is_null or left == right:
            return  # trivially valid
        if right.is_heap:
            # r >= heap forces r to *be* heap-like (heap already >= r).
            self.union(left, HEAP)
            return
        la, rb = self._ensure(left), self._ensure(right)
        if la == rb:
            return
        if rb.is_heap:
            # ``right`` was merged into the heap class earlier, so this atom
            # is again ``left >= heap``
            self.union(left, HEAP)
            return
        if rb in self._succ[la]:
            return
        self._succ[la].add(rb)
        self._pred[rb].add(la)
        self._invalidate()

    def add_eq(self, left: Region, right: Region) -> None:
        """Record ``left = right``."""
        if left == right or left.is_null or right.is_null:
            return
        self.union(left, right)

    def add_atom(self, atom: Atom) -> None:
        if isinstance(atom, Outlives):
            self.add_outlives(atom.left, atom.right)
        elif isinstance(atom, RegionEq):
            self.add_eq(atom.left, atom.right)
        elif isinstance(atom, PredAtom):
            raise ValueError(
                f"solver cannot handle unexpanded constraint abstraction {atom}; "
                "run fixed-point analysis first"
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown atom {atom!r}")

    def add_constraint(self, constraint: Constraint) -> None:
        for atom in constraint.atoms:
            self.add_atom(atom)

    # -- closure -------------------------------------------------------------------
    def close(self) -> None:
        """Collapse every cycle of the outlives graph into an equality class.

        A single Tarjan pass suffices: collapsing the SCCs of the current
        graph produces its condensation, which is a DAG by construction, so
        no further cycles can appear.  After closing, entailment is plain
        reachability.  Idempotent until the next mutation.
        """
        if self._closed:
            return
        for scc in self._tarjan_sccs():
            if len(scc) > 1:
                rep = scc[0]
                for other in scc[1:]:
                    rep = self.union(rep, other)
        # heap is top: anything with an outlives path *to* the heap class
        # also satisfies ``heap >= r``, hence equals heap (such edges only
        # appear when a successor was merged into the heap class earlier)
        if HEAP in self._pred and self._pred[HEAP]:
            above: Set[Region] = set()
            frontier = list(self._pred[HEAP])
            while frontier:
                node = frontier.pop()
                if node in above or node.is_heap:
                    continue
                above.add(node)
                frontier.extend(self._pred[node])
            for r in above:
                self.union(r, HEAP)
        self._closed = True

    def _tarjan_sccs(self) -> List[List[Region]]:
        """Iterative Tarjan over the current representative graph."""
        index: Dict[Region, int] = {}
        low: Dict[Region, int] = {}
        on_stack: Set[Region] = set()
        stack: List[Region] = []
        sccs: List[List[Region]] = []
        counter = 0

        for start in list(self._succ):
            if start in index:
                continue
            work: List[Tuple[Region, Iterable[Region]]] = [
                (start, iter(self._succ[start]))
            ]
            index[start] = low[start] = counter
            counter += 1
            stack.append(start)
            on_stack.add(start)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child == node:
                        continue
                    if child not in index:
                        index[child] = low[child] = counter
                        counter += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(self._succ[child])))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if advanced:
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

    # -- descendant bitsets --------------------------------------------------------
    def _reach_masks(self) -> Dict[Region, int]:
        """Descendant bitsets per representative over the closed DAG.

        Built in one reverse-topological sweep (iterative post-order DFS):
        each representative's mask is its own bit OR-ed with its successors'
        masks.  Valid until the next mutation.
        """
        self.close()
        if self._reach is not None:
            return self._reach
        bit: Dict[Region, int] = {}
        masks: Dict[Region, int] = {}
        succ = self._succ
        for root in succ:
            if root in masks:
                continue
            work: List[Tuple[Region, Iterable[Region]]] = [(root, iter(succ[root]))]
            while work:
                node, children = work[-1]
                descended = False
                for child in children:
                    if child not in masks:
                        work.append((child, iter(succ[child])))
                        descended = True
                        break
                if descended:
                    continue
                work.pop()
                if node in masks:  # diamond: finished via another path
                    continue
                bit[node] = len(bit)
                mask = 1 << bit[node]
                for child in succ[node]:
                    mask |= masks[child]
                masks[node] = mask
        self._bit = bit
        self._reach = masks
        return masks

    def _class_bit(self, rep: Region) -> int:
        """The bit of representative ``rep`` (0 if it is in no atom)."""
        assert self._bit is not None
        index = self._bit.get(rep)
        return 0 if index is None else 1 << index

    # -- queries ----------------------------------------------------------------
    def same_region(self, a: Region, b: Region) -> bool:
        """Does the constraint force ``a = b``?"""
        self.close()
        if a.is_null or b.is_null:
            return True
        return self.find(a) == self.find(b)

    def reachable(self, src: Region, dst: Region) -> bool:
        """Is there an outlives path ``src >= ... >= dst``? (on representatives)

        One bit test: the source class's descendant mask against the
        target class's bit.
        """
        masks = self._reach_masks()
        a, b = self.find(src), self.find(dst)
        if a == b:
            return True
        return bool(masks.get(a, 0) & self._class_bit(b))

    def entails_outlives(self, left: Region, right: Region) -> bool:
        """Does the recorded constraint entail ``left >= right``?"""
        if left.is_heap or left.is_null or right.is_null or left == right:
            return True
        if right.is_heap:
            return self.same_region(left, HEAP)
        if self.same_region(left, HEAP):
            # left's class was merged into heap, which outlives everything
            return True
        return self.reachable(left, right)

    def entails_atom(self, atom: Atom) -> bool:
        if isinstance(atom, Outlives):
            return self.entails_outlives(atom.left, atom.right)
        if isinstance(atom, RegionEq):
            return self.same_region(atom.left, atom.right)
        raise ValueError(f"cannot decide entailment of predicate atom {atom}")

    def entails(self, constraint: Constraint) -> bool:
        """Does the recorded constraint entail every atom of ``constraint``?"""
        return all(self.entails_atom(a) for a in constraint.atoms)

    def failing_atoms(self, constraint: Constraint) -> Tuple[Atom, ...]:
        """The atoms of ``constraint`` that do *not* follow (for diagnostics)."""
        return tuple(a for a in constraint.sorted_atoms() if not self.entails_atom(a))

    def upward_closure(self, targets: Iterable[Region]) -> FrozenSet[Region]:
        """All known regions ``r`` with ``C |= r >= t`` for some target ``t``.

        This is the escape set of the [letreg] rule: a region that must
        outlive an escaping region escapes itself.  Includes the targets and
        every member of their equivalence classes.
        """
        masks = self._reach_masks()
        targets = list(targets)
        target_mask = 0
        for t in targets:
            target_mask |= self._class_bit(self.find(t))
        reps: Set[Region] = set()
        if target_mask:
            # a representative reaches a target iff its descendant bitset
            # intersects the targets' bits (each mask includes its own bit)
            reps = {rep for rep, mask in masks.items() if mask & target_mask}
        if targets:
            # the heap class outlives every target unconditionally — even
            # targets the solver has never seen in an atom
            reps.add(HEAP)
        members = (
            {r for r in self._parent if self.find(r) in reps} if reps else set()
        )
        # a target trivially outlives itself even if the solver has never
        # seen it in an atom
        members.update(targets)
        return frozenset(members)

    # -- extraction ----------------------------------------------------------------
    def _classes(self) -> Dict[Region, List[Region]]:
        """Closed equivalence classes, keyed by representative."""
        self.close()
        groups: Dict[Region, List[Region]] = {}
        for r in self._parent:
            groups.setdefault(self.find(r), []).append(r)
        return groups

    def equivalence_classes(self) -> List[List[Region]]:
        """All non-singleton equivalence classes (deterministic order)."""
        out = [
            sorted(g, key=lambda x: x.uid)
            for g in self._classes().values()
            if len(g) > 1
        ]
        out.sort(key=lambda g: g[0].uid)
        return out

    def coalescing_substitution(
        self, preferred: Sequence[Region] = ()
    ) -> RegionSubst:
        """A substitution replacing each region by its class's canonical member.

        ``preferred`` regions (e.g. a method's declared region parameters)
        win the choice of canonical member within their class; otherwise the
        oldest region wins.  Applying this substitution to an annotated
        program realises the "coalesce equal regions" simplification of the
        paper's examples (Fig 5(d)).
        """
        pref_rank = {r: i for i, r in enumerate(preferred)}
        mapping: Dict[Region, Region] = {}
        for rep, members in self._classes().items():
            if rep.is_heap or rep.is_null:
                canon = rep
            else:
                canon = min(
                    members,
                    key=lambda x: (pref_rank.get(x, len(pref_rank)), x.uid),
                )
            for m in members:
                if m != canon:
                    mapping[m] = canon
        return RegionSubst(mapping)

    def project(
        self,
        interface: Sequence[Region],
        *,
        transitive_reduce: bool = True,
    ) -> Constraint:
        """Strongest consequence of the constraint over ``interface`` regions.

        For every ordered pair ``(a, b)`` of interface regions, the result
        contains ``a = b`` if the classes coincide, or ``a >= b`` if there is
        an outlives path.  With ``transitive_reduce`` the redundant outlives
        atoms implied by others in the result are dropped, matching the terse
        preconditions shown in the paper's figures.

        Each pair is a single bit test against the descendant bitsets, so
        projection is O(k^2) bit tests for k interface regions.
        """
        masks = self._reach_masks()
        iface = [r for r in interface if not r.is_null]
        # Equalities among interface regions.
        eq_atoms: List[Atom] = []
        canon_of: Dict[Region, Region] = {}
        for r in iface:
            rep = self.find(r)
            if rep.is_heap and not r.is_heap:
                eq_atoms.append(RegionEq(r, HEAP).normalized())
            if rep in canon_of:
                if canon_of[rep] != r:
                    eq_atoms.append(RegionEq(canon_of[rep], r).normalized())
            else:
                canon_of[rep] = r
        # Outlives among distinct interface classes.
        chosen = list(canon_of.values())
        pairs: Set[Tuple[Region, Region]] = set()
        for a in chosen:
            if a.is_heap:
                continue
            ra = self.find(a)
            mask_a = masks.get(ra, 0)
            for b in chosen:
                if a == b:
                    continue
                rb = self.find(b)
                if ra != rb and mask_a & self._class_bit(rb):
                    pairs.add((a, b))
        if transitive_reduce:
            pairs = _transitive_reduction(pairs)
        out_atoms: List[Atom] = [Outlives(a, b) for (a, b) in pairs]
        return Constraint.of(*eq_atoms, *out_atoms)

    def copy(self) -> "RegionSolver":
        """An independent copy (used for what-if entailment tests).

        The graph is copied; the closure flag and the bitsets carry over
        (shared, since a mutation replaces them rather than editing them),
        so querying an unmutated copy of a closed solver costs no rebuild.
        """
        dup = RegionSolver()
        dup._parent = dict(self._parent)
        dup._succ = {k: set(v) for k, v in self._succ.items()}
        dup._pred = {k: set(v) for k, v in self._pred.items()}
        dup._closed = self._closed
        dup._bit = self._bit
        dup._reach = self._reach
        return dup


def _transitive_reduction(
    pairs: Set[Tuple[Region, Region]]
) -> Set[Tuple[Region, Region]]:
    """Remove pairs implied by the transitive closure of the others.

    The input is closed (it came from reachability queries over distinct
    equivalence classes, so it is a transitively-closed DAG with no
    self-loops): ``(a, c)`` is redundant iff some successor ``b`` of
    ``a`` also has ``(b, c)``.

    Implemented over dense per-source successor bitsets: one pass ORs
    together the masks of ``a``'s successors, and ``a`` keeps exactly the
    successors not dominated by that union -- O(pairs) big-int mask
    operations.
    """
    if not pairs:
        return set()
    index: Dict[Region, int] = {}
    succ: Dict[Region, List[Region]] = {}
    succ_mask: Dict[Region, int] = {}
    for a, b in pairs:
        if b not in index:
            index[b] = len(index)
        succ.setdefault(a, []).append(b)
        succ_mask[a] = succ_mask.get(a, 0) | (1 << index[b])
    reduced = set()
    for a, bs in succ.items():
        dominated = 0
        for b in bs:
            dominated |= succ_mask.get(b, 0)
        keep = succ_mask[a] & ~dominated
        for b in bs:
            if (keep >> index[b]) & 1:
                reduced.add((a, b))
    return reduced


# -- module-level conveniences ----------------------------------------------------


def solve(constraint: Constraint) -> RegionSolver:
    """Build and close a solver for ``constraint``."""
    solver = RegionSolver(constraint)
    solver.close()
    return solver


def entails(hypotheses: Constraint, conclusion: Constraint) -> bool:
    """Does ``hypotheses`` entail ``conclusion``?  (both predicate-free)"""
    return solve(hypotheses).entails(conclusion)


def coalescing_substitution(
    constraint: Constraint, preferred: Sequence[Region] = ()
) -> RegionSubst:
    """Substitution coalescing all provably-equal regions of ``constraint``."""
    return solve(constraint).coalescing_substitution(preferred)
