"""Region variables and region lifetime constraints.

This module implements the constraint language of the paper (Fig 1(b)):

* *regions* -- abstract memory areas with lexically scoped lifetimes.  The
  distinguished region ``heap`` has unlimited lifetime and outlives every
  other region.

* *atomic constraints* -- ``r1 >= r2`` (written ``r1 outlives r2``; the
  lifetime of ``r1`` is not shorter than that of ``r2``) and equalities
  ``r1 = r2``.  Our inference only ever *generates* outlives and equality
  constraints, mirroring the paper ("our algorithm will infer region
  constraints only of the form r1 >= r2 or r1 = r2").

* *predicate atoms* -- applications ``q<r1..rn>`` of a named constraint
  abstraction (Sec 2, "constraint abstractions" of Gustavsson/Svenningsson).
  These appear while a recursive method's precondition is still being
  computed and are eliminated by fixed-point analysis
  (:mod:`repro.regions.fixpoint`).

A :class:`Constraint` is a conjunction of atoms.  Constraints are immutable
values; all combinators return new objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

__all__ = [
    "Region",
    "HEAP",
    "NULL_REGION",
    "RegionNames",
    "Atom",
    "Outlives",
    "RegionEq",
    "PredAtom",
    "Constraint",
    "TRUE",
    "outlives",
    "req",
]


class Region(int):
    """An abstract region variable.

    A region *is* its unique id: :class:`Region` subclasses ``int`` with
    the uid as its value, so equality and hashing run in C (``int``'s own
    slots; the class defines no ``__eq__``/``__hash__``) with the value
    semantics by uid that fresh region generation relies on -- two regions
    are equal exactly when their uids are, even when they share a
    user-facing name.  Hashes equal ``hash(uid)``, so set and dict
    iteration orders are those of the uids.  A region is always truthy
    (the heap's uid is 0).  The pre-built :data:`HEAP` region is the global
    heap with unlimited lifetime; :data:`NULL_REGION` is the fictitious
    region of ``null`` values discussed in the paper's conclusion (it
    outlives and is outlived by every region).
    """

    _counter = itertools.count(1)

    #: the unique id, as a plain ``int``
    uid = property(int.__int__)

    def __new__(cls, name: str, kind: str = "var", _uid: Optional[int] = None):
        self = int.__new__(cls, next(Region._counter) if _uid is None else _uid)
        self.name = name
        self.kind = kind  # "var" | "heap" | "null"
        return self

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region({self.name!r}, uid={self.uid})"

    def __str__(self) -> str:
        return self.name

    # -- predicates ---------------------------------------------------------
    @property
    def is_heap(self) -> bool:
        """True for the global heap region."""
        return self.kind == "heap"

    @property
    def is_null(self) -> bool:
        """True for the fictitious region of null values."""
        return self.kind == "null"

    # -- construction helpers ------------------------------------------------
    @staticmethod
    def watermark() -> int:
        """The current uid counter; regions created later have larger uids.

        Used by the [letreg] rule to identify the regions *introduced while
        inferring a block* (the localisation candidates).
        """
        mark = next(Region._counter)
        return mark

    @staticmethod
    def fresh(hint: str = "r") -> "Region":
        """Return a brand new region variable.

        The ``hint`` only affects the display name; uniqueness comes from the
        internal uid.
        """
        uid = next(Region._counter)
        return Region(f"{hint}{uid}", "var", uid)

    @staticmethod
    def fresh_many(n: int, hint: str = "r") -> Tuple["Region", ...]:
        """Return ``n`` distinct fresh region variables."""
        return tuple(Region.fresh(hint) for _ in range(n))


#: The global heap region; ``heap >= r`` holds for every region ``r``.
HEAP = Region("heap", "heap", _uid=0)

#: The fictitious region for null values (paper Sec 8): outlives and is
#: outlived by everything, so it never constrains placement.
NULL_REGION = Region("rnull", "null", _uid=-1)


class RegionNames:
    """A deterministic pretty-naming scheme for regions.

    Inference generates regions with uid-derived names (``r17``, ``r23``);
    for presentation and for golden tests we re-number them ``r1, r2, ...``
    in first-use order, like the paper's figures.
    """

    def __init__(self, prefix: str = "r"):
        self._prefix = prefix
        self._names: Dict[Region, str] = {HEAP: "heap", NULL_REGION: "rnull"}
        self._next = 1

    def name(self, region: Region) -> str:
        """Return (allocating if necessary) the pretty name for ``region``."""
        if region not in self._names:
            self._names[region] = f"{self._prefix}{self._next}"
            self._next += 1
        return self._names[region]

    def name_all(self, regions: Iterable[Region]) -> Tuple[str, ...]:
        return tuple(self.name(r) for r in regions)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """Base class for atomic constraints."""

    def regions(self) -> FrozenSet[Region]:  # pragma: no cover - overridden
        raise NotImplementedError

    def rename(self, mapping: Dict[Region, Region]) -> "Atom":  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class Outlives(Atom):
    """``left >= right``: region ``left`` lives at least as long as ``right``.

    The paper writes this ``left ≽ right``.  The no-dangling requirement of a
    class ``cn<r1..rn>`` is the conjunction ``ri >= r1`` for ``i in 2..n``.
    """

    left: Region
    right: Region

    def regions(self) -> FrozenSet[Region]:
        return frozenset((self.left, self.right))

    def rename(self, mapping: Dict[Region, Region]) -> "Outlives":
        return Outlives(mapping.get(self.left, self.left), mapping.get(self.right, self.right))

    def is_trivial(self) -> bool:
        """True if the atom holds in every model (r>=r, heap>=r, r>=null)."""
        return (
            self.left == self.right
            or self.left.is_heap
            or self.left.is_null
            or self.right.is_null
        )

    def __str__(self) -> str:
        return f"{self.left} >= {self.right}"


@dataclass(frozen=True)
class RegionEq(Atom):
    """``left = right``: the two variables denote the same region.

    Equivalent to ``left >= right  /\\  right >= left``; kept as a distinct
    atom because the solver treats equalities by union-find and because the
    paper's target syntax has explicit ``=`` constraints.
    """

    left: Region
    right: Region

    def regions(self) -> FrozenSet[Region]:
        return frozenset((self.left, self.right))

    def rename(self, mapping: Dict[Region, Region]) -> "RegionEq":
        return RegionEq(mapping.get(self.left, self.left), mapping.get(self.right, self.right))

    def is_trivial(self) -> bool:
        return self.left == self.right

    def normalized(self) -> "RegionEq":
        """Order the two sides deterministically (for set semantics)."""
        if self.left.uid <= self.right.uid:
            return self
        return RegionEq(self.right, self.left)

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class PredAtom(Atom):
    """An application ``name<args>`` of a constraint abstraction.

    ``name`` is e.g. ``"pre.List.getNext"`` or ``"inv.Pair"``; ``args`` are
    the actual regions the abstraction's formal parameters are instantiated
    with.  Fixed-point analysis replaces pred atoms by their (closed-form)
    definitions.
    """

    name: str
    args: Tuple[Region, ...]

    def regions(self) -> FrozenSet[Region]:
        return frozenset(self.args)

    def rename(self, mapping: Dict[Region, Region]) -> "PredAtom":
        return PredAtom(self.name, tuple(mapping.get(a, a) for a in self.args))

    def __str__(self) -> str:
        return f"{self.name}<{', '.join(map(str, self.args))}>"


# ---------------------------------------------------------------------------
# Constraints (conjunctions of atoms)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """An immutable conjunction of atomic region constraints.

    The empty conjunction is ``TRUE``.  Use :meth:`conj` / ``&`` to combine,
    :meth:`rename` to apply a region substitution, and the solver
    (:mod:`repro.regions.solver`) for entailment and simplification.
    """

    atoms: FrozenSet[Atom] = field(default_factory=frozenset)

    # -- constructors --------------------------------------------------------
    @staticmethod
    def of(*atoms: Atom) -> "Constraint":
        """Build a constraint from atoms, dropping trivially-true ones.

        Atoms touching the fictitious null region are dropped entirely:
        the paper's axioms make ``r >= rnull``, ``rnull >= r``, ``r = rnull``
        all hold unconditionally (null values occupy no space and move
        freely between regions).
        """
        kept = []
        for a in atoms:
            if isinstance(a, (Outlives, RegionEq)):
                if a.is_trivial():
                    continue
                if any(r.is_null for r in a.regions()):
                    continue
            if isinstance(a, RegionEq):
                a = a.normalized()
            kept.append(a)
        return Constraint(frozenset(kept))

    @staticmethod
    def all(parts: Iterable["Constraint"]) -> "Constraint":
        """Conjunction of an iterable of constraints."""
        atoms: set = set()
        for p in parts:
            atoms.update(p.atoms)
        return Constraint(frozenset(atoms))

    # -- queries -------------------------------------------------------------
    @property
    def is_true(self) -> bool:
        """True iff this is the empty (trivially valid) constraint."""
        return not self.atoms

    def regions(self) -> FrozenSet[Region]:
        """All region variables mentioned by any atom."""
        out: set = set()
        for a in self.atoms:
            out.update(a.regions())
        return frozenset(out)

    def pred_atoms(self) -> Tuple[PredAtom, ...]:
        """The (unordered) predicate applications inside this constraint."""
        return tuple(a for a in self.atoms if isinstance(a, PredAtom))

    def base_atoms(self) -> "Constraint":
        """The constraint with all predicate atoms removed."""
        return Constraint(frozenset(a for a in self.atoms if not isinstance(a, PredAtom)))

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    # -- combinators ----------------------------------------------------------
    def conj(self, other: "Constraint") -> "Constraint":
        """Conjunction of two constraints."""
        if self.is_true:
            return other
        if other.is_true:
            return self
        return Constraint(self.atoms | other.atoms)

    __and__ = conj

    def with_atoms(self, *atoms: Atom) -> "Constraint":
        return self.conj(Constraint.of(*atoms))

    def rename(self, mapping: Dict[Region, Region]) -> "Constraint":
        """Apply a region substitution, re-normalising the atoms."""
        if not mapping:
            return self
        return Constraint.of(*(a.rename(mapping) for a in self.atoms))

    def without_preds(self, names: Iterable[str]) -> "Constraint":
        """Drop predicate atoms whose name is in ``names``."""
        drop = set(names)
        return Constraint(
            frozenset(a for a in self.atoms if not (isinstance(a, PredAtom) and a.name in drop))
        )

    # -- presentation ----------------------------------------------------------
    def sorted_atoms(self) -> Tuple[Atom, ...]:
        """Atoms in a deterministic display order."""

        def key(a: Atom):
            if isinstance(a, Outlives):
                return (0, a.left.uid, a.right.uid, "")
            if isinstance(a, RegionEq):
                return (1, a.left.uid, a.right.uid, "")
            assert isinstance(a, PredAtom)
            return (2, 0, 0, a.name)

        return tuple(sorted(self.atoms, key=key))

    def __str__(self) -> str:
        if self.is_true:
            return "true"
        return " /\\ ".join(str(a) for a in self.sorted_atoms())


#: The trivially-valid constraint.
TRUE = Constraint()


def outlives(left: Region, right: Region) -> Constraint:
    """Convenience: the single-atom constraint ``left >= right``."""
    return Constraint.of(Outlives(left, right))


def req(left: Region, right: Region) -> Constraint:
    """Convenience: the single-atom constraint ``left = right``."""
    return Constraint.of(RegionEq(left, right))
