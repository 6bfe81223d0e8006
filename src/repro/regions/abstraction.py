"""Constraint abstractions (parameterised constraints).

The paper attaches a *constraint abstraction* [Gustavsson & Svenningsson] to
every class and method:

* ``inv.cn<r1..rn>`` -- the *class invariant*: the region constraints every
  object of class ``cn`` satisfies (at minimum the no-dangling requirement
  ``ri >= r1`` for every component region).

* ``pre.cn.mn<..>`` / ``pre.mn<..>`` -- the *method precondition*: the
  constraint a caller must establish on the method's region parameters.

An abstraction's body may mention other abstractions through
:class:`~repro.regions.constraints.PredAtom` atoms; for (mutually) recursive
methods the bodies are self-referential and are resolved to closed form by
:mod:`repro.regions.fixpoint`.

The collection ``Q`` of all abstractions of a program is an
:class:`AbstractionEnv`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .constraints import Atom, Constraint, Outlives, PredAtom, Region, RegionEq

__all__ = [
    "ConstraintAbstraction",
    "AbstractionEnv",
    "FootprintViolation",
    "ScopedAbstractionEnv",
    "inv_name",
    "pre_name",
]


def inv_name(class_name: str) -> str:
    """The abstraction name for a class invariant, e.g. ``inv.Pair``."""
    return f"inv.{class_name}"


def pre_name(class_name: Optional[str], method_name: str) -> str:
    """The abstraction name of a method precondition.

    Instance methods are qualified by their class (``pre.Pair.getFst``);
    static methods only by their name (``pre.join``), as in the paper.
    """
    if class_name is None:
        return f"pre.{method_name}"
    return f"pre.{class_name}.{method_name}"


class _Recipe:
    """An abstraction body compiled for instantiation.

    Each region of the body is a *slot*: slot ``i < arity`` is parameter
    ``i`` (the last position of a repeated parameter, so the last binding
    wins), then one slot per existential local, in the order
    :meth:`ConstraintAbstraction.instantiate` has always freshened them,
    then one per constant region (the heap, the null region).  Each body
    atom becomes a step ``(kind, a, b)``: for ``Outlives`` and ``RegionEq``
    ``a`` and ``b`` are slots; for ``PredAtom`` ``a`` is the name and ``b``
    the argument slots.
    """

    __slots__ = ("locals", "consts", "steps")

    def __init__(self, params: Tuple[Region, ...], body: Constraint):
        slot: Dict[Region, int] = {p: i for i, p in enumerate(params)}
        self.locals = 0
        for r in body.regions():
            if r not in slot and not (r.is_heap or r.is_null):
                slot[r] = len(params) + self.locals
                self.locals += 1
        consts: List[Region] = []
        for r in body.regions():
            if r not in slot:
                slot[r] = len(params) + self.locals + len(consts)
                consts.append(r)
        self.consts = tuple(consts)
        steps: List[tuple] = []
        for a in body.atoms:
            if isinstance(a, PredAtom):
                steps.append((PredAtom, a.name, tuple(slot[r] for r in a.args)))
            else:
                steps.append((type(a), slot[a.left], slot[a.right]))
        self.steps = tuple(steps)


@dataclass
class ConstraintAbstraction:
    """A named, parameterised constraint ``name<params> = body``.

    ``body`` may contain :class:`PredAtom` references to this or other
    abstractions.  ``closed`` marks bodies with no remaining pred atoms
    (i.e. after fixed-point analysis).

    An abstraction is an immutable value (``AbstractionEnv.strengthen``
    replaces it), so its body is compiled for instantiation once, on
    first use, and the recipe is kept.
    """

    name: str
    params: Tuple[Region, ...]
    body: Constraint
    _recipe: Optional[_Recipe] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.params = tuple(self.params)

    # -- queries ---------------------------------------------------------------
    @property
    def is_closed(self) -> bool:
        """True when the body no longer references any abstraction."""
        return not self.body.pred_atoms()

    @property
    def is_recursive(self) -> bool:
        """True when the body references this abstraction itself."""
        return any(p.name == self.name for p in self.body.pred_atoms())

    def arity(self) -> int:
        return len(self.params)

    # -- instantiation ---------------------------------------------------------
    def instantiate(self, args: Sequence[Region]) -> Constraint:
        """The body with formal parameters replaced by ``args``.

        Free regions of the body that are not parameters (existentially
        quantified locals) are freshened so distinct instantiations never
        share them.  The result is normalised like :meth:`Constraint.of`
        (trivial and null atoms dropped, equalities ordered).
        """
        if len(args) != len(self.params):
            raise ValueError(
                f"{self.name} expects {len(self.params)} regions, got {len(args)}"
            )
        recipe = self._recipe
        if recipe is None:
            # idempotent: two threads racing here store equal recipes
            recipe = self._recipe = _Recipe(self.params, self.body)
        if not self.params and not recipe.locals:
            return self.body  # nothing to substitute
        values = tuple(args)
        if recipe.locals:
            values += Region.fresh_many(recipe.locals, hint="x")
        values += recipe.consts
        atoms: List[Atom] = []
        for kind, a, b in recipe.steps:
            if kind is PredAtom:
                atoms.append(PredAtom(a, tuple(values[i] for i in b)))
                continue
            left, right = values[a], values[b]
            if left == right or left.is_null or right.is_null:
                continue
            if kind is Outlives:
                if not left.is_heap:
                    atoms.append(Outlives(left, right))
            elif left.uid <= right.uid:
                atoms.append(RegionEq(left, right))
            else:
                atoms.append(RegionEq(right, left))
        return Constraint(frozenset(atoms))

    def applied(self, args: Sequence[Region]) -> PredAtom:
        """A pred atom referencing this abstraction with ``args``."""
        if len(args) != len(self.params):
            raise ValueError(
                f"{self.name} expects {len(self.params)} regions, got {len(args)}"
            )
        return PredAtom(self.name, tuple(args))

    def with_body(self, body: Constraint) -> "ConstraintAbstraction":
        return ConstraintAbstraction(self.name, self.params, body)

    def strengthened(self, extra: Constraint) -> "ConstraintAbstraction":
        """The abstraction with ``extra`` conjoined to its body."""
        return self.with_body(self.body.conj(extra))

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        return f"{self.name}<{ps}> = {self.body}"


class AbstractionEnv:
    """The set ``Q`` of constraint abstractions of a program.

    Provides registration, lookup, instantiation and full inlining
    (expansion of all pred atoms, assuming every referenced abstraction is
    closed).

    Internally the env is a *copy-on-write overlay*: a shared, frozen
    ``_base`` mapping (typically the class invariants a program's
    annotation pass produced) plus a private ``_local`` dict holding this
    env's own writes.  Forking an env for a new inference run
    (:meth:`overlay`) is then O(1) instead of O(classes) -- every run
    shares one invariant base and only pays for what it defines itself.
    Iteration reproduces plain-dict semantics exactly: base entries in
    base order (local redefinitions shadowing in place), then local-only
    entries in insertion order.
    """

    def __init__(self, abstractions: Iterable[ConstraintAbstraction] = ()):
        self._base: Dict[str, ConstraintAbstraction] = {}
        self._local: Dict[str, ConstraintAbstraction] = {}
        for a in abstractions:
            self.define(a)

    # -- forking -----------------------------------------------------------------
    def snapshot_base(self) -> Dict[str, ConstraintAbstraction]:
        """This env's entries as one shared mapping, promoting local
        writes into the frozen base first (order-preserving).

        The returned dict must be treated as immutable: it is aliased by
        every overlay forked from this env (and by the ``pristine_q``
        replay seed of inference results).
        """
        if self._local:
            self._base = {a.name: a for a in self}
            self._local = {}
        return self._base

    def overlay(self) -> "AbstractionEnv":
        """An O(1) copy-on-write fork holding this env's current entries.

        The fork sees this env's state as of the call; writes on either
        side stay private (this env writes to its own local overlay, so
        the shared base is never mutated again).
        """
        return AbstractionEnv.over(self.snapshot_base())

    @classmethod
    def over(
        cls, base: Dict[str, ConstraintAbstraction]
    ) -> "AbstractionEnv":
        """An env overlaying a frozen name->abstraction mapping, no copy."""
        env = cls()
        env._base = base
        return env

    # -- mutation ---------------------------------------------------------------
    def define(self, abstraction: ConstraintAbstraction) -> None:
        """Register (or replace) an abstraction."""
        self._local[abstraction.name] = abstraction

    def strengthen(self, name: str, extra: Constraint) -> None:
        """Conjoin ``extra`` onto the named abstraction's body."""
        self._local[name] = self[name].strengthened(extra)

    # -- lookup --------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._local or name in self._base

    def __getitem__(self, name: str) -> ConstraintAbstraction:
        found = self._local.get(name)
        if found is None:
            found = self._base.get(name)
        if found is None:
            raise KeyError(f"no constraint abstraction named {name!r}")
        return found

    def get(self, name: str) -> Optional[ConstraintAbstraction]:
        found = self._local.get(name)
        if found is None:
            found = self._base.get(name)
        return found

    def __iter__(self) -> Iterator[ConstraintAbstraction]:
        local = self._local
        base = self._base
        for name, a in base.items():
            yield local.get(name, a)
        for name, a in local.items():
            if name not in base:
                yield a

    def __len__(self) -> int:
        base = self._base
        return len(base) + sum(1 for name in self._local if name not in base)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._base.keys() | self._local.keys()))

    # -- expansion -----------------------------------------------------------------
    def instantiate(self, name: str, args: Sequence[Region]) -> Constraint:
        return self[name].instantiate(args)

    def expand(self, constraint: Constraint, *, _depth: int = 0) -> Constraint:
        """Replace every pred atom by its (closed) definition, recursively.

        Raises ``ValueError`` if expansion does not terminate within a
        generous depth bound, which indicates an abstraction that was never
        closed by fixed-point analysis.
        """
        if _depth > 64:
            raise ValueError("constraint abstraction expansion did not terminate")
        preds = constraint.pred_atoms()
        if not preds:
            return constraint
        result = constraint.base_atoms()
        for atom in preds:
            body = self.instantiate(atom.name, atom.args)
            result = result.conj(self.expand(body, _depth=_depth + 1))
        return result

    def __str__(self) -> str:
        return "\n".join(str(self[n]) for n in self.names())


class FootprintViolation(KeyError):
    """An abstraction outside the declared per-SCC footprint was read."""


class ScopedAbstractionEnv(AbstractionEnv):
    """A footprint-restricted *view* of an :class:`AbstractionEnv`.

    Per-SCC inference steps are supposed to touch only the SCC's
    reachable footprint (the transitive call+field+override closure of
    its methods); this view makes that a checked contract.  Reads outside
    ``allowed`` raise :class:`FootprintViolation`; reads inside it, and
    all writes, delegate to the wrapped env -- so wrapping changes no
    observable inference behaviour, it only turns a silent whole-program
    dependency into a loud error.
    """

    def __init__(self, env: AbstractionEnv, allowed: AbstractSet[str]):
        self._env = env
        self._allowed = allowed

    def _check(self, name: str) -> None:
        if name not in self._allowed:
            raise FootprintViolation(
                f"abstraction {name!r} is outside the current SCC footprint "
                f"({len(self._allowed)} names)"
            )

    # -- mutation (delegated) -------------------------------------------------
    def define(self, abstraction: ConstraintAbstraction) -> None:
        self._env.define(abstraction)

    def strengthen(self, name: str, extra: Constraint) -> None:
        self._env.strengthen(name, extra)

    # -- lookup (footprint-gated) ---------------------------------------------
    def __contains__(self, name: str) -> bool:
        self._check(name)
        return name in self._env

    def __getitem__(self, name: str) -> ConstraintAbstraction:
        self._check(name)
        return self._env[name]

    def get(self, name: str) -> Optional[ConstraintAbstraction]:
        self._check(name)
        return self._env.get(name)

    def __iter__(self) -> Iterator[ConstraintAbstraction]:
        return iter(self._env)

    def __len__(self) -> int:
        return len(self._env)

    def names(self) -> Tuple[str, ...]:
        return self._env.names()

    def snapshot_base(self) -> Dict[str, ConstraintAbstraction]:
        return self._env.snapshot_base()

    def overlay(self) -> AbstractionEnv:
        return self._env.overlay()
