"""Override conflict resolution (paper Sec 4.4).

Method overriding is sound when, for ``B.mn`` overriding ``A.mn``::

    inv.B<r1..rn>  /\\  pre.A.mn<r1..rm, rm+1'..rk'>   |=   pre.B.mn<r1..rn, rn+1'..rk'>

(the subclass invariant may be assumed because the overriding method only
runs on ``B`` objects).  When the entailment fails, inference repairs it by
examining each missing atom ``c`` of ``pre.B.mn`` and applying the first
applicable rule (the paper's four-inference-rule system):

1. ``c`` already valid -- nothing to do;
2. ``regions(c)`` within the superclass method's region parameters
   (``RX``)  -- add ``c`` to ``pre.A.mn``;
3. ``regions(c)`` within the subclass's class regions (``RB``) -- add ``c``
   to ``inv.B``;
4. otherwise ``c`` mixes subclass-only regions with method regions: choose
   a substitution ``rho`` mapping each subclass-only region to a superclass
   class region, add ``ctr(rho)`` (equalities) to ``inv.B`` and ``rho(c)``
   to ``pre.A.mn``.  Among the possible targets we pick one that minimises
   the number of *new* constraints (e.g. the paper maps ``r3a -> r3`` for
   ``Triple.cloneRev`` because ``r3 >= r5`` is already in
   ``pre.Pair.cloneRev``).

Strengthening ``pre.A.mn`` can invalidate the override check of ``A.mn``
against *its* superclass, so resolution iterates until stable; the global
dependency graph guarantees subclass methods complete first, so callers
always see final preconditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..lang.class_table import ClassTable
from ..regions.abstraction import AbstractionEnv
from ..regions.constraints import Atom, Constraint, Outlives, Region, RegionEq
from ..regions.solver import RegionSolver
from ..regions.substitution import RegionSubst
from .schemes import ClassAnnotation, InferenceError, MethodScheme

__all__ = ["OverrideConflict", "OverrideResolver", "check_override"]

_MAX_ROUNDS = 32


@dataclass
class OverrideConflict:
    """A record of one resolution step (for inspection / reporting)."""

    sub_class: str
    super_class: str
    method: str
    added_to_pre: Constraint
    added_to_inv: Constraint


def _map_atom(atom: Atom, subst: RegionSubst) -> Atom:
    return atom.rename(subst.mapping())


def check_override(
    q: AbstractionEnv,
    annotations: Dict[str, ClassAnnotation],
    sub_scheme: MethodScheme,
    super_scheme: MethodScheme,
) -> Constraint:
    """The atoms of ``pre.B.mn`` *not* entailed by ``inv.B /\\ pre.A.mn``.

    Everything is expressed over the subclass's region vocabulary
    (``RB + MB``).  An empty result means the override is already sound.
    """
    sub_anno = annotations[sub_scheme.owner]
    sup_regions = sub_anno.regions[: len(super_scheme.class_regions)]
    to_sub = RegionSubst.zip(
        list(super_scheme.class_regions) + list(super_scheme.region_params),
        list(sup_regions) + list(sub_scheme.region_params),
    )
    hyp = q[sub_anno.inv].body
    hyp = hyp.conj(to_sub.apply_constraint(q[super_scheme.pre].body))
    solver = RegionSolver(hyp)
    goal = q[sub_scheme.pre].body
    return Constraint.of(*solver.failing_atoms(goal))


class OverrideResolver:
    """Applies the Sec 4.4 repair rules across a whole program."""

    def __init__(
        self,
        table: ClassTable,
        q: AbstractionEnv,
        annotations: Dict[str, ClassAnnotation],
        schemes: Dict[str, MethodScheme],
    ):
        self.table = table
        self.q = q
        self.annotations = annotations
        self.schemes = schemes
        self.log: List[OverrideConflict] = []

    # -- public -------------------------------------------------------------------
    def resolve_pair(self, sub_class: str, super_class: str, method: str) -> bool:
        """Repair one override pair; returns True if anything changed."""
        sub_scheme = self.schemes[f"{sub_class}.{method}"]
        super_scheme = self.schemes[f"{super_class}.{method}"]
        missing = check_override(self.q, self.annotations, sub_scheme, super_scheme)
        if missing.is_true:
            return False

        sub_anno = self.annotations[sub_class]
        rb = set(sub_anno.regions)  # subclass class regions
        n_sup = len(super_scheme.class_regions)
        rb_prefix = list(sub_anno.regions[:n_sup])  # shared with superclass
        rb_extra = set(sub_anno.regions[n_sup:])  # subclass-only
        mb = set(sub_scheme.region_params)
        rx = set(rb_prefix) | mb  # image of the superclass method's params

        # map back from subclass vocabulary into the superclass method's
        to_super = RegionSubst.zip(
            rb_prefix + list(sub_scheme.region_params),
            list(super_scheme.class_regions) + list(super_scheme.region_params),
        )

        pre_add: List[Atom] = []
        inv_add: List[Atom] = []
        for atom in missing.sorted_atoms():
            regions = atom.regions()
            if regions <= rx:
                pre_add.append(_map_atom(atom, to_super))
            elif regions <= rb:
                inv_add.append(atom)
            else:
                rho = self._choose_mapping(atom, rb_extra, rb_prefix, super_scheme, to_super)
                inv_add.extend(rho.as_equalities().atoms)
                mapped = _map_atom(atom, rho)
                pre_add.append(_map_atom(mapped, to_super))

        added_pre = Constraint.of(*pre_add)
        added_inv = Constraint.of(*inv_add)
        if not added_pre.is_true:
            self.q.strengthen(super_scheme.pre, added_pre)
        if not added_inv.is_true:
            self.q.strengthen(sub_anno.inv, added_inv)
            # a subclass invariant must entail its superclass's, so the new
            # atoms propagate down the hierarchy (re-expressed through each
            # descendant's region prefix)
            for desc in self.table.strict_subclasses(sub_class):
                desc_anno = self.annotations[desc]
                prefix = RegionSubst.zip(
                    sub_anno.regions, desc_anno.regions[: sub_anno.arity]
                )
                self.q.strengthen(desc_anno.inv, prefix.apply_constraint(added_inv))
        self.log.append(
            OverrideConflict(sub_class, super_class, method, added_pre, added_inv)
        )
        return not (added_pre.is_true and added_inv.is_true)

    def resolve_all(self) -> List[OverrideConflict]:
        """Iterate resolution over every override pair until stable."""
        pairs = self.table.override_pairs()
        for _ in range(_MAX_ROUNDS):
            changed = False
            # most-derived pairs first so cascades run bottom-up
            for sub, sup, mn in sorted(
                pairs, key=lambda p: -len(self.table.ancestors(p[0]))
            ):
                if f"{sub}.{mn}" in self.schemes and f"{sup}.{mn}" in self.schemes:
                    changed |= self.resolve_pair(sub, sup, mn)
            if not changed:
                return self.log
        raise InferenceError("override conflict resolution did not stabilise")

    # -- rule 4's choice -----------------------------------------------------------
    def _choose_mapping(
        self,
        atom: Atom,
        rb_extra: Set[Region],
        rb_prefix: List[Region],
        super_scheme: MethodScheme,
        to_super: RegionSubst,
    ) -> RegionSubst:
        """A substitution for the subclass-only regions of ``atom``.

        Prefers a target region for which the mapped atom already exists in
        ``pre.A.mn`` (minimising new constraints); otherwise the first
        class region.
        """
        extras = sorted(atom.regions() & rb_extra, key=lambda r: r.uid)
        if not rb_prefix:
            raise InferenceError(
                f"cannot resolve override constraint {atom}: superclass has "
                "no shared class regions"
            )
        existing = self.q[super_scheme.pre].body.atoms
        rho = RegionSubst.identity()
        for x in extras:
            best: Optional[Region] = None
            for candidate in rb_prefix:
                trial = rho.extended(x, candidate)
                mapped = _map_atom(_map_atom(atom, trial), to_super)
                if mapped in existing or (
                    isinstance(mapped, (Outlives, RegionEq)) and mapped.is_trivial()
                ):
                    best = candidate
                    break
            if best is None:
                best = rb_prefix[-1]  # deterministic fallback
            rho = rho.extended(x, best)
        return rho
