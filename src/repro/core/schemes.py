"""Region annotation schemes for classes and methods.

This module implements the *class declaration* half of the inference rules
(paper Sec 3.1 / rule [t-cls]):

* every class gets region parameters -- one object region, then fresh
  regions for each non-recursive class-typed field's components, then (for
  recursive classes) one extra region reserved for all recursive fields;
* a subclass's region parameters extend its superclass's (prefix property,
  Sec 3.4);
* recursive fields of class ``cn<r1..rn>`` are annotated ``cn<rn, r2..rn>``
  (the Tofte/Birkedal-style region-monomorphic recursion of Sec 3.1);
* each class's invariant abstraction ``inv.cn`` conjoins the no-dangling
  requirement, the superclass invariant, and the (possibly recursive)
  invariants of its field classes; recursive invariant nests are closed by
  fixed-point analysis.

It also builds :class:`MethodScheme`\\ s -- the region signatures of methods
(rule [t-meth]'s "fresh set of regions for the parameters and result").

Mutually recursive class declarations are supported with a shared-tail
scheme (all classes of a reference SCC share their component region tail),
provided every member of a multi-class SCC directly extends ``Object``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..lang import ast as S
from ..lang.class_table import OBJECT_NAME, ClassTable
from ..lang.target import RClass, RPrim, RType
from ..regions.abstraction import (
    AbstractionEnv,
    ConstraintAbstraction,
    inv_name,
    pre_name,
)
from ..regions.constraints import Constraint, Outlives, PredAtom, Region, TRUE
from ..regions.fixpoint import solve_recursive_abstractions
from ..regions.substitution import RegionSubst

__all__ = ["InferenceError", "ClassAnnotation", "MethodScheme", "ClassAnnotator", "annotate_rtype"]


class InferenceError(Exception):
    """Raised when region inference cannot proceed."""


@dataclass
class ClassAnnotation:
    """The region annotation of one class declaration.

    ``regions`` are the class's formal region parameters; ``regions[0]`` is
    the object region.  ``super_prefix`` is how many of them instantiate the
    superclass's formals (always a prefix).  ``own_field_types`` annotates
    the class's *own* fields in terms of these formals.
    """

    name: str
    regions: Tuple[Region, ...]
    super_name: str
    super_prefix: int
    own_field_types: Dict[str, RType]
    rec_region: Optional[Region]
    inv: str  # abstraction name in Q

    @property
    def arity(self) -> int:
        return len(self.regions)

    @property
    def super_regions(self) -> Tuple[Region, ...]:
        return self.regions[: self.super_prefix]

    def as_type(self) -> RClass:
        """The class type at its own formals (the type of ``this``)."""
        return RClass(self.name, self.regions)


@dataclass
class MethodScheme:
    """The region signature of a method (rule [t-meth]).

    The method's constraint-abstraction parameters are
    ``class_regions + region_params`` -- the paper's
    ``pre.cn.mn<r1..rn, rn+1..rm>`` convention.  ``class_regions`` are the
    *declaring* class's formals (empty for statics); ``region_params`` are
    the fresh method-own regions annotating parameters and result.
    """

    qualified: str
    owner: Optional[str]
    class_regions: Tuple[Region, ...]
    region_params: Tuple[Region, ...]
    param_names: Tuple[str, ...]
    param_types: Tuple[RType, ...]
    ret_type: RType
    pre: str  # abstraction name in Q
    by_ref: bool

    @property
    def abstraction_params(self) -> Tuple[Region, ...]:
        return self.class_regions + self.region_params


def annotate_rtype(t: S.Type, annotations: Dict[str, ClassAnnotation]) -> RType:
    """Annotate a source type with *fresh* regions."""
    if isinstance(t, S.PrimType):
        return RPrim(t.name)
    assert isinstance(t, S.ClassType)
    anno = annotations[t.name]
    return RClass(t.name, Region.fresh_many(anno.arity))


class ClassAnnotator:
    """Builds class annotations and invariants for a whole program.

    Classes are processed bottom-up over the combined superclass /
    field-reference structure, so a class is annotated only after its
    superclass and (out-of-SCC) field classes.
    """

    def __init__(self, table: ClassTable, q: AbstractionEnv):
        self.table = table
        self.q = q
        self.annotations: Dict[str, ClassAnnotation] = {}
        self._annotate_object()

    @classmethod
    def adopt(
        cls,
        table: ClassTable,
        q: AbstractionEnv,
        annotations: Dict[str, ClassAnnotation],
    ) -> "ClassAnnotator":
        """An annotator over a *prior run's* annotations.

        Incremental re-inference parses a fresh AST but must keep the
        prior run's class annotations: re-annotating would mint new
        region uids, and the prior method schemes being spliced back in
        refer to the old ones.  The adopted annotator never annotates --
        it only serves :meth:`method_scheme` / :meth:`lookup_field_type`
        lookups against the inherited registry.  Only valid while the
        class structure is unchanged (:func:`repro.core.reinfer_program`
        annotates afresh otherwise).
        """
        self = cls.__new__(cls)
        self.table = table
        self.q = q
        self.annotations = dict(annotations)
        return self

    def _annotate_object(self) -> None:
        r1 = Region.fresh()
        self.annotations[OBJECT_NAME] = ClassAnnotation(
            name=OBJECT_NAME,
            regions=(r1,),
            super_name=OBJECT_NAME,
            super_prefix=0,
            own_field_types={},
            rec_region=None,
            inv=inv_name(OBJECT_NAME),
        )
        self.q.define(ConstraintAbstraction(inv_name(OBJECT_NAME), (r1,), TRUE))

    # -- public API ------------------------------------------------------------
    def annotate_all(self) -> Dict[str, ClassAnnotation]:
        """Annotate every class of the program; returns the registry."""
        for group in self._processing_groups():
            self._annotate_group(group)
        return self.annotations

    def field_types(self, class_name: str) -> Tuple[Tuple[str, RType], ...]:
        """The full ``fieldlist`` of a class, annotated at its own formals.

        Inherited field annotations are re-expressed via the superclass
        prefix substitution.
        """
        anno = self.annotations[class_name]
        if class_name == OBJECT_NAME:
            return ()
        sup = self.annotations[anno.super_name]
        subst = RegionSubst.zip(sup.regions, anno.super_regions)
        inherited = tuple(
            (fname, _subst_rtype(subst, ftype))
            for fname, ftype in self.field_types(anno.super_name)
        )
        own = tuple(anno.own_field_types.items())
        return inherited + own

    def lookup_field_type(self, class_name: str, field_name: str) -> RType:
        for fname, ftype in self.field_types(class_name):
            if fname == field_name:
                return ftype
        raise InferenceError(f"class {class_name} has no field {field_name!r}")

    # -- ordering ------------------------------------------------------------------
    def _processing_groups(self) -> List[List[str]]:
        """Class SCCs in dependency order (supers & field classes first)."""
        names = list(self.table.class_names())
        order: List[List[str]] = []
        done: Set[str] = {OBJECT_NAME}
        remaining = [n for n in names]
        # repeatedly emit SCC groups whose external deps are done
        groups: Dict[int, List[str]] = {}
        for n in remaining:
            groups.setdefault(self.table._scc_of[n], []).append(n)
        pending = list(groups.values())
        while pending:
            progressed = False
            for group in list(pending):
                gset = set(group)
                deps: Set[str] = set()
                for cn in group:
                    sup = self.table.superclass(cn)
                    if sup is not None:
                        deps.add(sup)
                    for f in self.table.own_fields(cn):
                        if isinstance(f.field_type, S.ClassType):
                            deps.add(f.field_type.name)
                if all(d in done or d in gset for d in deps):
                    order.append(group)
                    done.update(gset)
                    pending.remove(group)
                    progressed = True
            if not progressed:  # pragma: no cover - table validation prevents this
                raise InferenceError(
                    f"cannot order classes for annotation: {pending}"
                )
        return order

    # -- annotation --------------------------------------------------------------
    def _annotate_group(self, group: List[str]) -> None:
        if len(group) == 1:
            self._annotate_single(group[0])
        else:
            self._annotate_mutual(group)
        self._close_invariants(group)

    def _annotate_single(self, cn: str) -> None:
        decl = self.table.decl(cn)
        sup = self.annotations[decl.super_name]
        regions: List[Region] = [Region.fresh() for _ in sup.regions]
        own_types: Dict[str, RType] = {}
        nonrec, rec = self.table.split(cn)

        for f in nonrec:
            if isinstance(f.field_type, S.PrimType):
                own_types[f.name] = RPrim(f.field_type.name)
                continue
            fanno = self.annotations[f.field_type.name]
            slots = Region.fresh_many(fanno.arity)
            regions.extend(slots)
            own_types[f.name] = RClass(f.field_type.name, slots)

        rec_region: Optional[Region] = None
        if rec:
            rec_region = Region.fresh()
            regions.append(rec_region)
        formals = tuple(regions)
        for f in rec:
            # recursive field of cn<r1..rn> is typed cn<rn, r2..rn>
            own_types[f.name] = RClass(cn, (rec_region,) + formals[1:])

        self.annotations[cn] = ClassAnnotation(
            name=cn,
            regions=formals,
            super_name=decl.super_name,
            super_prefix=sup.arity,
            own_field_types=own_types,
            rec_region=rec_region,
            inv=inv_name(cn),
        )
        self._define_raw_invariant(cn)

    def _annotate_mutual(self, group: List[str]) -> None:
        """Shared-tail scheme for a mutually recursive class nest."""
        for cn in group:
            if self.table.decl(cn).super_name != OBJECT_NAME:
                raise InferenceError(
                    "mutually recursive classes must directly extend Object; "
                    f"{cn} extends {self.table.decl(cn).super_name}"
                )
        ordered = [cn for cn in self.table.class_names() if cn in set(group)]
        # one shared tail: non-recursive slots of every member, then one
        # shared recursive region
        tail: List[Region] = []
        slot_of: Dict[Tuple[str, str], Tuple[Region, ...]] = {}
        for cn in ordered:
            nonrec, _rec = self.table.split(cn)
            for f in nonrec:
                if isinstance(f.field_type, S.PrimType):
                    continue
                fanno = self.annotations[f.field_type.name]
                slots = Region.fresh_many(fanno.arity)
                tail.extend(slots)
                slot_of[(cn, f.name)] = slots
        rec_region = Region.fresh()
        tail.append(rec_region)
        shared = tuple(tail)

        for cn in ordered:
            r1 = Region.fresh()
            formals = (r1,) + shared
            nonrec, rec = self.table.split(cn)
            own_types: Dict[str, RType] = {}
            for f in nonrec:
                if isinstance(f.field_type, S.PrimType):
                    own_types[f.name] = RPrim(f.field_type.name)
                else:
                    own_types[f.name] = RClass(
                        f.field_type.name, slot_of[(cn, f.name)]
                    )
            for f in rec:
                assert isinstance(f.field_type, S.ClassType)
                # recursive field of any SCC member: <rec, shared...>
                own_types[f.name] = RClass(f.field_type.name, (rec_region,) + shared)
            self.annotations[cn] = ClassAnnotation(
                name=cn,
                regions=formals,
                super_name=OBJECT_NAME,
                super_prefix=1,
                own_field_types=own_types,
                rec_region=rec_region,
                inv=inv_name(cn),
            )
            self._define_raw_invariant(cn)

    def _define_raw_invariant(self, cn: str) -> None:
        """inv.cn = no-dangling /\\ inv.super<prefix> /\\ field invariants.

        Field invariants of in-SCC classes stay symbolic (PredAtoms) until
        :meth:`_close_invariants` runs the fixed point.
        """
        anno = self.annotations[cn]
        atoms: List = []
        r1 = anno.regions[0]
        for r in anno.regions[1:]:
            atoms.append(Outlives(r, r1))
        body = Constraint.of(*atoms)
        sup = self.annotations[anno.super_name]
        if anno.super_name != cn and sup.arity > 0:
            body = body.with_atoms(PredAtom(sup.inv, anno.super_regions))
        for _fname, ftype in anno.own_field_types.items():
            if isinstance(ftype, RClass):
                body = body.with_atoms(
                    PredAtom(inv_name(ftype.name), ftype.regions)
                )
        self.q.define(ConstraintAbstraction(anno.inv, anno.regions, body))

    def _close_invariants(self, group: List[str]) -> None:
        """Fixed-point close the invariants of one class SCC."""
        nest = [self.q[self.annotations[cn].inv] for cn in group]
        result = solve_recursive_abstractions(nest, self.q)
        for solved in result.solutions.values():
            self.q.define(solved)

    # -- method schemes ---------------------------------------------------------
    def method_scheme(self, decl: S.MethodDecl) -> MethodScheme:
        """Build the region signature of a method (fresh formals)."""
        if decl.owner is not None:
            class_regions = self.annotations[decl.owner].regions
        else:
            class_regions = ()
        region_params: List[Region] = []
        param_types: List[RType] = []
        for p in decl.params:
            t = annotate_rtype(p.param_type, self.annotations)
            param_types.append(t)
            if isinstance(t, RClass):
                region_params.extend(t.regions)
        ret = annotate_rtype(decl.ret_type, self.annotations)
        if isinstance(ret, RClass):
            region_params.extend(ret.regions)
        qualified = decl.qualified_name
        return MethodScheme(
            qualified=qualified,
            owner=decl.owner,
            class_regions=class_regions,
            region_params=tuple(region_params),
            param_names=tuple(p.name for p in decl.params),
            param_types=tuple(param_types),
            ret_type=ret,
            pre=pre_name(decl.owner, decl.name),
            by_ref=decl.by_ref,
        )


def _subst_rtype(subst: RegionSubst, t: RType) -> RType:
    if isinstance(t, RClass):
        return RClass(t.name, subst.apply_all(t.regions), subst.apply_all(t.padding))
    return t
