"""Region subtyping (paper Sec 3.2).

Three modes, in increasing precision:

* ``NONE``      -- equivariant everywhere (as in RegJava [16] and
  Boyapati et al. [9]): all region parameters of source and target must
  coincide.
* ``OBJECT``    -- covariant *object* region (pioneered by Cyclone [26]):
  the first region may shrink (``r_src >= r_dst``) because an object never
  migrates; component regions stay equivariant (fields are mutable).
* ``FIELD``     -- additionally covariant *recursive-field* region for
  classes whose recursive fields are immutable after initialisation
  (``isRecReadOnly``): each cell of a read-only recursive structure may
  live in its own, longer-lived region.  This subsumes ``OBJECT``.

``subtype`` returns the region constraint making ``src <: dst`` sound; the
class-hierarchy part (paper's second rule) drops the sub-class-only region
parameters, which is where the downcast techniques of Sec 5 hook in (see
:mod:`repro.core.downcast`).
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple

from ..lang.class_table import ClassTable
from ..lang.target import RClass, RPrim, RType
from ..regions.constraints import Constraint, Outlives, Region, RegionEq, TRUE
from .schemes import ClassAnnotation, InferenceError

__all__ = ["SubtypingMode", "SubtypeJudgement", "subtype", "equate_types"]


class SubtypingMode(enum.Enum):
    """Which region subtyping rule the engine uses (Sec 3.2)."""

    NONE = "none"
    OBJECT = "object"
    FIELD = "field"


class SubtypeJudgement:
    """Result of a subtype check: the constraint, plus the *lost* regions.

    ``lost`` are the source regions dropped by the class-hierarchy rule
    (sub-class-only parameters); the downcast machinery decides what to do
    with them.
    """

    def __init__(self, constraint: Constraint, lost: Tuple[Region, ...] = ()):
        self.constraint = constraint
        self.lost = lost


def _same_class_constraint(
    cn: str,
    src: Tuple[Region, ...],
    dst: Tuple[Region, ...],
    mode: SubtypingMode,
    table: ClassTable,
    annotations: Dict[str, ClassAnnotation],
) -> Constraint:
    """``cn<src> <: cn<dst>`` under the given mode."""
    if len(src) != len(dst):
        raise InferenceError(
            f"region arity mismatch on {cn}: {len(src)} vs {len(dst)}"
        )
    if not src:
        return TRUE
    atoms = []
    if mode is SubtypingMode.NONE:
        atoms.extend(RegionEq(a, b) for a, b in zip(src, dst))
        return Constraint.of(*atoms)
    # object-region covariance
    atoms.append(Outlives(src[0], dst[0]))
    covariant_last = (
        mode is SubtypingMode.FIELD
        and annotations[cn].rec_region is not None
        and table.is_rec_read_only(cn)
    )
    middle = src[1:-1] if covariant_last else src[1:]
    middle_dst = dst[1:-1] if covariant_last else dst[1:]
    atoms.extend(RegionEq(a, b) for a, b in zip(middle, middle_dst))
    if covariant_last:
        atoms.append(Outlives(src[-1], dst[-1]))
    return Constraint.of(*atoms)


def subtype(
    src: RType,
    dst: RType,
    mode: SubtypingMode,
    table: ClassTable,
    annotations: Dict[str, ClassAnnotation],
    *,
    by_ref: bool = False,
) -> SubtypeJudgement:
    """The constraint under which ``src <: dst`` holds.

    Raises :class:`InferenceError` when the underlying classes are not in a
    subclass relationship (the normal type checker should have prevented
    that).  ``by_ref`` forces full equivariance regardless of mode (used
    for the parameters of loop methods, Sec 2).
    """
    if isinstance(src, RPrim) and isinstance(dst, RPrim):
        if src.name != dst.name and "void" not in (src.name, dst.name):
            raise InferenceError(f"primitive mismatch {src} vs {dst}")
        return SubtypeJudgement(TRUE)
    if not (isinstance(src, RClass) and isinstance(dst, RClass)):
        raise InferenceError(f"cannot relate {src} and {dst}")
    if not table.is_subclass(src.name, dst.name):
        raise InferenceError(f"{src.name} is not a subclass of {dst.name}")
    effective = SubtypingMode.NONE if by_ref else mode
    keep = len(dst.regions)
    prefix = src.regions[:keep]
    lost = src.regions[keep:]
    constraint = _same_class_constraint(
        dst.name, prefix, dst.regions, effective, table, annotations
    )
    return SubtypeJudgement(constraint, lost)


def equate_types(src: RType, dst: RType) -> Constraint:
    """Pointwise region equality between two types of the same class."""
    if isinstance(src, RClass) and isinstance(dst, RClass):
        if len(src.regions) != len(dst.regions):
            raise InferenceError(
                f"region arity mismatch: {src} vs {dst}"
            )
        return Constraint.of(
            *(RegionEq(a, b) for a, b in zip(src.regions, dst.regions))
        )
    return TRUE
