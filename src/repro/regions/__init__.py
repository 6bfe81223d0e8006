"""Region variables, lifetime constraints, solver and fixed-point analysis.

This package is the constraint substrate underneath the region inference
engine (:mod:`repro.core`):

* :mod:`repro.regions.constraints` -- regions, outlives/equality atoms,
  conjunctions, and the distinguished ``heap`` / null regions.
* :mod:`repro.regions.substitution` -- finite region-to-region maps.
* :mod:`repro.regions.solver` -- union-find + outlives-digraph solver with
  cycle coalescing, entailment and interface projection.
* :mod:`repro.regions.abstraction` -- named parameterised constraints
  (``inv.cn``, ``pre.m``) and the program-wide set ``Q``.
* :mod:`repro.regions.fixpoint` -- Kleene iteration closing recursive
  abstractions (region-polymorphic recursion, paper Sec 4.2.3).
"""

from .abstraction import AbstractionEnv, ConstraintAbstraction, inv_name, pre_name
from .constraints import (
    Atom,
    Constraint,
    HEAP,
    NULL_REGION,
    Outlives,
    PredAtom,
    Region,
    RegionEq,
    RegionNames,
    TRUE,
    outlives,
    req,
)
from .fixpoint import FixpointResult, close_abstraction_env, solve_recursive_abstractions
from .solver import (
    RegionSolver,
    coalescing_substitution,
    entails,
    solve,
)
from .substitution import RegionSubst

__all__ = [
    "Atom",
    "Constraint",
    "HEAP",
    "NULL_REGION",
    "Outlives",
    "PredAtom",
    "Region",
    "RegionEq",
    "RegionNames",
    "TRUE",
    "outlives",
    "req",
    "RegionSubst",
    "RegionSolver",
    "solve",
    "entails",
    "coalescing_substitution",
    "AbstractionEnv",
    "ConstraintAbstraction",
    "inv_name",
    "pre_name",
    "FixpointResult",
    "solve_recursive_abstractions",
    "close_abstraction_env",
]
