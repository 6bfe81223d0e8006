"""Inference reports: structured summaries of an inference result.

A downstream user of the library typically wants to know, per method: how
many region parameters were introduced, how large the precondition is, how
many regions were localised, and which allocation sites ended up in which
kind of region (letreg / formal / heap).  This module computes those
statistics and renders them as text -- they also back several regression
tests that pin the engine's precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..core.infer import InferenceResult
from ..lang import target as T
from ..regions.constraints import HEAP, Outlives, RegionEq

__all__ = [
    "MethodReport",
    "ClassReport",
    "ProgramReport",
    "AllocationKind",
    "summarize",
    "render_report",
]


#: classification of a new-site's target region
class AllocationKind:
    LETREG = "letreg"
    FORMAL = "formal"
    HEAP = "heap"
    CLASS = "class-region"


@dataclass
class MethodReport:
    """Statistics for one method."""

    qualified: str
    region_params: int
    pre_outlives: int
    pre_equalities: int
    letregs: int
    allocations: Dict[str, str] = field(default_factory=dict)  # label -> kind

    @property
    def pre_size(self) -> int:
        return self.pre_outlives + self.pre_equalities

    @property
    def local_allocations(self) -> int:
        return sum(1 for k in self.allocations.values() if k == AllocationKind.LETREG)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualified": self.qualified,
            "region_params": self.region_params,
            "pre_outlives": self.pre_outlives,
            "pre_equalities": self.pre_equalities,
            "pre_size": self.pre_size,
            "letregs": self.letregs,
            "allocations": dict(self.allocations),
        }


@dataclass
class ClassReport:
    """Statistics for one class."""

    name: str
    arity: int
    recursive: bool
    invariant_atoms: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "arity": self.arity,
            "recursive": self.recursive,
            "invariant_atoms": self.invariant_atoms,
        }


@dataclass
class ProgramReport:
    """Whole-program inference summary."""

    classes: List[ClassReport]
    methods: List[MethodReport]

    @property
    def total_letregs(self) -> int:
        return sum(m.letregs for m in self.methods)

    @property
    def total_region_params(self) -> int:
        return sum(m.region_params for m in self.methods)

    def method(self, qualified: str) -> MethodReport:
        for m in self.methods:
            if m.qualified == qualified:
                return m
        raise KeyError(f"no method report for {qualified!r}")

    def class_named(self, name: str) -> ClassReport:
        for c in self.classes:
            if c.name == name:
                return c
        raise KeyError(f"no class report for {name!r}")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready representation (backs ``repro report --format json``)."""
        return {
            "classes": [c.to_dict() for c in self.classes],
            "methods": [m.to_dict() for m in self.methods],
            "totals": {
                "letregs": self.total_letregs,
                "region_params": self.total_region_params,
            },
        }


def _classify_allocation(
    new: T.TNew,
    letreg_regions: frozenset,
    formals: frozenset,
    class_regions: frozenset,
) -> str:
    r = new.regions[0] if new.regions else HEAP
    if r.is_heap:
        return AllocationKind.HEAP
    if r in letreg_regions:
        return AllocationKind.LETREG
    if r in class_regions:
        return AllocationKind.CLASS
    if r in formals:
        return AllocationKind.FORMAL
    return AllocationKind.FORMAL


def _method_report(result: InferenceResult, decl: T.TMethodDecl) -> MethodReport:
    record = result.methods[decl.qualified_name]
    scheme = record.scheme
    atoms = record.pre.body.atoms
    outl = sum(1 for a in atoms if isinstance(a, Outlives))
    eqs = sum(1 for a in atoms if isinstance(a, RegionEq))

    letreg_regions = set()
    letregs = 0
    for node in T.twalk(decl.body):
        if isinstance(node, T.TLetreg):
            letregs += 1
            letreg_regions.update(node.regions)
    formals = frozenset(scheme.region_params)
    class_regions = frozenset(scheme.class_regions)
    allocations: Dict[str, str] = {}
    for node in T.twalk(decl.body):
        if isinstance(node, T.TNew):
            allocations[node.label] = _classify_allocation(
                node, frozenset(letreg_regions), formals, class_regions
            )
    return MethodReport(
        qualified=decl.qualified_name,
        region_params=len(scheme.region_params),
        pre_outlives=outl,
        pre_equalities=eqs,
        letregs=letregs,
        allocations=allocations,
    )


def summarize(result: InferenceResult) -> ProgramReport:
    """Build the whole-program report for an inference result."""
    classes = []
    for cls in result.target.classes:
        inv = (
            result.target.q[cls.inv_name].body
            if cls.inv_name in result.target.q
            else None
        )
        classes.append(
            ClassReport(
                name=cls.name,
                arity=len(cls.regions),
                recursive=cls.rec_region is not None,
                invariant_atoms=len(inv) if inv is not None else 0,
            )
        )
    methods = [
        _method_report(result, decl) for decl in result.target.all_methods()
    ]
    return ProgramReport(classes=classes, methods=methods)


def render_report(report: ProgramReport) -> str:
    """Human-readable rendering of a program report."""
    lines: List[str] = []
    lines.append("classes:")
    for c in report.classes:
        rec = " (recursive)" if c.recursive else ""
        lines.append(
            f"  {c.name:20s} {c.arity} region(s), "
            f"{c.invariant_atoms} invariant atom(s){rec}"
        )
    lines.append("methods:")
    for m in report.methods:
        allocs = ""
        if m.allocations:
            kinds: Dict[str, int] = {}
            for k in m.allocations.values():
                kinds[k] = kinds.get(k, 0) + 1
            allocs = "; allocs " + ", ".join(
                f"{n}x {k}" for k, n in sorted(kinds.items())
            )
        lines.append(
            f"  {m.qualified:24s} {m.region_params} region param(s), "
            f"pre |{m.pre_size}| ({m.pre_outlives} outlives, "
            f"{m.pre_equalities} eq), {m.letregs} letreg(s){allocs}"
        )
    lines.append(
        f"totals: {report.total_letregs} letreg(s), "
        f"{report.total_region_params} method region parameter(s)"
    )
    return "\n".join(lines)
