"""Abstract syntax of region-annotated Core-Java (the *target* language,
paper Fig 1(b)).

The target language mirrors the source but:

* every class type carries a tuple of region arguments ``cn<r1..rn>`` whose
  first region is where the object itself lives;
* class declarations carry region parameters and a class invariant
  (``where rc``), method declarations carry region parameters and a
  precondition;
* ``letreg r in e`` introduces a lexically scoped region;
* ``new`` and calls carry explicit region instantiations.

Every target expression node stores its region-annotated type in ``type``.
The program-wide set of constraint abstractions ``Q`` lives on
:class:`TProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..regions.abstraction import AbstractionEnv
from ..regions.constraints import Region
from ..regions.substitution import RegionSubst

__all__ = [
    "RType",
    "RPrim",
    "RClass",
    "R_INT",
    "R_BOOL",
    "R_VOID",
    "TExpr",
    "TVar",
    "TIntLit",
    "TBoolLit",
    "TNull",
    "TFieldRead",
    "TAssign",
    "TNew",
    "TCall",
    "TCast",
    "TIf",
    "TWhile",
    "TBinop",
    "TUnop",
    "TLocalDecl",
    "TExprStmt",
    "TStmt",
    "TBlock",
    "TLetreg",
    "TParam",
    "TFieldDecl",
    "TMethodDecl",
    "TClassDecl",
    "TProgram",
    "twalk",
    "type_regions",
    "subst_type",
    "rename_expr_regions",
]


# ---------------------------------------------------------------------------
# Region-annotated types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RType:
    """Base class of region-annotated types."""


@dataclass(frozen=True)
class RPrim(RType):
    """A primitive type (regions are never needed for primitives)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RClass(RType):
    """An annotated class type ``cn<r1..rn>``.

    ``regions[0]`` is the region the object itself is allocated in; the
    rest are the regions of its (transitive) components.  ``padding`` holds
    the extra regions introduced by the downcast analysis of Sec 5
    (displayed ``cn<r1,r2>[r3,r4]``).
    """

    name: str
    regions: Tuple[Region, ...] = ()
    padding: Tuple[Region, ...] = ()

    @property
    def owner_region(self) -> Region:
        """The region holding the object itself (first region parameter)."""
        if not self.regions:
            raise ValueError(f"class type {self.name} has no region arguments")
        return self.regions[0]

    def with_padding(self, padding: Sequence[Region]) -> "RClass":
        return RClass(self.name, self.regions, tuple(padding))

    def __str__(self) -> str:
        core = f"{self.name}<{', '.join(str(r) for r in self.regions)}>"
        if self.padding:
            core += f"[{', '.join(str(r) for r in self.padding)}]"
        return core


R_INT = RPrim("int")
R_BOOL = RPrim("bool")
R_VOID = RPrim("void")


def type_regions(t: RType) -> Tuple[Region, ...]:
    """All regions of an annotated type (padding included)."""
    if isinstance(t, RClass):
        return t.regions + t.padding
    return ()


def subst_type(subst: RegionSubst, t: RType) -> RType:
    """Apply a region substitution to a type."""
    if isinstance(t, RClass):
        return RClass(
            t.name,
            subst.apply_all(t.regions),
            subst.apply_all(t.padding),
        )
    return t


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class TExpr:
    """Base class of target expressions.  ``type`` is the annotated type."""

    def children(self) -> Tuple["TExpr", ...]:
        return ()


@dataclass
class TVar(TExpr):
    name: str
    type: RType = R_VOID


@dataclass
class TIntLit(TExpr):
    value: int
    type: RType = R_INT


@dataclass
class TBoolLit(TExpr):
    value: bool
    type: RType = R_BOOL


@dataclass
class TNull(TExpr):
    """``(cn<r..>) null`` -- every occurrence gets its own region type."""

    type: RClass = None  # type: ignore[assignment]


@dataclass
class TFieldRead(TExpr):
    receiver: TExpr = None  # type: ignore[assignment]
    field_name: str = ""
    type: RType = R_VOID

    def children(self) -> Tuple[TExpr, ...]:
        return (self.receiver,)


@dataclass
class TAssign(TExpr):
    lhs: TExpr = None  # type: ignore[assignment]
    rhs: TExpr = None  # type: ignore[assignment]
    type: RType = R_VOID

    def children(self) -> Tuple[TExpr, ...]:
        return (self.lhs, self.rhs)


@dataclass
class TNew(TExpr):
    """``new cn<r..>(args)``; ``label`` identifies the allocation site."""

    class_name: str = ""
    regions: Tuple[Region, ...] = ()
    args: List[TExpr] = field(default_factory=list)
    type: RClass = None  # type: ignore[assignment]
    label: str = ""

    def children(self) -> Tuple[TExpr, ...]:
        return tuple(self.args)


@dataclass
class TCall(TExpr):
    """A call with explicit region instantiation.

    ``region_args`` instantiate the callee's *method-own* region parameters
    (the receiver's class regions come from the receiver type; a static
    call has no receiver).
    """

    receiver: Optional[TExpr] = None
    method_name: str = ""
    region_args: Tuple[Region, ...] = ()
    args: List[TExpr] = field(default_factory=list)
    type: RType = R_VOID
    #: class whose method declaration the call was resolved against
    static_class: Optional[str] = None

    @property
    def is_static(self) -> bool:
        return self.receiver is None

    def children(self) -> Tuple[TExpr, ...]:
        recv = (self.receiver,) if self.receiver is not None else ()
        return recv + tuple(self.args)


@dataclass
class TCast(TExpr):
    """``(cn<r..>) e`` -- regions on the cast are recovered per Sec 5."""

    expr: TExpr = None  # type: ignore[assignment]
    type: RClass = None  # type: ignore[assignment]

    def children(self) -> Tuple[TExpr, ...]:
        return (self.expr,)


@dataclass
class TIf(TExpr):
    cond: TExpr = None  # type: ignore[assignment]
    then: TExpr = None  # type: ignore[assignment]
    els: TExpr = None  # type: ignore[assignment]
    type: RType = R_VOID

    def children(self) -> Tuple[TExpr, ...]:
        return (self.cond, self.then, self.els)


@dataclass
class TWhile(TExpr):
    cond: TExpr = None  # type: ignore[assignment]
    body: "TExpr" = None  # type: ignore[assignment]
    type: RType = R_VOID

    def children(self) -> Tuple[TExpr, ...]:
        return (self.cond, self.body)


@dataclass
class TBinop(TExpr):
    op: str = ""
    left: TExpr = None  # type: ignore[assignment]
    right: TExpr = None  # type: ignore[assignment]
    type: RType = R_INT

    def children(self) -> Tuple[TExpr, ...]:
        return (self.left, self.right)


@dataclass
class TUnop(TExpr):
    op: str = ""
    operand: TExpr = None  # type: ignore[assignment]
    type: RType = R_INT

    def children(self) -> Tuple[TExpr, ...]:
        return (self.operand,)


@dataclass
class TLocalDecl:
    """An annotated local declaration ``t<r..> v = e;``."""

    decl_type: RType = R_VOID
    name: str = ""
    init: Optional[TExpr] = None


@dataclass
class TExprStmt:
    expr: TExpr = None  # type: ignore[assignment]


TStmt = Union[TLocalDecl, TExprStmt]


@dataclass
class TBlock(TExpr):
    stmts: List[TStmt] = field(default_factory=list)
    result: Optional[TExpr] = None
    type: RType = R_VOID

    def children(self) -> Tuple[TExpr, ...]:
        out: List[TExpr] = []
        for s in self.stmts:
            if isinstance(s, TLocalDecl) and s.init is not None:
                out.append(s.init)
            elif isinstance(s, TExprStmt):
                out.append(s.expr)
        if self.result is not None:
            out.append(self.result)
        return tuple(out)


@dataclass
class TLetreg(TExpr):
    """``letreg r1..rk in e`` -- the regions live exactly for ``e``."""

    regions: Tuple[Region, ...] = ()
    body: TExpr = None  # type: ignore[assignment]
    type: RType = R_VOID

    def children(self) -> Tuple[TExpr, ...]:
        return (self.body,)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class TParam:
    param_type: RType
    name: str


@dataclass
class TFieldDecl:
    field_type: RType
    name: str


@dataclass
class TMethodDecl:
    """A region-annotated method.

    ``region_params`` are the method-own fresh regions (for parameters and
    result); the receiver's class regions are *not* repeated here.  The
    method's precondition is the abstraction ``pre_name`` in the program's
    ``Q`` set; its parameter list is the class's regions followed by
    ``region_params``, matching the paper's
    ``pre.cn.mn<r1..rn, r_n+1..r_m>`` convention.
    """

    name: str = ""
    owner: Optional[str] = None
    is_static: bool = False
    region_params: Tuple[Region, ...] = ()
    ret_type: RType = R_VOID
    params: List[TParam] = field(default_factory=list)
    body: TExpr = None  # type: ignore[assignment]
    pre_name: str = ""

    @property
    def qualified_name(self) -> str:
        return self.name if self.owner is None else f"{self.owner}.{self.name}"


@dataclass
class TClassDecl:
    """A region-annotated class declaration.

    ``regions`` are the class's region parameters (first = object region);
    ``super_regions`` instantiate the superclass's parameters (always a
    prefix of ``regions`` in our scheme); the class invariant is the
    abstraction ``inv_name`` in ``Q``.  ``rec_region`` is the region
    reserved for recursive fields (Sec 3.1), if the class has any.
    """

    name: str = ""
    regions: Tuple[Region, ...] = ()
    super_name: str = "Object"
    super_regions: Tuple[Region, ...] = ()
    fields: List[TFieldDecl] = field(default_factory=list)
    methods: List[TMethodDecl] = field(default_factory=list)
    inv_name: str = ""
    rec_region: Optional[Region] = None

    def method(self, name: str) -> Optional[TMethodDecl]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass
class TProgram:
    """A region-annotated program plus its constraint-abstraction set Q."""

    classes: List[TClassDecl] = field(default_factory=list)
    statics: List[TMethodDecl] = field(default_factory=list)
    q: AbstractionEnv = field(default_factory=AbstractionEnv)

    def class_named(self, name: str) -> Optional[TClassDecl]:
        for c in self.classes:
            if c.name == name:
                return c
        return None

    def static_named(self, name: str) -> Optional[TMethodDecl]:
        for m in self.statics:
            if m.name == name:
                return m
        return None

    def all_methods(self) -> Iterator[TMethodDecl]:
        for c in self.classes:
            yield from c.methods
        yield from self.statics


# ---------------------------------------------------------------------------
# Traversal and region renaming
# ---------------------------------------------------------------------------


def twalk(expr: TExpr) -> Iterator[TExpr]:
    """Yield ``expr`` and every sub-expression, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def rename_expr_regions(expr: TExpr, subst: RegionSubst) -> None:
    """Destructively apply a region substitution throughout ``expr``.

    Used by the [letreg] localisation step (collapsing all non-escaping
    regions onto one) and by the final coalescing of provably-equal regions
    (paper Fig 5(d)).
    """
    for node in twalk(expr):
        if isinstance(node.type, RClass):
            node.type = subst_type(subst, node.type)
        if isinstance(node, TNew):
            node.regions = subst.apply_all(node.regions)
        elif isinstance(node, TCall):
            node.region_args = subst.apply_all(node.region_args)
        elif isinstance(node, TLetreg):
            node.regions = subst.apply_all(node.regions)
        elif isinstance(node, TBlock):
            for s in node.stmts:
                if isinstance(s, TLocalDecl):
                    s.decl_type = subst_type(subst, s.decl_type)
