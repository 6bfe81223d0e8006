"""Abstract syntax of Core-Java (the *source* language, paper Fig 1(a)).

Core-Java is a minimal, expression-oriented Java subset in the spirit of
Featherweight Java, extended -- as the paper's own benchmarks require -- with
integer/boolean literals and operators, ``while`` loops (handled by the
flow-insensitive loop rule / tail-recursion conversion of Sec 2), downcasts
``(C) e``, and static methods.

Programs are a list of class declarations plus a list of top-level static
methods (``P ::= def* meth*``).  Object creation is Featherweight-Java
style: ``new cn(e1..ek)`` supplies one initial value per field of ``cn``
(inherited fields first).

Every node carries an optional source ``pos`` for error reporting: an
``int`` offset into the source text for class, field and method
declarations, and an offset from its method's ``pos`` for every node of a
method body, so a method's nodes do not depend on the text above it.
:func:`line_col` turns an offset into a line and column when a diagnostic
needs one.  ``New`` nodes additionally carry a unique allocation-site
``label`` (the paper's ``lb:new B(..)`` program points) used by the downcast
analysis of Sec 5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

__all__ = [
    "line_col",
    "SourceError",
    "Type",
    "PrimType",
    "ClassType",
    "INT",
    "BOOL",
    "VOID",
    "OBJECT",
    "Expr",
    "Var",
    "IntLit",
    "BoolLit",
    "Null",
    "FieldRead",
    "Assign",
    "New",
    "Call",
    "Cast",
    "If",
    "While",
    "Binop",
    "Unop",
    "Stmt",
    "LocalDecl",
    "ExprStmt",
    "Block",
    "Param",
    "FieldDecl",
    "MethodDecl",
    "ClassDecl",
    "Program",
    "THIS",
    "walk",
    "fresh_label",
]


def line_col(source: str, offset: int) -> Tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``source``.

    Only ``\\n`` breaks a line; a column counts characters, tabs and
    ``\\r`` included.
    """
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


class SourceError(Exception):
    """An error at an offset into a program's source text.

    ``msg`` is the message and ``pos`` the offset (``None`` when unknown).
    Given the source too, ``line`` and ``col`` are worked out from the
    offset and ``str()`` starts with ``line:col:``.
    """

    def __init__(
        self, message: str, pos: Optional[int] = None, source: Optional[str] = None
    ):
        self.msg = message
        self.pos = pos
        self.line: Optional[int] = None
        self.col: Optional[int] = None
        if pos is not None and source is not None:
            self.line, self.col = line_col(source, pos)
            message = f"{self.line}:{self.col}: {message}"
        super().__init__(message)


_label_counter = itertools.count(1)


def fresh_label() -> str:
    """A unique allocation-site label (``l1``, ``l2``, ...)."""
    return f"l{next(_label_counter)}"


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    """Base class of source-level (region-free) types."""


@dataclass(frozen=True)
class PrimType(Type):
    """A primitive type: ``int``, ``bool`` or ``void``.

    Primitive values are copied, live on the stack or inline in their owner
    object, and need no region parameters (paper Sec 2).
    """

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ClassType(Type):
    """A class (reference) type, by name."""

    name: str

    def __str__(self) -> str:
        return self.name


INT = PrimType("int")
BOOL = PrimType("bool")
VOID = PrimType("void")
OBJECT = ClassType("Object")

#: Name of the reserved variable for the current object.
THIS = "this"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class of Core-Java expressions."""

    def children(self) -> Tuple["Expr", ...]:
        """Direct sub-expressions (used by generic AST walks)."""
        return ()


@dataclass
class Var(Expr):
    """A variable read, including the reserved variable ``this``."""

    name: str
    pos: Optional[int] = None


@dataclass
class IntLit(Expr):
    """An integer literal."""

    value: int
    pos: Optional[int] = None


@dataclass
class BoolLit(Expr):
    """A boolean literal."""

    value: bool
    pos: Optional[int] = None


@dataclass
class Null(Expr):
    """A (possibly class-ascribed) null literal: ``null`` or ``(cn) null``.

    The paper's core syntax requires every null to carry its class; our
    parser lets it be omitted, in which case the normal type checker fills
    ``class_name`` in from context.
    """

    class_name: Optional[str] = None
    pos: Optional[int] = None


@dataclass
class FieldRead(Expr):
    """A field access ``e.f``.

    ``declaring_class`` is the class that declares ``f``, recorded by the
    normal type checker.
    """

    receiver: Expr
    field_name: str
    pos: Optional[int] = None
    declaring_class: Optional[str] = field(default=None, repr=False, compare=False)

    def children(self) -> Tuple[Expr, ...]:
        return (self.receiver,)


@dataclass
class Assign(Expr):
    """An assignment ``lhs = rhs``.  ``lhs`` is a ``Var`` or ``FieldRead``.

    As in the paper's [e-assign] rule, an assignment has type ``void``.
    """

    lhs: Expr
    rhs: Expr
    pos: Optional[int] = None

    def children(self) -> Tuple[Expr, ...]:
        return (self.lhs, self.rhs)


@dataclass
class New(Expr):
    """Object creation ``new cn(e1..ek)`` -- one argument per field."""

    class_name: str
    args: List[Expr] = field(default_factory=list)
    label: str = field(default_factory=fresh_label)
    pos: Optional[int] = None

    def children(self) -> Tuple[Expr, ...]:
        return tuple(self.args)


@dataclass
class Call(Expr):
    """A method invocation.

    ``receiver is None`` marks a *static* call ``mn(args)``; otherwise an
    instance call ``e.mn(args)`` dispatched on the receiver's class.
    ``callee`` is the qualified name of the method normal typing resolves
    the call to (``cn.mn`` on the receiver's static class, ``mn`` for a
    static), recorded by the normal type checker.
    """

    receiver: Optional[Expr]
    method_name: str
    args: List[Expr] = field(default_factory=list)
    pos: Optional[int] = None
    callee: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def is_static(self) -> bool:
        return self.receiver is None

    def children(self) -> Tuple[Expr, ...]:
        recv = (self.receiver,) if self.receiver is not None else ()
        return recv + tuple(self.args)


@dataclass
class Cast(Expr):
    """A cast ``(cn) e``.  Downcasts are the subject of paper Sec 5.

    ``operand_class`` is the static class of ``e``, recorded by the normal
    type checker.
    """

    class_name: str
    expr: Expr
    pos: Optional[int] = None
    operand_class: Optional[str] = field(default=None, repr=False, compare=False)

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)


@dataclass
class If(Expr):
    """A two-armed conditional expression."""

    cond: Expr
    then: Expr
    els: Expr
    pos: Optional[int] = None

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.els)


@dataclass
class While(Expr):
    """A ``while`` loop (type ``void``).

    Loops are not part of the paper's core grammar; they are handled either
    by the equivalent flow-insensitive loop rule or by conversion to
    by-reference tail-recursive methods (:mod:`repro.frontend.loops`).
    """

    cond: Expr
    body: "Block"
    pos: Optional[int] = None

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.body)


#: Binary operators grouped by their typing rule.
ARITH_OPS = ("+", "-", "*", "/", "%")
COMPARE_OPS = ("<", "<=", ">", ">=")
EQUALITY_OPS = ("==", "!=")
LOGIC_OPS = ("&&", "||")


@dataclass
class Binop(Expr):
    """A binary primitive operation."""

    op: str
    left: Expr
    right: Expr
    pos: Optional[int] = None

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass
class Unop(Expr):
    """A unary primitive operation (``!`` or ``-``)."""

    op: str
    operand: Expr
    pos: Optional[int] = None

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)


# ---------------------------------------------------------------------------
# Statements and blocks
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class of block-level statements."""


@dataclass
class LocalDecl(Stmt):
    """A local variable declaration ``t v = e;`` (initialiser optional)."""

    decl_type: Type
    name: str
    init: Optional[Expr] = None
    pos: Optional[int] = None


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect: ``e;``."""

    expr: Expr


@dataclass
class Block(Expr):
    """An expression block ``{ stmt* result? }``.

    The block's value is ``result`` (or ``void`` when absent).  Blocks are
    where the [letreg] localisation rule introduces lexically scoped
    regions.
    """

    stmts: List[Stmt] = field(default_factory=list)
    result: Optional[Expr] = None
    pos: Optional[int] = None

    def children(self) -> Tuple[Expr, ...]:
        out: List[Expr] = []
        for s in self.stmts:
            if isinstance(s, LocalDecl) and s.init is not None:
                out.append(s.init)
            elif isinstance(s, ExprStmt):
                out.append(s.expr)
        if self.result is not None:
            out.append(self.result)
        return tuple(out)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """A method parameter."""

    param_type: Type
    name: str


@dataclass
class FieldDecl:
    """A field declaration ``t f``."""

    field_type: Type
    name: str
    pos: Optional[int] = None


@dataclass
class MethodDecl:
    """A method declaration.

    ``owner`` is the declaring class name (``None`` for top-level statics);
    it is filled in when a :class:`Program` is assembled.
    """

    ret_type: Type
    name: str
    params: List[Param]
    body: Block
    is_static: bool = False
    owner: Optional[str] = None
    pos: Optional[int] = None
    #: True for methods generated from ``while`` loops (Sec 2): their
    #: parameters are passed *by reference*, so region inference equates the
    #: regions of actuals and formals instead of allowing subtyping.
    by_ref: bool = False

    @property
    def qualified_name(self) -> str:
        """``cn.mn`` for instance methods, ``mn`` for statics."""
        if self.owner is None:
            return self.name
        return f"{self.owner}.{self.name}"

    def signature(self) -> Tuple[Type, Tuple[Type, ...]]:
        """(return type, parameter types) -- used for override checks."""
        return (self.ret_type, tuple(p.param_type for p in self.params))


@dataclass
class ClassDecl:
    """A class declaration ``class cn extends cn' { field* meth* }``."""

    name: str
    super_name: str = "Object"
    fields: List[FieldDecl] = field(default_factory=list)
    methods: List[MethodDecl] = field(default_factory=list)
    pos: Optional[int] = None

    def method(self, name: str) -> Optional[MethodDecl]:
        """The class's *own* (non-inherited) method of this name, if any."""
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass
class Program:
    """A Core-Java program: classes plus top-level static methods."""

    classes: List[ClassDecl] = field(default_factory=list)
    statics: List[MethodDecl] = field(default_factory=list)
    #: lexer tokens the parser read this program from (0 when it was
    #: built in code): the size a session cache charges its result by
    tokens: int = field(default=0, repr=False, compare=False)
    #: the text the parser read this program from (``None`` when it was
    #: built in code): what diagnostics work ``line:col`` out of
    source: Optional[str] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        for c in self.classes:
            for m in c.methods:
                m.owner = c.name
        for m in self.statics:
            m.is_static = True
            m.owner = None

    def class_named(self, name: str) -> Optional[ClassDecl]:
        for c in self.classes:
            if c.name == name:
                return c
        return None

    def static_named(self, name: str) -> Optional[MethodDecl]:
        for m in self.statics:
            if m.name == name:
                return m
        return None

    def all_methods(self) -> Iterator[MethodDecl]:
        """Every method in the program (instance then static)."""
        for c in self.classes:
            yield from c.methods
        yield from self.statics


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))
