"""Recursive-descent parser for Core-Java.

The grammar follows the paper's Fig 1(a), extended with the constructs the
benchmark programs need (arithmetic, ``while``, statement-``if``, casts,
``return``).  Blocks are expression-valued: the value of
``{ s1; ...; sk; e }`` is ``e`` (or ``void`` with a trailing statement);
``return e;`` as the last item is accepted as sugar for a result
expression.

Entry points: :func:`parse_program`, :func:`parse_expr`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from typing import Union

from ..lang import ast as S
from ..lang.ast import Pos
from .lexer import LexError, Token, tokenize

__all__ = [
    "ParseError",
    "Parser",
    "parse_program",
    "parse_program_tolerant",
    "parse_expr",
]

_PRIM_TYPES = {"int": S.INT, "bool": S.BOOL, "boolean": S.BOOL, "void": S.VOID}

#: tokens that may start an expression (used to disambiguate casts)
_EXPR_START_KWS = {"new", "null", "this", "true", "false", "if"}


class ParseError(Exception):
    """Raised on syntactically invalid input."""

    def __init__(self, message: str, pos: Pos):
        super().__init__(f"{pos}: {message}")
        self.msg = message
        self.pos = pos


class Parser:
    """A single-pass recursive-descent parser over a token list."""

    def __init__(self, source: str):
        self._tokens = tokenize(source)
        self._i = 0

    # -- token helpers -----------------------------------------------------
    def _peek(self, ahead: int = 0) -> Token:
        if not ahead:
            # ``_next`` never moves past the trailing eof token
            return self._tokens[self._i]
        return self._tokens[min(self._i + ahead, len(self._tokens) - 1)]

    def _next(self) -> Token:
        t = self._tokens[self._i]
        if t.kind != "eof":
            self._i += 1
        return t

    def _expect_op(self, op: str) -> Token:
        t = self._next()
        if not t.is_op(op):
            raise ParseError(f"expected {op!r}, found {t}", t.pos)
        return t

    def _expect_kw(self, word: str) -> Token:
        t = self._next()
        if not t.is_kw(word):
            raise ParseError(f"expected keyword {word!r}, found {t}", t.pos)
        return t

    def _expect_id(self) -> Token:
        t = self._next()
        if t.kind != "id":
            raise ParseError(f"expected identifier, found {t}", t.pos)
        return t

    def _accept_op(self, op: str) -> bool:
        if self._peek().is_op(op):
            self._next()
            return True
        return False

    # -- types -----------------------------------------------------------------
    def _at_type(self, ahead: int = 0) -> bool:
        t = self._peek(ahead)
        return (t.kind == "kw" and t.text in _PRIM_TYPES) or t.kind == "id"

    def _parse_type(self) -> S.Type:
        t = self._next()
        if t.kind == "kw" and t.text in _PRIM_TYPES:
            return _PRIM_TYPES[t.text]
        if t.kind == "id":
            return S.ClassType(t.text)
        raise ParseError(f"expected a type, found {t}", t.pos)

    # -- program -----------------------------------------------------------------
    def parse_program(self, errors: Optional[List[ParseError]] = None) -> S.Program:
        """Parse a whole program.

        With ``errors`` given, parsing becomes *tolerant*: a syntax error
        inside one top-level declaration is recorded there, the parser
        resynchronises at the next top-level declaration, and parsing
        continues — callers get every diagnosable declaration instead of
        dying on the first bad one.
        """
        classes: List[S.ClassDecl] = []
        statics: List[S.MethodDecl] = []
        while self._peek().kind != "eof":
            try:
                if self._peek().is_kw("class"):
                    classes.append(self._parse_class())
                else:
                    statics.append(self._parse_method(static=True))
            except ParseError as err:
                if errors is None:
                    raise
                errors.append(err)
                self._sync_top_level()
        return S.Program(
            classes=classes, statics=statics, tokens=len(self._tokens)
        )

    def _sync_top_level(self) -> None:
        """Skip past the offending declaration (balanced-brace heuristic).

        Advances until the next ``class`` keyword at brace depth zero, or a
        plausible top-level method header after a balanced close brace.
        """
        depth = 0
        while self._peek().kind != "eof":
            t = self._peek()
            if t.is_op("{"):
                depth += 1
            elif t.is_op("}"):
                depth = max(0, depth - 1)
                self._next()
                if depth == 0:
                    return
                continue
            elif depth == 0 and t.is_kw("class"):
                return
            self._next()

    def _parse_class(self) -> S.ClassDecl:
        pos = self._expect_kw("class").pos
        name = self._expect_id().text
        super_name = "Object"
        if self._peek().is_kw("extends"):
            self._next()
            super_name = self._expect_id().text
        self._expect_op("{")
        fields: List[S.FieldDecl] = []
        methods: List[S.MethodDecl] = []
        while not self._peek().is_op("}"):
            # member: type ID ';' (field)  vs  type ID '(' (method)
            member_pos = self._peek().pos
            mtype = self._parse_type()
            mname = self._expect_id().text
            if self._accept_op(";"):
                fields.append(S.FieldDecl(mtype, mname, pos=member_pos))
            elif self._peek().is_op("("):
                methods.append(self._finish_method(mtype, mname, member_pos, static=False))
            else:
                raise ParseError(
                    f"expected ';' or '(' after member {mname!r}", self._peek().pos
                )
        self._expect_op("}")
        return S.ClassDecl(name=name, super_name=super_name, fields=fields, methods=methods, pos=pos)

    def _parse_method(self, static: bool) -> S.MethodDecl:
        if self._peek().is_kw("static"):
            self._next()
        pos = self._peek().pos
        ret = self._parse_type()
        name = self._expect_id().text
        return self._finish_method(ret, name, pos, static=static)

    def _finish_method(
        self, ret: S.Type, name: str, pos: Pos, static: bool
    ) -> S.MethodDecl:
        self._expect_op("(")
        params: List[S.Param] = []
        if not self._peek().is_op(")"):
            while True:
                ptype = self._parse_type()
                pname = self._expect_id().text
                params.append(S.Param(ptype, pname))
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        body = self._parse_block()
        return S.MethodDecl(
            ret_type=ret, name=name, params=params, body=body, is_static=static, pos=pos
        )

    # -- blocks and statements --------------------------------------------------
    def _parse_block(self) -> S.Block:
        pos = self._expect_op("{").pos
        stmts: List[S.Stmt] = []
        result: Optional[S.Expr] = None
        while not self._peek().is_op("}"):
            if result is not None:
                raise ParseError("result expression must end the block", self._peek().pos)
            item = self._parse_block_item()
            if isinstance(item, S.Stmt):
                stmts.append(item)
            else:
                result = item
        self._expect_op("}")
        return S.Block(stmts=stmts, result=result, pos=pos)

    def _at_local_decl(self) -> bool:
        """Lookahead: ``type ID`` followed by ``=`` or ``;``."""
        if not self._at_type(0):
            return False
        if self._peek(1).kind != "id":
            return False
        after = self._peek(2)
        return after.is_op("=") or after.is_op(";")

    def _parse_block_item(self):
        """A statement, or the block's trailing result expression."""
        t = self._peek()
        if t.is_kw("return"):
            self._next()
            if self._accept_op(";"):
                return S.Block(stmts=[], result=None, pos=t.pos)  # `return;` == void result
            e = self.parse_expr()
            self._expect_op(";")
            return e  # becomes the block result
        if t.is_kw("while"):
            self._next()
            self._expect_op("(")
            cond = self.parse_expr()
            self._expect_op(")")
            body = self._parse_block()
            return S.ExprStmt(S.While(cond, body, pos=t.pos))
        if t.is_kw("if") :
            # statement-if unless it turns out to be the block result; we
            # parse as expression-if when an `else` is present and the next
            # token closes the block.
            return self._parse_if_item()
        if self._at_local_decl():
            pos = self._peek().pos
            dtype = self._parse_type()
            name = self._expect_id().text
            init: Optional[S.Expr] = None
            if self._accept_op("="):
                init = self.parse_expr()
            self._expect_op(";")
            return S.LocalDecl(dtype, name, init, pos=pos)
        e = self.parse_expr()
        if self._accept_op(";"):
            return S.ExprStmt(e)
        if self._peek().is_op("}"):
            return e  # trailing result expression
        raise ParseError(f"expected ';' or '}}', found {self._peek()}", self._peek().pos)

    def _parse_if_item(self):
        pos = self._expect_kw("if").pos
        self._expect_op("(")
        cond = self.parse_expr()
        self._expect_op(")")
        then = self._parse_stmt_arm()
        els: S.Expr = S.Block(stmts=[], result=None)
        if self._peek().is_kw("else"):
            self._next()
            els = self._parse_stmt_arm()
        node = S.If(cond, then, els, pos=pos)
        if self._peek().is_op("}"):
            return node  # if-expression as the block result
        return S.ExprStmt(node)

    def _parse_stmt_arm(self) -> S.Expr:
        """An arm of a statement-level if: a block or a single statement."""
        if self._peek().is_op("{"):
            return self._parse_block()
        if self._peek().is_kw("if"):
            item = self._parse_if_item()
            return item.expr if isinstance(item, S.ExprStmt) else item
        e = self.parse_expr()
        self._expect_op(";")
        return S.Block(stmts=[S.ExprStmt(e)], result=None)

    # -- expressions -------------------------------------------------------------
    def parse_expr(self) -> S.Expr:
        return self._parse_assign()

    def _parse_assign(self) -> S.Expr:
        lhs = self._parse_or()
        if self._peek().is_op("="):
            pos = self._next().pos
            if not isinstance(lhs, (S.Var, S.FieldRead)):
                raise ParseError("assignment target must be a variable or field", pos)
            rhs = self._parse_assign()
            return S.Assign(lhs, rhs, pos=pos)
        return lhs

    def _parse_binop_chain(self, ops: Tuple[str, ...], sub) -> S.Expr:
        left = sub()
        tokens = self._tokens
        op = tokens[self._i]
        while op.kind == "op" and op.text in ops:
            self._i += 1  # an operator is never the eof token
            right = sub()
            left = S.Binop(op.text, left, right, pos=op.pos)
            op = tokens[self._i]
        return left

    def _parse_or(self) -> S.Expr:
        return self._parse_binop_chain(("||",), self._parse_and)

    def _parse_and(self) -> S.Expr:
        return self._parse_binop_chain(("&&",), self._parse_equality)

    def _parse_equality(self) -> S.Expr:
        return self._parse_binop_chain(("==", "!="), self._parse_relational)

    def _parse_relational(self) -> S.Expr:
        return self._parse_binop_chain(("<", "<=", ">", ">="), self._parse_additive)

    def _parse_additive(self) -> S.Expr:
        return self._parse_binop_chain(("+", "-"), self._parse_multiplicative)

    def _parse_multiplicative(self) -> S.Expr:
        return self._parse_binop_chain(("*", "/", "%"), self._parse_unary)

    def _parse_unary(self) -> S.Expr:
        t = self._peek()
        if t.is_op("!") or t.is_op("-"):
            self._next()
            operand = self._parse_unary()
            return S.Unop(t.text, operand, pos=t.pos)
        return self._parse_postfix()

    def _parse_postfix(self) -> S.Expr:
        e = self._parse_primary()
        while self._peek().is_op("."):
            self._next()
            name = self._expect_id()
            if self._peek().is_op("("):
                args = self._parse_args()
                e = S.Call(e, name.text, args, pos=name.pos)
            else:
                e = S.FieldRead(e, name.text, pos=name.pos)
        return e

    def _parse_args(self) -> List[S.Expr]:
        self._expect_op("(")
        args: List[S.Expr] = []
        if not self._peek().is_op(")"):
            while True:
                args.append(self.parse_expr())
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        return args

    def _looks_like_cast(self) -> bool:
        """At ``(``: is this ``(Type) expr`` rather than ``(expr)``?"""
        t1, t2, t3 = self._peek(1), self._peek(2), self._peek(3)
        if t1.kind == "kw" and t1.text in _PRIM_TYPES:
            return t2.is_op(")")
        if t1.kind == "id" and t2.is_op(")"):
            # `(Name)` followed by something that can start an expression
            if t3.kind in ("id", "int"):
                return True
            if t3.kind == "kw" and t3.text in _EXPR_START_KWS:
                return True
            if t3.is_op("(") or t3.is_op("!"):
                return True
        return False

    def _parse_primary(self) -> S.Expr:
        t = self._peek()
        if t.kind == "int":
            self._next()
            return S.IntLit(int(t.text), pos=t.pos)
        if t.is_kw("true") or t.is_kw("false"):
            self._next()
            return S.BoolLit(t.text == "true", pos=t.pos)
        if t.is_kw("null"):
            self._next()
            return S.Null(None, pos=t.pos)
        if t.is_kw("this"):
            self._next()
            return S.Var(S.THIS, pos=t.pos)
        if t.is_kw("new"):
            self._next()
            cname = self._expect_id().text
            args = self._parse_args()
            return S.New(cname, args, pos=t.pos)
        if t.is_kw("if"):
            self._next()
            self._expect_op("(")
            cond = self.parse_expr()
            self._expect_op(")")
            then = self._parse_expr_arm()
            self._expect_kw("else")
            els = self._parse_expr_arm()
            return S.If(cond, then, els, pos=t.pos)
        if t.is_op("{"):
            return self._parse_block()
        if t.is_op("("):
            if self._looks_like_cast():
                self._next()
                ctype = self._parse_type()
                self._expect_op(")")
                target = self._parse_unary()
                if isinstance(ctype, S.ClassType):
                    if isinstance(target, S.Null):
                        return S.Null(ctype.name, pos=t.pos)  # `(cn) null`
                    return S.Cast(ctype.name, target, pos=t.pos)
                raise ParseError("casts to primitive types are not supported", t.pos)
            self._next()
            e = self.parse_expr()
            self._expect_op(")")
            return e
        if t.kind == "id":
            self._next()
            if self._peek().is_op("("):
                args = self._parse_args()
                return S.Call(None, t.text, args, pos=t.pos)
            return S.Var(t.text, pos=t.pos)
        raise ParseError(f"unexpected token {t}", t.pos)

    def _parse_expr_arm(self) -> S.Expr:
        if self._peek().is_op("{"):
            return self._parse_block()
        return self.parse_expr()


def parse_program(source: str) -> S.Program:
    """Parse a full Core-Java program from text."""
    parser = Parser(source)
    return parser.parse_program()


def parse_program_tolerant(
    source: str,
) -> Tuple[S.Program, List[Union[ParseError, LexError]]]:
    """Parse a full program, collecting errors instead of raising.

    Returns the program built from every declaration that parsed, plus the
    list of errors encountered (empty for valid input).  A lexical error
    aborts tokenisation, so it yields an empty program with that single
    :class:`LexError` — preserved as-is so diagnostic codes stay stable
    between strict and tolerant parsing.
    """
    errors: List[Union[ParseError, LexError]] = []
    try:
        parser = Parser(source)
    except LexError as err:
        return S.Program(classes=[], statics=[]), [err]
    program = parser.parse_program(errors)
    return program, errors


def parse_expr(source: str) -> S.Expr:
    """Parse a single expression (convenience for tests)."""
    parser = Parser(source)
    e = parser.parse_expr()
    tail = parser._peek()
    if tail.kind != "eof":
        raise ParseError(f"trailing input {tail}", tail.pos)
    return e
