"""Lexer for Core-Java source text.

Produces a stream of :class:`Token` objects, each with its start offset
in the source text.  Supports ``//`` line comments and ``/* ... */``
block comments.

One compiled regular expression does the scanning: each match consumes
the whitespace and comments before a token plus the token itself, so the
Python-level loop runs once per token, not once per character.  Lines
and columns are not tracked: :func:`repro.lang.ast.line_col` works them
out from an offset when an error needs them.  Within one source text,
repeated identifier and operator text is one string.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from ..lang.ast import SourceError

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    {
        "class",
        "extends",
        "new",
        "null",
        "true",
        "false",
        "if",
        "else",
        "while",
        "return",
        "this",
        "static",
        "int",
        "bool",
        "boolean",
        "void",
        "letreg",
        "in",
        "where",
    }
)

#: One token per match: skipped whitespace and comments, then exactly one
#: of the groups.  Integer literals are ASCII digits only.  Identifiers
#: start with a letter or ``_`` and go on with letters, digits or ``_``
#: (Unicode ``isalpha``/``isalnum``, which is what ``\w`` matches); a word
#: that starts with any other ``\w`` character (``²``, ``٣``) lands in
#: ``uword`` and is checked by hand.  Multi-character operators come
#: before single ones (maximal munch).  ``/*`` after the skip can only be
#: an unterminated comment, so it is tried before ``/``.  The catch-all
#: ``bad`` and ``eof`` groups make every position match, so the scan
#: never skips input or backtracks.
_TOKEN = re.compile(
    r"""
    (?:[ \t\r\n]+ | //[^\n]* | /\*.*?\*/)*
    (?:
      ([0-9]+)                                  # 1 int
    | ([A-Za-z_]\w*)                            # 2 word
    | (/\*)                                     # 3 unterminated comment
    | (==|!=|<=|>=|&&|\|\||[-+*/%<>=!.,;(){}\[\]])  # 4 op
    | (\w+)                                     # 5 uword
    | (.)                                       # 6 bad
    | (\Z)                                      # 7 eof
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_INT, _WORD, _OPEN, _OP, _UWORD, _BAD, _EOF = range(1, 8)


class LexError(SourceError):
    """Raised on malformed input text."""


@dataclass(unsafe_hash=True)
class Token:
    """A lexical token.

    ``kind`` is one of ``"id"``, ``"int"``, ``"kw"``, ``"op"``, ``"eof"``;
    ``text`` is the matched text (empty for eof) and ``pos`` its start
    offset in the source.  Tokens compare and hash by value; slotted and
    not frozen, so building one per token is cheap.
    """

    __slots__ = ("kind", "text", "pos")

    kind: str
    text: str
    pos: int

    def is_kw(self, word: str) -> bool:
        return self.kind == "kw" and self.text == word

    def is_op(self, op: str) -> bool:
        return self.kind == "op" and self.text == op

    def __str__(self) -> str:
        return self.text if self.kind != "eof" else "<eof>"


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with one ``eof`` token."""
    tokens: List[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    # one string per distinct name or operator in this text; not
    # ``sys.intern``, whose table outlives the parse
    share = {}.setdefault
    for m in _TOKEN.finditer(source):
        group = m.lastindex
        pos = m.start(group)
        text = m.group(group)
        if group == _OP:
            append(Token("op", share(text, text), pos))
        elif group == _WORD:
            text = share(text, text)
            append(Token("kw" if text in keywords else "id", text, pos))
        elif group == _INT:
            append(Token("int", text, pos))
        elif group == _EOF:
            append(Token("eof", "", pos))
            break
        elif group == _UWORD and text[0].isalpha():
            text = share(text, text)
            append(Token("kw" if text in keywords else "id", text, pos))
        elif group == _OPEN:
            raise LexError("unterminated block comment", pos, source)
        else:
            raise LexError(f"unexpected character {text[0]!r}", pos, source)
    return tokens
