"""The front end's output, frozen.

``fixtures/frontend_digests.json`` holds, for every program of a fixed
corpus, a digest of its token stream (each token's kind, text, line and
column) and of ``repr(parse_program(src))``, or the error either step
raises.  The digests were captured from the per-character lexer that the
compiled-regex lexer replaced, so this test keeps "the front end says
exactly what it always said" checked.

Corpus: the RegJava and Olden suites, fixed ``repro.gen`` seeds, the
frozen fuzz-regression programs and hand-written edge cases (tabs, CRLF
line ends, multi-line block comments, Unicode identifiers, lexical
errors).

Regenerate the fixture only when a change to the front end's output is
intended::

    PYTHONPATH=src python tests/frontend/test_frontend_freeze.py --write
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from repro.bench.olden import OLDEN_PROGRAMS
from repro.bench.regjava import REGJAVA_PROGRAMS
from repro.frontend.lexer import LexError, tokenize
from repro.frontend.parser import ParseError, parse_program
from repro.gen import GenSpec, generate_source

FIXTURE = Path(__file__).parent / "fixtures" / "frontend_digests.json"
FUZZ_FIXTURES = Path(__file__).parent.parent / "fuzz" / "fixtures"

_PROGRAM = (
    "class Cell extends Object {\n"
    "  int v;\n"
    "  Cell next;\n"
    "  int sum() { if (next == null) { v } else { v + next.sum() } }\n"
    "}\n"
    "int main(int n) {\n"
    "  Cell c = new Cell(n, null);\n"
    "  int i = 0;\n"
    "  while (i < n) { c = new Cell(i, c); i = i + 1; }\n"
    "  c.sum()\n"
    "}\n"
)

#: hand-written edge cases: name -> source
EDGE_CASES = {
    "empty": "",
    "whitespace_only": " \t\r\n\n  \t",
    "tabs": _PROGRAM.replace("  ", "\t"),
    "tabs_mid_line": "int\tf(int\tx)\t{\tx\t+\t1\t}\n",
    "crlf": _PROGRAM.replace("\n", "\r\n"),
    "lone_cr": "int f() {\r1\r+\r2\r}",
    "block_comment_multiline": (
        "/* header\n   spans\n   lines */\n" + _PROGRAM + "/* trailing\n\n */\n"
    ),
    "block_comment_inline": "int f() { 1 /* a\nb */ + /**/ 2 /*/ still\n comment */ }",
    "block_comment_stars": "/*** x ***/ int f() { 3 } /* * / */",
    "line_comments": "// first\nint f() { 1 } // trailing\n//no newline at end",
    "line_comment_crlf": "int f() {// x\r\n 2 }\r\n",
    "comment_adjacent": "int f(){1/**/+//c\n2}",
    "unicode_identifiers": (
        "class Zähler extends Object {\n"
        "  int wert;\n"
        "  int größe() { wert }\n"
        "}\n"
        "int _μ(int ǅx, int x²) { ǅx + x² }\n"
        "int 变量(int 値) { 値 }\n"
    ),
    "operators": "int f(int a, int b) { if (a<=b&&b>=a||!(a==b)&&a!=b) { -a*b/2%3 } else { a<b } }",
    "operators_spaced": "int f(int a) { a = = a }",
    "digits_then_letters": "int f() { 12abc }",
    "leading_zeros": "int f() { 007 + 0 }",
    "casts_and_calls": (
        "class A extends Object { int x; }\n"
        "class B extends A { int y; }\n"
        "int f(A a) { B b = (B) a; b.y + ((B) a).x }\n"
    ),
    "nested_blocks": "int f(int n) { { { { n } } } }",
    "error_unterminated_comment": "int f() { 1 } /* never\n closed",
    "error_unexpected_char": "int f() { a @ b }",
    "error_char_after_newlines": "ab\n  #",
    "error_crlf_position": "int x = 1;\r\n  $",
    "error_form_feed": "int f()\f{ 1 }",
    "error_nbsp": "int f() { 1 }",
    "error_parse": "class A extends { }",
    "error_parse_late": _PROGRAM + "int g( { }",
}


def corpus():
    """The frozen corpus: an ordered list of ``(name, source)``."""
    out = [(f"edge/{name}", src) for name, src in EDGE_CASES.items()]
    out += [(f"regjava/{name}", p.source) for name, p in sorted(REGJAVA_PROGRAMS.items())]
    out += [(f"olden/{name}", p.source) for name, p in sorted(OLDEN_PROGRAMS.items())]
    for classes, seeds in ((4, range(5)), (20, range(3)), (60, range(1))):
        for seed in seeds:
            spec = GenSpec.sized(classes, seed=seed)
            out.append((f"gen/sized{classes}-seed{seed}", generate_source(spec)))
    out += [(f"fuzz/{p.name}", p.read_text()) for p in sorted(FUZZ_FIXTURES.glob("*.cj"))]
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _renumber_labels(text: str) -> str:
    """Allocation-site labels come from a process-wide counter: renumber
    them in first-use order so the repr depends on the source alone."""
    names = {}

    def sub(m):
        return "label=" + repr(names.setdefault(m.group(1), f"l{len(names) + 1}"))

    return re.sub(r"label='(l\d+)'", sub, text)


def capture(source: str) -> dict:
    """Token and AST digests of ``source`` (or the error each step raises)."""
    out = {}
    try:
        tokens = tokenize(source)
    except LexError as err:
        out["tokens"] = f"LexError {err.pos.line}:{err.pos.col} {err.msg}"
    else:
        lines = [f"{t.kind}\t{t.text}\t{t.pos.line}\t{t.pos.col}" for t in tokens]
        out["tokens"] = _digest("\n".join(lines))
    try:
        program = parse_program(source)
    except (LexError, ParseError) as err:
        out["ast"] = f"{type(err).__name__} {err.pos.line}:{err.pos.col} {err.msg}"
    else:
        out["ast"] = _digest(_renumber_labels(repr(program)))
    return out


def _fixture():
    return json.loads(FIXTURE.read_text())


CORPUS = corpus()


def test_fixture_covers_the_corpus():
    assert sorted(_fixture()) == sorted(name for name, _ in CORPUS)


@pytest.mark.parametrize("name,source", CORPUS, ids=[name for name, _ in CORPUS])
def test_front_end_output_is_frozen(name, source):
    assert capture(source) == _fixture()[name]


def test_label_renumbering_is_per_source():
    a = _renumber_labels(repr(parse_program(_PROGRAM)))
    b = _renumber_labels(repr(parse_program(_PROGRAM)))
    assert a == b and "label='l1'" in a and "label='l2'" in a


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(
        json.dumps({name: capture(src) for name, src in CORPUS}, indent=1, sort_keys=True) + "\n"
    )
