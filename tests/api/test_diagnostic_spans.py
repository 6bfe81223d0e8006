"""Diagnostic spans, pinned.

Each program below fails in one front-end stage: a lexical error, a
syntax error, a tolerant (``collect``) parse with two errors, and normal
typing errors in a method body (after a tab), in a field declaration and
in a static method's parameters.  Each runs with LF, CRLF and lone-CR
line ends.  A lone ``\\r`` is not a line break, so under lone CR the
whole program is line 1 and a column counts every character before it.

The expected ``file:line:col`` text and JSON ``span`` of every
``Pipeline`` diagnostic are written out literally.  The ``str()`` of the
exception the front end raises keeps the same ``line:col:`` prefix.
"""

import pytest

from repro.api import Pipeline
from repro.frontend import LexError, ParseError, parse_program, parse_program_tolerant
from repro.typing import NormalTypeError, check_program

#: name -> (collect, LF source, {line end: [(diagnostic text, span)]});
#: CRLF expects what LF does
CASES = {
    "lex": (
        False,
        "class A { int x; }\nint f(int n) {\n  n + @\n}\n",
        {
            "lf": [("<source>:3:7: error[lex-error]: unexpected character '@'", (3, 7))],
            "cr": [("<source>:1:41: error[lex-error]: unexpected character '@'", (1, 41))],
        },
    ),
    "parse": (
        False,
        "class A { int x; }\nint f(int n) {\n  n +\n}\n",
        {
            "lf": [("<source>:4:1: error[parse-error]: unexpected token }", (4, 1))],
            "cr": [("<source>:1:41: error[parse-error]: unexpected token }", (1, 41))],
        },
    ),
    "collect": (
        True,
        "class A {\n  int x\n}\nint f(int n) { n }\nclass B { int y }\nint h() { 2 }\n",
        {
            "lf": [
                ("<source>:3:1: error[parse-error]: expected ';' or '(' after member 'x'", (3, 1)),
                ("<source>:5:17: error[parse-error]: expected ';' or '(' after member 'y'", (5, 17)),
            ],
            "cr": [
                ("<source>:1:19: error[parse-error]: expected ';' or '(' after member 'x'", (1, 19)),
                ("<source>:1:56: error[parse-error]: expected ';' or '(' after member 'y'", (1, 56)),
            ],
        },
    ),
    "static_body": (
        False,
        "class A { int x; }\nint f(A a) {\n  int y = 1;\n  y = y + 1;\n\tb }\n",
        {
            "lf": [("<source>:5:2: error[normal-type-error]: unbound variable 'b'", (5, 2))],
            "cr": [("<source>:1:60: error[normal-type-error]: unbound variable 'b'", (1, 60))],
        },
    ),
    "short_body": (
        False,
        "class A { int x; }\nint f(A a) {\n\tb }",
        {
            "lf": [("<source>:3:2: error[normal-type-error]: unbound variable 'b'", (3, 2))],
            "cr": [("<source>:1:34: error[normal-type-error]: unbound variable 'b'", (1, 34))],
        },
    ),
    "method_body": (
        False,
        "class A {\n  int x;\n  int get(int k) {\n    int y = k;\n"
        "\tif (y < x) { y } else { z }\n  }\n}\n",
        {
            "lf": [("<source>:5:26: error[normal-type-error]: unbound variable 'z'", (5, 26))],
            "cr": [("<source>:1:79: error[normal-type-error]: unbound variable 'z'", (1, 79))],
        },
    ),
    # the class table reports a duplicate field without a position
    "field": (
        False,
        "class A {\n  int x;\n  int x;\n}\nint f() { 1 }\n",
        {
            "lf": [("<source>: error[normal-type-error]: duplicate field A.x", None)],
            "cr": [("<source>: error[normal-type-error]: duplicate field A.x", None)],
        },
    ),
    "static_params": (
        False,
        "class A { int x; }\nint f(A a,\n      Missing m) { 1 }\n",
        {
            "lf": [("<source>:2:1: error[normal-type-error]: unknown class 'Missing'", (2, 1))],
            "cr": [("<source>:1:20: error[normal-type-error]: unknown class 'Missing'", (1, 20))],
        },
    ),
}

LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}

PARAMS = [
    pytest.param(name, end, id=f"{name}-{end}")
    for name in CASES
    for end in LINE_ENDS
]


def _case(name, end):
    collect, source, expected = CASES[name]
    return collect, source.replace("\n", LINE_ENDS[end]), expected["cr" if end == "cr" else "lf"]


@pytest.mark.parametrize("name,end", PARAMS)
def test_pipeline_diagnostics_keep_their_spans(name, end):
    collect, source, expected = _case(name, end)
    diagnostics = [
        d for r in Pipeline(source, collect=collect).run("verify") for d in r.diagnostics
    ]
    assert [(str(d), d.to_dict()["span"]) for d in diagnostics] == [
        (text, span and {"line": span[0], "col": span[1]}) for text, span in expected
    ]


@pytest.mark.parametrize("name,end", PARAMS)
def test_front_end_errors_keep_their_line_col_prefix(name, end):
    collect, source, expected = _case(name, end)
    if collect:
        errors = parse_program_tolerant(source)[1]
    else:
        with pytest.raises((LexError, ParseError, NormalTypeError)) as excinfo:
            check_program(parse_program(source))
        errors = [excinfo.value]
    assert [str(e) for e in errors] == [
        (f"{span[0]}:{span[1]}: " if span else "") + text.split("]: ", 1)[1]
        for text, span in expected
    ]
