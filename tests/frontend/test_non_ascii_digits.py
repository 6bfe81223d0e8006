"""A non-ASCII digit is a lexical error on every surface, never a crash.

``²`` and ``①`` pass ``str.isdigit()`` but ``int()`` rejects them, and
``٣`` is a decimal digit ``int()`` would accept: integer literals are
ASCII ``[0-9]+`` only, and any other digit character is a ``LexError``
that ``Pipeline``, the daemon's router (422, not 500) and ``repro check``
(exit 2 with JSON diagnostics) report as a ``parse`` diagnostic.
Identifiers keep the Unicode rule: a digit-like character may continue
one (``x²``) but not start it.
"""

import json

import pytest

from repro.__main__ import main
from repro.api import Pipeline
from repro.frontend.lexer import LexError, tokenize
from repro.serve.router import Router, ServerConfig

SOURCES = {
    "superscript": "int main(int n) { n + ² }",
    "circled": "int main(int n) { ① }",
    "after-ascii": "int main(int n) { 1² }",
    "arabic-indic": "int main(int n) { ٣ }",
}


@pytest.fixture(params=sorted(SOURCES))
def source(request):
    return SOURCES[request.param]


def test_lexer_raises_unexpected_character(source):
    with pytest.raises(LexError) as excinfo:
        tokenize(source)
    assert excinfo.value.msg.startswith("unexpected character")
    offset = next(i for i, ch in enumerate(source) if ch in "²①٣")
    assert (excinfo.value.pos.line, excinfo.value.pos.col) == (1, offset + 1)


def test_integer_literals_are_ascii():
    assert [(t.kind, t.text) for t in tokenize("0 42 007")][:3] == [
        ("int", "0"),
        ("int", "42"),
        ("int", "007"),
    ]


def test_identifiers_keep_the_unicode_rule():
    assert [(t.kind, t.text) for t in tokenize("x² größe _٣ ǅ")][:4] == [
        ("id", "x²"),
        ("id", "größe"),
        ("id", "_٣"),
        ("id", "ǅ"),
    ]


@pytest.mark.parametrize("collect", [False, True], ids=["strict", "collect"])
def test_pipeline_reports_a_parse_diagnostic(source, collect):
    result = Pipeline(source, collect=collect).verify()
    assert not result.ok and result.skipped
    (diagnostic,) = result.cause.diagnostics
    assert diagnostic.stage == "parse"
    assert "unexpected character" in diagnostic.message


def test_router_answers_422(source):
    with Router(ServerConfig(quiet=True)) as router:
        status, payload, _ = router.handle(
            "POST", "/v1/check", {}, json.dumps({"source": source}).encode()
        )
    assert status == 422
    assert payload["diagnostics"][0]["stage"] == "parse"


def test_cli_check_exits_2_with_json_diagnostics(source, tmp_path, capsys):
    path = tmp_path / "digit.cj"
    path.write_text(source, encoding="utf-8")
    assert main(["check", str(path), "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["diagnostics"][0]["stage"] == "parse"
