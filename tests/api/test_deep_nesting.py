"""Input nested deeper than the Python stack allows returns diagnostics.

The recursive-descent parser spends about ten frames per parenthesis
level, so under the interpreter's default recursion limit 95 nested
parentheses, or a 500-deep ``else if`` chain, exhaust the stack inside
``parse``.  Every surface must answer that with a structured diagnostic:
``Pipeline`` (strict and collect mode), ``Session.check``, the daemon's
router (422, never 500) and ``repro check`` (exit 2 with JSON).

``tests/conftest.py`` raises the recursion limit for every test, so each
test here runs under the default limit instead.
"""

import json
import sys

import pytest

from repro.__main__ import main
from repro.api import Pipeline, Session, StageFailure
from repro.serve.router import Router, ServerConfig

DEFAULT_RECURSION_LIMIT = 1000

DEEP_PARENS = "int main(int n) { " + "(" * 95 + "n" + ")" * 95 + " }"
DEEP_ELSE_IF = (
    "int main(int n) { "
    + " else ".join(f"if (n == {i}) {{ {i} }}" for i in range(500))
    + " else { 0 } }"
)
DEEP_SOURCES = {"parens": DEEP_PARENS, "else-if": DEEP_ELSE_IF}


@pytest.fixture(autouse=True)
def _default_recursion_limit(_deep_recursion):
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    yield


@pytest.fixture(params=sorted(DEEP_SOURCES))
def source(request):
    return DEEP_SOURCES[request.param]


@pytest.mark.parametrize("collect", [False, True], ids=["strict", "collect"])
def test_pipeline_reports_a_parse_diagnostic(source, collect):
    result = Pipeline(source, collect=collect).verify()
    assert not result.ok and result.skipped
    (diagnostic,) = result.cause.diagnostics
    assert diagnostic.stage == "parse"
    assert "recursion" in diagnostic.message


def test_session_check_raises_stage_failure(source):
    with pytest.raises(StageFailure) as excinfo:
        Session().check(source)
    assert [d.stage for d in excinfo.value.diagnostics] == ["parse"]


def test_router_answers_422(source):
    with Router(ServerConfig(quiet=True)) as router:
        status, payload, _ = router.handle(
            "POST", "/v1/check", {}, json.dumps({"source": source}).encode()
        )
    assert status == 422
    assert payload["diagnostics"][0]["stage"] == "parse"


def test_cli_check_exits_2_with_json_diagnostics(source, tmp_path, capsys):
    path = tmp_path / "deep.cj"
    path.write_text(source)
    assert main(["check", str(path), "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["diagnostics"][0]["stage"] == "parse"
