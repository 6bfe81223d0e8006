"""A cached result keeps its checker verdict.

The checker is a pure function of the target and the config, so the
first verify of a result stores its report on the result, and every
later check of that program — a repeat ``/v1/check``, a
``Session.check`` of a cached program — answers from it with no checker
work.  A deadline that fires inside the checker stores nothing.
"""

import json
import time
from types import SimpleNamespace

import pytest

from repro.api import Pipeline, Session
from repro.api import pipeline as pipeline_module
from repro.core import InferenceConfig, SubtypingMode
from repro.deadline import DeadlineExceeded, deadline
from repro.gen import GenSpec, generate_source
from repro.serve.router import Router, ServerConfig

SOURCE = generate_source(GenSpec.sized(4, seed=5))


@pytest.fixture()
def checker_calls(monkeypatch):
    """Record each ``check_target`` call's arguments in ``.calls``; each
    call runs the real checker, after sleeping any delay put in
    ``.delay``."""
    seen = SimpleNamespace(calls=[], delay=[])
    real = pipeline_module.check_target

    def counted(*args, **kwargs):
        seen.calls.append((args, kwargs))
        if seen.delay:
            time.sleep(seen.delay.pop())
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "check_target", counted)
    return seen


def test_a_repeat_check_request_does_no_checker_work(checker_calls):
    with Router(ServerConfig(quiet=True, max_concurrency=1)) as router:
        bodies = []
        for _ in range(3):
            status, body, _ = router.handle(
                "POST",
                "/v1/check",
                {"X-Repro-Tenant": "t"},
                json.dumps({"source": SOURCE}).encode(),
            )
            assert status == 200, body
            bodies.append(body)
    assert len(checker_calls.calls) == 1
    assert [b["cached"] for b in bodies] == [False, True, True]
    fields = ("verified", "obligations", "diagnostics")
    first = {k: bodies[0][k] for k in fields}
    assert first["verified"] is True and first["obligations"] > 0
    for body in bodies[1:]:
        assert {k: body[k] for k in fields} == first


def test_session_check_of_a_cached_program_does_no_checker_work(checker_calls):
    session = Session()
    result = session.infer(SOURCE)
    assert result.report is None
    first = session.check(SOURCE)
    assert result.report is first and len(checker_calls.calls) == 1
    pipe = session.pipeline(SOURCE)
    stage = pipe.verify()
    assert stage.cached and stage.value is first
    assert session.check(SOURCE) is first
    assert len(checker_calls.calls) == 1


def test_the_verdict_is_checked_under_the_results_own_config(checker_calls):
    own = InferenceConfig(mode=SubtypingMode.OBJECT)
    result = Session().infer(SOURCE, own)
    # a pipeline handed the result under another config still checks the
    # result under the config that produced it: that is the verdict kept
    Pipeline(SOURCE, InferenceConfig(), inferred=result).verify()
    ((args, kwargs),) = checker_calls.calls
    assert args == (result.target,)
    assert kwargs == {"mode": "object", "downcast": own.downcast.value}


def test_a_deadline_inside_verify_keeps_no_verdict(checker_calls):
    session = Session()
    result = session.infer(SOURCE)
    checker_calls.delay.append(0.1)
    with deadline(0.05):
        with pytest.raises(DeadlineExceeded):
            session.check(SOURCE)
    assert len(checker_calls.calls) == 1
    assert result.report is None
    report = session.check(SOURCE)
    assert len(checker_calls.calls) == 2
    assert report.ok and result.report is report
