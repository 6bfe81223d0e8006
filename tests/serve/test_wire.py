"""The wire schema: parsing, validation, error payload shapes."""

import json

import pytest

from repro.core import DowncastStrategy, SubtypingMode
from repro.serve.wire import (
    DEFAULT_TENANT,
    MAX_SOURCE_BYTES,
    InferRequest,
    RunRequest,
    WireError,
    error_payload,
    parse_config,
    parse_json_body,
    parse_tenant,
)


def _payload(**extra):
    return {"source": "class A extends Object { }", **extra}


class TestBodyParsing(object):
    def test_round_trip(self):
        assert parse_json_body(b'{"a": 1}') == {"a": 1}

    @pytest.mark.parametrize("raw", [b"", b"not json", b"[1, 2]", b'"str"', b"\xff"])
    def test_non_object_bodies_are_rejected(self, raw):
        with pytest.raises(WireError):
            parse_json_body(raw)


class TestTenant(object):
    def test_defaults_when_absent(self):
        assert parse_tenant(None, {}) == DEFAULT_TENANT

    def test_header_wins_over_field(self):
        assert parse_tenant("alice", {"tenant": "bob"}) == "alice"

    def test_field_used_without_header(self):
        assert parse_tenant(None, {"tenant": "bob"}) == "bob"

    @pytest.mark.parametrize(
        "bad", ["", ".dot-first", "has space", "x" * 65, 42]
    )
    def test_invalid_names_are_rejected(self, bad):
        with pytest.raises(WireError) as exc:
            parse_tenant(None, {"tenant": bad})
        assert exc.value.field == "tenant"


class TestConfig(object):
    def test_empty_is_the_default_config(self):
        assert parse_config({}) == parse_config({"config": {}})

    def test_knobs_map_to_inference_config(self):
        config = parse_config(
            {
                "config": {
                    "mode": "object",
                    "downcast": "reject",
                    "minimize_pre": False,
                }
            }
        )
        assert config.mode is SubtypingMode.OBJECT
        assert config.downcast is DowncastStrategy.REJECT
        assert config.minimize_pre is False

    @pytest.mark.parametrize(
        "obj",
        [
            {"mode": "bogus"},
            {"downcast": "bogus"},
            {"localize_blocks": "yes"},
            {"unknown_knob": 1},
        ],
    )
    def test_bad_knobs_are_rejected(self, obj):
        with pytest.raises(WireError):
            parse_config({"config": obj})

    def test_non_object_config_is_rejected(self):
        with pytest.raises(WireError):
            parse_config({"config": [1]})


class TestInferRequest(object):
    def test_minimal(self):
        req = InferRequest.from_payload(
            _payload(), tenant_header=None, timeout_cap=30.0
        )
        assert req.tenant == DEFAULT_TENANT
        assert req.timeout == 30.0

    def test_timeout_clamps_to_the_server_cap(self):
        req = InferRequest.from_payload(
            _payload(timeout=9999), tenant_header=None, timeout_cap=30.0
        )
        assert req.timeout == 30.0

    @pytest.mark.parametrize(
        "bad", [0, -1, "fast", True, float("nan"), float("inf")]
    )
    def test_bad_timeouts_are_rejected(self, bad):
        with pytest.raises(WireError) as exc:
            InferRequest.from_payload(
                _payload(timeout=bad), tenant_header=None, timeout_cap=30.0
            )
        assert exc.value.field == "timeout"

    @pytest.mark.parametrize("source", [None, "", "   ", 42])
    def test_bad_sources_are_rejected(self, source):
        with pytest.raises(WireError) as exc:
            InferRequest.from_payload(
                {"source": source}, tenant_header=None, timeout_cap=30.0
            )
        assert exc.value.field == "source"

    def test_oversized_source_is_rejected(self):
        with pytest.raises(WireError):
            InferRequest.from_payload(
                {"source": "x" * (MAX_SOURCE_BYTES + 1)},
                tenant_header=None,
                timeout_cap=30.0,
            )


class TestRunRequest(object):
    def test_defaults(self):
        req = RunRequest.from_payload(
            _payload(), tenant_header=None, timeout_cap=30.0
        )
        assert req.entry == "main"
        assert req.args == ()
        assert req.recursion_limit is None

    def test_full(self):
        req = RunRequest.from_payload(
            _payload(entry="go", args=[1, 2], recursion_limit=1000),
            tenant_header="t1",
            timeout_cap=30.0,
        )
        assert (req.entry, req.args, req.recursion_limit) == ("go", (1, 2), 1000)
        assert req.tenant == "t1"

    @pytest.mark.parametrize(
        "extra",
        [
            {"entry": "not an identifier"},
            {"entry": 7},
            {"args": "1 2"},
            {"args": [1, "2"]},
            {"args": [True]},
            {"recursion_limit": 0},
            {"recursion_limit": True},
            {"recursion_limit": 2**40},
        ],
    )
    def test_bad_fields_are_rejected(self, extra):
        with pytest.raises(WireError):
            RunRequest.from_payload(
                _payload(**extra), tenant_header=None, timeout_cap=30.0
            )


class TestErrorPayload(object):
    def test_shape(self):
        payload = error_payload("overloaded", "busy", retry_after=3)
        assert payload == {
            "ok": False,
            "error": {"code": "overloaded", "message": "busy", "retry_after": 3},
        }

    def test_field_and_json_round_trip(self):
        payload = error_payload("bad_request", "nope", field="source")
        assert payload["error"]["field"] == "source"
        assert json.loads(json.dumps(payload)) == payload
