"""Wire schemas for the :mod:`repro.serve` HTTP+JSON protocol.

Everything that crosses the HTTP boundary is defined here, HTTP-free:
request dataclasses with validating ``from_payload`` constructors, the
response payload builders, and :class:`WireError` — the one exception the
router turns into a ``400``.  Keeping the schema separate from the socket
handling means the router (and its tests) never touch a socket, and the
wire contract is greppable in one place.

The protocol (see ``docs/serving.md`` for the full reference):

* requests are JSON objects; the tenant comes from the ``X-Repro-Tenant``
  header or the ``tenant`` field (header wins), defaulting to
  :data:`DEFAULT_TENANT`;
* inference knobs travel in an optional ``config`` object whose keys
  mirror :class:`~repro.core.InferenceConfig` (``mode``, ``downcast``,
  ``localize_blocks``, ``polymorphic_recursion``, ``minimize_pre``,
  ``null_fictitious_regions``);
* responses always carry ``ok`` plus either the endpoint's result fields
  or an ``error`` object ``{"code", "message"}`` (program-level failures
  additionally carry structured ``diagnostics``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core import DowncastStrategy, InferenceConfig, SubtypingMode
from ..runtime.interp import DEFAULT_RECURSION_LIMIT

__all__ = [
    "DEFAULT_TENANT",
    "MAX_SOURCE_BYTES",
    "WireError",
    "InferRequest",
    "RunRequest",
    "parse_json_body",
    "parse_config",
    "parse_tenant",
    "error_payload",
]

#: tenant used when a request names none — anonymous traffic shares one
#: session (and therefore one cache and one stats line) under this name
DEFAULT_TENANT = "default"

#: largest program source accepted over the wire; inference is
#: super-linear in source size, so unbounded sources are a trivial DoS
MAX_SOURCE_BYTES = 512 * 1024

#: tenant names are path/log/metric-safe identifiers
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: logical document names (editor buffers, file paths) for the
#: incremental fast path; slashes allowed, still log/metric-safe
_DOCUMENT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._/-]{0,127}$")

_CONFIG_BOOL_KEYS = (
    "localize_blocks",
    "polymorphic_recursion",
    "minimize_pre",
    "null_fictitious_regions",
)


class WireError(Exception):
    """A malformed request — becomes an HTTP 400.

    ``field`` names the offending request field when one is identifiable
    (surfaced in the error payload so clients can fix the right knob).
    """

    def __init__(self, message: str, *, field: Optional[str] = None):
        self.field = field
        super().__init__(message)


def parse_json_body(raw: bytes) -> Dict[str, Any]:
    """Decode a request body into a JSON object (not any JSON value)."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise WireError(f"request body is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise WireError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def parse_tenant(
    header: Optional[str], payload: Dict[str, Any]
) -> str:
    """The request's tenant: ``X-Repro-Tenant`` header, else field, else default."""
    tenant = header if header is not None else payload.get("tenant")
    if tenant is None:
        return DEFAULT_TENANT
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise WireError(
            "tenant must match [A-Za-z0-9][A-Za-z0-9._-]{0,63}",
            field="tenant",
        )
    return tenant


def parse_config(payload: Dict[str, Any]) -> InferenceConfig:
    """The request's ``config`` object as an :class:`InferenceConfig`."""
    obj = payload.get("config")
    if obj is None:
        return InferenceConfig()
    if not isinstance(obj, dict):
        raise WireError("config must be a JSON object", field="config")
    kwargs: Dict[str, Any] = {}
    for key, value in obj.items():
        if key == "mode":
            try:
                kwargs["mode"] = SubtypingMode(value)
            except ValueError as err:
                raise WireError(
                    f"unknown mode {value!r}; expected one of "
                    f"{[m.value for m in SubtypingMode]}",
                    field="config.mode",
                ) from err
        elif key == "downcast":
            try:
                kwargs["downcast"] = DowncastStrategy(value)
            except ValueError as err:
                raise WireError(
                    f"unknown downcast {value!r}; expected one of "
                    f"{[s.value for s in DowncastStrategy]}",
                    field="config.downcast",
                ) from err
        elif key in _CONFIG_BOOL_KEYS:
            if not isinstance(value, bool):
                raise WireError(
                    f"config.{key} must be a boolean", field=f"config.{key}"
                )
            kwargs[key] = value
        else:
            raise WireError(
                f"unknown config key {key!r}; expected mode, downcast or one "
                f"of {list(_CONFIG_BOOL_KEYS)}",
                field="config",
            )
    return InferenceConfig(**kwargs)


def _parse_source(payload: Dict[str, Any]) -> str:
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise WireError(
            "source must be a non-empty string of Core-Java", field="source"
        )
    if len(source.encode("utf-8")) > MAX_SOURCE_BYTES:
        raise WireError(
            f"source exceeds {MAX_SOURCE_BYTES} bytes", field="source"
        )
    return source


def _parse_document(payload: Dict[str, Any]) -> Optional[str]:
    """The optional logical-document name enabling incremental re-inference."""
    document = payload.get("document")
    if document is None:
        return None
    if not isinstance(document, str) or not _DOCUMENT_RE.match(document):
        raise WireError(
            "document must match [A-Za-z0-9][A-Za-z0-9._/-]{0,127}",
            field="document",
        )
    return document


def _parse_timeout(payload: Dict[str, Any], cap: float) -> float:
    """Per-request deadline: ``timeout`` field, clamped to the server cap."""
    timeout = payload.get("timeout")
    if timeout is None:
        return cap
    if not isinstance(timeout, (int, float)) or isinstance(timeout, bool):
        raise WireError("timeout must be a number of seconds", field="timeout")
    # json.loads accepts NaN and Infinity; neither is a deadline
    if not math.isfinite(timeout) or timeout <= 0:
        raise WireError(
            "timeout must be a positive finite number", field="timeout"
        )
    return min(float(timeout), cap)


@dataclass(frozen=True)
class InferRequest:
    """``POST /v1/infer`` and ``POST /v1/check``: one program, one config.

    ``document`` (optional) names a logical document the tenant edits and
    resubmits: with it set, ``/v1/infer`` takes the incremental fast path
    (:meth:`Session.reinfer <repro.api.Session.reinfer>`) — only the
    method SCCs dirtied since the document's last submission re-run their
    fixed points.
    """

    source: str
    config: InferenceConfig
    tenant: str
    timeout: float
    document: Optional[str] = None

    @staticmethod
    def from_payload(
        payload: Dict[str, Any],
        *,
        tenant_header: Optional[str],
        timeout_cap: float,
    ) -> "InferRequest":
        return InferRequest(
            source=_parse_source(payload),
            config=parse_config(payload),
            tenant=parse_tenant(tenant_header, payload),
            timeout=_parse_timeout(payload, timeout_cap),
            document=_parse_document(payload),
        )


@dataclass(frozen=True)
class RunRequest:
    """``POST /v1/run``: infer, then execute an entry point."""

    source: str
    config: InferenceConfig
    tenant: str
    timeout: float
    entry: str = "main"
    args: Tuple[int, ...] = ()
    recursion_limit: Optional[int] = None

    @staticmethod
    def from_payload(
        payload: Dict[str, Any],
        *,
        tenant_header: Optional[str],
        timeout_cap: float,
    ) -> "RunRequest":
        entry = payload.get("entry", "main")
        if not isinstance(entry, str) or not entry.isidentifier():
            raise WireError("entry must be a method name", field="entry")
        args = payload.get("args", [])
        if not isinstance(args, list) or not all(
            isinstance(a, int) and not isinstance(a, bool) for a in args
        ):
            raise WireError("args must be a list of integers", field="args")
        limit = payload.get("recursion_limit")
        if limit is not None and (
            not isinstance(limit, int)
            or isinstance(limit, bool)
            or not 1 <= limit <= DEFAULT_RECURSION_LIMIT
        ):
            raise WireError(
                "recursion_limit must be an integer in "
                f"[1, {DEFAULT_RECURSION_LIMIT}]",
                field="recursion_limit",
            )
        return RunRequest(
            source=_parse_source(payload),
            config=parse_config(payload),
            tenant=parse_tenant(tenant_header, payload),
            timeout=_parse_timeout(payload, timeout_cap),
            entry=entry,
            args=tuple(args),
            recursion_limit=limit,
        )


def error_payload(
    code: str,
    message: str,
    *,
    field: Optional[str] = None,
    diagnostics: Optional[Sequence[Any]] = None,
    retry_after: Optional[int] = None,
) -> Dict[str, Any]:
    """The uniform error body: ``{"ok": false, "error": {...}}``."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if field is not None:
        error["field"] = field
    if retry_after is not None:
        error["retry_after"] = retry_after
    payload: Dict[str, Any] = {"ok": False, "error": error}
    if diagnostics is not None:
        payload["diagnostics"] = [d.to_dict() for d in diagnostics]
    return payload
