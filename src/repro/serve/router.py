"""Request routing: endpoints, admission, tenancy — no sockets.

:class:`Router` is the whole daemon minus HTTP: it owns the
:class:`~repro.serve.tenancy.TenantRegistry` and the
:class:`~repro.serve.admission.AdmissionController`, and maps ``(method,
path, headers, body)`` to ``(status, payload, headers)``.  The HTTP
server (:mod:`repro.serve.server`) is a thin socket adapter over
:meth:`Router.handle`; tests drive the router directly.

Request lifecycle for the POST endpoints::

    parse wire -> resolve tenant -> open deadline scope
        -> admission.acquire(timeout)
        -> execute inline on the tenant's session
        -> admission.release(latency)

Every request runs in its handler thread under one deadline, the
request's ``timeout`` (capped by ``request_timeout``).  The engine checks
it at its loop boundaries (:mod:`repro.deadline`), so a request whose
time is up stops working, frees its admission slot and answers 504.

Status codes: ``400`` malformed request, ``404``/``405`` routing, ``422``
the *program* failed (parse/type/inference/runtime error — carries
structured diagnostics), ``429`` admission backpressure (with
``Retry-After``) or a full tenant table (without: no retry can succeed),
``503`` the request could not start before its deadline, ``504`` the
request's deadline passed while it ran, ``500`` anything unexpected.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..api import StageFailure
from ..core import InferenceResult
from ..deadline import DeadlineExceeded, deadline
from ..lang.pretty import pretty_target
from ..obs import available_cpus
from .admission import AdmissionController, AdmissionRejected, AdmissionTimeout
from .tenancy import Tenant, TenantRegistry
from .wire import (
    InferRequest,
    RunRequest,
    WireError,
    error_payload,
    parse_json_body,
)

__all__ = ["Router", "ServerConfig", "DEFAULT_TENANT_CACHE_BYTES"]

#: per-tenant cache byte bound unless configured otherwise, counted in the
#: bytes cached results retain: a tenant's cache holds one inference result
#: (and its verdict) per program, about 370 KB at ``sized(10)``, so the
#: default holds about 90 of them
DEFAULT_TENANT_CACHE_BYTES = 32 * 1024 * 1024


@dataclass
class ServerConfig:
    """Everything the daemon is allowed to spend, in one place."""

    host: str = "127.0.0.1"
    port: int = 8178
    #: admission: slots that execute / requests that may wait in line
    max_concurrency: Optional[int] = None
    max_pending: int = 16
    #: server-side cap on any request's deadline (seconds); the deadline
    #: bounds the request's admission wait and its engine work alike
    request_timeout: float = 60.0
    max_tenants: int = 64
    #: per-tenant session cache bounds
    max_cache_entries: Optional[int] = None
    max_cache_bytes: Optional[int] = DEFAULT_TENANT_CACHE_BYTES
    #: largest request body accepted (enforced by the HTTP layer)
    max_body_bytes: int = 2 * 1024 * 1024
    #: idle keep-alive connections are dropped after this long.  This is
    #: what keeps graceful drain bounded: ``server_close`` joins every
    #: handler thread, and a handler parked on an idle keep-alive socket
    #: would hold it up indefinitely
    keepalive_timeout: float = 5.0
    quiet: bool = False

    def resolved_concurrency(self) -> int:
        if self.max_concurrency is not None:
            return self.max_concurrency
        return max(2, available_cpus())


class Router:
    """The daemon's request brain; one per server process."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.registry = TenantRegistry(
            max_tenants=self.config.max_tenants,
            max_cache_entries=self.config.max_cache_entries,
            max_cache_bytes=self.config.max_cache_bytes,
        )
        self.admission = AdmissionController(
            self.config.resolved_concurrency(), self.config.max_pending
        )
        self.started_at = time.time()
        self._counters: Dict[str, int] = {}
        self._counter_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Drain-free teardown: the tenant registry admits no new tenant."""
        if self._closed:
            return
        self._closed = True
        self.registry.close()

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _count(self, kind: str, n: int = 1) -> None:
        with self._counter_lock:
            self._counters[kind] = self._counters.get(kind, 0) + n

    # -- dispatch ----------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        headers: Optional[Dict[str, str]] = None,
        body: bytes = b"",
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """One request in, ``(status, payload, response-headers)`` out."""
        headers = headers or {}
        started = time.monotonic()
        endpoint = f"{method} {path}"
        try:
            status, payload, extra = self._dispatch(method, path, headers, body)
        except WireError as err:
            status, payload, extra = (
                400,
                error_payload("bad_request", str(err), field=err.field),
                {},
            )
        except AdmissionRejected as err:
            status, payload, extra = (
                429,
                error_payload(
                    "overloaded", str(err), retry_after=err.retry_after
                ),
                {"Retry-After": str(err.retry_after)},
            )
        except AdmissionTimeout as err:
            retry = self.admission.retry_after()
            status, payload, extra = (
                503,
                error_payload("queue_timeout", str(err), retry_after=retry),
                {"Retry-After": str(retry)},
            )
        except DeadlineExceeded as err:
            status, payload, extra = (
                504,
                error_payload("deadline_exceeded", str(err)),
                {},
            )
        except StageFailure as err:
            status, payload, extra = (
                422,
                error_payload(
                    "program_error",
                    f"stage {err.stage!r} failed",
                    diagnostics=err.diagnostics,
                ),
                {},
            )
        except Exception as err:  # noqa: BLE001 -- the serving boundary
            status, payload, extra = (
                500,
                error_payload("internal", f"{type(err).__name__}: {err}"),
                {},
            )
        self._count("requests_total")
        self._count(f"endpoint.{endpoint}")
        self._count(f"status.{status}")
        self._observe_latency(time.monotonic() - started)
        return status, payload, extra

    def _observe_latency(self, elapsed: float) -> None:
        # integer-microsecond welford-free accounting: total + count is
        # all the stats endpoint needs for a mean
        with self._counter_lock:
            self._counters["latency_us_total"] = self._counters.get(
                "latency_us_total", 0
            ) + int(elapsed * 1e6)

    def _dispatch(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, self._healthz(), {}
        if path == "/v1/stats":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, self._stats(), {}
        if path in ("/v1/infer", "/v1/check", "/v1/run"):
            if method != "POST":
                return self._method_not_allowed("POST")
            return self._serve_engine(path, headers, body)
        return (
            404,
            error_payload("not_found", f"no route for {path!r}"),
            {},
        )

    @staticmethod
    def _method_not_allowed(
        allowed: str,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        return (
            405,
            error_payload("method_not_allowed", f"use {allowed}"),
            {"Allow": allowed},
        )

    # -- the engine endpoints ----------------------------------------------
    def _serve_engine(
        self, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        payload = parse_json_body(body)
        tenant_header = headers.get("X-Repro-Tenant") or headers.get(
            "x-repro-tenant"
        )
        cap = self.config.request_timeout
        if path == "/v1/run":
            request: Any = RunRequest.from_payload(
                payload, tenant_header=tenant_header, timeout_cap=cap
            )
        else:
            request = InferRequest.from_payload(
                payload, tenant_header=tenant_header, timeout_cap=cap
            )
        try:
            tenant = self.registry.get_or_create(request.tenant)
        except ValueError:
            # tenants are never evicted, so no retry can succeed: a 429
            # without Retry-After
            return (
                429,
                error_payload(
                    "tenant_table_full",
                    f"tenant table full (max_tenants="
                    f"{self.config.max_tenants}); cannot admit new tenant "
                    f"{request.tenant!r}",
                ),
                {},
            )
        with deadline(request.timeout):
            self.admission.acquire(timeout=request.timeout)
            started = time.monotonic()
            try:
                with self._counter_lock:
                    tenant.requests += 1
                if path == "/v1/infer":
                    response = self._infer(tenant, request)
                elif path == "/v1/check":
                    response = self._check(tenant, request)
                else:
                    response = self._run(tenant, request)
                return 200, response, {}
            finally:
                self.admission.release(time.monotonic() - started)

    def _inference(
        self, tenant: Tenant, request: Any, document: Optional[str] = None
    ) -> Tuple[InferenceResult, bool]:
        """The shared infer step: a cached answer or an inline run.

        ``cached`` is this call's own answer; with a ``document`` (the
        incremental fast path) it means the prior was reused.
        """
        session = tenant.session
        if document is None:
            result = session.infer_one(request.source, request.config)
        else:
            result = session.reinfer(
                request.source, request.config, document=document
            )
        return result, session.last_call_cached

    def _infer(self, tenant: Tenant, request: InferRequest) -> Dict[str, Any]:
        result, cached = self._inference(tenant, request, request.document)
        response = {
            "ok": True,
            "tenant": tenant.name,
            "cached": cached,
            "target": pretty_target(result.target),
            "fingerprint": result.fingerprint(),
            "stats": {
                "inference_seconds": result.elapsed,
                "localized_regions": result.total_localized,
            },
            "diagnostics": [],
        }
        if request.document is not None:
            response["document"] = request.document
            response["stats"]["reused_sccs"] = result.reused_sccs
            response["stats"]["reinferred_sccs"] = result.reinferred_sccs
        return response

    def _check(self, tenant: Tenant, request: InferRequest) -> Dict[str, Any]:
        # verify the result the request looked up: one lookup per request
        result, cached = self._inference(tenant, request)
        pipe = tenant.session.pipeline(
            request.source, request.config, inferred=result
        )
        stage = pipe.verify()
        report = stage.value
        return {
            "ok": True,
            "tenant": tenant.name,
            "cached": cached,
            "verified": report.ok,
            "obligations": report.obligations,
            "diagnostics": [d.to_dict() for d in stage.diagnostics],
        }

    def _run(self, tenant: Tenant, request: RunRequest) -> Dict[str, Any]:
        result, cached = self._inference(tenant, request)
        pipe = tenant.session.pipeline(
            request.source, request.config, inferred=result
        )
        execution = pipe.execute(
            request.entry, request.args, recursion_limit=request.recursion_limit
        ).unwrap()
        return {
            "ok": True,
            "tenant": tenant.name,
            "cached": cached,
            **execution.to_dict(),
            "diagnostics": [],
        }

    # -- the read-only endpoints -------------------------------------------
    def _healthz(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }

    def _stats(self) -> Dict[str, Any]:
        with self._counter_lock:
            counters = dict(self._counters)
        tenants = {}
        for name, tenant in sorted(self.registry.tenants().items()):
            tenants[name] = {
                "requests": tenant.requests,
                "cache_size": tenant.session.cache_size,
                "cache_bytes": tenant.session.cache_bytes,
                "stats": tenant.session.stats.as_dict(),
            }
        return {
            "ok": True,
            "server": {
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "counters": counters,
            },
            "admission": self.admission.snapshot(),
            "tenants": tenants,
        }
