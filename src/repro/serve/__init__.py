"""repro.serve: a multi-tenant inference service.

The daemon the batch engine grew into: an HTTP+JSON service (stdlib
``http.server``, no new dependencies) with one
:class:`~repro.api.Session` cache per tenant, admission control (bounded
concurrency + bounded queueing, 429 with ``Retry-After`` beyond), one
deadline per request that the engine itself enforces, and graceful
SIGTERM drain.  Every request runs inline in its handler thread.  See
``docs/serving.md`` for the protocol and operational story.

Layering, bottom up:

* :mod:`~repro.serve.wire` — request/response schemas, HTTP-free;
* :mod:`~repro.serve.admission` — the concurrency gate;
* :mod:`~repro.serve.tenancy` — per-tenant sessions;
* :mod:`~repro.serve.router` — endpoints, error mapping, the per-request
  deadline→admission→execute flow (tests drive this directly);
* :mod:`~repro.serve.server` — the ``ThreadingHTTPServer`` skin.
"""

from .admission import AdmissionController, AdmissionRejected, AdmissionTimeout
from .router import Router, ServerConfig
from .server import ReproServer, make_server, serve
from .tenancy import Tenant, TenantRegistry
from .wire import (
    DEFAULT_TENANT,
    InferRequest,
    RunRequest,
    WireError,
)

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionTimeout",
    "DEFAULT_TENANT",
    "InferRequest",
    "ReproServer",
    "Router",
    "RunRequest",
    "ServerConfig",
    "Tenant",
    "TenantRegistry",
    "WireError",
    "make_server",
    "serve",
]
