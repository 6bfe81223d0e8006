"""repro.serve: a multi-tenant inference service on one shared worker pool.

The daemon the batch engine grew into: an HTTP+JSON service (stdlib
``http.server``, no new dependencies) multiplexing per-tenant
:class:`~repro.api.Session` caches over a single refcounted
:class:`~repro.api.pool.WorkerPool` of fixed width, with admission
control (bounded concurrency + bounded queueing, 429 with
``Retry-After`` beyond), per-request deadlines and graceful SIGTERM
drain.  See ``docs/serving.md`` for the protocol and
operational story.

Layering, bottom up:

* :mod:`~repro.serve.wire` — request/response schemas, HTTP-free;
* :mod:`~repro.serve.admission` — the concurrency gate;
* :mod:`~repro.serve.tenancy` — per-tenant sessions + uid bands over the
  shared pool;
* :mod:`~repro.serve.router` — endpoints, error mapping, the per-request
  admission→execute flow (tests drive this directly);
* :mod:`~repro.serve.server` — the ``ThreadingHTTPServer`` skin;
* :mod:`~repro.serve.loadgen` — closed-loop concurrency sweeps emitting
  PKB-style samples (the ``serve_loadgen`` benchmark family).
"""

from .admission import AdmissionController, AdmissionRejected, AdmissionTimeout
from .loadgen import LoadgenConfig, run_loadgen
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
    "LoadgenConfig",
    "ReproServer",
    "Router",
    "RunRequest",
    "ServerConfig",
    "Tenant",
    "TenantRegistry",
    "WireError",
    "make_server",
    "run_loadgen",
    "serve",
]
