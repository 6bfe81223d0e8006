"""Per-tenant sessions: one cache and one set of counters per tenant.

Each tenant the daemon sees gets its own :class:`~repro.api.Session` —
its own artifact cache (bounded per tenant, so one tenant's traffic can
never evict another's entries) and its own :class:`SessionStats`.

Every request runs inline in its handler thread, so every region is
minted in this one process from the global uid counter
(``Region._counter``, an :func:`itertools.count` whose ``next()`` is
atomic under the GIL).  Uids are therefore unique across threads and
tenants with no lock and no per-tenant counter: cached artifacts from
different tenants are disjoint by construction.  Within one inference
the uids still grow monotonically, so tie-breaks are unchanged, and the
gaps other threads leave are invisible in the renumbered output.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..api import Session
from ..core import InferenceConfig

__all__ = ["Tenant", "TenantRegistry"]


@dataclass
class Tenant:
    """One tenant's slice of the daemon: its session and counters."""

    name: str
    session: Session
    created_at: float = field(default_factory=time.time)
    requests: int = 0


class TenantRegistry:
    """The daemon's tenant table: create-on-first-sight, bounded, closable.

    ``max_tenants`` bounds the table — tenants are sessions with caches,
    so an unbounded table is an unbounded memory obligation keyed by a
    client-controlled string.  Per-tenant session bounds
    (``max_cache_entries``, ``max_cache_bytes``) are applied to every
    session the registry creates.
    """

    def __init__(
        self,
        *,
        config: Optional[InferenceConfig] = None,
        max_tenants: int = 64,
        max_cache_entries: Optional[int] = None,
        max_cache_bytes: Optional[int] = None,
    ):
        if max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {max_tenants}")
        self._config = config
        self._max_tenants = max_tenants
        self._max_cache_entries = max_cache_entries
        self._max_cache_bytes = max_cache_bytes
        self._tenants: Dict[str, Tenant] = {}
        self._lock = threading.Lock()
        self._closed = False

    def get_or_create(self, name: str) -> Tenant:
        """The tenant named ``name``, created on first sight.

        Raises :class:`RuntimeError` when the registry is closed and
        :class:`ValueError` when the tenant table is full (the router
        maps that to a 429 — tenant slots are a resource like any other).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("TenantRegistry is closed")
            tenant = self._tenants.get(name)
            if tenant is None:
                if len(self._tenants) >= self._max_tenants:
                    raise ValueError(
                        f"tenant table full ({self._max_tenants}); "
                        f"cannot admit new tenant {name!r}"
                    )
                tenant = Tenant(
                    name=name,
                    session=Session(
                        self._config,
                        max_cache_entries=self._max_cache_entries,
                        max_cache_bytes=self._max_cache_bytes,
                    ),
                )
                self._tenants[name] = tenant
            return tenant

    def get(self, name: str) -> Optional[Tenant]:
        with self._lock:
            return self._tenants.get(name)

    def tenants(self) -> Dict[str, Tenant]:
        """A snapshot of the tenant table (name -> Tenant)."""
        with self._lock:
            return dict(self._tenants)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def close(self) -> None:
        """Refuse new tenants from now on.  Idempotent."""
        with self._lock:
            self._closed = True

    def __enter__(self) -> "TenantRegistry":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
