"""Tenant isolation in one process.

Two tenants get (1) disjoint artifact caches, (2) disjoint region uids —
every region is minted from the one process-wide counter, so no two
inferences share a uid — and (3) eviction isolation: filling tenant A's
cache never evicts tenant B's entries.
"""

import sys
import threading

import pytest

from repro.regions.constraints import Region
from repro.serve.tenancy import TenantRegistry
from tests.conftest import LIST_SOURCE, PAIR_SOURCE


def _variable_region_uids(result):
    """The uids of every variable region in a result's target program
    (``heap``/``rnull`` are process-global constants, minted by nobody)."""
    uids = set()
    for c in result.target.classes:
        uids.update(r.uid for r in c.regions if not (r.is_heap or r.is_null))
    for m in result.target.all_methods():
        uids.update(
            r.uid for r in m.region_params if not (r.is_heap or r.is_null)
        )
    return uids


@pytest.fixture()
def registry():
    with TenantRegistry() as reg:
        yield reg


class TestRegistry(object):
    def test_create_on_first_sight_then_stable(self, registry):
        a = registry.get_or_create("alice")
        assert registry.get_or_create("alice") is a
        assert registry.get("alice") is a
        assert registry.get("nobody") is None
        assert len(registry) == 1

    def test_table_bound_refuses_new_tenants(self):
        with TenantRegistry(max_tenants=1) as reg:
            reg.get_or_create("alice")
            reg.get_or_create("alice")  # existing: fine
            with pytest.raises(ValueError):
                reg.get_or_create("bob")

    def test_close_releases_every_session_ref(self):
        reg = TenantRegistry()
        for name in ("alice", "bob"):
            reg.get_or_create(name)
        reg.close()
        reg.close()  # idempotent
        with pytest.raises(RuntimeError):
            reg.get_or_create("carol")


class TestIsolation(object):
    def test_disjoint_artifact_caches(self, registry):
        alice = registry.get_or_create("alice")
        bob = registry.get_or_create("bob")
        alice.session.infer(PAIR_SOURCE)
        assert alice.session.cache_size > 0
        assert bob.session.cache_size == 0

    def test_disjoint_region_uids(self, registry):
        alice = registry.get_or_create("alice")
        bob = registry.get_or_create("bob")
        a_uids = _variable_region_uids(alice.session.infer(PAIR_SOURCE))
        b_uids = _variable_region_uids(bob.session.infer(PAIR_SOURCE))
        assert a_uids and b_uids
        assert not (a_uids & b_uids)

    def test_eviction_isolation(self):
        # A's cache is one entry wide: inferring two programs as A evicts
        # A's own artifacts repeatedly, and must leave B's cache alone
        with TenantRegistry(max_cache_entries=1) as reg:
            alice = reg.get_or_create("alice")
            bob = reg.get_or_create("bob")
            bob.session.infer(PAIR_SOURCE)
            bob_size = bob.session.cache_size
            bob_evictions = dict(bob.session.stats.evictions)
            alice.session.infer(PAIR_SOURCE)
            alice.session.infer(LIST_SOURCE)
            assert sum(alice.session.stats.evictions.values()) > 0
            assert bob.session.cache_size == bob_size
            assert dict(bob.session.stats.evictions) == bob_evictions

    def test_concurrent_minting_never_repeats_a_uid(self):
        # every thread mints from the one global counter with no lock;
        # a lost update would hand two regions the same uid
        minted = [[] for _ in range(8)]

        def mint(out):
            out.extend(Region.fresh().uid for _ in range(20_000))

        threads = [threading.Thread(target=mint, args=(m,)) for m in minted]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        uids = [uid for out in minted for uid in out]
        assert len(uids) == 8 * 20_000
        assert len(set(uids)) == len(uids)
        for out in minted:
            assert out == sorted(out)  # monotonic within each thread
