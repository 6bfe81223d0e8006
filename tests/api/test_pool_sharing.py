"""Shared pools: refcounting, single-item dispatch, event attribution.

The serving daemon attaches many sessions to one ``WorkerPool``; these
tests pin the contracts that makes safe — acquire/close refcounts, the
``run_one`` single-task path with its deadline and fixed width, and
per-session attribution of ``pool.*`` events on a pool the session does
not own.  ``max_workers=2`` is forced so the
pool really spawns workers on a single-core machine.
"""

import time

import pytest

from repro.api import PoolTimeout, Session, WorkerPool
from repro.api.session import SessionStats


def _double(x):
    return x * 2


def _slow_double(x):
    time.sleep(5.0)
    return x * 2


class TestRefcounting(object):
    def test_acquire_close_pairs_keep_the_pool_alive(self):
        pool = WorkerPool(max_workers=2)
        assert pool.refs == 1
        assert pool.acquire() is pool
        assert pool.refs == 2
        pool.close()  # releases one ref; workers stay
        assert pool.refs == 1
        assert not pool.closed
        assert pool.map(_double, [1, 2]) == [2, 4]
        pool.close()
        assert pool.closed

    def test_acquire_after_close_is_refused(self):
        pool = WorkerPool(max_workers=2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.acquire()

    def test_sessions_share_one_pool_and_release_it(self):
        pool = WorkerPool(max_workers=2)
        a = Session(pool=pool)
        b = Session(pool=pool)
        assert pool.refs == 3
        assert a.process_pool() is pool
        assert b.process_pool() is pool
        a.close()
        b.close()
        assert pool.refs == 1
        assert not pool.closed
        pool.close()
        assert pool.closed

    def test_session_close_is_idempotent_on_a_shared_pool(self):
        pool = WorkerPool(max_workers=2)
        session = Session(pool=pool)
        session.close()
        session.close()
        assert pool.refs == 1
        pool.close()


class TestRunOne(object):
    def test_single_task_runs_on_the_pool(self):
        with WorkerPool(max_workers=2) as pool:
            assert pool.run_one(_double, 21) == 42
            assert pool.counters.get("pool.spawns", 0) == 1
            # one task still spawns the pool at its full, fixed width
            assert pool.size == 2
            # a second task reuses the live executor
            assert pool.run_one(_double, 4) == 8
            assert pool.counters.get("pool.spawns", 0) == 1

    def test_deadline_miss_raises_pool_timeout(self):
        with WorkerPool(max_workers=2) as pool:
            pool.run_one(_double, 1)  # warm the pool: spawn cost not billed
            with pytest.raises(PoolTimeout):
                pool.run_one(_slow_double, 1, timeout=0.05)
            assert pool.counters.get("pool.timeouts", 0) == 1

    def test_timeout_abandons_the_wait_not_the_pool(self):
        with WorkerPool(max_workers=2) as pool:
            pool.run_one(_double, 1)
            with pytest.raises(PoolTimeout):
                pool.run_one(_slow_double, 2, timeout=0.05)
            # the pool still serves work afterwards
            assert pool.run_one(_double, 3) == 6


class TestAttribution(object):
    def test_shared_pool_events_land_on_the_caller_session(self):
        pool = WorkerPool(max_workers=2)
        stats = SessionStats()
        try:
            pool.run_one(_double, 1, stats=stats)
            assert stats.events.get("pool.spawns") == 1
            assert pool.counters.get("pool.spawns") == 1
        finally:
            pool.close()

    def test_owned_pool_does_not_double_count(self):
        stats = SessionStats()
        pool = WorkerPool(max_workers=2, stats=stats)
        try:
            # the default sink IS the caller's sink: one increment, not two
            pool.run_one(_double, 1, stats=stats)
            assert stats.events.get("pool.spawns") == 1
        finally:
            pool.close()
