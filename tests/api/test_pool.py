"""The persistent worker pool: reuse, crash recovery, lifecycle.

``WorkerPool`` is exercised both directly (with small module-level tasks —
including one that SIGKILLs its own worker mid-batch) and through the
session entry points that own one.  ``max_workers=2`` is forced throughout
so the pool actually spawns workers even on a single-core machine.

The kill tasks rely on the ``fork`` start method (the platform default on
Linux, and what the rest of the process-backend suite already assumes):
forked workers inherit this module in ``sys.modules``, so the tasks
unpickle without the tests package being importable.
"""

import os
import signal
import time

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.api import (
    DEFAULT_WORKER_CACHE_ENTRIES,
    Session,
    WorkerPool,
)
from repro.bench.olden import OLDEN_PROGRAMS
from repro.lang.pretty import pretty_target

OLDEN_SOURCES = [program.source for program in OLDEN_PROGRAMS.values()]


# -- module-level tasks (must pickle by qualified name) ----------------------


def _double(x):
    return x * 2


def _slow_double(x):
    time.sleep(0.15)
    return x * 2


def _worker_pid(_):
    return os.getpid()


def _boom(x):
    raise ValueError(f"boom {x}")


def _kill_once(payload):
    """Doubles ``value``; the first task to see an absent ``sentinel`` file
    creates it and SIGKILLs its own worker process — the retry (sentinel
    now present) computes normally."""
    value, sentinel = payload
    if sentinel is not None and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _kill_always(payload):
    os.kill(os.getpid(), signal.SIGKILL)


def _worker_cache_bound(_):
    from repro.api.pool import worker_session

    return worker_session().max_cache_entries


class TestWorkerPoolMap(object):
    def test_ordered_results_and_single_spawn_across_batches(self):
        with WorkerPool() as pool:
            assert not pool.alive
            first = pool.map(_double, [1, 2, 3], max_workers=2)
            assert first == [2, 4, 6]
            assert pool.alive and pool.size == 2
            second = pool.map(_double, [10, 20], max_workers=2)
            assert second == [20, 40]
            # the whole point: one executor for the pool's lifetime
            assert pool.counters["pool.spawns"] == 1

    def test_workers_are_literally_reused(self):
        with WorkerPool() as pool:
            a = set(pool.map(_worker_pid, range(8), max_workers=2))
            b = set(pool.map(_worker_pid, range(8), max_workers=2))
            # same executor, same worker processes, for both batches (one
            # worker may serve a whole batch, so compare against the
            # executor's process table rather than the two pid sets)
            workers = set(pool._executor._processes)
            assert a <= workers and b <= workers
            assert pool.counters["pool.spawns"] == 1

    def test_empty_batch_never_spawns(self):
        with WorkerPool() as pool:
            assert pool.map(_double, []) == []
            assert not pool.alive and pool.counters == {}

    def test_degenerate_batch_runs_inline(self):
        with WorkerPool() as pool:
            assert pool.map(_double, [21], max_workers=2) == [42]
            assert not pool.alive and pool.counters == {}
            assert pool.map(_double, [1, 2, 3], max_workers=1) == [2, 4, 6]
            assert not pool.alive

    def test_live_pool_serves_single_items(self):
        with WorkerPool() as pool:
            pool.map(_double, [1, 2], max_workers=2)
            # once spawned, even a one-item batch goes to the warm workers
            assert pool.map(_worker_pid, [0], max_workers=2) != [os.getpid()]
            assert pool.counters["pool.spawns"] == 1

    def test_task_failures_keep_the_map_ordered_contract(self):
        with WorkerPool() as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.map(_boom, [1, 2], max_workers=2)
            # a genuine task failure is not a crash: no respawn, pool alive
            assert "pool.respawns" not in pool.counters
            assert pool.alive
            assert pool.map(_double, [5, 6], max_workers=2) == [10, 12]

    def test_concurrent_batches_share_one_executor(self):
        # batches from different threads overlap on the shared executor
        # (a serving workload) instead of serialising or spawning pools
        import threading

        with WorkerPool() as pool:
            pool.map(_double, [0, 1], max_workers=2)
            results = {}

            def go(key, base):
                results[key] = pool.map(
                    _double, [base + i for i in range(6)], max_workers=2
                )

            threads = [
                threading.Thread(target=go, args=("a", 0)),
                threading.Thread(target=go, args=("b", 100)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results["a"] == [2 * i for i in range(6)]
            assert results["b"] == [2 * (100 + i) for i in range(6)]
            assert pool.counters["pool.spawns"] == 1

    def test_unpinned_pools_size_to_the_machine_not_the_batch(self, monkeypatch):
        import repro.api.pool as pool_module

        monkeypatch.setattr(
            pool_module.os,
            "sched_getaffinity",
            lambda pid: set(range(4)),
            raising=False,
        )
        with WorkerPool() as pool:
            assert pool.map(_double, [1, 2]) == [2, 4]
            assert pool.size == 4  # machine width, not batch width
            # a larger batch reuses the same executor at the same width
            assert pool.map(_double, list(range(6))) == [0, 2, 4, 6, 8, 10]
            assert pool.counters["pool.spawns"] == 1
            assert pool.size == 4

    def test_inline_degenerate_path_worker_session_is_bounded(
        self, monkeypatch
    ):
        import repro.api.pool as pool_module

        monkeypatch.setattr(pool_module, "_WORKER_SESSION", None)
        with WorkerPool(max_cache_entries=5) as pool:
            # single item, no live executor: runs inline on the shared
            # parent-side worker session, which carries the module-default
            # bound (a pool-specific bound is deliberately not installed —
            # the session is process-wide, so the first pool's would win
            # for every later one)
            bound = pool.map(_worker_cache_bound, [0], max_workers=2)
            assert bound == [DEFAULT_WORKER_CACHE_ENTRIES]
            assert not pool.alive

    def test_larger_width_request_reuses_the_live_executor(self):
        # the width is fixed at spawn: a later, larger request neither
        # resizes nor respawns the executor
        with WorkerPool() as pool:
            pool.map(_double, [0, 1], max_workers=2)
            assert pool.map(_double, [5, 6, 7], max_workers=4) == [10, 12, 14]
            assert pool.counters["pool.spawns"] == 1
            assert pool.size == 2


class TestCrashRecovery(object):
    def test_killed_worker_respawns_and_batch_completes(self, tmp_path):
        sentinel = str(tmp_path / "killed-once")
        items = [(i, None) for i in range(4)] + [(9, sentinel), (5, None)]
        with WorkerPool() as pool:
            results = pool.map(_kill_once, items, max_workers=2)
            assert results == [0, 2, 4, 6, 18, 10]
            assert pool.counters["pool.respawns"] == 1
            assert pool.counters["pool.retried_items"] >= 1
            # the pool stays serviceable after recovery
            assert pool.map(_double, [7], max_workers=2) == [14]

    def test_second_break_propagates(self):
        with WorkerPool() as pool:
            pool.map(_double, [1, 2], max_workers=2)  # bring the pool up
            with pytest.raises(BrokenProcessPool):
                pool.map(_kill_always, [(1, None)], max_workers=2)
            assert pool.counters["pool.respawns"] == 1
            # a crash loop is reported, not retried forever -- but the
            # pool itself recovers for the next batch
            assert pool.map(_double, [3], max_workers=2) == [6]

    def test_killed_idle_workers_recover_on_the_next_batch(self):
        with WorkerPool() as pool:
            pids = set(pool.map(_worker_pid, range(8), max_workers=2))
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.2)  # let the executor notice its dead children
            assert pool.map(_double, [1, 2, 3, 4], max_workers=2) == [2, 4, 6, 8]
            assert pool.counters["pool.respawns"] == 1


class TestLifecycle(object):
    def test_close_is_idempotent_and_final(self):
        pool = WorkerPool()
        pool.map(_double, [1, 2], max_workers=2)
        pool.close()
        pool.close()
        assert pool.closed and not pool.alive
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_double, [1, 2], max_workers=2)

    def test_close_drains_in_flight_batches(self):
        # tearing the executor down under a running batch can abandon its
        # futures unresolved; close() must wait for it instead
        import threading

        pool = WorkerPool()
        pool.map(_double, [1, 2], max_workers=2)
        out = {}

        def batch():
            out["results"] = pool.map(
                _slow_double, list(range(6)), max_workers=2
            )

        t = threading.Thread(target=batch)
        t.start()
        time.sleep(0.2)  # land mid-batch
        pool.close()  # returns only after the batch drained
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert out["results"] == [0, 2, 4, 6, 8, 10]
        assert pool.closed and not pool.alive

    def test_workers_get_a_bounded_session_cache(self):
        with WorkerPool() as pool:
            bounds = pool.map(_worker_cache_bound, [0, 1, 2, 3], max_workers=2)
            assert set(bounds) == {DEFAULT_WORKER_CACHE_ENTRIES}
        with WorkerPool(max_cache_entries=7) as pool:
            bounds = pool.map(_worker_cache_bound, [0, 1], max_workers=2)
            assert set(bounds) == {7}


class TestSessionOwnedPool(object):
    def test_one_pool_across_consecutive_infer_many_calls(self):
        with Session() as session:
            half = len(OLDEN_SOURCES) // 2
            session.infer_many(
                OLDEN_SOURCES[:half], backend="process", max_workers=2
            )
            session.infer_many(
                OLDEN_SOURCES[half:], backend="process", max_workers=2
            )
            assert session.stats.event_count("pool.spawns") == 1
            assert session.stats.event_count("pool.respawns") == 0

    def test_persistent_pool_matches_fresh_pool_byte_for_byte(self):
        # differential: a pool reused across two batches must return the
        # same renumbered targets as a fresh session (and fresh pool)
        with Session() as warm:
            first = warm.infer_many(
                OLDEN_SOURCES, backend="process", max_workers=2
            )
            warm.clear_cache()  # force re-inference through the warm pool
            second = warm.infer_many(
                OLDEN_SOURCES, backend="process", max_workers=2
            )
            assert warm.stats.event_count("pool.spawns") == 1
        with Session() as fresh:
            baseline = fresh.infer_many(
                OLDEN_SOURCES, backend="process", max_workers=2
            )
        for a, b, c in zip(first, second, baseline):
            assert pretty_target(a.target) == pretty_target(b.target)
            assert pretty_target(a.target) == pretty_target(c.target)

    def test_repeat_batch_reuses_the_pool_and_matches_threads(self):
        # the ``pool_reuse`` family's persistent side: two batches, one
        # pool, no respawn, and the thread backend's answers
        thread = Session().infer_many(OLDEN_SOURCES, max_workers=2)
        with Session() as session:
            first = session.infer_many(
                OLDEN_SOURCES, backend="process", max_workers=2
            )
            session.clear_cache()
            second = session.infer_many(
                OLDEN_SOURCES, backend="process", max_workers=2
            )
            assert session.stats.event_count("pool.spawns") == 1
            assert session.stats.event_count("pool.respawns") == 0
        for f, s, t in zip(first, second, thread):
            assert pretty_target(f.target) == pretty_target(s.target)
            assert pretty_target(f.target) == pretty_target(t.target)

    def test_batch_survives_killed_workers_identically_to_threads(self):
        # kill every pool worker between two batches: the next batch must
        # respawn, retry, and return results identical to the thread
        # backend's
        thread = Session().infer_many(OLDEN_SOURCES, max_workers=2)
        with Session() as session:
            session.infer_many(OLDEN_SOURCES[:2], backend="process", max_workers=2)
            executor = session.process_pool()._executor
            for pid in list(executor._processes):
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.2)
            session.clear_cache()
            results = session.infer_many(
                OLDEN_SOURCES, backend="process", max_workers=2
            )
            assert session.stats.event_count("pool.respawns") == 1
            for r, t in zip(results, thread):
                assert pretty_target(r.target) == pretty_target(t.target)

    def test_single_items_ride_the_warm_pool(self):
        # degenerate batches only run inline while no pool is alive; once
        # workers are warm, even a one-source batch ships to them
        with Session() as session:
            session.infer_many(
                OLDEN_SOURCES[:2], backend="process", max_workers=2
            )
            before = session.stats.miss_count("worker.infer")
            session.infer_many(
                [OLDEN_SOURCES[2]], backend="process", max_workers=2
            )
            assert session.stats.miss_count("worker.infer") == before + 1
            assert session.stats.event_count("pool.spawns") == 1

    def test_close_releases_and_next_batch_respawns(self):
        session = Session()
        session.infer_many(OLDEN_SOURCES[:2], backend="process", max_workers=2)
        pool = session.process_pool()
        session.close()
        assert pool.closed
        # the session stays usable: stats and cache survive, and a new
        # batch brings up a new pool
        session.clear_cache()
        session.infer_many(OLDEN_SOURCES[:2], backend="process", max_workers=2)
        assert session.stats.event_count("pool.spawns") == 2
        session.close()

    def test_context_manager_closes_the_pool(self):
        with Session() as session:
            session.infer_many(OLDEN_SOURCES[:2], backend="process", max_workers=2)
            pool = session.process_pool()
            assert pool.alive
        assert pool.closed

    def test_close_without_pool_is_a_noop(self):
        session = Session()
        session.close()  # nothing spawned: nothing to do, no error
        assert session.stats.event_count("pool.spawns") == 0
