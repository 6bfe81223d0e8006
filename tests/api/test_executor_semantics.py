"""The worker-pool contract: ordering, failure semantics, sizing.

``map_ordered`` and ``WorkerPool.map`` share one documented contract:
results in input order; on failure, not-yet-started items are cancelled,
running items drain, and the exception that propagates is the one from the
earliest item in *input* order among the failures that occurred.
"""

import threading
import time

import pytest

from repro.api.pool import WorkerPool, check_backend, default_workers, map_ordered


def _process_square(x):
    return x * x


def _process_fail_on_negative(x):
    if x < 0:
        raise ValueError(f"bad item {x}")
    return x


def _process_fail_slow_first(x):
    """Item 0 fails late, item 1 fails at once, the rest succeed."""
    if x == 0:
        time.sleep(0.2)
        raise ValueError("slow early failure")
    if x == 1:
        raise KeyError("fast late failure")
    return x


class TestMapOrdered(object):
    def test_preserves_input_order(self):
        out = map_ordered(lambda x: x * 10, range(20), max_workers=4)
        assert out == [x * 10 for x in range(20)]

    def test_inline_paths(self):
        assert map_ordered(lambda x: x + 1, [], max_workers=4) == []
        assert map_ordered(lambda x: x + 1, [41], max_workers=4) == [42]
        assert map_ordered(lambda x: x + 1, [1, 2], max_workers=1) == [2, 3]

    def test_earliest_input_order_failure_wins(self):
        # item 0 fails *slowly*, item 5 fails immediately: the exception
        # that propagates must still be item 0's, deterministically
        def fn(i):
            if i == 0:
                time.sleep(0.2)
                raise ValueError("slow early failure")
            if i == 5:
                raise KeyError("fast late failure")
            return i

        with pytest.raises(ValueError, match="slow early failure"):
            map_ordered(fn, range(8), max_workers=4)

    def test_failure_cancels_not_yet_started_items(self):
        started = []
        lock = threading.Lock()

        def fn(i):
            with lock:
                started.append(i)
            if i == 0:
                raise ValueError("stop the batch")
            time.sleep(0.05)
            return i

        with pytest.raises(ValueError):
            map_ordered(fn, range(64), max_workers=2)
        # the failure cancelled the long tail before it could start
        assert len(started) < 64

    def test_running_items_drain_to_completion(self):
        started = []
        finished = []
        lock = threading.Lock()

        def fn(i):
            if i == 0:
                # fail only once the other items are demonstrably running,
                # so draining (not cancellation) is what the test observes
                # regardless of thread-startup timing under load
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    with lock:
                        if len(started) == 2:
                            break
                    time.sleep(0.005)
                raise ValueError("failure after others started")
            with lock:
                started.append(i)
            time.sleep(0.05)
            with lock:
                finished.append(i)
            return i

        with pytest.raises(ValueError):
            map_ordered(fn, [0, 1, 2], max_workers=4)
        # items 1 and 2 had started before the failure; both drained
        assert sorted(finished) == [1, 2]


class TestMapOrderedProcess(object):
    """The same contract on worker processes (:meth:`WorkerPool.map`)."""

    def test_preserves_input_order(self):
        with WorkerPool() as pool:
            out = pool.map(_process_square, range(10), max_workers=2)
        assert out == [x * x for x in range(10)]

    def test_exception_crosses_the_process_boundary(self):
        with WorkerPool() as pool:
            with pytest.raises(ValueError, match="bad item -1"):
                pool.map(_process_fail_on_negative, [3, -1, 4], max_workers=2)

    def test_earliest_input_order_failure_wins(self):
        # item 0 fails after item 1 did: the exception that propagates is
        # still item 0's, deterministically
        with WorkerPool() as pool:
            with pytest.raises(ValueError, match="slow early failure"):
                pool.map(_process_fail_slow_first, range(4), max_workers=2)

    def test_inline_path_runs_in_this_process(self):
        with WorkerPool() as pool:
            assert pool.map(_process_square, [6], max_workers=2) == [36]
            assert pool.map(_process_square, [2, 3], max_workers=1) == [4, 9]
            assert not pool.alive


class TestDefaultWorkers(object):
    def test_thread_cap_is_gil_bound(self, monkeypatch):
        import repro.api.pool as pool

        monkeypatch.setattr(
            pool.os, "sched_getaffinity", lambda pid: set(range(64)),
            raising=False,
        )
        assert default_workers(100) == 8
        assert default_workers(100, backend="thread") == 8

    def test_process_cap_scales_with_cores(self, monkeypatch):
        import repro.api.pool as pool

        monkeypatch.setattr(
            pool.os, "sched_getaffinity", lambda pid: set(range(64)),
            raising=False,
        )
        assert default_workers(100, backend="process") == 64
        assert default_workers(3, backend="process") == 3

    def test_bounded_by_the_workload_and_never_zero(self, monkeypatch):
        import repro.api.pool as pool

        monkeypatch.setattr(
            pool.os, "sched_getaffinity", lambda pid: set(range(4)),
            raising=False,
        )
        assert default_workers(2) == 2
        assert default_workers(0) == 1
        assert default_workers(0, backend="process") == 1


class TestResolveBackend(object):
    def test_explicit_backends_pass_through(self):
        assert check_backend("thread") == "thread"
        assert check_backend("process") == "process"

    def test_none_means_thread(self):
        assert check_backend(None) == "thread"

    def test_auto(self):
        # "auto" is not a backend
        with pytest.raises(ValueError, match="unknown backend"):
            check_backend("auto")

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            check_backend("greenlets")
