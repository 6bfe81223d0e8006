"""The worker-pool contract: ordering, failure semantics, sizing.

``WorkerPool.map`` returns results in input order; on failure,
not-yet-started items are cancelled, running items drain, and the
exception that propagates is the one from the earliest item in *input*
order among the failures that occurred.
"""

import time

import pytest

from repro.api.pool import WorkerPool, check_backend, default_workers


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
    def test_process_cap_scales_with_cores(self, monkeypatch):
        import repro.api.pool as pool

        monkeypatch.setattr(
            pool.os, "sched_getaffinity", lambda pid: set(range(64)),
            raising=False,
        )
        assert default_workers(100) == 64
        assert default_workers(3) == 3

    def test_bounded_by_the_workload_and_never_zero(self, monkeypatch):
        import repro.api.pool as pool

        monkeypatch.setattr(
            pool.os, "sched_getaffinity", lambda pid: set(range(4)),
            raising=False,
        )
        assert default_workers(2) == 2
        assert default_workers(0) == 1


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
