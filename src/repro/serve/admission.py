"""Admission control: bounded concurrency, bounded queueing, backpressure.

A serving daemon in front of a CPU-bound engine has exactly three sane
states for an incoming request: *run it now* (a concurrency slot is
free), *queue it briefly* (all slots busy, but the line is short), or
*refuse it immediately* (the line is full — tell the client when to come
back instead of letting latency grow without bound).  The
:class:`AdmissionController` implements that triage:

* at most ``max_concurrency`` requests execute at once (the engine is
  pure Python, so this is also roughly the useful parallelism bound);
* at most ``max_pending`` more wait in line; a request that cannot start
  before its deadline abandons the wait (:class:`AdmissionTimeout`);
* beyond that, :class:`AdmissionRejected` — the router turns it into
  ``429 Too Many Requests`` with a ``Retry-After`` estimated from the
  observed service rate, which is what makes overload *fail fast* instead
  of hanging every client (the acceptance bar for the serve subsystem).

The controller also tracks an exponentially-weighted moving average of
request latency, which seeds the ``Retry-After`` estimate.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionTimeout",
]


class AdmissionRejected(Exception):
    """The pending queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: int):
        self.retry_after = retry_after
        super().__init__(
            f"admission queue full; retry after {retry_after}s"
        )


class AdmissionTimeout(Exception):
    """The request could not *start* before its deadline."""

    def __init__(self, timeout: float):
        self.timeout = timeout
        super().__init__(
            f"request did not reach a concurrency slot within {timeout:.3f}s"
        )


class AdmissionController:
    """Bounded-concurrency gate with a bounded waiting room.

    ``max_concurrency`` requests hold slots; ``max_pending`` more may
    wait (``max_pending=0`` disables queueing entirely — either a slot is
    free or the request is rejected).  Thread-safe; every
    :meth:`acquire` must be paired with exactly one :meth:`release`.
    """

    #: EWMA smoothing for the observed request latency (higher = snappier)
    _ALPHA = 0.2

    def __init__(self, max_concurrency: int, max_pending: int):
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        if max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {max_pending}")
        self.max_concurrency = max_concurrency
        self.max_pending = max_pending
        self._running = 0
        self._waiting = 0
        self._cv = threading.Condition()
        #: EWMA of request latency (seconds); seeds the Retry-After estimate
        self._avg_latency = 0.0
        self._admitted = 0
        self._rejected = 0
        self._wait_timeouts = 0

    # -- the gate ----------------------------------------------------------
    def acquire(self, timeout: Optional[float] = None) -> None:
        """Take a concurrency slot, waiting at most ``timeout`` seconds.

        Raises :class:`AdmissionRejected` immediately when the waiting
        room is full, :class:`AdmissionTimeout` when the deadline passes
        before a slot frees up.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            if self._running >= self.max_concurrency:
                if self._waiting >= self.max_pending:
                    self._rejected += 1
                    raise AdmissionRejected(self.retry_after())
                self._waiting += 1
                try:
                    while self._running >= self.max_concurrency:
                        remaining = (
                            None
                            if deadline is None
                            else deadline - time.monotonic()
                        )
                        if remaining is not None and remaining <= 0:
                            self._wait_timeouts += 1
                            raise AdmissionTimeout(timeout or 0.0)
                        self._cv.wait(remaining)
                finally:
                    self._waiting -= 1
            self._running += 1
            self._admitted += 1

    def release(self, latency: Optional[float] = None) -> None:
        """Give the slot back, folding the request's latency into the EWMA."""
        with self._cv:
            self._running -= 1
            if latency is not None and latency >= 0:
                self._avg_latency = (
                    latency
                    if self._avg_latency == 0.0
                    else self._ALPHA * latency
                    + (1 - self._ALPHA) * self._avg_latency
                )
            self._cv.notify()

    # -- observability -----------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests running or waiting."""
        with self._cv:
            return self._running + self._waiting

    def retry_after(self) -> int:
        """Seconds a rejected client should back off: the time the current
        line needs to drain at the observed service rate (>= 1)."""
        # called under self._cv from acquire(); reading the counters
        # without the lock elsewhere is fine (ints, advisory estimate)
        per_slot = self._avg_latency if self._avg_latency > 0 else 1.0
        backlog = self._running + self._waiting
        return max(1, round(per_slot * (backlog + 1) / self.max_concurrency))

    def snapshot(self) -> Dict[str, float]:
        """Counters for the stats endpoint."""
        with self._cv:
            return {
                "running": self._running,
                "waiting": self._waiting,
                "max_concurrency": self.max_concurrency,
                "max_pending": self.max_pending,
                "admitted": self._admitted,
                "rejected": self._rejected,
                "wait_timeouts": self._wait_timeouts,
                "avg_latency_seconds": round(self._avg_latency, 6),
            }
