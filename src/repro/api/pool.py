"""The persistent process pool behind ``backend="process"`` batches.

Batch entry points (:meth:`repro.api.Session.infer_many`, the fig8/fig9
harness, the ``batch`` CLI subcommand) run on one of two backends, chosen
per call:

* ``backend="thread"`` (the default) — a plain ordered loop in the
  calling thread, on the caller's session.  Inference is pure Python, so
  a thread pool would only add GIL contention; the loop also keeps the
  caller's :func:`~repro.deadline.deadline` scope in force.

* ``backend="process"`` — a :class:`WorkerPool`.  Sources are shipped to
  workers, each worker runs its own :class:`~repro.api.Session`, and
  pickled artifacts travel back to the parent.  Every worker first moves
  its region-uid counter into a private namespace
  (:meth:`repro.regions.constraints.Region.namespace_uids`), so regions
  minted by different workers can never collide when their results meet
  again in the parent's cache.

Both share one ordering and failure contract, documented on
:meth:`WorkerPool.map`.

A :class:`WorkerPool` is owned by one session and

* **spawns lazily**: the executor comes up on the first batch that needs
  it (degenerate single-item/single-worker batches with no pool alive run
  inline);
* **has a fixed width**: the width is set when the executor spawns — the
  first batch's explicit ``max_workers``, else :func:`available_cpus` —
  and never changes after that;
* **persists**: every later batch reuses the same workers, so repeat
  batches hit warm worker caches and pay pool spawn once per session;
* **recovers from crashes**: a killed worker breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`; the pool respawns it
  and retries the affected items exactly once.  A second break in the
  same batch propagates the :class:`BrokenProcessPool` — crash loops are
  not papered over;
* **bounds worker memory**: each worker session is created with a bounded
  artifact cache (``max_cache_entries``, forwarded through the worker
  initializer; :data:`DEFAULT_WORKER_CACHE_ENTRIES` by default);
* **is observable**: every lifecycle event is counted both on
  :attr:`WorkerPool.counters` and, when the pool belongs to a session,
  under the same kinds in ``Session.stats`` events —

  ==========================  =============================================
  ``pool.spawns``             executors spawned (1 per session lifetime in
                              the steady state)
  ``pool.respawns``           crash recoveries (executor replaced after a
                              :class:`BrokenProcessPool`)
  ``pool.retried_items``      items re-run because their worker died
  ==========================  =============================================

Lifecycle: :meth:`WorkerPool.close` (or ``Session.close()`` / ``with
Session(...) as s:``) drains in-flight batches and shuts the workers down.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import (
    FIRST_EXCEPTION,
    Executor,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..deadline import deadline
from .pipeline import StageFailure

_I = TypeVar("_I")
_O = TypeVar("_O")

__all__ = [
    "BACKENDS",
    "DEFAULT_WORKER_CACHE_ENTRIES",
    "WorkerPool",
    "available_cpus",
    "check_backend",
    "default_workers",
    "worker_session",
]

#: the recognised executor backends
BACKENDS = ("thread", "process")

#: cache bound (in programs) applied to worker sessions unless the pool
#: that spawned the worker configures one: worker sessions outlive single
#: calls (persistent pools, the parent-side inline session), so the
#: default is bounded, never unlimited
DEFAULT_WORKER_CACHE_ENTRIES = 64


def available_cpus() -> int:
    """The number of CPUs *this process* may actually run on.

    ``os.cpu_count()`` reports the machine; in a cgroup/cpuset-limited
    container (CI runners, serving deployments) the process is often
    pinned to far fewer cores, and sizing pools by the machine
    over-provisions — more workers than cores means pure contention.
    ``os.sched_getaffinity(0)`` reports the real allowance where the
    platform has it (Linux); elsewhere fall back to ``os.cpu_count()``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


def default_workers(n_items: int) -> int:
    """A process-pool size: bounded by the CPU allowance and the workload."""
    return max(1, min(n_items, available_cpus()))


def check_backend(backend: Optional[str]) -> str:
    """Validate a backend request; ``None`` means ``"thread"``."""
    if backend is None:
        return "thread"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def _run_batch(
    executor: Executor,
    fn: Callable[[_I], _O],
    indexed_items: List[Tuple[int, _I]],
) -> Tuple[Dict[int, _O], List[int], Optional[BaseException]]:
    """One submit/wait/collect attempt over ``indexed_items``.

    Returns ``(ok, broken, failure)``: results by index, the indexes
    whose futures died with a process pool, and the earliest-input-order
    *genuine* task exception (pool breakage is never a task failure).
    """
    futures: List[Tuple[int, Any]] = []
    broken: List[int] = []
    for pos, (idx, item) in enumerate(indexed_items):
        try:
            futures.append((idx, executor.submit(fn, item)))
        except (BrokenProcessPool, RuntimeError):
            # the executor died — or was shut down under us by a
            # concurrent close() (submit's generic RuntimeError) — before
            # the batch was fully submitted; everything not yet submitted
            # is retry material, and on a closed pool the retry surfaces
            # the clear "WorkerPool is closed"
            broken.extend(i for i, _ in indexed_items[pos:])
            break
    fs = [f for _, f in futures]
    if fs:
        done, _ = wait(fs, return_when=FIRST_EXCEPTION)
        if any(
            not f.cancelled()
            and f.exception() is not None
            and not isinstance(f.exception(), BrokenProcessPool)
            for f in done
        ):
            # a genuine task failure: stop scheduling new work (running
            # items drain)
            for f in fs:
                f.cancel()
        wait(fs)
    ok: Dict[int, _O] = {}
    failure: Optional[BaseException] = None
    for idx, future in futures:
        if future.cancelled():
            continue
        err = future.exception()
        if err is None:
            ok[idx] = future.result()
        elif isinstance(err, BrokenProcessPool):
            broken.append(idx)
        elif failure is None:
            # futures are scanned in input order, so the first genuine
            # failure seen is the earliest one — the WorkerPool.map contract
            failure = err
    return ok, broken, failure


# ---------------------------------------------------------------------------
# The worker side of the process backend
# ---------------------------------------------------------------------------

#: each pool worker keeps one Session for its whole life, so duplicate
#: sources across the tasks it serves are worker-side cache hits
_WORKER_SESSION: Optional[Any] = None

#: the cache bound of this process's worker session, installed by
#: :func:`_process_worker_init`.  The module default is bounded so even a
#: parent-side session created by an inline degenerate batch cannot grow
#: without limit.
_WORKER_CACHE_ENTRIES: Optional[int] = DEFAULT_WORKER_CACHE_ENTRIES


def _process_worker_init(max_cache_entries: Optional[int]) -> None:
    """Runs once in every pool worker, before any task.

    Moving the region-uid counter into a per-worker namespace is what makes
    the artifacts workers send back safe to mix in the parent: without it,
    every worker would mint uids 1, 2, 3, ... and `Region` equality (which
    is uid equality) would conflate regions from unrelated programs.

    The worker session is also reset: under the ``fork`` start method the
    child inherits the parent's module globals, including any session the
    *parent* ran inline — its artifacts carry parent-namespace uids and
    must not leak into this worker's cache.  ``max_cache_entries`` bounds
    the worker session this process will lazily create
    (:func:`worker_session`), so long-lived workers keep a *bounded*
    artifact cache instead of growing without limit across batches.
    """
    global _WORKER_SESSION, _WORKER_CACHE_ENTRIES
    from ..regions.constraints import Region

    Region.namespace_uids()
    _WORKER_SESSION = None
    _WORKER_CACHE_ENTRIES = max_cache_entries


def worker_session() -> Any:
    """This process's long-lived worker :class:`~repro.api.Session`."""
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        from .session import Session  # deferred: session imports pool

        _WORKER_SESSION = Session(max_cache_entries=_WORKER_CACHE_ENTRIES)
    return _WORKER_SESSION


def _stats_delta(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-bucket counter difference between two ``SessionStats.as_dict``s."""
    delta: Dict[str, Dict[str, int]] = {}
    for bucket, counts in after.items():
        changed = {
            kind: n - before.get(bucket, {}).get(kind, 0)
            for kind, n in counts.items()
            if n - before.get(bucket, {}).get(kind, 0)
        }
        if changed:
            delta[bucket] = changed
    return delta


def _infer_task(
    payload: Tuple[str, Any, Optional[float]]
) -> Tuple[Any, Optional[Exception], Dict]:
    """Process-pool task: infer one source on this worker's session.

    The payload carries the caller's :func:`~repro.deadline.remaining`
    seconds (``None``: no deadline), which the worker opens as its own
    scope; a :class:`~repro.deadline.DeadlineExceeded` propagates as a
    task failure.  Returns ``(result, failure, stats_delta)`` — stage
    failures travel back as values (not raises) so one bad program cannot
    poison a batch, and the stats delta lets the parent session account
    for worker-side cache traffic.
    """
    source, config, seconds = payload
    session = worker_session()
    before = session.stats.as_dict()
    result: Any = None
    failure: Optional[Exception] = None
    try:
        with deadline(seconds):
            result = session.infer(source, config)
    except StageFailure as err:
        failure = err
    return result, failure, _stats_delta(before, session.stats.as_dict())


# ---------------------------------------------------------------------------
# The persistent process pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """A lazily-spawned, persistent, crash-recovering process pool.

    The executor width is the first batch's explicit ``max_workers``, else
    :func:`available_cpus`, fixed when the executor spawns.
    ``max_cache_entries`` bounds each worker session's artifact cache.
    ``stats`` is an optional :class:`~repro.api.session.SessionStats`;
    lifecycle counters are mirrored into its events.
    """

    def __init__(
        self,
        *,
        max_cache_entries: Optional[int] = DEFAULT_WORKER_CACHE_ENTRIES,
        stats: Optional[Any] = None,
    ):
        self._max_cache_entries = max_cache_entries
        self._stats = stats
        self.counters: Dict[str, int] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._size = 0
        self._closed = False
        #: batches currently inside :meth:`map` — concurrent batches run in
        #: parallel on the shared executor; this count only gates close()
        self._active = 0
        #: guards executor spawn/teardown and the active-batch count
        self._lock = threading.Lock()
        #: signalled when the active-batch count drops to zero (close()
        #: drains in-flight batches before tearing the executor down:
        #: shutting it down under them can abandon their futures
        #: unresolved and hang their wait forever)
        self._drained = threading.Condition(self._lock)
        #: guards the lifecycle counters (written by concurrent batch
        #: threads; never nests inside other locks)
        self._counter_lock = threading.Lock()

    # -- observability -----------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether an executor (and its workers) currently exists."""
        return self._executor is not None

    @property
    def size(self) -> int:
        """Worker count of the live executor (0 when none is spawned)."""
        return self._size if self._executor is not None else 0

    @property
    def closed(self) -> bool:
        return self._closed

    def _record(self, kind: str, n: int = 1) -> None:
        # concurrent batches all write these; the read-modify-write must
        # not lose increments
        with self._counter_lock:
            self.counters[kind] = self.counters.get(kind, 0) + n
            if self._stats is not None:
                self._stats.record_event(kind, n)

    # -- lifecycle ---------------------------------------------------------
    def _ensure(self, width: int) -> ProcessPoolExecutor:
        """The live executor, spawning one ``width`` workers wide if none is."""
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=width,
                    initializer=_process_worker_init,
                    initargs=(self._max_cache_entries,),
                )
                self._size = width
                self._record("pool.spawns")
            return self._executor

    def _shutdown_locked(self, *, wait_: bool) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait_, cancel_futures=True)
            self._executor = None
            self._size = 0

    def _discard_broken(self, executor: ProcessPoolExecutor) -> bool:
        """Replace ``executor`` if it is still the live one.

        Concurrent batches share one executor; when it breaks, every
        batch sees the breakage, but only the first to get here tears it
        down (and counts the respawn) — the rest find a replacement
        already installed and just retry on it.
        """
        with self._lock:
            if self._executor is not executor:
                return False
            # dead processes: nothing to join, don't block on them
            self._shutdown_locked(wait_=False)
            return True

    def close(self) -> None:
        """Shut the workers down; idempotent and final.

        New batches are refused immediately and batches already in flight
        are drained first — tearing the executor down under them could
        abandon their futures unresolved and hang them forever.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            while self._active > 0:
                self._drained.wait()
            self._shutdown_locked(wait_=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the batch entry point ---------------------------------------------
    def map(
        self,
        fn: Callable[[_I], _O],
        items: Sequence[_I],
        *,
        max_workers: Optional[int] = None,
    ) -> List[_O]:
        """Apply ``fn`` to every item on the worker processes, in input order.

        Failure contract: when any task raises, items that have not
        started yet are cancelled, items already running drain to
        completion, and the exception that propagates is deterministically
        the one from the **earliest item in input order** among the
        failures that occurred — not whichever was raised first
        chronologically.  The in-thread batch loop keeps the same
        contract, where the first failure simply stops the scan.

        ``fn`` must be a module-level callable and every item and result
        must pickle (workers run with namespaced region uids).  With no
        pool alive and a degenerate batch (one item, or one worker), runs
        inline in this process.  A :class:`BrokenProcessPool` — a killed
        or crashed worker — respawns the executor and retries the broken
        items once; a second break propagates.

        ``max_workers`` sizes the executor only when this batch spawns it;
        a live executor serves every batch at the width it was spawned
        with, keeping the warm worker caches the pool exists to keep.
        """
        items = list(items)
        if not items:
            return []
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        width = max_workers if max_workers is not None else available_cpus()
        if self._executor is None and (width <= 1 or len(items) <= 1):
            # inline tasks that call worker_session() share the one
            # parent-side session, which this module bounds at
            # DEFAULT_WORKER_CACHE_ENTRIES — a pool-specific bound is
            # deliberately NOT installed here: the session is process-wide
            # and the first pool's bound would silently win for every
            # later one
            return [fn(item) for item in items]
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            self._active += 1
        try:
            return self._map_recovering(fn, items, width)
        finally:
            with self._lock:
                self._active -= 1
                if self._active == 0:
                    self._drained.notify_all()

    def _map_recovering(
        self,
        fn: Callable[[_I], _O],
        items: List[_I],
        width: int,
    ) -> List[_O]:
        results: Dict[int, _O] = {}
        pending: List[Tuple[int, _I]] = list(enumerate(items))
        retried = False
        while pending:
            executor = self._ensure(width)
            ok, broken, failure = _run_batch(executor, fn, pending)
            results.update(ok)
            if broken:
                # always replace a broken executor, even when a genuine
                # task failure is about to propagate — the next batch
                # must not inherit a dead pool.  A concurrent batch may
                # have replaced it already; only the winner counts the
                # respawn
                discarded = self._discard_broken(executor)
            if failure is not None:
                raise failure
            if not broken:
                break
            if retried:
                raise BrokenProcessPool(
                    f"worker pool broke again after a respawn; "
                    f"giving up on {len(broken)} item(s)"
                )
            retried = True
            if discarded:
                self._record("pool.respawns")
            self._record("pool.retried_items", len(broken))
            # input order again: _run_batch collects submit-time breakage
            # before future breakage, and the retry's failure scan (and
            # the earliest-input-order exception contract) walks the
            # pending list as given
            pending = [(idx, items[idx]) for idx in sorted(broken)]
        if len(results) != len(items):
            # futures can end up cancelled with no failure and no broken
            # pool only when the executor was shut down under us — a
            # concurrent close() — so say that instead of a bare KeyError
            raise RuntimeError(
                "WorkerPool was closed while a batch was in flight"
            )
        return [results[i] for i in range(len(items))]
