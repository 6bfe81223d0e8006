"""Reusable inference sessions with artifact caching and batch entry points.

A :class:`Session` is the long-lived engine object of the API: it owns a
keyed cache of answers — inference results keyed by source hash + config,
plus the lineages of :meth:`Session.reinfer` documents — so that

* repeating any query on an unmodified program is one ``infer`` hit,
* an ablation sweep (same program, several :class:`InferenceConfig`\\ s)
  parses, normal-types and annotates classes at most once per call, and
* multi-program workloads go through :meth:`Session.infer_many`, which
  runs the batch as one ordered loop in the calling thread and returns
  results in input order.

Cache effectiveness is observable through :attr:`Session.stats`
(per-kind hit/miss counters), which the microbenchmarks and tests assert
against.  Sessions are thread-safe: the cache is lock-guarded, and two
threads racing to build the same result at worst build it twice (both
results are equivalent; the later one keeps the cache slot).
"""

from __future__ import annotations

import gc
import hashlib
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..checking import CheckReport
from ..core import InferenceConfig, InferenceResult
from ..deadline import deadline
from .pipeline import ExecutionResult, Pipeline, StageFailure, config_key

__all__ = ["Session", "SessionStats"]


def _source_key(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass
class SessionStats:
    """Per-kind cache hit/miss/eviction counters for one session.

    Cache kinds: ``infer`` (one hit or miss per lookup, failed builds
    included) and ``document`` (lineages: evictions only).
    """

    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    evictions: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, hit: bool) -> None:
        bucket = self.hits if hit else self.misses
        bucket[kind] = bucket.get(kind, 0) + 1

    def record_eviction(self, kind: str) -> None:
        self.evictions[kind] = self.evictions.get(kind, 0) + 1

    def merge(self, delta: Dict[str, Dict[str, int]]) -> None:
        """Fold another stats snapshot (or delta) into these counters.

        :meth:`Session.reinfer` counts per-SCC reuse through this.
        """
        buckets = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
        for bucket_name, counts in delta.items():
            bucket = buckets.get(bucket_name)
            if bucket is None:
                continue
            for kind, n in counts.items():
                bucket[kind] = bucket.get(kind, 0) + n

    def hit_count(self, kind: Optional[str] = None) -> int:
        if kind is not None:
            return self.hits.get(kind, 0)
        return sum(self.hits.values())

    def miss_count(self, kind: Optional[str] = None) -> int:
        if kind is not None:
            return self.misses.get(kind, 0)
        return sum(self.misses.values())

    def eviction_count(self, kind: Optional[str] = None) -> int:
        if kind is not None:
            return self.evictions.get(kind, 0)
        return sum(self.evictions.values())

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "evictions": dict(self.evictions),
        }

    def __str__(self) -> str:
        # eviction kinds count: a kind that only ever evicted (document
        # lineages) must still show up, and the per-kind eviction counts
        # are part of the story
        kinds = sorted(set(self.hits) | set(self.misses) | set(self.evictions))
        parts = []
        for k in kinds:
            part = (
                f"{k}: {self.hits.get(k, 0)} hit(s) / "
                f"{self.misses.get(k, 0)} miss(es)"
            )
            if self.evictions.get(k):
                part += f" / {self.evictions[k]} eviction(s)"
            parts.append(part)
        return "; ".join(parts) if parts else "no cache traffic"


#: retained bytes per lexer token of its program that every cached result
#: holds, however much of it was spliced from a prior result: above all its
#: own parse tree, whose positions are small offsets and whose names are
#: shared strings; an edit also keeps the dependency-graph fingerprints its
#: next edit diffs against (about 4 B/token).  Calibrated with
#: ``tracemalloc`` (``tests/api/test_cache_charge.py`` holds each entry's
#: charge to within 25% of what it retains)
BYTES_PER_TOKEN = 86
#: retained bytes per token that inference adds on top, scaled by the share
#: of method SCCs the run re-inferred rather than spliced from a prior
#: result: a distinct program retains about 220 B/token, one version of a
#: one-literal edit chain (which shares its spliced records) about 90
BYTES_PER_INFERRED_TOKEN = 133


def _approx_artifact_bytes(value: Any) -> int:
    """The bytes a cached value retains, estimated in O(1).

    An :class:`InferenceResult` is charged by its program's lexer token
    count (:attr:`repro.lang.ast.Program.tokens`, which the parser stamps),
    at :data:`BYTES_PER_TOKEN` plus :data:`BYTES_PER_INFERRED_TOKEN` times
    its share of re-inferred SCCs.  Anything else (a document lineage is a
    source key) is charged its ``sys.getsizeof``.
    """
    if isinstance(value, InferenceResult):
        sccs = value.reused_sccs + value.reinferred_sccs
        share = value.reinferred_sccs / sccs if sccs else 1.0
        per_token = BYTES_PER_TOKEN + BYTES_PER_INFERRED_TOKEN * share
        return int(value.table.program.tokens * per_token)
    return sys.getsizeof(value)


class _ArtifactStore:
    """The keyed cache a session injects into its pipelines.

    A session stores ``infer`` results and ``document`` lineages in it.
    With ``max_entries`` set, the store is a bounded LRU: a hit refreshes
    the entry's recency, and an insert that pushes the store past the bound
    evicts the least-recently-used entry (counted per kind in
    :attr:`SessionStats.evictions`).  With ``max_bytes`` set the LRU is
    **cost-aware**: each entry is weighted by the bytes it retains,
    estimated from its program's token count when it is stored
    (:func:`_approx_artifact_bytes`), so a large program's result counts
    for what it is — the bound a multi-tenant service actually needs.
    The most recent entry is never evicted by the byte bound (the
    caller is holding it), so a single oversized result degrades to
    cache-of-one rather than thrashing.
    Both bounds may be set; either alone works.  Unbounded by default.

    Every :meth:`put` ends with ``gc.collect(); gc.freeze()``, outside the
    lock: the store is the process's quiet point, where everything alive
    moves into the collector's permanent generation, so later collections
    walk only objects born since the last store instead of re-walking
    every cached result (thousands of tracked objects per program).  The
    collect first reclaims cycles that are already dead, so they are not
    pinned; it walks only the unfrozen objects, so it is cheap.  Frozen
    entries are still freed by reference counting when they are evicted
    or cleared, because cached artifacts are acyclic
    (``tests/api/test_no_cyclic_garbage.py`` pins that).  An embedding
    application's own objects that are alive at a store are frozen too:
    acyclic ones are still freed when their last reference goes, a cycle
    that dies after a store is never reclaimed, and
    ``gc.get_freeze_count()`` shows the size of the frozen set.
    """

    def __init__(
        self,
        stats: SessionStats,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self._data: "OrderedDict[Tuple[str, Hashable], Any]" = OrderedDict()
        self._costs: Dict[Tuple[str, Hashable], int] = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self._stats = stats
        self._max_entries = max_entries
        self._max_bytes = max_bytes

    def _evict_lru_locked(self) -> None:
        (evicted_kind, evicted_key), _ = self._data.popitem(last=False)
        self._bytes -= self._costs.pop((evicted_kind, evicted_key), 0)
        self._stats.record_eviction(evicted_kind)

    def _shrink_locked(self) -> None:
        if self._max_entries is not None:
            while len(self._data) > self._max_entries:
                self._evict_lru_locked()
        if self._max_bytes is not None:
            while self._bytes > self._max_bytes and len(self._data) > 1:
                self._evict_lru_locked()

    def record_miss(self, kind: str) -> None:
        """Count one lookup of ``kind`` that found nothing."""
        with self._lock:
            self._stats.record(kind, hit=False)

    def peek(
        self, kind: str, key: Hashable, *, record_hit: bool = False
    ) -> Optional[Any]:
        """The cached value, or ``None`` — no build, no miss recorded.

        A present entry has its LRU recency refreshed (a peek is a real
        use; :meth:`Session.reinfer` reads document lineages and their
        priors through it).  ``record_hit=True`` also counts a found entry
        as one hit on ``kind`` under the same lock as the lookup: the
        atomic probe behind :meth:`Pipeline.infer
        <repro.api.pipeline.Pipeline.infer>`, with no window for an
        eviction to fall into.  A ``None`` answer records nothing; the
        caller counts the miss (:meth:`record_miss`).
        """
        full_key = (kind, key)
        with self._lock:
            if full_key not in self._data:
                return None
            self._data.move_to_end(full_key)
            if record_hit:
                self._stats.record(kind, hit=True)
            return self._data[full_key]

    def put(self, kind: str, key: Hashable, value: Any) -> None:
        """Insert or replace an entry without hit/miss accounting.

        :meth:`Session.reinfer` records document lineages through this, and
        :meth:`Pipeline.infer <repro.api.pipeline.Pipeline.infer>` installs
        the result its probe already counted as a miss.  A replaced entry
        is re-charged at its new value's weight and refreshed to most
        recent; eviction pressure applies exactly as for built entries.
        """
        full_key = (kind, key)
        cost = (
            _approx_artifact_bytes(value) if self._max_bytes is not None else 0
        )
        with self._lock:
            self._bytes += cost - self._costs.get(full_key, 0)
            self._costs[full_key] = cost
            self._data[full_key] = value
            self._data.move_to_end(full_key)
            self._shrink_locked()
        gc.collect()
        gc.freeze()

    def contains(self, kind: str, key: Hashable) -> bool:
        """Membership test with no side effects (no stats, no LRU refresh)."""
        with self._lock:
            return (kind, key) in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._costs.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def bytes_used(self) -> int:
        """Estimated bytes held (0 unless a byte bound is configured)."""
        with self._lock:
            return self._bytes


class Session:
    """A reusable, cache-backed handle on the whole inference flow.

    ``config`` is the default :class:`InferenceConfig` for pipelines this
    session creates; every entry point accepts a per-call override, which
    is how ablation sweeps share one session across configurations.

    The cache holds one ``infer`` entry per (program, config) and one
    lineage per :meth:`reinfer` document.  ``max_cache_entries`` bounds
    it by entry count and ``max_cache_bytes`` by the bytes its entries
    retain, estimated per entry from the program's token count
    (:func:`_approx_artifact_bytes`): a long-lived session serving many
    distinct programs evicts its least-recently-used entries instead of
    growing without bound (evictions are visible in
    :attr:`Session.stats`).  The byte bound is the one services want —
    results grow with the program, which the entry bound cannot see.
    ``None`` (the default) keeps every entry.  A cached result also keeps
    its checker verdict, so a repeat :meth:`check` does no checker work.
    """

    def __init__(
        self,
        config: Optional[InferenceConfig] = None,
        *,
        max_cache_entries: Optional[int] = None,
        max_cache_bytes: Optional[int] = None,
    ):
        self.config = config or InferenceConfig()
        self.max_cache_entries = max_cache_entries
        self.max_cache_bytes = max_cache_bytes
        self.stats = SessionStats()
        self._store = _ArtifactStore(
            self.stats,
            max_entries=max_cache_entries,
            max_bytes=max_cache_bytes,
        )
        self._calls = threading.local()

    # -- pipelines ---------------------------------------------------------
    def pipeline(
        self,
        source: str,
        config: Optional[InferenceConfig] = None,
        *,
        filename: Optional[str] = None,
        collect: bool = False,
        inferred: Optional[InferenceResult] = None,
    ) -> Pipeline:
        """A staged pipeline for ``source`` sharing this session's cache
        (``inferred``: see :class:`Pipeline`)."""
        return Pipeline(
            source,
            config or self.config,
            filename=filename,
            collect=collect,
            store=self._store,
            source_key=_source_key(source),
            inferred=inferred,
        )

    # -- one-shot conveniences --------------------------------------------
    def infer(
        self, source: str, config: Optional[InferenceConfig] = None
    ) -> InferenceResult:
        """Infer ``source`` (cached); raises ``StageFailure`` on error."""
        stage = self.pipeline(source, config).infer()
        self._calls.cached = stage.cached
        return stage.unwrap()

    @property
    def last_call_cached(self) -> bool:
        """Whether this thread's last :meth:`infer` hit the cache, or its
        last :meth:`reinfer` reused the document's prior (per thread, so
        concurrent callers never see each other's answers)."""
        return getattr(self._calls, "cached", False)

    # -- incremental re-inference ------------------------------------------
    def reinfer(
        self,
        source: str,
        config: Optional[InferenceConfig] = None,
        *,
        document: str = "default",
        filename: Optional[str] = None,
    ) -> InferenceResult:
        """Infer ``source`` incrementally against this document's last result.

        ``document`` names a *logical document* — an editor buffer, a
        tenant's file — whose successive versions this session tracks.
        The first submission (or one whose prior was evicted) runs a full
        inference; later submissions diff the new source's dependency
        graph against the prior result and re-run fixed points only for
        the dirty method SCCs (:func:`repro.core.reinfer_program`).  The
        output is byte-identical to a from-scratch inference.

        A document's lineage is the source key of its last accepted
        version, held as an ordinary ``document`` entry in the session's
        store: the cache bound covers it, and an evicted lineage (or an
        evicted prior) simply means the next submission runs in full.
        Observable via ``scc.*`` stats kinds: ``scc.document`` (hit =
        incremental path taken) and ``scc.reuse`` (per-SCC spliced vs
        re-inferred).  ``filename`` names the source in the diagnostics of
        a :class:`StageFailure`.
        """
        cfg = config or self.config
        ck = config_key(cfg)
        skey = _source_key(source)
        prior_skey = self._store.peek("document", (document, ck))
        prior: Optional[InferenceResult] = (
            self._store.peek("infer", (prior_skey, ck))
            if prior_skey is not None
            else None
        )
        if prior is None:
            # first submission for this document, or its lineage or prior
            # was evicted: full (file-level cached) inference
            pipe = self.pipeline(source, cfg, filename=filename)
            result = pipe.infer().unwrap()
            engaged = False
        elif prior_skey == skey:
            # unchanged resubmission: the prior answers outright
            result, engaged = prior, True
            self._record_scc_reuse(
                prior.reused_sccs + prior.reinferred_sccs, 0
            )
        else:
            pipe = self.pipeline(source, cfg, filename=filename)
            stage = pipe.reinfer(prior)
            result = stage.unwrap()
            engaged = result.annotations is prior.annotations
            if stage.cached:
                # this exact source was inferred before (e.g. toggling
                # between two versions): everything is reused
                self._record_scc_reuse(
                    result.reused_sccs + result.reinferred_sccs, 0
                )
            else:
                self._record_scc_reuse(
                    result.reused_sccs, result.reinferred_sccs
                )
        self.stats.record("scc.document", hit=engaged)
        self._calls.cached = engaged
        self._store.put("document", (document, ck), skey)
        return result

    def _record_scc_reuse(self, reused: int, reinferred: int) -> None:
        delta: Dict[str, Dict[str, int]] = {}
        if reused:
            delta["hits"] = {"scc.reuse": reused}
        if reinferred:
            delta["misses"] = {"scc.reuse": reinferred}
        if delta:
            self.stats.merge(delta)

    def check(
        self, source: str, config: Optional[InferenceConfig] = None
    ) -> CheckReport:
        """Infer and independently verify ``source`` (cached).

        Always returns the :class:`CheckReport` when verification ran
        (inspect ``report.ok``); raises :class:`StageFailure` when an
        earlier stage (parse/typecheck/annotate/infer) failed and there is
        no report to return — the failure names the stage that actually
        failed, not the verify stage that never got to run.
        """
        pipe = self.pipeline(source, config)
        stage = pipe.verify()
        if stage.skipped:
            failed = pipe.failure()
            raise StageFailure(
                failed.stage if failed is not None else "verify",
                pipe.diagnostics(),
            )
        return stage.value

    def execute(
        self,
        source: str,
        entry: str = "main",
        args: Sequence[int] = (),
        config: Optional[InferenceConfig] = None,
        *,
        recursion_limit: Optional[int] = None,
    ) -> ExecutionResult:
        """Infer ``source`` and run ``entry`` on the region runtime."""
        return (
            self.pipeline(source, config)
            .execute(entry, args, recursion_limit=recursion_limit)
            .unwrap()
        )

    # -- sweeps and batches ------------------------------------------------
    def sweep(
        self, source: str, configs: Sequence[InferenceConfig]
    ) -> List[InferenceResult]:
        """Infer one program under several configs, sharing the front half.

        Every config probes its own ``infer`` entry first; each later
        config runs on a :meth:`Pipeline.fork
        <repro.api.pipeline.Pipeline.fork>`, so one call builds parse,
        typecheck and annotate at most once — the ablation workload the
        ``session_reuse`` benchmark sweeps.
        """
        out, pipe = [], None
        for config in configs:
            pipe = pipe.fork(config) if pipe else self.pipeline(source, config)
            out.append(pipe.infer().unwrap())
        return out

    def infer_many(
        self,
        sources: Sequence[str],
        config: Optional[InferenceConfig] = None,
        *,
        return_exceptions: bool = False,
    ) -> List[InferenceResult]:
        """Batch inference over many programs.

        Results are returned in input order; duplicate sources resolve to
        the same cached result.  The failing program earliest in input
        order raises its ``StageFailure``; with ``return_exceptions=True``
        failures come back *as list entries* instead (every program runs),
        which is what the ``batch`` CLI subcommand reports from.  The batch
        is one ordered loop in the calling thread (inference is pure Python,
        so more threads would only contend for the GIL), and an enclosing
        :func:`~repro.deadline.deadline` scope holds for it: past it the
        batch raises :class:`~repro.deadline.DeadlineExceeded`.
        """
        out: List[InferenceResult] = []
        for src in sources:
            try:
                out.append(self.infer(src, config))
            except StageFailure as err:
                if not return_exceptions:
                    raise
                out.append(err)  # type: ignore[arg-type]
        return out

    def infer_one(
        self,
        source: str,
        config: Optional[InferenceConfig] = None,
        *,
        timeout: Optional[float] = None,
    ) -> InferenceResult:
        """:meth:`infer` under a deadline ``timeout`` seconds from now.

        This is what the serving daemon calls per request.  Past the
        deadline :class:`~repro.deadline.DeadlineExceeded` propagates out
        of the engine and nothing is cached; an enclosing
        :func:`~repro.deadline.deadline` scope that ends sooner still
        wins.  ``None`` adds no deadline of its own.
        """
        with deadline(timeout):
            return self.infer(source, config)

    # -- maintenance -------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop every cached entry (counters are preserved).

        Document lineages are store entries too, so the next ``reinfer``
        of any document starts a fresh lineage with a full run.
        """
        self._store.clear()

    @property
    def cache_size(self) -> int:
        return len(self._store)

    @property
    def cache_bytes(self) -> int:
        """Estimated bytes cached (0 unless ``max_cache_bytes`` is set)."""
        return self._store.bytes_used
