"""The benchmark's two workloads.

Each workload is built in :data:`SETUP_REPEATS` equal set-up slices
(:meth:`setup_slice`): every slice generates its share of the inputs
from the seed, builds their reference outputs and warms the code up (the
serving workload also boots, warms and retires a daemon), so set-up time
is measured several times per run while the timed phase draws on the
inputs of all slices.

:meth:`measure` runs timed operations.  Traced operations make exactly
the calls untraced ones make; :meth:`trace` has wrapped the program's
own objects beforehand (pipeline stages; in the daemon, its router,
admission gate and tenant sessions) so each call into a layer records a
span.  Layers that are only reached from inside another
layer are afterwards called directly on the same inputs ("probes",
recorded under a separate ``probe`` root so they never count towards the
operation's wall time).  :meth:`layer_values` turns the spans into
per-operation layer times.
"""

from __future__ import annotations

import http.client
import itertools
import json
import pickle
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import Session, SourceInterpreter, parse_program, pretty_target
from repro.api import session as session_module
from repro.core import (
    DependencyGraph,
    DowncastAnalysis,
    DowncastStrategy,
    PaddingPlan,
    diff,
    infer_source,
    plan_salts,
    scc_splice_keys,
)
from repro.frontend.lexer import tokenize
from repro.gen import GenSpec, edit_script, generate_source
from repro.runtime.source_interp import value_snapshot
from repro.serve import ServerConfig, make_server
from repro.typing.normal import NormalTypeChecker

from spans import Recorder, op_layer_times, union_length

#: set-up slices per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: the staged pipeline and the layer each stage belongs to
STAGE_LAYERS = {
    "parse": "frontend.parse",
    "typecheck": "typing.check",
    "annotate": "core.annotate",
    "infer": "core.infer",
    "verify": "checking.verify",
    "execute": "runtime.execute",
}


def _rng(seed: int, *tags: Any) -> random.Random:
    """An input stream derived from the run's seed and a purpose tag."""
    return random.Random(":".join(["perfbench", str(seed), *map(str, tags)]))


def _spec_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _in_span(rec: Recorder, fn: Callable, name: str) -> Callable:
    """``fn``, recording a span when called inside a traced operation."""

    def traced(*args, **kwargs):
        if rec.current() is None:
            return fn(*args, **kwargs)
        with rec.span(name):
            return fn(*args, **kwargs)

    return traced


def _lex(rec: Recorder, source: str) -> int:
    """Tokenize ``source`` as a ``frontend.lex`` span; the token count."""
    with rec.span("frontend.lex"):
        return len(tokenize(source))


def _trace_stages(rec: Recorder, session: Session) -> None:
    """Span every stage of every pipeline ``session`` creates from now on.

    A stage answered from the session cache is recorded as
    ``api.cache_hit`` instead of its layer, so a layer's time is only
    ever time spent doing that layer's work.
    """
    pipeline = session.pipeline

    def in_stage(fn: Callable, layer: str) -> Callable:
        def traced(*args, **kwargs):
            if rec.current() is None:
                return fn(*args, **kwargs)
            with rec.span(layer) as index:
                result = fn(*args, **kwargs)
            if result.cached:
                rec.spans[index].name = "api.cache_hit"
            return result

        return traced

    def traced_pipeline(*args, **kwargs):
        pipe = pipeline(*args, **kwargs)
        for stage, layer in STAGE_LAYERS.items():
            setattr(pipe, stage, in_stage(getattr(pipe, stage), layer))
        return pipe

    session.pipeline = traced_pipeline


@dataclass
class Phase:
    """The timed operations of one measurement phase."""

    #: (start, end) per operation, perf_counter seconds
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: per operation: whether it was traced
    traced: List[bool] = field(default_factory=list)
    failed: int = 0
    #: summed operation latency, seconds
    in_ops: float = 0.0

    def add(self, start: float, end: float, ok: bool, traced: bool = False) -> None:
        self.intervals.append((start, end))
        self.traced.append(traced)
        self.in_ops += end - start
        if not ok:
            self.failed += 1

    def latencies(self, traced: Optional[bool] = None) -> List[float]:
        """Operation latencies, optionally only the traced or untraced ones."""
        return [
            end - start
            for (start, end), was in zip(self.intervals, self.traced)
            if traced is None or was == traced
        ]

    @property
    def busy(self) -> float:
        """Seconds during which at least one operation was in flight."""
        return union_length(self.intervals)

    def done(self, seconds: float, min_ops: int) -> bool:
        """For one client: ``seconds`` spent in at least ``min_ops`` operations."""
        return len(self.intervals) >= min_ops and self.in_ops >= seconds


class Workload:
    """Shared bookkeeping: per-operation values and generation times."""

    name = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.generate_seconds: List[float] = []
        #: per traced operation: values measured by the program itself
        #: (inference time, counts), keyed like span names
        self.values: Dict[int, Dict[str, float]] = {}

    def retire_slice(self, k: int, last: bool) -> None:
        """Untimed end of a set-up slice."""

    def trace(self, rec: Recorder) -> None:
        """Wrap the program's objects so layer calls record spans."""

    def finish_trace(self, rec: Recorder) -> Dict[str, float]:
        """Run deferred probes; return run-level layer values."""
        return {}

    def close(self) -> None:
        """Release everything the workload started."""

    def _note_result(self, op: int, result: Any) -> Dict[str, float]:
        """Record the counts every inference result carries."""
        values = self.values.setdefault(op, {})
        values["core.localized_regions"] = result.total_localized
        values["core.sccs"] = result.reused_sccs + result.reinferred_sccs
        values["core.fixpoint_iterations"] = sum(
            result.fixpoint_iterations.values()
        )
        return values

    def layer_values(self, rec: Recorder) -> Dict[int, Dict[str, float]]:
        """Per traced operation: layer self times (ms) and values."""
        out: Dict[int, Dict[str, float]] = {}
        for op, layers in op_layer_times(rec.spans).items():
            out[op] = {name: seconds * 1000.0 for name, seconds in layers.items()}
        for op, values in self.values.items():
            out.setdefault(op, {}).update(values)
        for layers in out.values():
            if "frontend.parse" in layers and "frontend.lex" in layers:
                # parse_program includes tokenize; report the parser alone
                layers["frontend.parse"] -= layers["frontend.lex"]
        return out


# ---------------------------------------------------------------------------
# batch_check
# ---------------------------------------------------------------------------


@dataclass
class _Program:
    source: str
    arg: int
    reference: Any


class BatchCheck(Workload):
    """Distinct generated programs, one after another through one Session."""

    name = "batch_check"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.classes = 4 if smoke else 20
        self.per_slice = 8 if smoke else 32
        self.programs: List[_Program] = []
        self.session = Session()
        self.position = 0
        self.batches = 0

    def setup_slice(self, k: int) -> None:
        rng = _rng(self.seed, self.name, k)
        first = len(self.programs)
        for _ in range(self.per_slice):
            start = time.perf_counter()
            source = generate_source(GenSpec.sized(self.classes, seed=_spec_seed(rng)))
            self.generate_seconds.append(time.perf_counter() - start)
            arg = rng.randint(1, 5)
            # the reference comes from the region-free source interpreter,
            # never from the pipeline under test
            value = SourceInterpreter(parse_program(source)).run_static("main", [arg])
            self.programs.append(_Program(source, arg, value_snapshot(value)))
        warm = Session()
        for program in self.programs[first : first + 2]:
            warm.pipeline(program.source).run("execute", args=[program.arg])

    def trace(self, rec: Recorder) -> None:
        _trace_stages(rec, self.session)

    def measure(self, seconds: float, min_ops: int, rec: Optional[Recorder] = None) -> Phase:
        """Time operations; with ``rec``, every other batch is traced.

        Three batches a pass make the traced ones alternate between
        passes, so traced and untraced operations see the same programs.
        """
        phase = Phase()
        for op in itertools.count():
            if phase.done(seconds, min_ops):
                return phase
            if self.position % self.per_slice == 0:
                # each slice's programs form one batch, like one `repro
                # batch` run: it starts on an empty cache, so no operation
                # is served from it and the cache never outgrows a batch
                self.position %= len(self.programs)
                self.session.clear_cache()
                self.batches += 1
            program = self.programs[self.position]
            self.position += 1
            pipe = self.session.pipeline(program.source)
            traced = rec is not None and self.batches % 2 == 0
            if not traced:
                start = time.perf_counter()
                stages = pipe.run("execute", args=[program.arg])
                end = time.perf_counter()
            else:
                with rec.span("op", op) as root:
                    stages = pipe.run("execute", args=[program.arg])
                start, end = rec.spans[root].start, rec.spans[root].end
            ok = len(stages) == len(STAGE_LAYERS) and all(s.ok for s in stages)
            ok = ok and value_snapshot(stages[-1].value.value) == program.reference
            phase.add(start, end, ok, traced)
            if traced and ok:
                with rec.span("probe", op):
                    tokens = _lex(rec, program.source)
                self._note_result(op, stages[3].value)["frontend.tokens"] = tokens


# ---------------------------------------------------------------------------
# document edit scripts
# ---------------------------------------------------------------------------


@dataclass
class _Chain:
    document: str
    versions: List[str]
    #: pretty-printed from-scratch target of every version
    references: List[str]


def _chain(document: str, spec: GenSpec, edits: int, generated: List[float]) -> _Chain:
    """An edit script and its from-scratch references."""
    start = time.perf_counter()
    versions = edit_script(spec, edits)
    generated.append(time.perf_counter() - start)
    return _Chain(
        document, versions, [pretty_target(infer_source(v).target) for v in versions]
    )


def _probe_depgraph(rec: Recorder, source: str, prior: Any) -> None:
    """What ``reinfer_program`` does to find the dirty SCCs of ``source``
    against ``prior``: both dependency graphs, ``diff`` and the splice
    keys, timed as ``core.depgraph`` (parsing and typing are untimed)."""
    program = parse_program(source)
    table = NormalTypeChecker(program).check()
    if prior.config.downcast is DowncastStrategy.PADDING:
        plan = DowncastAnalysis(program, table).build_plan()
    else:
        plan = PaddingPlan()
    salts = plan_salts(program, plan)
    with rec.span("core.depgraph"):
        new_graph = DependencyGraph(program, table)
        old_graph = DependencyGraph(prior.table.program, prior.table)
        diff(old_graph, new_graph, old_salts=prior.plan_salts, new_salts=salts)
        scc_splice_keys(new_graph, salts)


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


#: the request mix, repeated: F = /v1/check on a never-seen program,
#: R = repeat of the tenant's latest check, D = document edit
MIX = "FRFDFRFDRF"

#: tenants of the daemon; the client speaks for each in turn, one round
#: of :data:`MIX` at a time
TENANTS = 2

#: request header carrying the traced operation's id to the daemon
OP_HEADER = "X-Perfbench-Op"


@dataclass
class _Tenant:
    """One tenant's inputs and its place in them."""

    name: str
    #: never-seen programs for ``F`` requests
    fresh: List[str] = field(default_factory=list)
    chains: List[_Chain] = field(default_factory=list)
    next_fresh: int = 0
    chain: int = 0
    version: int = 0
    latest: Optional[str] = None


class _Daemon:
    """A self-hosted daemon with its default config on an ephemeral port."""

    def __init__(self) -> None:
        self.server = make_server(ServerConfig(host="127.0.0.1", port=0, quiet=True))
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="perfbench-daemon",
        )
        self.thread.start()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=120)

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.close()


def _post(
    conn: http.client.HTTPConnection,
    path: str,
    payload: Dict[str, Any],
    headers: Dict[str, str],
) -> Tuple[int, Dict[str, Any]]:
    conn.request(
        "POST",
        path,
        body=json.dumps(payload),
        headers={"Content-Type": "application/json", **headers},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class ServeMixed(Workload):
    """One closed-loop client on one keep-alive connection, 2 tenants.

    A single client keeps the load from queueing on the daemon's one
    pool worker and from contending with the daemon for a core, so a
    request's latency is its own service time.
    """

    name = "serve_mixed"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.tenants = [_Tenant(name=f"tenant-{t}") for t in range(TENANTS)]
        self.fresh_classes = 3 if smoke else 10
        self.doc_classes = 4 if smoke else 12
        self.fresh_per_slice = 30 if smoke else 80
        self.edits = 6 if smoke else 20
        self.daemon: Optional[_Daemon] = None
        #: requests sent so far; their position in :data:`MIX`
        self.steps = 0
        #: per traced operation: (kind, source, document, inference result)
        #: of the daemon's cache miss or document request
        self.results: Dict[int, Tuple[str, str, Optional[str], Any]] = {}
        self.checks = self.cached_checks = 0

    # -- set-up ------------------------------------------------------------
    def setup_slice(self, k: int) -> None:
        rng = _rng(self.seed, self.name, k)
        warmups = []
        for tenant in self.tenants:
            for _ in range(self.fresh_per_slice):
                start = time.perf_counter()
                tenant.fresh.append(
                    generate_source(GenSpec.sized(self.fresh_classes, seed=_spec_seed(rng)))
                )
                self.generate_seconds.append(time.perf_counter() - start)
            spec = GenSpec.sized(self.doc_classes, seed=_spec_seed(rng))
            document = f"doc-{k}-{tenant.name}"
            tenant.chains.append(_chain(document, spec, self.edits, self.generate_seconds))
            warm = edit_script(GenSpec.sized(3, seed=_spec_seed(rng)), 1)
            warmups.append((tenant, document + "-warm", warm))
        self.daemon = _Daemon()
        # the pool forks its workers on its first task and never adds
        # more, so the first request goes alone (one worker, every run)
        # and without a socket a forked worker could inherit
        status, body, _ = self.daemon.server.router.handle(
            "POST",
            "/v1/check",
            {"X-Repro-Tenant": self.tenants[0].name},
            json.dumps({"source": warmups[0][2][0]}).encode(),
        )
        if status != 200:
            raise RuntimeError(f"daemon warm-up failed: {status} {body}")
        for warm in warmups:
            self._warm(*warm)

    def _warm(self, tenant: _Tenant, document: str, versions: List[str]) -> None:
        """Take every request path once."""
        conn = self.daemon.connect()
        headers = {"X-Repro-Tenant": tenant.name}
        try:
            for source in versions:
                for path, payload in (
                    ("/v1/check", {"source": source}),
                    ("/v1/check", {"source": source}),
                    ("/v1/infer", {"source": source, "document": document}),
                ):
                    status, body = _post(conn, path, payload, headers)
                    if status != 200:
                        raise RuntimeError(f"daemon warm-up: {path} returned {status}: {body}")
        finally:
            conn.close()

    def retire_slice(self, k: int, last: bool) -> None:
        if not last:
            self.daemon.close()
            self.daemon = None

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None

    # -- tracing -----------------------------------------------------------
    def trace(self, rec: Recorder) -> None:
        router = self.daemon.server.router
        handle = router.handle

        def traced_handle(method, path, headers=None, body=b""):
            op = {k.lower(): v for k, v in (headers or {}).items()}.get(
                OP_HEADER.lower()
            )
            if op is None:
                return handle(method, path, headers, body)
            op = int(op)
            with rec.span("serve.router", op, parent=rec.root_of(op)):
                return handle(method, path, headers, body)

        router.handle = traced_handle
        router.admission.acquire = _in_span(
            rec, router.admission.acquire, "serve.admission_wait"
        )
        for tenant in router.registry.tenants().values():
            session = tenant.session
            _trace_stages(rec, session)
            session.infer_one = self._capture(
                rec, session, session.infer_one, "api.infer_one", "miss"
            )
            session.reinfer = self._capture(
                rec, session, session.reinfer, "core.reinfer", "document"
            )

    def _capture(
        self, rec: Recorder, session: Session, fn: Callable, name: str, kind: str
    ) -> Callable:
        """Span a session entry point and keep the result it computed."""
        call = _in_span(rec, fn, name)

        def traced(source, *args, **kwargs):
            misses = session.stats.miss_count("infer")
            result = call(source, *args, **kwargs)
            index = rec.current()
            if index is not None and (
                kind == "document" or session.stats.miss_count("infer") > misses
            ):
                self.results[rec.spans[index].op] = (
                    kind,
                    source,
                    kwargs.get("document"),
                    result,
                )
            return result

        return traced

    def finish_trace(self, rec: Recorder) -> Dict[str, float]:
        """Probes on the artifacts the daemon produced, then run totals."""
        sizer = getattr(
            session_module,
            "_approx_artifact_bytes",
            lambda value: len(pickle.dumps(value, pickle.HIGHEST_PROTOCOL)),
        )
        infer_one: Dict[int, float] = {}
        for span in rec.spans:
            if span.name == "api.infer_one":
                infer_one[span.op] = infer_one.get(span.op, 0.0) + span.duration
        priors: Dict[Optional[str], Any] = {}
        for op, (kind, source, document, result) in sorted(self.results.items()):
            values = self._note_result(op, result)
            prior = priors.get(document)
            with rec.span("probe", op):
                values["frontend.tokens"] = _lex(rec, source)
                if kind == "miss":
                    # the daemon weighs each inserted artifact for its LRU
                    with rec.span("api.cache_sizing"):
                        sizer(result)
                else:
                    # document responses carry the pretty-printed target
                    with rec.span("lang.pretty"):
                        pretty_target(result.target)
                    if prior is not None and result.reused_sccs:
                        _probe_depgraph(rec, source, prior)
            if kind == "miss":
                # inference ran in a pool worker; the program timed it there
                values["core.infer"] = result.elapsed * 1000.0
                values["api.pool_overhead"] = 1000.0 * infer_one[op] - values["core.infer"]
            else:
                priors[document] = result
                total = result.reused_sccs + result.reinferred_sccs
                values["core.scc_reuse_ratio"] = result.reused_sccs / total
        conn = self.daemon.connect()
        try:
            conn.request("GET", "/v1/stats")
            stats = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        return {
            "api.cache_hit_ratio": self.cached_checks / max(self.checks, 1),
            "api.cache_bytes": sum(t["cache_bytes"] for t in stats["tenants"].values()),
        }

    def layer_values(self, rec: Recorder) -> Dict[int, Dict[str, float]]:
        out = super().layer_values(rec)
        for layers in out.values():
            if "op" in layers:
                # the client's wait that the router span does not cover:
                # HTTP framing, sockets and JSON on both sides
                layers["serve.http"] = layers.pop("op")
        return out

    # -- the timed phase ---------------------------------------------------
    def measure(self, seconds: float, min_ops: int, rec: Optional[Recorder] = None) -> Phase:
        """Time operations; with ``rec``, every other pair of :data:`MIX`
        rounds (one round per tenant) is traced, so traced and untraced
        operations share one mix."""
        phase = Phase()
        conn = self.daemon.connect()
        try:
            for op in itertools.count():
                if phase.done(seconds, min_ops):
                    break
                rounds = self.steps // len(MIX)
                traced = rec is not None and rounds // len(self.tenants) % 2 == 1
                tenant = self.tenants[rounds % len(self.tenants)]
                request = self._next_request(tenant)
                if request is None:
                    break
                path, payload, check = request
                headers = {"X-Repro-Tenant": tenant.name}
                start = time.perf_counter()
                body: Dict[str, Any] = {}
                try:
                    if not traced:
                        status, body = _post(conn, path, payload, headers)
                        end = time.perf_counter()
                    else:
                        headers[OP_HEADER] = str(op)
                        with rec.span("op", op) as root:
                            status, body = _post(conn, path, payload, headers)
                        start, end = rec.spans[root].start, rec.spans[root].end
                    ok = status == 200 and check(body)
                except (OSError, http.client.HTTPException, ValueError):
                    conn.close()
                    end, ok = time.perf_counter(), False
                phase.add(start, end, ok, traced)
                if path == "/v1/check" and ok:
                    self.checks += 1
                    self.cached_checks += bool(body.get("cached"))
        finally:
            conn.close()
        return phase

    def _next_request(self, tenant: _Tenant):
        """The next request by :data:`MIX`, or None when out of inputs."""
        kind = MIX[self.steps % len(MIX)]
        if kind == "R" and tenant.latest is None:
            kind = "F"
        self.steps += 1
        if kind == "F":
            if tenant.next_fresh == len(tenant.fresh):
                return None
            tenant.latest = tenant.fresh[tenant.next_fresh]
            tenant.next_fresh += 1
        if kind in "FR":
            # generated programs are region-inferable by construction, so
            # the known verdict is "verified"
            return (
                "/v1/check",
                {"source": tenant.latest},
                lambda body: body.get("verified") is True,
            )
        if tenant.chain == len(tenant.chains):
            return None
        chain = tenant.chains[tenant.chain]
        source, reference = chain.versions[tenant.version], chain.references[tenant.version]
        tenant.version += 1
        if tenant.version == len(chain.versions):
            tenant.chain, tenant.version = tenant.chain + 1, 0
        return (
            "/v1/infer",
            {"source": source, "document": chain.document},
            lambda body, reference=reference: body.get("target") == reference,
        )


WORKLOADS = {w.name: w for w in (BatchCheck, ServeMixed)}
