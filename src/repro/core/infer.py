"""The region inference engine (paper Sec 4, Fig 3).

Given a well-normal-typed Core-Java program, :class:`RegionInference`
produces a region-annotated target program (:class:`~repro.lang.target.TProgram`)
that is guaranteed never to create dangling references:

1. classes are annotated bottom-up with region parameters and invariants
   (:mod:`repro.core.schemes`);
2. methods are processed one dependency-graph SCC at a time
   (:mod:`repro.core.depgraph`); each SCC is a (possibly mutually)
   recursive nest whose preconditions are closed by fixed-point analysis
   (region-polymorphic recursion, Sec 4.2.3);
3. expression inference gathers outlives/equality constraints per Fig 3,
   applying the configured region-subtyping mode (Sec 3.2) at every
   value flow;
4. the [letreg] rule localises the non-escaping regions of every block
   into one lexically scoped region;
5. provably-equal regions are coalesced, and every remaining region of a
   method body is mapped onto the method's region parameters or the heap
   (Sec 3.3);
6. override conflicts are repaired per Sec 4.4;
7. downcasts are secured by the configured strategy of Sec 5.

Re-inference after an edit (:func:`reinfer_program`) is the same walk
over the SCCs: given a prior result, :meth:`RegionInference.infer` takes
each SCC the dependency-graph diff finds clean from the prior and runs
every other SCC as above.  A from-scratch run is that walk with no
prior, so nothing is spliced.

The result can be independently verified by the region type checker
(:mod:`repro.checking`), which is how the correctness theorem (Thm 1) is
exercised in the test suite.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..deadline import check as check_deadline
from ..frontend.parser import parse_program
from ..lang import ast as S
from ..lang import target as T
from ..lang.class_table import ClassTable
from ..regions.abstraction import (
    AbstractionEnv,
    ConstraintAbstraction,
    ScopedAbstractionEnv,
)
from ..regions.constraints import (
    Atom,
    Constraint,
    HEAP,
    NULL_REGION,
    PredAtom,
    Region,
    RegionEq,
    TRUE,
)
from ..regions.fixpoint import solve_recursive_abstractions
from ..regions.solver import RegionSolver
from ..regions.substitution import RegionSubst
from ..typing.normal import NormalTypeChecker
from .depgraph import (
    DependencyGraph,
    GraphFingerprints,
    SccFootprints,
    class_fingerprints,
    classinv_node,
    dirty_methods,
)
from .downcast import DowncastAnalysis, DowncastStrategy, PaddingPlan
from .override import OverrideResolver
from .schemes import (
    ClassAnnotation,
    ClassAnnotator,
    InferenceError,
    MethodScheme,
)
from .subtyping import SubtypingMode, subtype

if TYPE_CHECKING:
    from ..checking import CheckReport

__all__ = [
    "AnnotatedProgram",
    "InferenceConfig",
    "InferenceResult",
    "MethodRecord",
    "RegionInference",
    "infer_program",
    "infer_source",
    "plan_salts",
    "reinfer_program",
    "scc_splice_keys",
]


@dataclass
class InferenceConfig:
    """Tunable knobs of the inference engine.

    The defaults reproduce the paper's advocated configuration: *field*
    region subtyping, region padding for downcasts, localisation at every
    block, and region-polymorphic recursion for methods.  The ablation
    benchmarks flip these individually.
    """

    mode: SubtypingMode = SubtypingMode.FIELD
    downcast: DowncastStrategy = DowncastStrategy.PADDING
    localize_blocks: bool = True
    polymorphic_recursion: bool = True
    #: drop pre atoms recoverable from class invariants (display parity
    #: with the paper's figures); never affects soundness
    minimize_pre: bool = True
    #: give every null literal the fictitious null region (the paper's
    #: Sec 8 extension): nulls then impose *no* lifetime constraints at all
    null_fictitious_regions: bool = False


@dataclass
class AnnotatedProgram:
    """The config-independent front half of inference, ready for reuse.

    Parsing, normal typing and class annotation do not depend on the
    :class:`InferenceConfig`, so one :class:`AnnotatedProgram` can seed any
    number of :class:`RegionInference` runs over the same source (the
    configs of one :meth:`repro.api.Session.sweep` call; sessions do not
    cache it).  Each run forks the abstraction environment
    (:meth:`fork_env`), so per-run method preconditions never leak between
    configurations; the class invariants and annotations are shared.
    """

    program: S.Program
    table: ClassTable
    q: AbstractionEnv
    annotations: Dict[str, ClassAnnotation]
    annotator: ClassAnnotator
    #: lazily-built downcast padding plan (config-independent; only the
    #: PADDING strategy consults it)
    _plan: Optional[PaddingPlan] = None

    @classmethod
    def build(cls, program: S.Program) -> "AnnotatedProgram":
        """Normal-type ``program`` and annotate every class."""
        table = NormalTypeChecker(program).check()
        return cls.from_table(program, table)

    @classmethod
    def from_table(cls, program: S.Program, table: ClassTable) -> "AnnotatedProgram":
        """Annotate classes for an already normal-typed program."""
        q = AbstractionEnv()
        annotator = ClassAnnotator(table, q)
        annotations = annotator.annotate_all()
        return cls(
            program=program,
            table=table,
            q=q,
            annotations=annotations,
            annotator=annotator,
        )

    @classmethod
    def adopt(
        cls, program: S.Program, table: ClassTable, prior: "InferenceResult"
    ) -> "AnnotatedProgram":
        """The front half of ``prior``'s run, for an edit of its program.

        Keeps the prior class annotations (re-annotating would mint new
        region uids and orphan the schemes and bodies spliced from
        ``prior``) over the prior's pristine env.  Only valid while the
        class shapes are unchanged (:func:`reinfer_program` checks).
        """
        q = AbstractionEnv.over(prior.pristine_q)
        return cls(
            program=program,
            table=table,
            q=q,
            annotations=prior.annotations,
            annotator=ClassAnnotator.adopt(table, q, prior.annotations),
        )

    def fork_env(self) -> AbstractionEnv:
        """A private view of ``Q`` holding the shared class invariants.

        Abstractions are immutable values (``strengthen`` replaces entries),
        so a copy-on-write overlay fully isolates one inference run from
        another -- in O(1), sharing one frozen invariant base across every
        run over this program.
        """
        return self.q.overlay()

    def ensure_plan(self) -> PaddingPlan:
        """The downcast padding plan, computed once per program."""
        if self._plan is None:
            self._plan = DowncastAnalysis(self.program, self.table).build_plan()
        return self._plan


@dataclass(frozen=True, eq=False)
class MethodRecord:
    """What inference found for one method: its signature, pres and body.

    An edit that finds the method's SCC clean takes the prior's record
    object itself, so records are shared along a document's lineage, never
    copied, and compare by identity.  A record holds no source AST, so a
    shared one keeps no older version's parse tree alive.
    """

    __slots__ = ("scheme", "raw_pre", "pre", "body", "localized")

    #: the region signature (rule [t-meth]), padded per the downcast plan
    scheme: MethodScheme
    #: the pre before minimisation, which a spliced SCC defines: later
    #: (dirty) callers expand what a from-scratch run would have seen
    raw_pre: ConstraintAbstraction
    #: the pre the target program carries (minimised if the config asks)
    pre: ConstraintAbstraction
    #: the letreg-localised target method
    body: T.TMethodDecl
    #: its count of localised (letreg-introduced) regions
    localized: int


@dataclass
class InferenceResult:
    """The annotated program plus inference metadata."""

    target: T.TProgram
    table: ClassTable
    annotations: Dict[str, ClassAnnotation]
    config: InferenceConfig
    #: one record per method in program order, keyed by its scheme's
    #: ``qualified`` string (so a spliced record brings its own key)
    methods: Dict[str, MethodRecord] = dc_field(default_factory=dict)
    #: wall-clock seconds spent inside :meth:`RegionInference.infer`
    elapsed: float = 0.0
    #: fixed-point iteration counts per method-SCC (keyed by sorted names)
    fixpoint_iterations: Dict[Tuple[str, ...], int] = dc_field(default_factory=dict)
    #: the abstraction environment at run start (class invariants only,
    #: before any override-resolution strengthening) -- the seed for replay
    pristine_q: Dict[str, ConstraintAbstraction] = dc_field(default_factory=dict)
    #: per-method signature of the downcast padding plan (plan facts are
    #: whole-program flow results the method AST alone cannot witness)
    plan_salts: Dict[str, str] = dc_field(default_factory=dict)
    #: this program's dependency-graph fingerprints under ``plan_salts``,
    #: the prior side of the next edit's diff: an edit keeps the ones its
    #: own diff computed, and a from-scratch result, which nothing may ever
    #: edit, gets them from its first edit (:meth:`kept_fingerprints`)
    graph_fingerprints: Optional[GraphFingerprints] = dc_field(
        default=None, compare=False, repr=False
    )
    #: incremental accounting: SCCs spliced from the prior result vs
    #: re-run (a from-scratch run reports 0 / total)
    reused_sccs: int = 0
    reinferred_sccs: int = 0
    #: the checker's verdict on ``target`` under ``config``: filled once,
    #: by the first :meth:`Pipeline.verify <repro.api.Pipeline.verify>`
    #: that runs to completion, and reused by every later one (the
    #: checker is a pure function of the target and the config)
    report: Optional["CheckReport"] = dc_field(
        default=None, compare=False, repr=False
    )

    def kept_fingerprints(self) -> GraphFingerprints:
        """:attr:`graph_fingerprints`, hashing this program the first time.

        A cached result is shared between threads; two that race here
        compute and store equal values.
        """
        fingerprints = self.graph_fingerprints
        if fingerprints is None:
            graph = DependencyGraph(self.table.program, self.table)
            fingerprints = self.graph_fingerprints = graph.fingerprints(self.plan_salts)
        return fingerprints

    @property
    def total_localized(self) -> int:
        return sum(record.localized for record in self.methods.values())

    def fingerprint(self) -> Dict[str, Tuple[int, int]]:
        """A structural identity, stable across runs and processes.

        Region uids come from a per-process counter, so raw uids are never
        comparable between two inference runs; the *structure* — each
        method's region arity and its count of localised regions — is.
        The daemon returns it with every ``/v1/infer`` answer.
        """
        return {
            qualified: (len(record.scheme.region_params), record.localized)
            for qualified, record in self.methods.items()
        }


def plan_salts(program: S.Program, plan: PaddingPlan) -> Dict[str, str]:
    """Per-method signatures of the downcast padding plan.

    The plan is a whole-program flow result: an edit in one method can
    change the padding of another whose AST is untouched.  These strings
    are mixed into the per-method structural fingerprints (the ``salts``
    of :meth:`repro.core.depgraph.DependencyGraph.node_fingerprints`) so
    plan changes dirty exactly the methods they affect.  ``new``-site
    plan entries are keyed by parse-order labels, which differ between
    parses; the salt replaces them with the site's structural position
    (pre-order index within the method body).
    """
    if not plan.downcast_sets:
        return {}
    by_method: Dict[str, List[str]] = {}
    for key, dset in plan.downcast_sets.items():
        kind, a, b = key
        if kind in ("var", "ret"):
            by_method.setdefault(a, []).append(
                f"{kind}:{b}:{','.join(sorted(dset))}"
            )
    salts: Dict[str, str] = {}
    for m in program.all_methods():
        parts = sorted(by_method.get(m.qualified_name, []))
        labels: List[str] = []
        stack: List[S.Expr] = [m.body]
        while stack:  # pre-order
            e = stack.pop()
            if isinstance(e, S.New):
                labels.append(e.label)
            stack.extend(reversed(e.children()))
        for i, label in enumerate(labels):
            dset = plan.downcast_sets.get(("new", label, ""))
            if dset:
                parts.append(f"new:{i}:{','.join(sorted(dset))}")
        if parts:
            salts[m.qualified_name] = ";".join(parts)
    return salts


def scc_splice_keys(
    graph: DependencyGraph, salts: Optional[Dict[str, str]] = None
) -> Dict[Tuple[str, ...], str]:
    """Content-addressed keys per method SCC.

    Nothing in the inference pipeline calls this: incremental
    re-inference splices only from the document's prior result, which
    :func:`repro.core.depgraph.diff` scopes without per-SCC keys.  It is
    kept as a public helper for tools that time or inspect the
    dependency graph.

    The key hashes the SCC's transitive fingerprint together with the
    transitive fingerprints of the members' *owner* class-invariant
    nodes.  The owner invariants matter because a method's hypotheses
    expand its own class's invariant, which override resolution may
    strengthen -- yet methods deliberately take no dependency edge on
    their own class (it would be cyclic).  Two SCCs with equal keys are
    therefore guaranteed equal inference inputs, which (inference being
    deterministic) guarantees equal outputs.
    """
    node_fps = graph.node_fingerprints(salts)
    out: Dict[Tuple[str, ...], str] = {}
    for scc in graph.sccs():
        methods = tuple(sorted(n.name for n in scc if n.kind == "method"))
        if not methods:
            continue
        h = hashlib.sha256()
        h.update(node_fps[scc[0]].encode("ascii"))
        owners = sorted(
            {
                node_fps[classinv_node(graph._methods[qn].owner)]
                for qn in methods
                if graph._methods[qn].owner is not None
            }
        )
        for fp in owners:
            h.update(b"\x00O")
            h.update(fp.encode("ascii"))
        out[methods] = h.hexdigest()
    return out


class _Block:
    """One elaborated block, as the [letreg] rule needs it.

    Elaboration records, per block: the region watermark at its start, the
    constraints gathered directly in it (not in a nested block), its
    nested blocks, the regions its escape set starts from (the heap, the
    enclosing variables' types, its result type) and the regions its own
    nodes mention (a nested block's nodes are its own).  Localisation reads
    these records and never changes them, so one elaboration can be
    localised more than once.  The method itself is the root record: its
    constraints are the result flow and its one child is the body.
    """

    __slots__ = (
        "mark",
        "constraints",
        "children",
        "node",
        "parent",
        "escape_types",
        "mentioned",
    )

    def __init__(self, mark: int):
        self.mark = mark
        self.constraints: List[Constraint] = []
        self.children: List["_Block"] = []
        #: the elaborated block (None for the method record) and the node
        #: that holds it (None for the body block)
        self.node: Optional[T.TBlock] = None
        self.parent: Optional[T.TExpr] = None
        #: the enclosing variables' types and the block's result type
        self.escape_types: Tuple[T.RType, ...] = ()
        self.mentioned: Set[Region] = set()

    def seal(self, node: T.TBlock, env: Dict[str, T.RType]) -> None:
        """Record the finished block: walk its own nodes once."""
        self.node = node
        self.escape_types = (*env.values(), node.type)
        inner = {id(child.node): child for child in self.children}
        mentioned = self.mentioned
        stack: List[T.TExpr] = [node]
        while stack:
            expr = stack.pop()
            t = expr.type
            if isinstance(t, T.RClass):
                mentioned.update(t.regions)
                mentioned.update(t.padding)
            if isinstance(expr, T.TNew):
                mentioned.update(expr.regions)
            elif isinstance(expr, T.TCall):
                mentioned.update(expr.region_args)
            for sub in expr.children():
                child = inner.get(id(sub))
                if child is None:
                    stack.append(sub)
                else:
                    child.parent = expr


@dataclass
class _Elaboration:
    """A method's typed body and constraints, ready to localise."""

    scheme: MethodScheme
    #: the method record: the result flow, and the body block as its child
    root: _Block
    body: T.TBlock
    hyp: Constraint
    #: whether the body calls back into its own SCC (then its constraints
    #: hold pred atoms of the nest)
    recursive: bool


class _Ctx:
    """Per-method elaboration state."""

    def __init__(self, scheme: MethodScheme, scc: Set[str], monomorphic: bool):
        self.scheme = scheme
        self.scc = scc
        #: elaborate calls into the SCC region-monomorphically (ablation)
        self.monomorphic = monomorphic
        #: the record that gathers constraints now: the method's, then
        #: each block's while it is elaborated
        self.block = _Block(Region.watermark())
        self.recursive = False

    def add(self, c: Constraint) -> None:
        if not c.is_true:
            self.block.constraints.append(c)


def _atom_regions(atoms: Set[Atom]) -> Set[Region]:
    """The regions of a set of base (outlives/equality) atoms."""
    out: Set[Region] = set()
    for a in atoms:
        out.add(a.left)
        out.add(a.right)
    return out


def _without(atoms, rs: Set[Region]) -> Constraint:
    """The base atoms that mention no region of ``rs``, normalised.

    This is what renaming ``rs`` onto a fresh letreg local and dropping
    every atom that mentions the local leaves, without minting the local.
    """
    return Constraint.of(
        *(a for a in atoms if a.left not in rs and a.right not in rs)
    )


def _finish_body(
    body: T.TBlock,
    localised: List[Tuple[_Block, Set[Region]]],
    method_rs: Set[Region],
    rest: RegionSubst,
) -> T.TExpr:
    """Wrap the localised blocks in letregs and rename the body once.

    Each localised block gets a fresh local (innermost first, then the
    method-level one), and the renaming composes every block's, the
    method's and ``rest``.  A block's localised regions occur only inside
    it, so renaming them throughout the body renames nothing else.
    """
    mapping: Dict[Region, Region] = {}
    top: T.TExpr = body
    for block, rs in localised:
        local = Region.fresh("rl")
        mapping.update((r, local) for r in rs)
        letreg = T.TLetreg(regions=(local,), body=block.node, type=block.node.type)
        if block.node is body:
            top = letreg
        elif block.parent is not None:
            _replace_child(block.parent, block.node, letreg)
    subst = RegionSubst(mapping)
    if method_rs:
        local = Region.fresh("rl")
        subst = subst.compose(RegionSubst({r: local for r in method_rs}))
        top = T.TLetreg(regions=(local,), body=top, type=top.type)
    subst = subst.compose(rest)
    if subst:
        T.rename_expr_regions(top, subst)
    return top


def _replace_child(parent: T.TExpr, old: T.TExpr, new: T.TExpr) -> None:
    """Put ``new`` where ``parent`` holds ``old``."""
    if isinstance(parent, T.TBlock):
        if parent.result is old:
            parent.result = new
            return
        for stmt in parent.stmts:
            if isinstance(stmt, T.TLocalDecl):
                if stmt.init is old:
                    stmt.init = new
                    return
            elif stmt.expr is old:
                stmt.expr = new
                return
    for name, value in vars(parent).items():
        if value is old:
            setattr(parent, name, new)
            return
        if isinstance(value, list):
            for i, x in enumerate(value):
                if x is old:
                    value[i] = new
                    return
    raise AssertionError(f"{type(parent).__name__} does not hold the block")


class RegionInference:
    """Runs region inference on one program.  See the module docstring."""

    def __init__(
        self,
        program: S.Program,
        config: Optional[InferenceConfig] = None,
        *,
        prepared: Optional[AnnotatedProgram] = None,
        prior: Optional[InferenceResult] = None,
    ):
        """``prepared`` injects the config-independent front half.

        When given (typically by a :class:`repro.api.Pipeline`, once per
        sweep), normal typing, class annotation and the downcast plan are
        reused instead of recomputed; this run works on a forked
        abstraction environment so its method preconditions stay private.

        ``prior`` is a result for an earlier version of ``program`` under
        the same config and class shapes, whose front half ``prepared``
        adopted (:meth:`AnnotatedProgram.adopt`); :meth:`infer` splices
        the SCCs it finds clean from it.  :func:`reinfer_program` builds
        both.
        """
        self.program = program
        self.config = config or InferenceConfig()
        if prepared is None:
            prepared = AnnotatedProgram.build(program)
        # always fork: the prepared env keeps exactly the class invariants,
        # which is what the pristine replay seed aliases (O(1), no copies)
        self.q = prepared.fork_env()
        self.table = prepared.table
        self.annotator = prepared.annotator
        self.annotations = prepared.annotations
        if self.config.downcast is DowncastStrategy.PADDING:
            self.plan = prepared.ensure_plan()
        else:
            self.plan = PaddingPlan()
        self.prior = prior
        self.result: Optional[InferenceResult] = None

    def _init_resolution(self) -> None:
        """Set up incremental override-pair resolution state.

        ``_pairs_by_method`` lets :meth:`_mark_done` enqueue exactly the
        pairs a newly completed method makes resolvable; ``_pair_order``
        preserves the declaration order ties used to break the
        most-derived-first sort, so the incremental worklist replays the
        former full-rescan algorithm's sequence of state-changing
        resolutions call for call.
        """
        self._resolver = OverrideResolver(
            self.table, self.q, self.annotations, self.schemes
        )
        self._pending_pairs: Set[Tuple[str, str, str]] = set()
        self._pairs_by_method: Dict[str, List[Tuple[str, str, str]]] = {}
        self._pair_order: Dict[Tuple[str, str, str], int] = {}
        for i, pair in enumerate(self.table.override_pairs()):
            sub, sup, mn = pair
            self._pair_order[pair] = i
            self._pairs_by_method.setdefault(f"{sub}.{mn}", []).append(pair)
            self._pairs_by_method.setdefault(f"{sup}.{mn}", []).append(pair)
        #: resolve_pair invocations so far (the O(overrides) regression
        #: test reads this; the rescanning driver made it O(SCCs x pairs))
        self.resolution_pairs_checked = 0

    def _mark_done(self, scc: Sequence[str]) -> None:
        """Record finished methods and enqueue newly resolvable pairs."""
        self._done.update(scc)
        for qn in scc:
            for pair in self._pairs_by_method.get(qn, ()):
                sub, sup, mn = pair
                if f"{sub}.{mn}" in self._done and f"{sup}.{mn}" in self._done:
                    self._pending_pairs.add(pair)

    def _pad_scheme(self, scheme: MethodScheme) -> None:
        """Pad parameter/result types per the downcast plan (Sec 5).

        Padding regions become additional method region parameters, so
        call sites thread the preserved regions through the method
        boundary.
        """
        if not self.plan.downcast_sets:
            return
        new_params: List[T.RType] = []
        extra: List[Region] = []
        for name, t in zip(scheme.param_names, scheme.param_types):
            key = ("var", scheme.qualified, name)
            if key in self.plan.downcast_sets and isinstance(t, T.RClass):
                dset = sorted(self.plan.downcast_sets[key])
                pads = self._pad_count(t.name, dset)
                if pads:
                    t = t.with_padding(Region.fresh_many(pads, hint="p"))
                    object.__setattr__(t, "_dcast", frozenset(dset))
                    extra.extend(t.padding)
            new_params.append(t)
        ret = scheme.ret_type
        key = ("ret", scheme.qualified, "")
        if key in self.plan.downcast_sets and isinstance(ret, T.RClass):
            dset = sorted(self.plan.downcast_sets[key])
            pads = self._pad_count(ret.name, dset)
            if pads:
                ret = ret.with_padding(Region.fresh_many(pads, hint="p"))
                object.__setattr__(ret, "_dcast", frozenset(dset))
                extra.extend(ret.padding)
        if extra:
            scheme.param_types = tuple(new_params)
            scheme.ret_type = ret
            scheme.region_params = scheme.region_params + tuple(extra)

    # ------------------------------------------------------------------ driver
    def infer(self) -> InferenceResult:
        """Infer annotations for the whole program, one method SCC at a time.

        The SCCs are walked in dependency order.  Without a prior every
        SCC runs its fixed point.  With one, an SCC that
        :func:`~repro.core.depgraph.diff` finds clean takes its members'
        :class:`MethodRecord`\\ s and its iteration count from the prior
        instead; ``docs/incremental.md`` sets out why the output stays
        byte-identical to a from-scratch run.
        """
        start = time.perf_counter()
        self._decls = {m.qualified_name: m for m in self.program.all_methods()}
        graph = DependencyGraph(self.program, self.table)
        salts = plan_salts(self.program, self.plan)
        # only a diff reads fingerprints, so a from-scratch run hashes nothing
        fingerprints = graph.fingerprints(salts) if self.prior is not None else None
        spliced = self._spliceable(graph, fingerprints)
        prior = self.prior
        self.schemes: Dict[str, MethodScheme] = {}
        for qn, m in self._decls.items():
            if qn in spliced:
                # the prior's regions and padding: its bodies mention their uids
                self.schemes[qn] = prior.methods[qn].scheme
            else:
                scheme = self.annotator.method_scheme(m)
                self._pad_scheme(scheme)
                self.schemes[qn] = scheme
        #: each re-inferred method's target body and localised count
        self._kept: Dict[str, Tuple[T.TMethodDecl, int]] = {}
        self._done: Set[str] = set()
        self._init_resolution()
        self._footprints = SccFootprints(graph)
        result = InferenceResult(
            target=T.TProgram(q=self.q),
            table=self.table,
            annotations=self.annotations,
            config=self.config,
        )
        # the replay seed for re-inference: the environment holds exactly
        # the class invariants at this point, so the shared frozen base
        # mapping *is* the snapshot (aliased, not copied)
        result.pristine_q = self.q.snapshot_base()
        result.plan_salts = salts
        result.graph_fingerprints = fingerprints
        for scc in graph.method_sccs():
            check_deadline()
            if spliced.issuperset(scc):
                self._splice_scc(scc, result)
                result.reused_sccs += 1
            else:
                self._process_scc(scc, result)
                result.reinferred_sccs += 1
            self._resolve_ready()
        for qn, scheme in self.schemes.items():
            if qn in spliced:
                # same raw pre, same final hypotheses: same final pre
                record = prior.methods[qn]
                self.q.define(record.pre)
            else:
                raw_pre = self.q[scheme.pre]
                if self.config.minimize_pre:
                    self._minimize_pre(qn)
                record = MethodRecord(scheme, raw_pre, self.q[scheme.pre], *self._kept[qn])
            result.methods[scheme.qualified] = record
        self._assemble(result.target, result.methods)
        result.elapsed = time.perf_counter() - start
        self.result = result
        return result

    def _spliceable(
        self, graph: DependencyGraph, fingerprints: Optional[GraphFingerprints]
    ) -> Set[str]:
        """The methods whose results this run takes from the prior.

        Empty without a prior.  The prior's side of the diff is the
        fingerprints it keeps, so only this program is hashed.
        :func:`~repro.core.depgraph.dirty_methods` dirties whole SCCs, so
        this is a union of SCCs: a nest is one fixed point, spliced whole
        or not at all.
        """
        prior = self.prior
        if prior is None:
            return set()
        dirty = dirty_methods(prior.kept_fingerprints(), graph, fingerprints)
        if dirty is None:
            raise ValueError("the prior result has other class shapes")
        return set(self._decls) - dirty

    def _splice_scc(self, scc: List[str], result: InferenceResult) -> None:
        """Define a clean SCC's raw pres from the prior's records."""
        for qn in scc:
            self.q.define(self.prior.methods[qn].raw_pre)
        key = tuple(sorted(scc))
        result.fixpoint_iterations[key] = self.prior.fixpoint_iterations[key]
        self._mark_done(scc)

    def _process_scc(self, scc: List[str], result: InferenceResult) -> None:
        """Infer one method SCC: elaborate, localise, close the nest.

        A recursive SCC localises twice.  The first localisation protects
        the arguments of every call back into the SCC (a pred atom of the
        still-open nest) and yields only the preconditions, which the
        fixed point closes.  The second swaps each such pred atom for its
        closed precondition, so the [letreg] rule can localise regions
        the first had to protect (e.g. the temporary list of Reynolds3),
        and keeps the bodies.  Both read the same elaboration: expanding a
        closed precondition mints no region, so the kept body is the one a
        re-elaboration would build.
        """
        scc_set = set(scc)
        # per-SCC work reads the env through its footprint gate: the writes
        # (pre definitions) land in the real env, but a read outside the
        # SCC's reachable closure raises FootprintViolation rather than
        # silently re-introducing a whole-program dependency.  Override
        # resolution stays on the real env (self._resolver): it
        # legitimately reaches descendant invariants across the hierarchy.
        whole_q = self.q
        self.q = ScopedAbstractionEnv(whole_q, self._footprints.for_scc(scc))
        try:
            monomorphic = not self.config.polymorphic_recursion
            elaborated = [self._elaborate(qn, scc_set, monomorphic) for qn in scc]
            recursive = any(el.recursive for el in elaborated)
            nest = [
                self._localise(el, expand=False, keep=not recursive)
                for el in elaborated
            ]
            fp = solve_recursive_abstractions(nest, self.q)
            for solved in fp.solutions.values():
                self.q.define(solved)
            result.fixpoint_iterations[tuple(sorted(scc))] = fp.iterations
            if recursive:
                if monomorphic:
                    # only the fixed point is monomorphic: the kept bodies
                    # instantiate calls back into the SCC like any other
                    # call, which is a different elaboration
                    elaborated = [self._elaborate(qn, scc_set, False) for qn in scc]
                nest = []
                for el in elaborated:
                    pre = self._localise(el, expand=True, keep=True)
                    # a later member's calls to this one expand this pre
                    self.q.define(pre)
                    nest.append(pre)
                fp = solve_recursive_abstractions(nest, self.q)
                for solved in fp.solutions.values():
                    self.q.define(solved)
        finally:
            self.q = whole_q
        self._mark_done(scc)

    def _resolve_ready(self) -> None:
        """Run override resolution for pairs that just became resolvable.

        The dependency graph orders subclass methods before the superclass
        method they override, so resolving as soon as the superclass method
        completes guarantees its *callers* (processed later) see the final,
        possibly strengthened precondition.

        Resolution is incremental: only pairs whose second member just
        completed are attempted (plus ripples -- when resolving
        ``(sub, sup, mn)`` strengthens ``pre.sup.mn``, the pair where
        ``sup`` is the subclass side gains a stronger goal and is
        re-attempted).  A quiescent pair can only be re-enabled by such a
        goal strengthening, so the worklist visits every pair the former
        full rescan would have changed, in the same most-derived-first /
        declaration order -- results are byte-identical while total
        resolution work drops from O(SCCs x pairs) to
        O(pairs + strengthenings).
        """
        if not self._pending_pairs:
            return

        def sort_key(pair: Tuple[str, str, str]) -> Tuple[int, int]:
            return (-len(self.table.ancestors(pair[0])), self._pair_order[pair])

        batch = sorted(self._pending_pairs, key=sort_key)
        self._pending_pairs.clear()
        queued = set(batch)
        limit = 16 * (len(self._pair_order) + len(batch) + 1)
        i = 0
        while i < len(batch):
            pair = batch[i]
            queued.discard(pair)
            i += 1
            if i > limit:
                raise InferenceError(
                    "override conflict resolution did not stabilise"
                )
            self.resolution_pairs_checked += 1
            sub, sup, mn = pair
            if self._resolver.resolve_pair(sub, sup, mn):
                # pre.sup.mn (and/or inv.sub) strengthened: the pair where
                # sup overrides *its* superclass now has a stronger goal.
                # It sorts strictly later (fewer ancestors), so inserting
                # into the unprocessed tail keeps the batch sorted.
                over = self.table.overridden_method(sup, mn)
                if over is not None and f"{over[1]}.{mn}" in self._done:
                    ripple = (sup, over[1], mn)
                    if ripple not in queued:
                        bisect.insort(batch, ripple, lo=i, key=sort_key)
                        queued.add(ripple)

    # ------------------------------------------------------------ method level
    def _hypotheses(self, scheme: MethodScheme) -> Constraint:
        """Invariants of ``this``, the parameters and the result.

        These hold at every call by construction, so they may be assumed
        when simplifying the precondition (the paper elides them from its
        displayed ``pre`` abstractions for the same reason).
        """
        hyp = TRUE
        if scheme.owner is not None:
            anno = self.annotations[scheme.owner]
            hyp = hyp.conj(self.q.expand(Constraint.of(PredAtom(anno.inv, anno.regions))))
        for t in tuple(scheme.param_types) + (scheme.ret_type,):
            if isinstance(t, T.RClass):
                hyp = hyp.conj(self._invariant_at(t))
        return hyp

    def _invariant_at(self, t: T.RClass) -> Constraint:
        anno = self.annotations[t.name]
        if anno.arity == 0:
            return TRUE
        return self.q.expand(
            Constraint.of(PredAtom(anno.inv, tuple(t.regions)))
        )

    def _elaborate(
        self, qualified: str, scc: Set[str], monomorphic: bool
    ) -> _Elaboration:
        """Build the typed body and gather its constraints (Fig 3).

        A call back into ``scc`` contributes the callee's pred atom, to be
        closed by the fixed point.  Nothing is localised here.
        """
        scheme = self.schemes[qualified]
        ctx = _Ctx(scheme, scc, monomorphic)
        env: Dict[str, T.RType] = {}
        if scheme.owner is not None:
            env[S.THIS] = self.annotations[scheme.owner].as_type()
        for name, t in zip(scheme.param_names, scheme.param_types):
            env[name] = t
        root = ctx.block
        tbody = self._infer_block(self._decls[qualified].body, env, ctx)
        ctx.add(
            self._subtype(tbody.type, scheme.ret_type, ctx, by_ref=scheme.by_ref)
        )
        return _Elaboration(
            scheme, root, tbody, self._hypotheses(scheme), ctx.recursive
        )

    def _settle(
        self,
        block: _Block,
        expand: bool,
        params: Sequence[Region],
        localised: List[Tuple[_Block, Set[Region]]],
    ) -> Tuple[Set[Atom], Set[PredAtom], Set[Region]]:
        """``block``'s base atoms, pred atoms and mentioned regions, after
        the [letreg] rule ran on it and (first) on every nested block.

        Built from the nested blocks' results, so no subtree is walked
        again.  ``expand`` swaps each pred atom for its (closed)
        definition.  A block that localises is appended to ``localised``
        with its localised regions, innermost first; its region set leaves
        the block's atoms (every atom mentioning one is dropped) and its
        mentioned regions (the letreg local takes their place in the body,
        and the rule never localises a bound region again).
        """
        base: Set[Atom] = set()
        preds: Set[PredAtom] = set()
        for c in block.constraints:
            for a in c.atoms:
                if not isinstance(a, PredAtom):
                    base.add(a)
                elif expand:
                    base.update(self.q.expand(Constraint.of(a)).atoms)
                else:
                    preds.add(a)
        mentioned = set(block.mentioned)
        for child in block.children:
            b, p, m = self._settle(child, expand, params, localised)
            base |= b
            preds |= p
            mentioned |= m
        if block.node is None or not self.config.localize_blocks:
            return base, preds, mentioned
        # ---- the [letreg] rule -------------------------------------------
        candidates = {
            r
            for r in _atom_regions(base) | mentioned
            if r > block.mark and not (r.is_heap or r.is_null)
        }
        if not candidates:
            return base, preds, mentioned
        solver = RegionSolver(Constraint(frozenset(base)))
        protected: Set[Region] = {HEAP}
        for t in block.escape_types:
            protected.update(T.type_regions(t))
        for p in preds:
            protected.update(p.args)
        protected.update(params)
        rs = candidates - (solver.upward_closure(protected) | protected)
        if not rs:
            return base, preds, mentioned
        localised.append((block, rs))
        return set(_without(base, rs).atoms), preds, mentioned - rs

    def _localise(
        self,
        el: _Elaboration,
        *,
        expand: bool,
        keep: bool,
    ) -> ConstraintAbstraction:
        """Localise, coalesce and map residual regions; return the pre.

        Reads ``el`` without changing it.  With ``keep`` the method's
        target body is built: the block letregs are wrapped in, and every
        step's substitution is composed and applied to the tree in one
        rename.
        """
        scheme = el.scheme
        interface = list(scheme.abstraction_params)
        localised: List[Tuple[_Block, Set[Region]]] = []
        atoms, pred_set, body_regions = self._settle(
            el.root, expand, interface, localised
        )
        base = Constraint(frozenset(atoms))
        preds = tuple(pred_set)
        hyp = el.hyp

        # method-level localisation of anything the block rule left behind
        solver = RegionSolver(base.conj(hyp))
        rs: Set[Region] = set()
        if self.config.localize_blocks:
            protected: Set[Region] = set(interface) | {HEAP}
            for p in preds:
                protected |= set(p.args)
            protected |= set(T.type_regions(el.body.type))
            # a region is its uid: ``r > mark`` means "minted after the mark"
            candidates = {
                r
                for r in (set(base.regions()) | body_regions)
                if r > el.root.mark and not (r.is_heap or r.is_null)
            }
            rs = candidates - (solver.upward_closure(protected) | protected)
        if rs:
            base = _without(base.atoms, rs)
            body_regions -= rs
            # localisation rewrote ``base``; the closed solver is stale
            solver = RegionSolver(base.conj(hyp))

        # coalesce provably-equal regions (prefer formal names)
        coalesce = solver.coalescing_substitution(preferred=interface)
        formals = set(interface)
        coalesce = RegionSubst({k: v for k, v in coalesce if k not in formals})
        if coalesce:  # else ``solver`` still holds ``base`` and ``hyp``
            base = coalesce.apply_constraint(base)
            preds = tuple(p.rename(coalesce.mapping()) for p in preds)
            body_regions = set(coalesce.apply_all(body_regions))
            solver = RegionSolver(base.conj(hyp))

        # map residual escaping regions onto the interface (or the heap)
        residual = self._residual_substitution(
            solver, base, preds, body_regions, interface
        )
        base = residual.apply_constraint(base)
        preds = tuple(p.rename(residual.mapping()) for p in preds)
        if keep:
            decl = self._decls[scheme.qualified]
            body = T.TMethodDecl(
                name=decl.name,
                owner=decl.owner,
                is_static=decl.is_static,
                region_params=scheme.region_params,
                ret_type=scheme.ret_type,
                params=[
                    T.TParam(t, n)
                    for t, n in zip(scheme.param_types, scheme.param_names)
                ],
                body=_finish_body(el.body, localised, rs, coalesce.compose(residual)),
                pre_name=scheme.pre,
            )
            self._kept[scheme.qualified] = (body, len(localised) + bool(rs))
        return ConstraintAbstraction(
            scheme.pre, scheme.abstraction_params, base.conj(Constraint.of(*preds))
        )

    def _residual_substitution(
        self,
        solver: RegionSolver,
        base: Constraint,
        preds: Tuple[PredAtom, ...],
        body_regions: Set[Region],
        interface: List[Region],
    ) -> RegionSubst:
        """Map every non-interface, non-letreg region onto a formal or heap.

        Every region of a finished method body must be a region parameter,
        a letreg-bound local, or the heap (Sec 3.3).  A residual escaping
        region ``r`` is unified with the longest-lived interface region it
        provably outlives.  ``body_regions`` are the regions the body
        mentions outside its letregs, and ``solver`` holds ``base`` and the
        method's hypotheses.
        """
        keep = set(interface) | {HEAP}
        mentioned: Set[Region] = set(base.regions()) | body_regions
        for p in preds:
            mentioned.update(p.args)
        mapping: Dict[Region, Region] = {}
        for r in sorted(mentioned):
            if r in keep or r.is_heap or r.is_null:
                continue
            # prefer an interface region the residual provably outlives
            # (allocate directly in the longest-lived such region) ...
            down = [e for e in interface if solver.entails_outlives(r, e)]
            if down:
                best = down[0]
                for e in down[1:]:
                    if solver.entails_outlives(e, best):
                        best = e
                mapping[r] = best
                continue
            # ... else an interface region known to outlive it (the residual
            # is a covariant *view*; the shortest-lived witness is exact) ...
            up = [
                e
                for e in interface
                if not e.is_heap and solver.entails_outlives(e, r) and e != r
            ]
            if up:
                best = up[0]
                for e in up[1:]:
                    if solver.entails_outlives(best, e):
                        best = e
                mapping[r] = best
                continue
            # ... else the heap (always sound, never freed).
            mapping[r] = HEAP
        return RegionSubst(mapping)

    def _minimize_pre(self, qualified: str) -> None:
        """Drop pre atoms recoverable from the signature's invariants.

        An atom is dropped when it follows from the invariant hypotheses
        *plus the remaining pre atoms* (greedy), which reproduces the terse
        preconditions of the paper's figures; soundness is unaffected
        because the checker re-assumes the invariants.
        """
        scheme = self.schemes[qualified]
        # minimisation reads the method's own pre and its signature
        # hypotheses -- all inside the method's SCC footprint
        whole_q = self.q
        self.q = ScopedAbstractionEnv(whole_q, self._footprints.for_method(qualified))
        try:
            abstraction = self.q[scheme.pre]
            hyp = self._hypotheses(scheme)
            kept = [a for a in abstraction.body.sorted_atoms()]
            # each drop test solves the hypotheses, the atoms already
            # decided kept and the still-undecided suffix on a fresh solver
            # (these solvers hold a handful of regions, so building one
            # costs less than copying one)
            changed = True
            while changed:
                changed = False
                decided: List[Atom] = []
                for i, a in enumerate(kept):
                    if isinstance(a, PredAtom):
                        decided.append(a)
                        continue
                    trial = RegionSolver(hyp)
                    for b in decided + kept[i + 1 :]:
                        if not isinstance(b, PredAtom):
                            trial.add_atom(b)
                    if trial.entails_atom(a):
                        changed = True  # recoverable from the rest
                    else:
                        decided.append(a)
                kept = decided
            self.q.define(
                ConstraintAbstraction(
                    abstraction.name, abstraction.params, Constraint.of(*kept)
                )
            )
        finally:
            self.q = whole_q

    # ------------------------------------------------------------ expressions
    def _fresh_type(self, t: S.Type, pads: int = 0, dcast: Sequence[str] = ()) -> T.RType:
        if isinstance(t, S.PrimType):
            return T.RPrim(t.name)
        assert isinstance(t, S.ClassType)
        anno = self.annotations[t.name]
        rt = T.RClass(t.name, Region.fresh_many(anno.arity))
        if pads:
            rt = rt.with_padding(Region.fresh_many(pads, hint="p"))
        if dcast:
            object.__setattr__(rt, "_dcast", frozenset(dcast))
        return rt

    def _subtype(
        self,
        src: T.RType,
        dst: T.RType,
        ctx: _Ctx,
        *,
        src_expr: Optional[T.TExpr] = None,
        by_ref: bool = False,
    ) -> Constraint:
        """The flow ``src -> dst``, with upcast bookkeeping (Sec 5)."""
        j = subtype(src, dst, self.config.mode, self.table, self.annotations, by_ref=by_ref)
        c = j.constraint
        if j.lost:
            if self.config.downcast is DowncastStrategy.FIRST_REGION:
                assert isinstance(src, T.RClass)
                first = src.regions[0]
                c = c.conj(Constraint.of(*(RegionEq(r, first) for r in j.lost)))
            elif self.config.downcast is DowncastStrategy.PADDING:
                c = c.conj(self._bind_padding(src, dst, j.lost))
        elif isinstance(src, T.RClass) and isinstance(dst, T.RClass) and dst.padding:
            # same-class flow into a padded slot: carry the pads through
            n = min(len(src.padding), len(dst.padding))
            c = c.conj(
                Constraint.of(
                    *(RegionEq(a, b) for a, b in zip(src.padding[:n], dst.padding[:n]))
                )
            )
        return c

    def _bind_padding(
        self, src: T.RType, dst: T.RType, lost: Tuple[Region, ...]
    ) -> Constraint:
        """Record lost regions into the destination's padding, if gated in.

        Padding is only instantiated when the source class is related to a
        class in the destination's downcast set (the paper skips the ``le``
        site whose class can never survive the downcast).
        """
        if not (isinstance(dst, T.RClass) and dst.padding):
            return TRUE
        dset = getattr(dst, "_dcast", None)
        assert isinstance(src, T.RClass)
        if dset is not None and not any(
            self.table.related(src.name, d) for d in dset
        ):
            return TRUE
        supply = tuple(lost) + tuple(src.padding)
        n = min(len(supply), len(dst.padding))
        return Constraint.of(
            *(RegionEq(a, b) for a, b in zip(supply[:n], dst.padding[:n]))
        )

    def _field_type_at(self, cn: str, field_name: str, regions: Sequence[Region]) -> T.RType:
        anno = self.annotations[cn]
        declared = self.annotator.lookup_field_type(cn, field_name)
        subst = RegionSubst.zip(anno.regions, list(regions))
        if isinstance(declared, T.RClass):
            return T.subst_type(subst, declared)
        return declared

    def _infer_expr(self, e: S.Expr, env: Dict[str, T.RType], ctx: _Ctx) -> T.TExpr:
        if isinstance(e, S.Var):
            if e.name not in env:
                raise InferenceError(f"unbound variable {e.name!r}")
            return T.TVar(e.name, env[e.name])

        if isinstance(e, S.IntLit):
            return T.TIntLit(e.value)

        if isinstance(e, S.BoolLit):
            return T.TBoolLit(e.value)

        if isinstance(e, S.Null):
            assert e.class_name is not None, "normal typing resolves nulls"
            if self.config.null_fictitious_regions:
                # Sec 8's extension: null occupies no space and moves
                # freely, so every region slot is the fictitious rnull
                arity = self.annotations[e.class_name].arity
                t: T.RType = T.RClass(e.class_name, (NULL_REGION,) * arity)
            else:
                t = self._fresh_type(S.ClassType(e.class_name))
            assert isinstance(t, T.RClass)
            return T.TNull(type=t)

        if isinstance(e, S.FieldRead):
            recv = self._infer_expr(e.receiver, env, ctx)
            if not isinstance(recv.type, T.RClass):
                raise InferenceError(f"field read on non-object {recv.type}")
            t = self._field_type_at(recv.type.name, e.field_name, recv.type.regions)
            return T.TFieldRead(recv, e.field_name, t)

        if isinstance(e, S.Assign):
            rhs = self._infer_expr(e.rhs, env, ctx)
            if isinstance(e.lhs, S.Var):
                lhs: T.TExpr = T.TVar(e.lhs.name, env[e.lhs.name])
            else:
                assert isinstance(e.lhs, S.FieldRead)
                lhs = self._infer_expr(e.lhs, env, ctx)
            ctx.add(self._subtype(rhs.type, lhs.type, ctx, src_expr=rhs))
            return T.TAssign(lhs, rhs, T.R_VOID)

        if isinstance(e, S.New):
            return self._infer_new(e, env, ctx)

        if isinstance(e, S.Call):
            return self._infer_call(e, env, ctx)

        if isinstance(e, S.Cast):
            return self._infer_cast(e, env, ctx)

        if isinstance(e, S.If):
            return self._infer_if(e, env, ctx)

        if isinstance(e, S.While):
            cond = self._infer_expr(e.cond, env, ctx)
            body = self._infer_block(e.body, env, ctx)
            return T.TWhile(cond, body, T.R_VOID)

        if isinstance(e, S.Binop):
            left = self._infer_expr(e.left, env, ctx)
            right = self._infer_expr(e.right, env, ctx)
            out = T.R_BOOL if e.op not in S.ARITH_OPS else T.R_INT
            return T.TBinop(e.op, left, right, out)

        if isinstance(e, S.Unop):
            operand = self._infer_expr(e.operand, env, ctx)
            out = T.R_BOOL if e.op == "!" else T.R_INT
            return T.TUnop(e.op, operand, out)

        if isinstance(e, S.Block):
            return self._infer_block(e, env, ctx)

        raise InferenceError(f"unknown expression {e!r}")

    def _infer_new(self, e: S.New, env: Dict[str, T.RType], ctx: _Ctx) -> T.TNew:
        pads = 0
        dset: Sequence[str] = ()
        key = ("new", e.label, "")
        if key in self.plan.downcast_sets:
            dset = sorted(self.plan.downcast_sets[key])
            pads = self._pad_count(e.class_name, dset)
        t = self._fresh_type(S.ClassType(e.class_name), pads=pads, dcast=dset)
        assert isinstance(t, T.RClass)
        ctx.add(self._invariant_at(t))
        targs: List[T.TExpr] = []
        fields = self.table.fields(e.class_name)
        for arg, fdecl in zip(e.args, fields):
            targ = self._infer_expr(arg, env, ctx)
            expected = self._field_type_at(e.class_name, fdecl.name, t.regions)
            ctx.add(self._subtype(targ.type, expected, ctx, src_expr=targ))
            targs.append(targ)
        return T.TNew(
            class_name=e.class_name,
            regions=t.regions,
            args=targs,
            type=t,
            label=e.label,
        )

    def _pad_count(self, cn: str, dset: Sequence[str]) -> int:
        base = self.annotations[cn].arity
        related = [d for d in dset if self.table.related(d, cn)]
        if not related:
            return 0
        return max(self.annotations[d].arity for d in related) - base

    def _infer_call(self, e: S.Call, env: Dict[str, T.RType], ctx: _Ctx) -> T.TCall:
        scheme = self.schemes[e.callee]
        if e.receiver is None:
            recv: Optional[T.TExpr] = None
            class_subst = RegionSubst.identity()
            class_args: Tuple[Region, ...] = ()
        else:
            recv = self._infer_expr(e.receiver, env, ctx)
            assert isinstance(recv.type, T.RClass), "normal typing checks receivers"
            n = len(scheme.class_regions)
            class_args = tuple(recv.type.regions[:n])
            class_subst = RegionSubst.zip(scheme.class_regions, class_args)

        in_scc = scheme.qualified in ctx.scc
        targs: List[T.TExpr] = [self._infer_expr(a, env, ctx) for a in e.args]
        if in_scc and ctx.monomorphic:
            # Region-monomorphic recursion (ablation): the recursive call
            # reuses the definition's own region instantiation, so the
            # actual argument regions are *equated into the formals* (this
            # is where the paper's join example loses precision).
            full = RegionSubst.identity()
            if class_args:
                ctx.add(
                    Constraint.of(
                        *(
                            RegionEq(f, a)
                            for f, a in zip(scheme.class_regions, class_args)
                        )
                    )
                )
        else:
            # Equivariant instantiation ([e-call]): each parameter formal
            # region maps directly onto the corresponding *actual* argument
            # region (the paper applies region subtyping at the callee's
            # param-to-local copy, not at the call boundary).  Result
            # regions are fresh.
            full = class_subst.compose(RegionSubst.identity())
            for targ, ptype in zip(targs, scheme.param_types):
                if not isinstance(ptype, T.RClass):
                    continue
                if not isinstance(targ.type, T.RClass):
                    raise InferenceError(
                        f"argument type {targ.type} for parameter {ptype}"
                    )
                k = len(ptype.regions)
                for formal, actual in zip(ptype.regions, targ.type.regions[:k]):
                    full = full.extended(formal, actual)
            unmapped = [r for r in scheme.region_params if r not in full]
            for r, f in zip(unmapped, Region.fresh_many(len(unmapped))):
                full = full.extended(r, f)
        method_args = full.apply_all(scheme.region_params)

        for targ, ptype in zip(targs, scheme.param_types):
            if not isinstance(ptype, T.RClass):
                continue
            expected = T.subst_type(full, ptype)
            ctx.add(
                self._subtype(targ.type, expected, ctx, src_expr=targ, by_ref=scheme.by_ref)
            )

        ret = (
            T.subst_type(full, scheme.ret_type)
            if isinstance(scheme.ret_type, T.RClass)
            else scheme.ret_type
        )
        pre_args = class_args + tuple(method_args)
        if in_scc:
            ctx.add(Constraint.of(PredAtom(scheme.pre, pre_args)))
            ctx.recursive = True
        else:
            ctx.add(self.q.expand(Constraint.of(PredAtom(scheme.pre, pre_args))))
        return T.TCall(
            receiver=recv,
            method_name=e.method_name,
            region_args=tuple(method_args),
            args=targs,
            type=ret,
            static_class=scheme.owner,
        )

    def _infer_cast(self, e: S.Cast, env: Dict[str, T.RType], ctx: _Ctx) -> T.TExpr:
        inner = self._infer_expr(e.expr, env, ctx)
        if not isinstance(inner.type, T.RClass):
            raise InferenceError(f"cast of non-object {inner.type}")
        src_cn = inner.type.name
        dst_cn = e.class_name
        if src_cn == dst_cn:
            return inner
        if self.table.is_subclass(src_cn, dst_cn):
            # upcast: ordinary subsumption to a fresh supertype instance
            dst = self._fresh_type(S.ClassType(dst_cn))
            assert isinstance(dst, T.RClass)
            ctx.add(self._subtype(inner.type, dst, ctx, src_expr=inner))
            return T.TCast(inner, dst)
        # downcast (normal typing guarantees relatedness)
        if self.config.downcast is DowncastStrategy.REJECT:
            raise InferenceError(
                f"downcast ({dst_cn}) on {src_cn} rejected by configuration"
            )
        need = self.annotations[dst_cn].arity - self.annotations[src_cn].arity
        prefix = inner.type.regions
        if self.config.downcast is DowncastStrategy.FIRST_REGION:
            extras = Region.fresh_many(need)
            ctx.add(
                Constraint.of(*(RegionEq(r, prefix[0]) for r in extras))
            )
            dst = T.RClass(dst_cn, prefix + extras)
            return T.TCast(inner, dst)
        # PADDING: recover the lost regions from the operand's pads
        pads = inner.type.padding
        if len(pads) < need:
            raise InferenceError(
                f"downcast ({dst_cn}) at an unpadded site: the flow analysis "
                f"found no padding for a value of type {inner.type}; this "
                "flow is outside the padding analysis' coverage"
            )
        dst = T.RClass(dst_cn, prefix + pads[:need], pads[need:])
        dset = getattr(inner.type, "_dcast", None)
        if dset:
            object.__setattr__(dst, "_dcast", dset)
        return T.TCast(inner, dst)

    def _infer_if(self, e: S.If, env: Dict[str, T.RType], ctx: _Ctx) -> T.TIf:
        cond = self._infer_expr(e.cond, env, ctx)
        then = self._infer_expr(e.then, env, ctx)
        els = self._infer_expr(e.els, env, ctx)
        t1, t2 = then.type, els.type
        if isinstance(t1, T.RClass) and isinstance(t2, T.RClass):
            if t1.name == t2.name and t1.regions == t2.regions:
                merged: T.RType = t1
            else:
                cn = self.table.msst(t1.name, t2.name)
                merged = self._fresh_type(S.ClassType(cn))
                ctx.add(self._subtype(t1, merged, ctx, src_expr=then))
                ctx.add(self._subtype(t2, merged, ctx, src_expr=els))
        elif isinstance(t1, T.RPrim) and isinstance(t2, T.RPrim) and t1.name == t2.name:
            merged = t1
        else:
            merged = T.R_VOID
        return T.TIf(cond, then, els, merged)

    def _infer_block(
        self, block: S.Block, env: Dict[str, T.RType], ctx: _Ctx
    ) -> T.TBlock:
        record = _Block(Region.watermark())
        enclosing = ctx.block
        enclosing.children.append(record)
        ctx.block = record
        inner = dict(env)
        stmts: List[T.TStmt] = []
        for s in block.stmts:
            if isinstance(s, S.LocalDecl):
                pads = 0
                dset: Sequence[str] = ()
                key = ("var", ctx.scheme.qualified, s.name)
                if key in self.plan.downcast_sets and isinstance(s.decl_type, S.ClassType):
                    dset = sorted(self.plan.downcast_sets[key])
                    pads = self._pad_count(s.decl_type.name, dset)
                t = self._fresh_type(s.decl_type, pads=pads, dcast=dset)
                init: Optional[T.TExpr] = None
                if s.init is not None:
                    init = self._infer_expr(s.init, inner, ctx)
                    ctx.add(self._subtype(init.type, t, ctx, src_expr=init))
                inner[s.name] = t
                stmts.append(T.TLocalDecl(t, s.name, init))
            else:
                assert isinstance(s, S.ExprStmt)
                stmts.append(T.TExprStmt(self._infer_expr(s.expr, inner, ctx)))
        result: Optional[T.TExpr] = None
        rtype: T.RType = T.R_VOID
        if block.result is not None:
            result = self._infer_expr(block.result, inner, ctx)
            rtype = result.type
        ctx.block = enclosing
        tblock = T.TBlock(stmts=stmts, result=result, type=rtype)
        record.seal(tblock, env)
        return tblock

    # ------------------------------------------------------------ assembly
    def _assemble(self, target: T.TProgram, methods: Dict[str, MethodRecord]) -> None:
        for cn in self.table.class_names():
            anno = self.annotations[cn]
            decl = self.table.decl(cn)
            fields = [
                T.TFieldDecl(anno.own_field_types[f.name], f.name)
                for f in decl.fields
            ]
            bodies = [methods[m.qualified_name].body for m in decl.methods]
            target.classes.append(
                T.TClassDecl(
                    name=cn,
                    regions=anno.regions,
                    super_name=decl.super_name,
                    super_regions=anno.super_regions,
                    fields=fields,
                    methods=bodies,
                    inv_name=anno.inv,
                    rec_region=anno.rec_region,
                )
            )
        for m in self.program.statics:
            target.statics.append(methods[m.qualified_name].body)


def reinfer_program(
    program: S.Program,
    prior: InferenceResult,
    config: Optional[InferenceConfig] = None,
    *,
    table: Optional[ClassTable] = None,
) -> InferenceResult:
    """Re-infer ``program``, an edit of ``prior``'s program.

    When the config and the class shapes match ``prior``'s, the run
    adopts the prior's annotations and pristine env and splices every SCC
    the dependency-graph diff finds clean; otherwise it annotates afresh
    and splices nothing.  Either way the output is byte-identical (under
    :func:`repro.lang.pretty.pretty_target` renumbering) to a from-scratch
    inference of ``program``.  ``table`` is the class table of an already
    normal-typed ``program``; without it the program is type-checked here.
    """
    config = config or prior.config
    if table is None:
        table = NormalTypeChecker(program).check()
    if (
        config == prior.config
        and tuple(class_fingerprints(table)) == prior.kept_fingerprints().classes
    ):
        prepared = AnnotatedProgram.adopt(program, table, prior)
    else:
        prepared, prior = AnnotatedProgram.from_table(program, table), None
    return RegionInference(program, config, prepared=prepared, prior=prior).infer()


def infer_program(
    program: S.Program,
    config: Optional[InferenceConfig] = None,
    *,
    prepared: Optional[AnnotatedProgram] = None,
) -> InferenceResult:
    """Infer region annotations for a parsed program."""
    return RegionInference(program, config, prepared=prepared).infer()


def infer_source(
    source: str, config: Optional[InferenceConfig] = None
) -> InferenceResult:
    """Parse and infer region annotations for Core-Java source text."""
    return infer_program(parse_program(source), config)
