"""Unit tests for the global dependency graph (paper Sec 4.3)."""

import pytest

from repro.core.depgraph import DependencyGraph, classinv_node, method_node
from repro.frontend import parse_program
from repro.typing import check_program
from tests.conftest import IF_RECEIVER_SOURCE


def graph(src):
    program = parse_program(src)
    table = check_program(program)
    return DependencyGraph(program, table)


def order_of(g):
    """position of each method in the processing order."""
    out = {}
    for i, group in enumerate(g.method_sccs()):
        for name in group:
            out[name] = i
    return out


class TestCallEdges(object):
    def test_callee_processed_first(self):
        g = graph(
            """
            int callee() { 1 }
            int caller() { callee() }
            """
        )
        pos = order_of(g)
        assert pos["callee"] < pos["caller"]

    def test_instance_call_resolution(self):
        g = graph(
            """
            class A { int x; int get() { x } }
            int f(A a) { a.get() }
            """
        )
        pos = order_of(g)
        assert pos["A.get"] < pos["f"]

    def test_call_through_field_read(self):
        g = graph(
            """
            class A { int x; int get() { x } }
            class Holder { A inner; }
            int f(Holder h) { h.inner.get() }
            """
        )
        pos = order_of(g)
        assert pos["A.get"] < pos["f"]


class TestRecursionSCCs(object):
    def test_self_recursion_is_singleton_scc(self):
        g = graph("int f(int n) { if (n == 0) { 0 } else { f(n - 1) } }")
        assert ["f"] in g.method_sccs()

    def test_mutual_recursion_grouped(self):
        g = graph(
            """
            bool even(int n) { if (n == 0) { true } else { odd(n - 1) } }
            bool odd(int n) { if (n == 0) { false } else { even(n - 1) } }
            """
        )
        assert ["even", "odd"] in g.method_sccs()

    def test_independent_methods_separate(self):
        g = graph("int f() { 1 } int g() { 2 }")
        sccs = g.method_sccs()
        assert ["f"] in sccs and ["g"] in sccs


class TestOverrideEdges(object):
    SRC = """
    class A extends Object { Object x; Object get() { x } }
    class B extends A { Object y; Object get() { y } }
    Object use(A a) { a.get() }
    Object make() { use(new B(null, null)) }
    """

    def test_subclass_method_before_superclass_method(self):
        g = graph(self.SRC)
        pos = order_of(g)
        assert pos["B.get"] < pos["A.get"]

    def test_callers_after_both(self):
        g = graph(self.SRC)
        pos = order_of(g)
        assert pos["use"] > pos["A.get"]
        assert pos["use"] > pos["B.get"]

    def test_classinv_edges_present(self):
        g = graph(self.SRC)
        deps = g.edges[classinv_node("B")]
        assert method_node("B.get") in deps
        assert method_node("A.get") in deps

    def test_user_of_subclass_after_override_resolution(self):
        g = graph(self.SRC)
        # make allocates B, so it depends on classinv(B), which depends on
        # the override pair's methods
        assert classinv_node("B") in g.edges[method_node("make")]
        pos = order_of(g)
        assert pos["make"] > pos["B.get"]


class TestUsesClassEdges(object):
    def test_new_creates_dependency(self):
        g = graph(
            """
            class A { Object x; }
            A f() { new A(null) }
            """
        )
        assert classinv_node("A") in g.edges[method_node("f")]

    def test_own_class_exempt(self):
        """A method of B never takes a classinv edge on B (cycle guard)."""
        g = graph("class B { Object x; B self() { this } }")
        assert classinv_node("B") not in g.edges[method_node("B.self")]

    def test_local_decl_type_creates_dependency(self):
        g = graph(
            """
            class A { Object x; }
            int f() { A a = (A) null; 1 }
            """
        )
        assert classinv_node("A") in g.edges[method_node("f")]


class TestCallResolutionPrecision(object):
    def test_local_in_nested_block_resolves_receiver(self):
        # the receiver's type comes from a LocalDecl inside an if-branch
        # block, not the method's parameter list
        g = graph(
            """
            class A { int x; int get() { x } }
            int f(int n) {
              if (n > 0) { A a = new A(1); a.get() } else { 0 }
            }
            """
        )
        pos = order_of(g)
        assert pos["A.get"] < pos["f"]

    def test_primitive_shadowing_drops_stale_binding(self):
        # the inner block re-declares `a` as int; the call after it in an
        # outer scope still resolves through the outer binding
        g = graph(
            """
            class A { int x; int get() { x } }
            int f(A a) {
              int r = if (a.x > 0) { int a = 1; a } else { 0 };
              a.get() + r
            }
            """
        )
        pos = order_of(g)
        assert pos["A.get"] < pos["f"]

    def test_if_receiver_resolves_on_the_most_specific_supertype(self):
        # normal typing gives a two-armed if the msst of its branches, so
        # the call dispatches through A.m even though the then-branch is B
        g = graph(IF_RECEIVER_SOURCE)
        assert method_node("A.m") in g.edges[method_node("D.use")]
        assert method_node("B.m") not in g.edges[method_node("D.use")]


class TestTarjanRunsOncePerGraph(object):
    """The graph never changes after it is built, so its SCCs are
    computed once, however many readers ask for them."""

    @pytest.fixture()
    def runs(self, monkeypatch):
        count = [0]
        tarjan = DependencyGraph._tarjan

        def counted(self):
            count[0] += 1
            return tarjan(self)

        monkeypatch.setattr(DependencyGraph, "_tarjan", counted)
        return count

    def test_from_scratch_builds_one_graph(self, runs):
        from repro.core import infer_source
        from repro.gen import GenSpec, generate_source

        infer_source(generate_source(GenSpec.sized(6, seed=0)))
        assert runs[0] == 1

    def test_an_edit_builds_only_the_new_graph(self, runs):
        from repro.core import infer_source
        from repro.core.infer import reinfer_program
        from repro.gen import GenSpec, edit_script

        v0, v1, v2 = edit_script(GenSpec.sized(6, seed=0), 2)
        prior = infer_source(v0)
        runs[0] = 0
        first = reinfer_program(parse_program(v1), prior)
        assert first.reused_sccs > 0
        # a from-scratch result is hashed by its first edit, once
        assert runs[0] == 2
        for source, base in ((v2, first), (v2, prior)):
            runs[0] = 0
            result = reinfer_program(parse_program(source), base)
            assert result.reused_sccs > 0
            # the prior's side of the diff is the fingerprints it keeps
            assert runs[0] == 1

    def test_repeat_readers_share_one_run(self, runs):
        g = graph("int f() { g() } int g() { f() }")
        assert g.sccs() is g.sccs()
        g.method_sccs()
        g.node_fingerprints()
        assert runs[0] == 1


class TestAnEditHashesOneProgram(object):
    """A document edit builds the new program's graph and fingerprints
    it; the prior's fingerprints come from the prior result.  Only a
    from-scratch version (which nothing may ever edit, so its run hashes
    nothing) is hashed by its first edit, once."""

    def test_each_session_edit_builds_one_graph_and_hashes_one_program(
        self, monkeypatch
    ):
        from repro.api import Session
        from repro.gen import GenSpec, edit_script

        counts = {"graphs": 0, "fingerprints": 0}
        build = DependencyGraph._build
        fingerprint = DependencyGraph._node_fingerprints

        def counted_build(self):
            counts["graphs"] += 1
            return build(self)

        def counted_fingerprints(self, *args):
            counts["fingerprints"] += 1
            return fingerprint(self, *args)

        monkeypatch.setattr(DependencyGraph, "_build", counted_build)
        monkeypatch.setattr(DependencyGraph, "_node_fingerprints", counted_fingerprints)
        session = Session()
        versions = edit_script(GenSpec.sized(6, seed=1), 4)
        session.reinfer(versions[0], document="d")
        assert counts == {"graphs": 1, "fingerprints": 0}
        seen = []
        for source in versions[1:]:
            counts.update(graphs=0, fingerprints=0)
            result = session.reinfer(source, document="d")
            assert result.reused_sccs > 0
            seen.append(dict(counts))
        once = {"graphs": 1, "fingerprints": 1}
        assert seen == [{"graphs": 2, "fingerprints": 2}] + [once] * 3

    def test_a_result_keeps_the_fingerprints_a_fresh_graph_computes(self):
        from repro.core import infer_source
        from repro.core.infer import reinfer_program
        from repro.gen import GenSpec, edit_script

        old, new = edit_script(GenSpec.sized(5, seed=2), 1)
        prior = infer_source(old)
        assert prior.graph_fingerprints is None
        result = reinfer_program(parse_program(new), prior)
        for kept in (prior, result):
            again = DependencyGraph(kept.table.program, kept.table)
            assert kept.graph_fingerprints == again.fingerprints(kept.plan_salts)


    def test_threads_editing_one_prior_at_once_agree(self):
        """A cached prior is shared: several edits may hash it at once."""
        import sys
        import threading

        from repro.core import infer_source
        from repro.core.infer import reinfer_program
        from repro.gen import GenSpec, edit_script
        from repro.lang.pretty import pretty_target

        old, new = edit_script(GenSpec.sized(5, seed=4), 1)
        expected = pretty_target(infer_source(new).target, renumber=True)
        prior = infer_source(old)
        rendered = []

        def edit():
            result = reinfer_program(parse_program(new), prior)
            rendered.append(pretty_target(result.target, renumber=True))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=edit) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert rendered == [expected] * 6
        again = DependencyGraph(prior.table.program, prior.table)
        assert prior.graph_fingerprints == again.fingerprints(prior.plan_salts)


def test_structural_hashes_are_pinned():
    """The per-type field layouts hash the same bytes as a per-node
    ``dataclasses.fields`` walk did; these digests were computed by it."""
    from repro.core.depgraph import class_fingerprint, method_fingerprint

    program = parse_program(
        "class Box extends Object { int v; Box next; } "
        "int f(Box b, int n) { Box t = new Box(n, null); "
        "if (n > 0) { f(t, n - 1) } else { b.v + t.v } }"
    )
    assert method_fingerprint(program.statics[0]) == (
        "97f3f0a4033babf264e293b361bf9f30769b80c3fd129160ffcdf33e91274149"
    )
    assert class_fingerprint(program.classes[0]) == (
        "af4503b9f9f42d6ee5b1891ec62e87c0526b0565fd01ea81b050b124cceab4bc"
    )
