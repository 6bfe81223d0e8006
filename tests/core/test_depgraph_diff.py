"""Structural fingerprints and graph diffing for incremental dirtying."""

from repro.core.depgraph import DependencyGraph, diff
from repro.frontend import parse_program
from repro.typing import check_program


def graph(src):
    program = parse_program(src)
    table = check_program(program)
    return DependencyGraph(program, table)


CHAIN = """
class Box extends Object { Object payload; }
Object leaf(Box b) { %s }
Object mid(Box b) { leaf(b) }
Object top(Box b) { mid(b) }
int aside(int n) { %s }
"""


def chain(leaf_body="b.payload", aside_body="n + 1"):
    return graph(CHAIN % (leaf_body, aside_body))


class TestFingerprints(object):
    def test_whitespace_insensitive(self):
        a = chain()
        b = graph(
            (CHAIN % ("b.payload", "n + 1"))
            .replace("{", "{\n    ")
            .replace(";", " ;")
        )
        assert a.node_fingerprints() == b.node_fingerprints()

    def test_body_edit_changes_own_fingerprint(self):
        fps_a = chain().node_fingerprints()
        fps_b = chain(aside_body="n + 2").node_fingerprints()
        changed = {n.name for n in fps_a if fps_a[n] != fps_b.get(n)}
        assert changed == {"aside"}

    def test_transitive_fingerprints_ripple_to_callers(self):
        fps_a = chain().node_fingerprints()
        fps_b = chain(leaf_body="(Object) null").node_fingerprints()
        changed = {n.name for n in fps_a if fps_a[n] != fps_b.get(n)}
        assert {"leaf", "mid", "top"} <= changed
        assert "aside" not in changed


class TestDiff(object):
    def test_identical_graphs_are_clean(self):
        assert diff(chain(), chain()) == frozenset()

    def test_leaf_edit_dirties_callers_only(self):
        d = diff(chain(), chain(leaf_body="(Object) null"))
        assert {"leaf", "mid", "top"} <= d
        assert "aside" not in d

    def test_independent_edit_stays_local(self):
        d = diff(chain(), chain(aside_body="n * 2"))
        assert d == frozenset({"aside"})

    def test_added_and_removed_methods_reported(self):
        base = CHAIN % ("b.payload", "n + 1")
        # an added method is new, hence dirty; a removed one is simply
        # absent, and its callers' transitive fingerprints carry the ripple
        d = diff(graph(base), graph(base + "\nint extra(int n) { n }\n"))
        assert d == frozenset({"extra"})
        back = diff(graph(base + "\nint extra(int n) { n }\n"), graph(base))
        assert back == frozenset()

    def test_class_shape_change_forces_full(self):
        a = graph("class Box extends Object { Object fst; } int f() { 1 }")
        b = graph("class Box extends Object { Object snd; } int f() { 1 }")
        assert diff(a, b) is None

    def test_recursive_nest_dirties_as_one(self):
        template = """
        int even(int n) { if (n == 0) { %s } else { odd(n - 1) } }
        int odd(int n) { if (n == 0) { 0 } else { even(n - 1) } }
        int user(int n) { even(n) }
        """
        d = diff(graph(template % "1"), graph(template % "2"))
        # even/odd are one SCC: editing even must dirty odd too
        assert {"even", "odd", "user"} <= d

    def test_override_edit_dirties_owner_invariant_users(self):
        template = """
        class A extends Object { Object x; Object get() { x } }
        class B extends A { Object y; Object get() { %s } }
        Object use(A a) { a.get() }
        """
        d = diff(graph(template % "y"), graph(template % "x"))
        assert "B.get" in d
        # override resolution may strengthen A's invariant, so methods
        # hypothesising over it are dirtied as well
        assert "use" in d
