"""Golden tests against the paper's Fig 4 (localised regions) and the
[letreg] rule generally."""

import pytest

from repro.core import InferenceConfig, SubtypingMode, infer_source
from repro.lang import target as T
from tests.conftest import infer_and_check

PAIR = """
class Pair extends Object {
  Object fst;
  Object snd;
  void setSnd(Object o) { snd = o; }
}
"""

FIG4 = PAIR + """
Pair build() {
  Pair p4 = new Pair(null, null);
  Pair p3 = new Pair(p4, null);
  Pair p2 = new Pair(null, p4);
  Pair p1 = new Pair(p2, null);
  p1.setSnd(p3);
  p2
}
"""


def _letregs(expr):
    return [n for n in T.twalk(expr) if isinstance(n, T.TLetreg)]


def _news(expr):
    return {n.args and None or n.class_name: n for n in T.twalk(expr) if isinstance(n, T.TNew)}


def _decl_types(expr):
    out = {}
    for node in T.twalk(expr):
        if isinstance(node, T.TBlock):
            for s in node.stmts:
                if isinstance(s, T.TLocalDecl):
                    out[s.name] = s.decl_type
    return out


class TestFig4(object):
    @pytest.fixture(scope="class")
    def result(self):
        return infer_and_check(FIG4, mode=SubtypingMode.OBJECT)

    def test_one_localised_region(self, result):
        assert result.methods["build"].localized == 1

    def test_p1_and_p3_share_the_local_region(self, result):
        body = result.target.static_named("build").body
        letregs = _letregs(body)
        assert len(letregs) == 1
        local = letregs[0].regions[0]
        decls = _decl_types(body)
        assert decls["p1"].regions[0] == local
        assert decls["p3"].regions[0] == local

    def test_result_p2_escapes(self, result):
        """p2 is returned: its regions are the method's formals, not local."""
        body = result.target.static_named("build").body
        local = _letregs(body)[0].regions[0]
        decls = _decl_types(body)
        assert local not in decls["p2"].regions
        scheme = result.methods["build"].scheme
        assert set(decls["p2"].regions) <= set(scheme.region_params)

    def test_p4_escapes_through_p2(self, result):
        """p4 is stored in p2.snd, so it must not be in the local region."""
        body = result.target.static_named("build").body
        local = _letregs(body)[0].regions[0]
        decls = _decl_types(body)
        assert local not in decls["p4"].regions


class TestLocalisationBasics(object):
    def test_dead_temporary_is_localised(self):
        src = PAIR + """
        int f() {
          Pair t = new Pair(null, null);
          7
        }
        """
        result = infer_and_check(src)
        assert result.methods["f"].localized == 1

    def test_returned_object_is_not_localised(self):
        src = PAIR + """
        Pair f() { new Pair(null, null) }
        """
        result = infer_and_check(src)
        body = result.target.static_named("f").body
        assert not _letregs(body)

    def test_object_stored_in_parameter_is_not_localised(self):
        src = PAIR + """
        void f(Pair p) { p.setSnd(new Pair(null, null)); }
        """
        result = infer_and_check(src)
        body = result.target.static_named("f").body
        new = next(n for n in T.twalk(body) if isinstance(n, T.TNew))
        bound = set()
        for lr in _letregs(body):
            bound |= set(lr.regions)
        assert new.regions[0] not in bound

    def test_localisation_can_be_disabled(self):
        src = PAIR + """
        int f() {
          Pair t = new Pair(null, null);
          7
        }
        """
        result = infer_source(
            src, InferenceConfig(localize_blocks=False)
        )
        body = result.target.static_named("f").body
        assert not _letregs(body)

    def test_loop_body_gets_its_own_region(self):
        """Per-iteration temporaries live in a letreg inside the loop."""
        src = PAIR + """
        int f(int n) {
          int i = 0;
          while (i < n) {
            Pair t = new Pair(null, null);
            i = i + 1;
          }
          i
        }
        """
        result = infer_and_check(src)
        body = result.target.static_named("f").body
        whiles = [n for n in T.twalk(body) if isinstance(n, T.TWhile)]
        assert whiles
        inner = _letregs(whiles[0].body)
        assert inner, "the loop body should localise its temporary"

    def test_discarded_call_result_is_localised(self):
        src = PAIR + """
        Pair mk() { new Pair(null, null) }
        int f() {
          mk();
          1
        }
        """
        result = infer_and_check(src)
        assert result.methods["f"].localized >= 1
