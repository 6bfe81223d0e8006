"""Golden tests against the paper's Fig 5: cyclic structures share a region."""

import pytest

from repro.core import SubtypingMode
from repro.lang import target as T
from repro.regions import RegionSolver
from tests.conftest import infer_and_check

PAIR = """
class Pair extends Object {
  Object fst;
  Object snd;
  void setSnd(Object o) { snd = o; }
}
"""

FIG5 = PAIR + """
Pair cyc() {
  Pair p1 = new Pair(null, null);
  Pair p2 = new Pair(p1, null);
  p1.setSnd(p2);
  p2
}
"""


def _decl_types(expr):
    out = {}
    for node in T.twalk(expr):
        if isinstance(node, T.TBlock):
            for s in node.stmts:
                if isinstance(s, T.TLocalDecl):
                    out[s.name] = s.decl_type
    return out


class TestFig5(object):
    @pytest.fixture(scope="class")
    def result(self):
        return infer_and_check(FIG5, mode=SubtypingMode.OBJECT)

    def test_cycle_members_share_object_region(self, result):
        decls = _decl_types(result.target.static_named("cyc").body)
        assert decls["p1"].regions[0] == decls["p2"].regions[0]

    def test_no_localisation(self, result):
        """All declared regions escape (Fig 5: no letreg introduced)."""
        assert result.methods["cyc"].localized == 0

    def test_pre_still_well_formed(self, result):
        scheme = result.methods["cyc"].scheme
        pre = result.target.q[scheme.pre].body
        RegionSolver(pre)  # no pred atoms, no crash


class TestLargerCycles(object):
    def test_three_cycle(self):
        src = PAIR + """
        Pair ring() {
          Pair a = new Pair(null, null);
          Pair b = new Pair(a, null);
          Pair c = new Pair(b, null);
          a.setSnd(c);
          a
        }
        """
        result = infer_and_check(src, mode=SubtypingMode.OBJECT)
        decls = _decl_types(result.target.static_named("ring").body)
        r = decls["a"].regions[0]
        assert decls["b"].regions[0] == r
        assert decls["c"].regions[0] == r

    def test_self_loop(self):
        src = PAIR + """
        Pair knot() {
          Pair a = new Pair(null, null);
          a.setSnd(a);
          a
        }
        """
        result = infer_and_check(src, mode=SubtypingMode.OBJECT)
        decls = _decl_types(result.target.static_named("knot").body)
        a_t = decls["a"]
        # the self reference forces the snd-component region onto the
        # object's own region
        assert a_t.regions[2] == a_t.regions[0]

    def test_localised_cycle(self):
        """A dead cyclic structure is still localised (as one region)."""
        src = PAIR + """
        int f() {
          Pair a = new Pair(null, null);
          Pair b = new Pair(a, null);
          a.setSnd(b);
          3
        }
        """
        result = infer_and_check(src, mode=SubtypingMode.OBJECT)
        assert result.methods["f"].localized == 1
