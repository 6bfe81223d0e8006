"""Footprint-proportional inference: the cost-model contracts.

Three guarantees pinned here:

* override resolution does O(overrides) total work, not
  O(SCCs x overrides) -- the ``resolution_pairs_checked`` counter on
  :class:`~repro.core.infer.RegionInference` counts ``resolve_pair``
  invocations, and the incremental worklist keeps it proportional to
  the number of override pairs (plus the rare goal strengthenings);
* the per-SCC footprint (:class:`~repro.core.depgraph.SccFootprints`)
  contains exactly what an SCC's inference is entitled to read, and an
  out-of-footprint read raises
  :class:`~repro.regions.abstraction.FootprintViolation`;
* every inference runs its per-SCC steps inside those footprints
  (scoping gates reads, it never changes them).
"""

import pytest

from repro.checking import check_target
from repro.core.depgraph import DependencyGraph, SccFootprints
from repro.core.infer import RegionInference, infer_program
from repro.frontend import parse_program
from repro.regions.abstraction import (
    AbstractionEnv,
    ConstraintAbstraction,
    FootprintViolation,
    ScopedAbstractionEnv,
)
from repro.regions.constraints import TRUE


def _override_ladder(width, depth):
    """``width`` independent inheritance chains of ``depth`` classes,
    each level overriding ``get`` -- overrides = width * (depth - 1)."""
    out = []
    for w in range(width):
        out.append(
            f"class C{w}_0 extends Object {{\n"
            f"  Object slot;\n"
            f"  Object get() {{ return this.slot; }}\n"
            f"}}\n"
        )
        for d in range(1, depth):
            out.append(
                f"class C{w}_{d} extends C{w}_{d - 1} {{\n"
                f"  Object get() {{ return this.slot; }}\n"
                f"}}\n"
            )
    return "".join(out)


class TestResolutionWorkIsLinearInOverrides:
    def _run(self, src):
        inference = RegionInference(parse_program(src))
        inference.infer()
        return inference

    def test_wide_program_checks_each_pair_a_bounded_number_of_times(self):
        # 12 chains x 4 levels: 36 override pairs, ~60 method SCCs.  The
        # old driver rescanned every pair after every SCC (~2000 checks);
        # the worklist attempts each pair once plus at most one ripple
        # per strengthening along its chain.
        inference = self._run(_override_ladder(12, 4))
        pairs = len(inference.table.override_pairs())
        assert pairs == 36
        assert inference.resolution_pairs_checked <= 2 * pairs
        sccs = sum(
            1 for _ in DependencyGraph(
                inference.program, inference.table
            ).method_sccs()
        )
        # the point of the refactor: total work is decoupled from SCCs
        assert inference.resolution_pairs_checked < sccs * pairs / 4

    def test_override_free_program_never_calls_the_resolver(self):
        src = "".join(
            f"class D{i} extends Object {{ int v; int get() {{ return this.v; }} }}\n"
            for i in range(10)
        )
        inference = self._run(src)
        assert inference.table.override_pairs() == ()
        assert inference.resolution_pairs_checked == 0


class TestSccFootprints:
    SRC = """
    class Box extends Object {
      Object item;
      Object take() { return this.item; }
    }
    class Other extends Object {
      int v;
      int get() { return this.v; }
    }
    class User extends Object {
      Object use(Box b) { return b.take(); }
    }
    """

    def _footprints(self):
        program = parse_program(self.SRC)
        inference = RegionInference(program)
        graph = DependencyGraph(program, inference.table)
        return SccFootprints(graph)

    def test_footprint_contains_own_pre_callees_and_owner_line(self):
        fps = self._footprints()
        fp = fps.for_scc(["User.use"])
        assert "pre.User.use" in fp
        assert "pre.Box.take" in fp  # transitive callee
        assert "inv.Box" in fp  # reachable classinv
        assert "inv.User" in fp  # owner line
        assert "inv.Object" in fp  # universal by fiat

    def test_unrelated_names_stay_outside(self):
        fps = self._footprints()
        fp = fps.for_scc(["User.use"])
        assert "pre.Other.get" not in fp
        assert "inv.Other" not in fp
        assert len(fp) < len(list(iter(fp))) + 1  # __len__/__iter__ agree

    def test_for_method_matches_for_scc(self):
        fps = self._footprints()
        assert fps.for_method("Box.take") is fps.for_scc(["Box.take"])


class TestScopedEnvGate:
    def test_out_of_footprint_read_raises(self):
        env = AbstractionEnv(
            [ConstraintAbstraction("inv.A", (), TRUE),
             ConstraintAbstraction("inv.B", (), TRUE)]
        )
        scoped = ScopedAbstractionEnv(env, {"inv.A"})
        assert scoped["inv.A"].name == "inv.A"
        with pytest.raises(FootprintViolation):
            scoped["inv.B"]
        with pytest.raises(FootprintViolation):
            "inv.B" in scoped

    def test_writes_pass_through_to_the_wrapped_env(self):
        env = AbstractionEnv()
        scoped = ScopedAbstractionEnv(env, {"pre.f"})
        scoped.define(ConstraintAbstraction("pre.f", (), TRUE))
        assert "pre.f" in env


class TestScopedInference:
    def test_override_ladder_stays_in_footprints(self):
        # every per-SCC step reads through its footprint gate: a read the
        # footprint missed would raise FootprintViolation here
        result = infer_program(parse_program(_override_ladder(4, 3)))
        assert result.reinferred_sccs == 12
        assert check_target(result.target).ok
