"""Unit tests for the fixed-point analysis (paper Sec 4.2.3 / Fig 6(d))."""

import pytest

from repro.regions import (
    AbstractionEnv,
    Constraint,
    ConstraintAbstraction,
    Outlives,
    PredAtom,
    Region,
    RegionSolver,
    TRUE,
    entails,
    outlives,
    solve_recursive_abstractions,
    close_abstraction_env,
)


def _join_abstraction():
    """pre.join<r1..r9> = (r2 >= r8) /\\ pre.join<r4..r6, r1..r3, r7..r9>."""
    rs = Region.fresh_many(9)
    swapped = rs[3:6] + rs[0:3] + rs[6:9]
    body = outlives(rs[1], rs[7]).with_atoms(PredAtom("pre.join", swapped))
    return rs, ConstraintAbstraction("pre.join", rs, body)


class TestJoinFixpoint:
    """Reproduces the iteration table of the paper's Fig 6(d)."""

    def test_closed_form(self):
        rs, abstraction = _join_abstraction()
        result = solve_recursive_abstractions([abstraction], AbstractionEnv())
        closed = result["pre.join"]
        assert closed.is_closed
        # closed form: r2 >= r8 /\ r5 >= r8
        assert entails(closed.body, outlives(rs[1], rs[7]))
        assert entails(closed.body, outlives(rs[4], rs[7]))
        # and nothing more
        assert not entails(closed.body, outlives(rs[0], rs[7]))

    def test_iteration_count_matches_paper(self):
        """Fig 6(d): iterate 2 equals iterate 3 (stable after 2 steps)."""
        _, abstraction = _join_abstraction()
        result = solve_recursive_abstractions([abstraction], AbstractionEnv())
        assert result.iterations == 2

    def test_trace_starts_true(self):
        rs, abstraction = _join_abstraction()
        result = solve_recursive_abstractions([abstraction], AbstractionEnv())
        trace = result.trace["pre.join"]
        assert trace[0].is_true
        # iterate 1 is exactly r2 >= r8
        solver = RegionSolver(trace[1])
        assert solver.entails_outlives(rs[1], rs[7])
        assert not solver.entails_outlives(rs[4], rs[7])


class TestGeneralFixpoints:
    def test_non_recursive_projects_locals(self):
        a, b = Region.fresh_many(2)
        local = Region.fresh()
        abstraction = ConstraintAbstraction(
            "pre.m", (a, b), outlives(a, local) & outlives(local, b)
        )
        result = solve_recursive_abstractions([abstraction], AbstractionEnv())
        closed = result["pre.m"]
        assert local not in closed.body.regions()
        assert entails(closed.body, outlives(a, b))

    def test_mutual_recursion(self):
        """p<a,b> = (a>=b) /\\ q<b,a>;  q<a,b> = p<a,b>  -- closes to a=b."""
        a1, b1 = Region.fresh_many(2)
        p = ConstraintAbstraction(
            "p", (a1, b1), outlives(a1, b1).with_atoms(PredAtom("q", (b1, a1)))
        )
        a2, b2 = Region.fresh_many(2)
        q = ConstraintAbstraction("q", (a2, b2), Constraint.of(PredAtom("p", (a2, b2))))
        result = solve_recursive_abstractions([p, q], AbstractionEnv())
        solver = RegionSolver(result["p"].body)
        assert solver.same_region(a1, b1)

    def test_calls_closed_abstractions(self):
        env = AbstractionEnv()
        x, y = Region.fresh_many(2)
        env.define(ConstraintAbstraction("pre.helper", (x, y), outlives(x, y)))
        a, b = Region.fresh_many(2)
        caller = ConstraintAbstraction(
            "pre.m", (a, b), Constraint.of(PredAtom("pre.helper", (a, b)))
        )
        result = solve_recursive_abstractions([caller], env)
        assert entails(result["pre.m"].body, outlives(a, b))

    def test_true_body_stays_true(self):
        a = Region.fresh()
        abstraction = ConstraintAbstraction("pre.m", (a,), TRUE)
        result = solve_recursive_abstractions([abstraction], AbstractionEnv())
        assert result["pre.m"].body.is_true
        assert result.iterations == 0

    def test_close_abstraction_env(self):
        env = AbstractionEnv()
        rs, abstraction = _join_abstraction()
        env.define(abstraction)
        close_abstraction_env(env)
        assert env["pre.join"].is_closed

    def test_recursive_class_invariant_shape(self):
        """inv.List<r1,r2,r3> closes to r2>=r1, r3>=r1, r2>=r3 (Sec 3.1)."""
        r1, r2, r3 = Region.fresh_many(3)
        body = (
            outlives(r2, r1)
            & outlives(r3, r1)
        ).with_atoms(PredAtom("inv.List", (r3, r2, r3)))
        abstraction = ConstraintAbstraction("inv.List", (r1, r2, r3), body)
        result = solve_recursive_abstractions([abstraction], AbstractionEnv())
        closed = result["inv.List"].body
        assert entails(closed, outlives(r2, r3))
        assert entails(closed, outlives(r2, r1))
        assert entails(closed, outlives(r3, r1))
        assert not entails(closed, outlives(r3, r2))


class TestSolverConstruction:
    """The fixed point builds a solver only for a member that gets an atom."""

    SRC = """
    class Cell { Cell next;
      Cell copy() {
        if (this.next == null) { new Cell(null) } else { new Cell(this.next.copy()) }
      }
    }
    int down(int n) { if (n <= 0) { 0 } else { down(n - 1) } }
    """

    def test_recursive_program_builds_one_solver_per_member_with_atoms(self, monkeypatch):
        from repro.core import infer_source
        from repro.regions import fixpoint

        built = []

        class Counting(RegionSolver):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fixpoint, "RegionSolver", Counting)
        result = infer_source(self.SRC)
        # three nests get an atom: Cell's recursive invariant and Cell.copy
        # in each of its two passes.  `down` never does (its precondition
        # stays true), and comparing iterate 0 (true) with a non-empty
        # iterate 1 needs no solver.
        assert len(built) == 3
        assert result.fixpoint_iterations == {("Cell.copy",): 1, ("down",): 0}
