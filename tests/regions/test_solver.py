"""Unit tests for the region-constraint solver."""

import random

import pytest

import repro.regions.solver as solver_mod
from repro.regions import (
    Constraint,
    HEAP,
    Outlives,
    PredAtom,
    Region,
    RegionEq,
    RegionSolver,
    entails,
    outlives,
    req,
    solve,
)


class TestEntailment:
    def test_direct_edge(self):
        a, b = Region.fresh_many(2)
        solver = RegionSolver(outlives(a, b))
        assert solver.entails_outlives(a, b)
        assert not solver.entails_outlives(b, a)

    def test_transitivity(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(outlives(a, b) & outlives(b, c))
        assert solver.entails_outlives(a, c)

    def test_reflexivity(self):
        a = Region.fresh()
        assert RegionSolver().entails_outlives(a, a)

    def test_heap_outlives_everything(self):
        a = Region.fresh()
        assert RegionSolver().entails_outlives(HEAP, a)

    def test_heap_only_outlived_by_heap(self):
        a = Region.fresh()
        solver = RegionSolver()
        assert not solver.entails_outlives(a, HEAP)
        solver.add_outlives(a, HEAP)  # forces a = heap
        assert solver.entails_outlives(a, HEAP)
        assert solver.same_region(a, HEAP)

    def test_equality_gives_both_directions(self):
        a, b = Region.fresh_many(2)
        solver = RegionSolver(req(a, b))
        assert solver.entails_outlives(a, b)
        assert solver.entails_outlives(b, a)
        assert solver.same_region(a, b)

    def test_equality_merges_edges(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(req(a, b) & outlives(b, c))
        assert solver.entails_outlives(a, c)

    def test_entails_whole_constraint(self):
        a, b, c = Region.fresh_many(3)
        hyp = outlives(a, b) & outlives(b, c)
        assert entails(hyp, outlives(a, c) & outlives(a, b))
        assert not entails(hyp, outlives(c, a))

    def test_failing_atoms(self):
        a, b = Region.fresh_many(2)
        solver = RegionSolver(outlives(a, b))
        missing = solver.failing_atoms(outlives(b, a) & outlives(a, b))
        assert missing == (Outlives(b, a),)

    def test_pred_atom_rejected(self):
        a = Region.fresh()
        with pytest.raises(ValueError):
            RegionSolver(Constraint.of(PredAtom("p", (a,))))


class TestCycleCoalescing:
    def test_two_cycle_becomes_equality(self):
        a, b = Region.fresh_many(2)
        solver = solve(outlives(a, b) & outlives(b, a))
        assert solver.same_region(a, b)

    def test_long_cycle(self):
        rs = Region.fresh_many(6)
        atoms = [Outlives(x, y) for x, y in zip(rs, rs[1:])]
        atoms.append(Outlives(rs[-1], rs[0]))
        solver = solve(Constraint.of(*atoms))
        for r in rs[1:]:
            assert solver.same_region(rs[0], r)

    def test_paper_fig5_circular_structure(self):
        """r2>=r1b, r1b>=r1, r1>=r2a, r2a>=r2 forces r1=r2=r1b=r2a."""
        r1, r2, r1b, r2a = Region.fresh_many(4)
        c = (
            outlives(r2, r1b)
            & outlives(r1b, r1)
            & outlives(r1, r2a)
            & outlives(r2a, r2)
        )
        solver = solve(c)
        assert solver.same_region(r1, r2)
        assert solver.same_region(r1, r1b)
        assert solver.same_region(r1, r2a)

    def test_cycle_through_separate_sccs(self):
        a, b, c = Region.fresh_many(3)
        solver = solve(outlives(a, b) & outlives(b, a) & outlives(b, c))
        assert solver.same_region(a, b)
        assert not solver.same_region(a, c)
        assert solver.entails_outlives(a, c)


class TestUpwardClosure:
    def test_includes_targets(self):
        a, b = Region.fresh_many(2)
        solver = RegionSolver(outlives(a, b))
        assert b in solver.upward_closure([b])

    def test_includes_outliving_regions(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(outlives(a, b) & outlives(b, c))
        closure = solver.upward_closure([c])
        assert {a, b, c} <= closure

    def test_excludes_outlived_regions(self):
        a, b = Region.fresh_many(2)
        solver = RegionSolver(outlives(a, b))
        # nothing outlives a except a itself; b is merely outlived by a
        assert b not in solver.upward_closure([a])
        assert a in solver.upward_closure([a])

    def test_equalities_included(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(req(a, b) & outlives(c, a))
        closure = solver.upward_closure([b])
        assert {a, b, c} <= closure


class TestProjection:
    def test_keeps_interface_consequences(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(outlives(a, b) & outlives(b, c))
        projected = solver.project([a, c])
        assert entails(projected, outlives(a, c))

    def test_drops_local_regions(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(outlives(a, b) & outlives(b, c))
        projected = solver.project([a, c])
        assert b not in projected.regions()

    def test_interface_equalities_surface(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(req(a, b) & req(b, c))
        projected = solver.project([a, c])
        assert entails(projected, req(a, c))

    def test_transitive_reduction(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(outlives(a, b) & outlives(b, c))
        projected = solver.project([a, b, c])
        # a>=c is implied by a>=b, b>=c and should be reduced away
        assert Outlives(a, c) not in projected.atoms
        assert entails(projected, outlives(a, c))

    def test_projection_no_spurious_facts(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(outlives(a, b))
        projected = solver.project([a, c])
        assert not entails(projected, outlives(a, c))
        assert not entails(projected, outlives(c, a))


class TestCoalescingSubstitution:
    def test_prefers_preferred_regions(self):
        a, b = Region.fresh_many(2)
        solver = solve(req(a, b))
        subst = solver.coalescing_substitution(preferred=[b])
        assert subst.apply(a) == b
        assert subst.apply(b) == b

    def test_oldest_wins_without_preference(self):
        a, b = Region.fresh_many(2)
        solver = solve(req(a, b))
        subst = solver.coalescing_substitution()
        assert subst.apply(b) == a

    def test_heap_always_canonical(self):
        a = Region.fresh()
        solver = RegionSolver()
        solver.add_eq(a, HEAP)
        subst = solver.coalescing_substitution(preferred=[a])
        assert subst.apply(a) == HEAP


class TestCloseIdempotence:
    """close() must be idempotent, including after interleaved mutation."""

    def _snapshot(self, solver, regions):
        classes = solver.equivalence_classes()
        entailments = {
            (a, b): solver.entails_outlives(a, b)
            for a in regions
            for b in regions
        }
        return classes, entailments

    def test_repeated_close_is_stable(self):
        rs = Region.fresh_many(5)
        atoms = [Outlives(x, y) for x, y in zip(rs, rs[1:])]
        atoms.append(Outlives(rs[-1], rs[0]))
        solver = RegionSolver(Constraint.of(*atoms))
        solver.close()
        first = self._snapshot(solver, rs)
        for _ in range(3):
            solver.close()
        assert self._snapshot(solver, rs) == first

    def test_interleaved_add_union_query_sequences(self):
        a, b, c, d, e = Region.fresh_many(5)
        solver = RegionSolver()
        solver.add_outlives(a, b)
        assert solver.entails_outlives(a, b)  # query closes
        solver.union(c, d)  # mutate after close
        assert solver.same_region(c, d)
        solver.add_outlives(b, c)  # extend the chain after close
        solver.add_outlives(d, a)  # ... and close the cycle a->b->c=d->a
        assert solver.same_region(a, c)
        assert solver.same_region(b, d)
        solver.add_outlives(c, e)  # grow from inside a collapsed class
        assert solver.entails_outlives(a, e)
        assert not solver.entails_outlives(e, a)
        snapshot = self._snapshot(solver, (a, b, c, d, e))
        solver.close()
        solver.close()
        assert self._snapshot(solver, (a, b, c, d, e)) == snapshot

    def test_queries_between_mutations_see_fresh_state(self):
        """The reachability cache must be invalidated by every mutation."""
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(outlives(a, b))
        assert not solver.entails_outlives(a, c)  # cache built without c edge
        solver.add_outlives(b, c)
        assert solver.entails_outlives(a, c)  # rebuilt after the mutation
        assert not solver.entails_outlives(c, a)
        solver.union(c, a)  # collapses the whole chain
        assert solver.entails_outlives(c, a)
        assert solver.same_region(a, b)

    def test_derived_heap_merge_is_complete(self):
        """r >= s /\\ s >= heap forces r (and s) into the heap class."""
        r, s, t = Region.fresh_many(3)
        solver = RegionSolver(outlives(r, s) & outlives(s, HEAP))
        assert solver.same_region(s, HEAP)
        assert solver.same_region(r, HEAP)
        # heap-class regions outlive everything, known or not
        assert solver.entails_outlives(r, t)
        assert r in solver.upward_closure([t])


class TestCopy:
    def test_copy_is_independent(self):
        a, b = Region.fresh_many(2)
        solver = RegionSolver(outlives(a, b))
        dup = solver.copy()
        dup.add_eq(a, b)
        assert dup.same_region(a, b)
        assert not solver.same_region(a, b)


class TestTransitiveReductionBitsets:
    def test_chain_reduces_to_cover(self):
        a, b, c = Region.fresh_many(3)
        pairs = {(a, b), (b, c), (a, c)}
        assert solver_mod._transitive_reduction(pairs) == {(a, b), (b, c)}

    def test_diamond_keeps_both_branches(self):
        a, b, c, d = Region.fresh_many(4)
        pairs = {(a, b), (a, c), (b, d), (c, d), (a, d)}
        assert solver_mod._transitive_reduction(pairs) == {
            (a, b),
            (a, c),
            (b, d),
            (c, d),
        }

    def test_empty_and_single(self):
        a, b = Region.fresh_many(2)
        assert solver_mod._transitive_reduction(set()) == set()
        assert solver_mod._transitive_reduction({(a, b)}) == {(a, b)}

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_reference_on_random_closed_dags(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 12)
        regions = Region.fresh_many(n)
        # random DAG over an index order, then transitively close it
        succ = {i: set() for i in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    succ[i].add(j)
        for i in reversed(range(n)):
            for j in list(succ[i]):
                succ[i] |= succ[j]
        pairs = {
            (regions[i], regions[j]) for i in range(n) for j in succ[i]
        }

        def naive(ps):
            smap = {}
            for x, y in ps:
                smap.setdefault(x, set()).add(y)
            return {
                (x, y)
                for x, y in ps
                if not any(
                    z != x and z != y and y in smap.get(z, ())
                    for z in smap.get(x, ())
                )
            }

        assert solver_mod._transitive_reduction(pairs) == naive(pairs)
