"""Unit tests for the region-constraint solver."""

import pytest

from repro.bench.families import (
    ALTERNATING_REGIONS,
    alternating_workload,
    constraint_bundles,
)
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


class TestIncrementalMaintenance:
    """Directed tests for delta propagation over the live cache.

    Each scenario primes the reachability cache with a query, mutates, and
    asserts both the answers and the `stats` counters — so a regression
    that silently falls back to rebuild-per-mutation (correct but slow)
    fails here too.
    """

    def test_edge_add_updates_live_cache(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(outlives(a, b))
        assert solver.entails_outlives(a, b)  # builds the cache
        solver.add_outlives(b, c)
        assert solver.entails_outlives(a, c)
        assert solver.stats.full_rebuilds == 1
        assert solver.stats.incremental_edges == 1
        assert solver.stats.cycle_fallbacks == 0

    def test_edge_add_reaches_all_ancestors(self):
        # a diamond above the mutation point: both upper arms must see the
        # delta via the dirty-frontier sweep, not just the direct parent
        top, left, right, mid, new = Region.fresh_many(5)
        solver = RegionSolver(
            Constraint.of(
                Outlives(top, left),
                Outlives(top, right),
                Outlives(left, mid),
                Outlives(right, mid),
            )
        )
        assert not solver.entails_outlives(top, new)
        solver.add_outlives(mid, new)
        for src in (top, left, right, mid):
            assert solver.entails_outlives(src, new)
        assert solver.stats.full_rebuilds == 1

    def test_cycle_closing_edge_falls_back_and_collapses(self):
        a, b, c, d = Region.fresh_many(4)
        solver = RegionSolver(
            Constraint.of(Outlives(a, b), Outlives(b, c), Outlives(c, d))
        )
        assert solver.entails_outlives(a, c)
        solver.add_outlives(c, a)  # closes the cycle: needs a re-close
        assert solver.stats.cycle_fallbacks == 1
        # the re-close collapses the SCC by union-find alone ...
        assert solver.same_region(a, c) and solver.same_region(a, b)
        assert solver.stats.full_rebuilds == 1
        # ... and the next cross-class reachability query rebuilds bitsets
        assert solver.entails_outlives(a, d)
        assert solver.stats.full_rebuilds == 2

    def test_union_of_unrelated_classes_is_incremental(self):
        a, b, c, d = Region.fresh_many(4)
        solver = RegionSolver(Constraint.of(Outlives(a, b), Outlives(c, d)))
        assert not solver.entails_outlives(a, d)
        solver.union(b, c)
        assert solver.entails_outlives(a, d)
        assert solver.entails_outlives(c, d) and solver.entails_outlives(a, b)
        assert solver.stats.incremental_unions == 1
        assert solver.stats.full_rebuilds == 1

    def test_union_across_direct_edge_is_incremental(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(Constraint.of(Outlives(a, b), Outlives(b, c)))
        assert solver.entails_outlives(a, c)
        solver.union(a, b)  # only a length-1 path between the classes
        assert solver.same_region(a, b)
        assert solver.entails_outlives(a, c)
        assert solver.stats.incremental_unions == 1
        assert solver.stats.full_rebuilds == 1

    def test_union_with_longer_path_falls_back(self):
        a, b, c, d = Region.fresh_many(4)
        solver = RegionSolver(
            Constraint.of(Outlives(a, b), Outlives(b, c), Outlives(c, d))
        )
        assert solver.entails_outlives(a, c)
        solver.union(a, c)  # merging the ends of a length-2 path: a cycle
        assert solver.stats.cycle_fallbacks == 1
        assert solver.same_region(a, b)  # b got swallowed by the collapse
        assert solver.entails_outlives(a, d)
        assert solver.stats.full_rebuilds == 2

    def test_union_into_heap_with_ancestors_falls_back(self):
        x, y = Region.fresh_many(2)
        solver = RegionSolver(outlives(x, y))
        assert solver.entails_outlives(x, y)
        solver.union(y, HEAP)
        # x now has a path into the heap class, so the completion rule of
        # close() must collapse x into heap as well
        assert solver.stats.cycle_fallbacks == 1
        assert solver.same_region(x, HEAP)

    def test_union_into_heap_without_ancestors_is_incremental(self):
        x, y = Region.fresh_many(2)
        solver = RegionSolver(outlives(x, y))
        assert solver.entails_outlives(x, y)
        solver.union(x, HEAP)  # x has no predecessors: no completion needed
        assert solver.same_region(x, HEAP)
        assert solver.entails_outlives(HEAP, y)
        assert solver.stats.incremental_unions == 1
        assert solver.stats.full_rebuilds == 1

    def test_fresh_regions_enter_the_live_cache(self):
        a, b = Region.fresh_many(2)
        solver = RegionSolver(outlives(a, b))
        assert solver.entails_outlives(a, b)
        c, d = Region.fresh_many(2)  # never seen by the solver yet
        solver.add_outlives(b, c)
        solver.add_outlives(c, d)
        assert solver.entails_outlives(a, d)
        assert solver.stats.full_rebuilds == 1
        assert solver.stats.incremental_edges == 2

    def test_duplicate_edge_and_trivial_atoms_cost_nothing(self):
        a, b = Region.fresh_many(2)
        solver = RegionSolver(outlives(a, b))
        assert solver.entails_outlives(a, b)
        solver.add_outlives(a, b)      # duplicate edge
        solver.add_outlives(a, a)      # trivial
        solver.add_outlives(HEAP, b)   # heap is top anyway
        assert solver.stats.incremental_hits == 0
        assert solver.stats.full_rebuilds == 1

    @pytest.mark.parametrize("n", [200, 1000])
    def test_alternating_add_query(self, n):
        """Every add after the priming query is absorbed without a
        rebuild, at either size."""
        solver = RegionSolver()
        answers = alternating_workload(solver, constraint_bundles(n))
        assert solver.stats.full_rebuilds == 1
        assert solver.stats.cycle_fallbacks == 0
        assert solver.stats.incremental_edges > 0
        assert any(answers) and not all(answers)

    def test_alternating_workload_builds_the_cache_once(self):
        """The letreg-shaped workload of the ``solver_scaling`` family:
        one edge add then a query burst, round-robin over short chains.
        Incremental maintenance builds the cache once and absorbs every
        later add; the ``incremental=False`` baseline rebuilds per burst
        and gives the same answers."""
        n = ALTERNATING_REGIONS
        bundles = constraint_bundles(n)
        solver = RegionSolver()
        answers = alternating_workload(solver, bundles)
        rebuild = RegionSolver(incremental=False)
        assert alternating_workload(rebuild, constraint_bundles(n)) == answers
        assert any(answers) and not all(answers)
        assert solver.stats.full_rebuilds == 1
        assert solver.stats.cycle_fallbacks == 0
        assert solver.stats.incremental_edges == n - len(bundles)
        assert rebuild.stats.incremental_hits == 0
        assert rebuild.stats.full_rebuilds > 100  # one per mutation burst

    def test_incremental_false_restores_rebuild_per_burst(self):
        a, b, c, d = Region.fresh_many(4)
        solver = RegionSolver(incremental=False)
        solver.add_outlives(a, b)
        assert solver.entails_outlives(a, b)
        solver.add_outlives(b, c)
        assert solver.entails_outlives(a, c)
        solver.add_outlives(c, d)
        assert solver.entails_outlives(a, d)
        assert solver.stats.incremental_hits == 0
        assert solver.stats.full_rebuilds == 3

    def test_copy_inherits_cache_and_maintains_it_independently(self):
        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(outlives(a, b))
        assert solver.entails_outlives(a, b)
        dup = solver.copy()
        dup.add_outlives(b, c)
        assert dup.entails_outlives(a, c)
        # the copy's mutation was incremental on the inherited cache ...
        assert dup.stats.full_rebuilds == 1
        assert dup.stats.incremental_edges == 1
        # ... and never leaked into the original, graph or counters
        assert not solver.entails_outlives(a, c)
        assert solver.stats.incremental_edges == 0

    def test_pickle_drops_cache_and_counters_but_not_answers(self):
        import pickle

        a, b, c = Region.fresh_many(3)
        solver = RegionSolver(Constraint.of(Outlives(a, b), Outlives(b, c)))
        assert solver.entails_outlives(a, c)
        clone = pickle.loads(pickle.dumps(solver))
        assert clone.stats.full_rebuilds == 0  # counters restart
        assert clone.entails_outlives(a, c)
        clone.add_outlives(c, Region.fresh())
        assert clone.stats.incremental_edges == 1  # maintenance still on

    def test_stats_snapshot_keys_are_stable(self):
        snap = RegionSolver().stats.snapshot()
        assert set(snap) == {
            "incremental_edges",
            "incremental_unions",
            "incremental_hits",
            "cycle_fallbacks",
            "full_rebuilds",
            "retractions",
            "rollback_fallbacks",
            "deferred_rebuilds",
        }

    def test_warm_builds_cache_even_for_trivial_hypotheses(self):
        # entailment over TRUE / equality-only constraints never touches
        # reachability, so without warm() copies would inherit a dead
        # cache and rebuild per mutation (the _minimize_pre fast path)
        solver = RegionSolver().warm()
        assert solver.stats.full_rebuilds == 1
        a, b = Region.fresh_many(2)
        solver.add_outlives(a, b)
        assert solver.stats.incremental_edges == 1
        eq_only = RegionSolver(req(*Region.fresh_many(2))).warm()
        assert eq_only.stats.full_rebuilds == 1
        dup = eq_only.copy()
        dup.add_outlives(a, b)
        assert dup.stats.incremental_edges == 1
        assert dup.stats.full_rebuilds == 1
