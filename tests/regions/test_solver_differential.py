"""Differential tests: the condensation-cached solver vs a naive reference.

The reference implementation is the textbook semantics of the constraint
language, with none of the solver's machinery: collect the outlives pairs
(equalities contribute both directions, ``heap >= r`` holds for every known
region), take the reflexive-transitive closure by Floyd-Warshall, and
answer every query from the closed relation.  It is quadratic-to-cubic and
obviously correct, which is the point.

Randomised constraint sets (seeded, so failures reproduce) are fed to both
implementations and every observable — ``entails_outlives``,
``same_region``, ``upward_closure``, ``project`` — is compared, including
after interleaved mutation/query rounds that exercise the solver's bitset
invalidation, and on copies mutated apart from their original.
"""

import random

import pytest

from repro.regions import (
    Constraint,
    HEAP,
    NULL_REGION,
    Outlives,
    Region,
    RegionEq,
    RegionSolver,
)


class NaiveReference:
    """Reference entailment by explicit transitive closure."""

    def __init__(self, atoms, universe):
        self.universe = list(universe)
        known = set(self.universe)
        pairs = set()
        for a in atoms:
            if any(r.is_null for r in a.regions()):
                continue  # null atoms are vacuous (the solver drops them)
            known.update(a.regions())
            if isinstance(a, Outlives):
                pairs.add((a.left, a.right))
            else:
                assert isinstance(a, RegionEq)
                pairs.add((a.left, a.right))
                pairs.add((a.right, a.left))
        known.add(HEAP)
        known = [r for r in known if not r.is_null]
        for r in known:
            pairs.add((HEAP, r))  # heap is top
            pairs.add((r, r))  # reflexivity
        # Floyd-Warshall transitive closure
        for mid in known:
            for src in known:
                if (src, mid) in pairs:
                    for dst in known:
                        if (mid, dst) in pairs:
                            pairs.add((src, dst))
        self.closure = pairs

    def entails_outlives(self, a, b):
        if a == b or a.is_heap or a.is_null or b.is_null:
            return True
        if (a, HEAP) in self.closure:
            return True  # a >= heap forces a = heap, and heap is top
        return (a, b) in self.closure

    def same_region(self, a, b):
        if a.is_null or b.is_null:
            return True
        return self.entails_outlives(a, b) and self.entails_outlives(b, a)


def random_atoms(rng, regions, n_atoms, *, heap_bias=0.1):
    """``n_atoms`` random outlives/equality atoms over ``regions``."""
    atoms = []
    for _ in range(n_atoms):
        a = rng.choice(regions)
        b = rng.choice(regions)
        if rng.random() < heap_bias:
            b = HEAP
        if rng.random() < 0.05:
            b = NULL_REGION
        if rng.random() < 0.7:
            atoms.append(Outlives(a, b))
        else:
            atoms.append(RegionEq(a, b))
    return atoms


def assert_agreement(solver, reference, regions, rng):
    """Compare every observable of the two implementations."""
    probe = list(regions) + [HEAP, Region.fresh("unseen")]
    for a in probe:
        for b in probe:
            assert solver.entails_outlives(a, b) == reference.entails_outlives(
                a, b
            ), f"entails({a!r}, {b!r}) disagrees"
            assert solver.same_region(a, b) == reference.same_region(
                a, b
            ), f"same_region({a!r}, {b!r}) disagrees"
    # upward closure = reverse reachability, membership checked pointwise
    targets = rng.sample(list(regions), min(3, len(regions)))
    closure = solver.upward_closure(targets)
    for r in regions:
        expected = any(reference.entails_outlives(r, t) for t in targets)
        assert (r in closure) == expected, f"upward_closure membership of {r!r}"
    # projection is sound and complete over the interface
    interface = rng.sample(list(regions), min(4, len(regions)))
    projected = solver.project(interface)
    psolver = RegionSolver(projected)
    for a in interface:
        for b in interface:
            assert psolver.entails_outlives(a, b) == reference.entails_outlives(
                a, b
            ), f"projection loses/invents {a!r} >= {b!r}"


@pytest.mark.parametrize("seed", range(25))
def test_random_constraint_sets_agree(seed):
    rng = random.Random(seed)
    regions = Region.fresh_many(rng.randint(2, 10))
    atoms = random_atoms(rng, regions, rng.randint(0, 24))
    solver = RegionSolver(Constraint.of(*atoms))
    reference = NaiveReference(atoms, regions)
    assert_agreement(solver, reference, regions, rng)


@pytest.mark.parametrize("seed", range(15))
def test_interleaved_mutation_and_query_rounds(seed):
    """The solver agrees with a from-scratch reference after every
    mutation batch — exercising bitset invalidation on add/union."""
    rng = random.Random(1000 + seed)
    regions = Region.fresh_many(rng.randint(3, 8))
    solver = RegionSolver()
    so_far = []
    for _ in range(4):
        batch = random_atoms(rng, regions, rng.randint(1, 6))
        for atom in batch:
            c = Constraint.of(atom)
            so_far.extend(c.atoms)
            solver.add_constraint(c)
        # direct union calls are part of the mutation surface too
        if rng.random() < 0.5:
            a, b = rng.choice(regions), rng.choice(regions)
            solver.union(a, b)
            so_far.append(RegionEq(a, b))
        reference = NaiveReference(so_far, regions)
        assert_agreement(solver, reference, regions, rng)


@pytest.mark.parametrize("seed", range(20))
def test_incremental_agrees_with_fresh_naive_at_every_step(seed):
    """After *every single* add/union the solver answers every observable
    exactly like a naive solver closed from scratch over the accumulated
    atoms.

    A priming query builds the bitsets up front, so each mutation lands
    on a solver that has answered queries before and must not answer the
    next one from stale bitsets (or a stale closure).
    """
    rng = random.Random(3000 + seed)
    regions = Region.fresh_many(rng.randint(3, 7))
    solver = RegionSolver()
    solver.entails_outlives(regions[0], regions[1])  # prime the bitsets
    so_far = []
    for _ in range(rng.randint(8, 16)):
        if rng.random() < 0.75:
            atoms = random_atoms(rng, regions, 1)
        else:
            a, b = rng.choice(regions), rng.choice(regions)
            atoms = [RegionEq(a, b)]  # direct union via add_eq
        for atom in atoms:
            c = Constraint.of(atom)
            so_far.extend(c.atoms)
            solver.add_constraint(c)
            reference = NaiveReference(so_far, regions)
            assert_agreement(solver, reference, regions, random.Random(seed))


@pytest.mark.parametrize("seed", range(5))
def test_copy_is_equivalent_and_independent(seed):
    rng = random.Random(2000 + seed)
    regions = Region.fresh_many(6)
    atoms = random_atoms(rng, regions, 12)
    solver = RegionSolver(Constraint.of(*atoms))
    solver.close()
    dup = solver.copy()
    reference = NaiveReference(atoms, regions)
    assert_agreement(dup, reference, regions, rng)
    # mutating the copy must not leak into the original
    extra = Outlives(regions[0], regions[-1])
    dup.add_outlives(extra.left, extra.right)
    assert_agreement(solver, reference, regions, rng)
    dup_reference = NaiveReference(atoms + [extra], regions)
    assert_agreement(dup, dup_reference, regions, rng)


@pytest.mark.parametrize("seed", range(10))
def test_letreg_copies_diverge_from_their_original(seed):
    """The checker's letreg path: a closed, queried solver is copied, then
    the copy and the original each take *different* random atoms, one at
    a time.  After every step each agrees with its own naive reference --
    neither's graph, closure or bitsets may leak into the other's."""
    rng = random.Random(5000 + seed)
    regions = Region.fresh_many(rng.randint(3, 7))
    base = random_atoms(rng, regions, rng.randint(0, 10))
    original = RegionSolver(Constraint.of(*base))
    original.close()
    assert_agreement(original, NaiveReference(base, regions), regions, rng)
    dup = original.copy()
    histories = {id(original): list(base), id(dup): list(base)}
    for _ in range(rng.randint(4, 10)):
        for solver in (dup, original):
            for atom in Constraint.of(*random_atoms(rng, regions, 1)).atoms:
                histories[id(solver)].append(atom)
                solver.add_atom(atom)
            for other in (original, dup):
                reference = NaiveReference(histories[id(other)], regions)
                assert_agreement(other, reference, regions, random.Random(seed))
