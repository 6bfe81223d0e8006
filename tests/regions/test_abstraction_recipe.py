"""Compiled instantiation agrees with plain substitution.

:meth:`ConstraintAbstraction.instantiate` runs a recipe compiled once per
abstraction.  The reference below is the substitution it replaced: zip
the parameters with the arguments (the last binding of a repeated
parameter wins), freshen every other non-heap, non-null region of the
body in ``body.regions()`` order, and rename through ``Constraint.of``.
Over random abstractions the two must give the same constraint up to
the names of the fresh locals.
"""

import random
import sys
import threading

import pytest

from repro.regions import (
    HEAP,
    NULL_REGION,
    Constraint,
    ConstraintAbstraction,
    Outlives,
    PredAtom,
    Region,
    RegionEq,
)
from repro.regions.substitution import RegionSubst


def reference_instantiate(abstraction, args):
    subst = RegionSubst.zip(abstraction.params, list(args))
    locals_ = [
        r
        for r in abstraction.body.regions()
        if r not in set(abstraction.params) and not (r.is_heap or r.is_null)
    ]
    if locals_:
        fresh = Region.fresh_many(len(locals_), hint="x")
        subst = subst.compose(RegionSubst.identity())
        for loc, f in zip(locals_, fresh):
            subst = subst.extended(loc, f)
    return subst.apply_constraint(abstraction.body)


def minted(instantiate, abstraction, args):
    """The instantiation, with each region minted by it renamed to its
    position in minting order, and how many regions it minted."""
    mark = Region.watermark()
    out = instantiate(abstraction, args)
    fresh = sorted(r for r in out.regions() if r > mark)
    rank = {r: ("fresh", i) for i, r in enumerate(fresh)}

    def canon(r):
        return rank.get(r, r)

    atoms = set()
    for a in out.atoms:
        if isinstance(a, PredAtom):
            atoms.add(("pred", a.name, tuple(canon(r) for r in a.args)))
        else:
            atoms.add((type(a).__name__, canon(a.left), canon(a.right)))
    return atoms, Region.watermark() - mark


def random_abstraction(rng, locals_=True):
    arity = rng.randrange(0, 5)
    params = list(Region.fresh_many(arity))
    if params and rng.random() < 0.4:
        # a repeated parameter: the last binding wins
        params.insert(rng.randrange(len(params) + 1), rng.choice(params))
    existentials = list(
        Region.fresh_many(rng.randrange(0, 3) if locals_ else 0, hint="l")
    )
    pool = params + existentials + [HEAP, NULL_REGION]
    atoms = []
    for _ in range(rng.randrange(0, 7)):
        kind = rng.random()
        if kind < 0.45:
            atoms.append(Outlives(rng.choice(pool), rng.choice(pool)))
        elif kind < 0.8:
            atoms.append(RegionEq(rng.choice(pool), rng.choice(pool)))
        else:
            args = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 4)))
            atoms.append(PredAtom(rng.choice(("pre.f", "inv.C")), args))
    # bodies built raw keep trivial and unordered atoms, which only the
    # normalisation of a non-empty renaming removes
    body = Constraint(frozenset(atoms)) if rng.random() < 0.5 else Constraint.of(*atoms)
    return ConstraintAbstraction("pre.m", tuple(params), body)


def random_args(rng, abstraction):
    pool = list(Region.fresh_many(3)) + [HEAP, NULL_REGION] + list(abstraction.params)
    return tuple(rng.choice(pool) for _ in abstraction.params)


@pytest.mark.parametrize("seed", range(8))
def test_recipe_matches_substitution(seed):
    rng = random.Random(seed)
    for _ in range(150):
        abstraction = random_abstraction(rng)
        for _ in range(3):
            args = random_args(rng, abstraction)
            expected = minted(reference_instantiate, abstraction, args)
            got = minted(
                lambda a, xs: a.instantiate(xs), abstraction, args
            )
            assert got == expected, (str(abstraction), [str(r) for r in args])


def test_a_closed_nullary_abstraction_returns_its_body():
    body = Constraint(frozenset({Outlives(HEAP, HEAP)}))
    abstraction = ConstraintAbstraction("inv.C", (), body)
    assert abstraction.instantiate(()) is body


def test_the_recipe_is_compiled_once():
    a, b = Region.fresh_many(2)
    abstraction = ConstraintAbstraction("inv.C", (a, b), Constraint.of(Outlives(b, a)))
    x, y = Region.fresh_many(2)
    abstraction.instantiate((x, y))
    recipe = abstraction._recipe
    assert recipe is not None
    assert abstraction.instantiate((y, x)) == Constraint.of(Outlives(x, y))
    assert abstraction._recipe is recipe


def test_threads_racing_to_compile_one_abstraction_agree():
    """Cached results share their abstractions across request threads, so
    several threads may compile one recipe at once; each must still get
    the substitution's answer."""
    rng = random.Random(7)
    cases = []
    for _ in range(60):
        # no existential locals: the answers are exact, whoever mints first
        abstraction = random_abstraction(rng, locals_=False)
        args = random_args(rng, abstraction)
        cases.append((abstraction, args, reference_instantiate(abstraction, args)))
    wrong, done = [], []

    def work(seed):
        order = list(cases)
        random.Random(seed).shuffle(order)
        for abstraction, args, expected in order:
            if abstraction.instantiate(args) != expected:
                wrong.append(str(abstraction))
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == 8
    assert not wrong
