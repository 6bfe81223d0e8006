"""Fixed-point analysis for recursive constraint abstractions (Sec 4.2.3).

A (mutually) recursive method nest produces constraint abstractions whose
bodies reference each other, e.g. for the alternating-merge ``join``::

    pre.join<r1..r9> = (r2 >= r8)  /\\  pre.join<r4..r6, r1..r3, r7..r9>

The closed form is computed by Kleene iteration from ``True``:

    pre.join_0<r1..r9> = true
    pre.join_1<r1..r9> = r2 >= r8
    pre.join_2<r1..r9> = r2 >= r8 /\\ r5 >= r8
    pre.join_3<r1..r9> = r2 >= r8 /\\ r5 >= r8          (fixed point)

Termination is guaranteed because each iterate is a conjunction of atoms
over the *fixed, finite* set of the abstraction's region parameters (plus
heap), each iterate entails the previous one, and there are only finitely
many such conjunctions (paper Sec 4.2.3).

The iteration projects every iterate onto the abstraction's parameters so
locals introduced by instantiation cannot grow the constraint unboundedly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..deadline import check as check_deadline
from .abstraction import AbstractionEnv, ConstraintAbstraction
from .constraints import Constraint, HEAP, TRUE
from .solver import RegionSolver

__all__ = ["FixpointResult", "solve_recursive_abstractions", "close_abstraction_env"]

#: Safety bound on Kleene iterations; the finite-lattice argument means this
#: is never reached by correct inputs, so hitting it is an internal error.
MAX_ITERATIONS = 100


class FixpointResult:
    """Outcome of one fixed-point computation.

    Attributes:
        solutions: closed abstraction per name.
        iterations: number of Kleene steps until stabilisation (the paper's
            ``pre.join`` converges with ``iterations == 2``: iterate 2
            equals iterate 3).
        trace: per-name list of intermediate bodies (iterate 0 is ``true``),
            useful for reproducing Fig 6(d).
    """

    def __init__(
        self,
        solutions: Dict[str, ConstraintAbstraction],
        iterations: int,
        trace: Dict[str, List[Constraint]],
    ):
        self.solutions = solutions
        self.iterations = iterations
        self.trace = trace

    def __getitem__(self, name: str) -> ConstraintAbstraction:
        return self.solutions[name]


def _step(
    nest: Dict[str, ConstraintAbstraction],
    current: Dict[str, Constraint],
    env: AbstractionEnv,
    solvers: Dict[str, RegionSolver],
) -> Dict[str, Constraint]:
    """One Kleene step: substitute current approximations into each body.

    ``solvers`` holds one persistent :class:`RegionSolver` per abstraction,
    reused across iterations: each step's expansion is *added* to the
    accumulated constraint store instead of rebuilding a solver from
    scratch.  This is sound because Kleene iteration from ``True`` is
    monotone -- every expansion entails the previous one over the shared
    vocabulary (the parameters plus heap), so the accumulated conjunction
    projects onto the parameters exactly like the latest expansion alone.
    Each projection re-closes the grown graph and rebuilds its descendant
    bitsets once.  A member's solver is built by the first step whose
    expansion has an atom; until then its iterate is ``True`` (the
    projection of an empty store), and many members never get one.
    """
    nxt: Dict[str, Constraint] = {}
    # the current approximation of each in-nest callee, compiled once
    approx: Dict[str, ConstraintAbstraction] = {}
    for name, abstraction in nest.items():
        body = abstraction.body
        expanded = body.base_atoms()
        for atom in body.pred_atoms():
            if atom.name in nest:
                callee = approx.get(atom.name)
                if callee is None:
                    callee = approx[atom.name] = ConstraintAbstraction(
                        atom.name, nest[atom.name].params, current[atom.name]
                    )
                expanded = expanded.conj(callee.instantiate(atom.args))
            else:
                # out-of-nest abstraction: must already be closed
                expanded = expanded.conj(env.expand(Constraint.of(atom)))
        solver = solvers.get(name)
        if solver is None:
            if expanded.is_true:
                nxt[name] = TRUE
                continue
            solver = solvers[name] = RegionSolver()
        solver.add_constraint(expanded)
        nxt[name] = solver.project(list(abstraction.params) + [HEAP])
    return nxt


def _same(
    nest: Dict[str, ConstraintAbstraction],
    a: Dict[str, Constraint],
    b: Dict[str, Constraint],
) -> bool:
    """Are two approximations equivalent, per name?

    Iterates are projections onto the abstraction's parameters, so at the
    fixed point they are almost always *syntactically* identical -- the
    atom-set fingerprint decides without any solving.  ``True`` against a
    non-empty iterate is decided without solving too: iterates come from
    ``Constraint.of``, which drops every atom ``True`` entails.  Mutual
    entailment is the (rare) fallback for syntactically different but
    equivalent forms.
    """
    for name in nest:
        if a[name].atoms == b[name].atoms:
            continue
        if a[name].is_true or b[name].is_true:
            return False
        sa = RegionSolver(a[name])
        sb = RegionSolver(b[name])
        if not (sa.entails(b[name]) and sb.entails(a[name])):
            return False
    return True


def solve_recursive_abstractions(
    abstractions: Iterable[ConstraintAbstraction],
    env: AbstractionEnv,
) -> FixpointResult:
    """Close a (mutually) recursive nest of abstractions by Kleene iteration.

    ``env`` provides the already-closed abstractions the nest may reference
    (callees processed earlier in the dependency order).  The returned
    solutions are *not* automatically installed into ``env``.
    """
    nest: Dict[str, ConstraintAbstraction] = {a.name: a for a in abstractions}
    trace: Dict[str, List[Constraint]] = {name: [TRUE] for name in nest}
    current: Dict[str, Constraint] = {name: TRUE for name in nest}
    # one accumulating solver per abstraction, shared by every step and
    # built when the abstraction's expansion first has an atom
    solvers: Dict[str, RegionSolver] = {}

    iterations = 0
    for _ in range(MAX_ITERATIONS):
        check_deadline()
        nxt = _step(nest, current, env, solvers)
        for name in nest:
            trace[name].append(nxt[name])
        if _same(nest, current, nxt):
            break
        current = nxt
        iterations += 1
    else:  # pragma: no cover - would indicate a solver bug
        raise RuntimeError(
            f"fixed-point analysis exceeded {MAX_ITERATIONS} iterations for "
            f"{sorted(nest)}"
        )

    solutions = {
        name: ConstraintAbstraction(name, nest[name].params, current[name])
        for name in nest
    }
    return FixpointResult(solutions, iterations, trace)


def close_abstraction_env(env: AbstractionEnv) -> None:
    """Close every abstraction in ``env`` in-place.

    Abstractions are grouped into mutually-referencing nests by a simple
    reachability grouping and each nest is solved; already-closed
    abstractions are untouched.  This is a convenience for tests -- the
    inference engine closes method nests one dependency-graph SCC at a time.
    """
    # group names by mutual reference (undirected connectivity is a safe
    # over-approximation of the SCC nests for closing purposes)
    open_names = [a.name for a in env if not a.is_closed]
    if not open_names:
        return
    adj: Dict[str, set] = {n: set() for n in open_names}
    for name in open_names:
        for atom in env[name].body.pred_atoms():
            if atom.name in adj:
                adj[name].add(atom.name)
                adj[atom.name].add(name)
    seen: set = set()
    for start in open_names:
        if start in seen:
            continue
        group = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adj[node]:
                if nxt not in group:
                    group.add(nxt)
                    frontier.append(nxt)
        seen |= group
        result = solve_recursive_abstractions([env[n] for n in sorted(group)], env)
        for name, solved in result.solutions.items():
            env.define(solved)
