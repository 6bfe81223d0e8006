"""Region-polymorphic recursion and fixed-point analysis (paper Fig 6).

Run:  python examples/recursive_fixpoint.py

Infers the alternating-merge ``join`` and shows:

* the Kleene iterates of ``pre.join`` (the paper's Fig 6(d) table),
  re-derived directly from the constraint abstraction;
* the closed form ``r2 >= r8 /\\ r5 >= r8``;
* the precision loss when region-polymorphic recursion is disabled.
"""

from repro import InferenceConfig, SubtypingMode, infer_source
from repro.lang.pretty import pretty_constraint, pretty_target
from repro.regions import (
    AbstractionEnv,
    ConstraintAbstraction,
    PredAtom,
    RegionNames,
    RegionSolver,
    outlives,
    solve_recursive_abstractions,
)
from repro.regions.constraints import Region

JOIN = """
class List extends Object {
  Object value;
  List next;
  Object getValue() { value }
  List getNext() { next }
}
bool isNull(List l) { l == (List) null }
List join(List xs, List ys) {
  if (isNull(xs)) {
    if (isNull(ys)) { (List) null } else { join(ys, xs) }
  } else {
    Object x;
    List res;
    x = xs.getValue();
    res = join(ys, xs.getNext());
    new List(x, res)
  }
}
"""


def show_fixpoint_trace() -> None:
    """Reproduce Fig 6(d) from the raw recursive abstraction."""
    print("=== Fig 6(d): Kleene iteration of pre.join ===\n")
    rs = Region.fresh_many(9)
    swapped = rs[3:6] + rs[0:3] + rs[6:9]
    body = outlives(rs[1], rs[7]).with_atoms(PredAtom("pre.join", swapped))
    abstraction = ConstraintAbstraction("pre.join", rs, body)
    names = RegionNames()
    names.name_all(rs)
    print(f"  pre.join<r1..r9> = {pretty_constraint(body, names.name)}\n")
    result = solve_recursive_abstractions([abstraction], AbstractionEnv())
    for i, iterate in enumerate(result.trace["pre.join"]):
        print(f"  pre.join_{i}<r1..r9> = {pretty_constraint(iterate, names.name)}")
    print(f"\n  fixed point reached after {result.iterations} iterations\n")


def show_inferred_join() -> None:
    print("=== The inferred join (paper Fig 6(c)) ===\n")
    result = infer_source(JOIN, InferenceConfig(mode=SubtypingMode.OBJECT))
    print(pretty_target(result.target))


def show_monomorphic_loss() -> None:
    print("=== Ablation: monomorphic recursion ===\n")
    poly = infer_source(JOIN, InferenceConfig(mode=SubtypingMode.OBJECT))
    mono = infer_source(
        JOIN,
        InferenceConfig(mode=SubtypingMode.OBJECT, polymorphic_recursion=False),
    )
    for label, result in (("polymorphic", poly), ("monomorphic", mono)):
        scheme = result.methods["join"].scheme
        solver = RegionSolver(result.target.q["pre.join"].body)
        params = scheme.region_params
        merged = sum(
            1
            for i in range(len(params))
            for j in range(i + 1, len(params))
            if solver.same_region(params[i], params[j])
        )
        print(f"  {label:12s}: {merged} region parameters forcibly merged")
    print(
        "\n  (the swapped recursive call join(ys, xs) makes monomorphic "
        "recursion\n   collapse the two lists' regions -- the precision "
        "loss Sec 4.2.3 warns about)"
    )


def main() -> None:
    show_fixpoint_trace()
    show_inferred_join()
    show_monomorphic_loss()


if __name__ == "__main__":
    main()
