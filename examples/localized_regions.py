"""Localised regions and cyclic structures (paper Figs 4 and 5).

Run:  python examples/localized_regions.py

Walks through the paper's two worked examples:

* Fig 4: four linked Pair objects where only ``p2`` (and what it reaches)
  escapes -- the inference collapses the dead part of the structure into a
  single ``letreg`` region;
* Fig 5: a two-object cycle -- the outlives constraints force both objects
  into one region, and nothing can be localised.

Then it *runs* both on the region-based interpreter to show the memory
effect of the letreg.
"""

from repro import InferenceConfig, Interpreter, SubtypingMode, infer_source, pretty_target

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
int main(int n) {
  int i = 0;
  while (i < n) {
    Pair keep = build();
    i = i + 1;
  }
  i
}
"""

FIG5 = PAIR + """
Pair cyc() {
  Pair p1 = new Pair(null, null);
  Pair p2 = new Pair(p1, null);
  p1.setSnd(p2);
  p2
}
int main(int n) {
  int i = 0;
  while (i < n) {
    Pair keep = cyc();
    i = i + 1;
  }
  i
}
"""


def demo(title: str, source: str) -> None:
    print(f"=== {title} ===\n")
    result = infer_source(source, InferenceConfig(mode=SubtypingMode.OBJECT))
    print(pretty_target(result.target))
    print(
        "localised regions per method:",
        {qn: record.localized for qn, record in result.methods.items()},
    )

    interp = Interpreter(result.target)
    interp.run_static("main", [50])
    stats = interp.stats
    print(
        f"run: {stats.objects_allocated} objects, "
        f"{stats.total_allocated}B allocated, peak {stats.peak_live}B "
        f"(space-usage ratio {stats.space_usage_ratio:.3f}, "
        f"{stats.regions_created} regions created)\n"
    )


def main() -> None:
    demo("Fig 4: acyclic structure with a localised region", FIG4)
    demo("Fig 5: circular structure (one region, nothing localised)", FIG5)


if __name__ == "__main__":
    main()
