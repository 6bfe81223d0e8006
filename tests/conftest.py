"""Shared fixtures and helpers for the test suite."""

import sys
import time

import pytest

from repro.bench import families as bench_families
from repro.bench.pkb import BenchmarkSpec, MetricRule, Threshold, sample
from repro.checking import check_target
from repro.core import InferenceConfig, SubtypingMode, infer_source

#: the Pair class of the paper's Fig 2(a)
PAIR_SOURCE = """
class Pair extends Object {
  Object fst;
  Object snd;
  Object getFst() { fst }
  void setSnd(Object o) { snd = o; }
  Pair cloneRev() {
    Pair tmp = new Pair(null, null);
    tmp.fst = snd;
    tmp.snd = fst;
    tmp
  }
  void swap() { Object tmp = fst; fst = snd; snd = tmp; }
}
"""

#: the List class of the paper's Fig 2(b)
LIST_SOURCE = """
class List extends Object {
  Object value;
  List next;
  Object getValue() { value }
  List getNext() { next }
  void setNext(List o) { next = o; }
}
"""

#: the recursive join of the paper's Fig 6
JOIN_SOURCE = """
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

#: a call whose receiver is a two-armed if: normal typing types the if as
#: the most specific supertype of its branches (A), so the call resolves to
#: A.m although the then-branch has type B
IF_RECEIVER_SOURCE = """
class A { A nxt; int m(A o) { 1 } }
class B extends A { int m(A o) { 2 } }
class D { B f; A g;
  int use(bool c) { (if (c) { this.f } else { this.g }).m(this.g) }
}
int main(int n) { D d = new D(new B(null), new A(null)); d.use(true) }
"""

#: an override whose parameter only the overriding method downcasts: the
#: downcast analysis must pad A.m's parameter as it pads B.m's
PADDED_OVERRIDE_SOURCE = """
class P { int v; }
class Q extends P { P w; }
class A { int k; int m(P o) { 1 } }
class B extends A { int m(P o) { ((Q) o).v } }
int main(int n) { A a = new B(1); a.m(new Q(1, null)) }
"""


@pytest.fixture
def front_half_builds(monkeypatch):
    """Count the parses and class annotations pipelines build (a session
    caches ``infer`` results only, so this is how a test sees them)."""
    from repro.api import pipeline
    from repro.core import AnnotatedProgram

    counts = {"parse": 0, "annotate": 0}

    def counted(stage, build):
        def run(*args):
            counts[stage] += 1
            return build(*args)

        return run

    monkeypatch.setattr(
        pipeline, "parse_program", counted("parse", pipeline.parse_program)
    )
    monkeypatch.setattr(
        AnnotatedProgram,
        "from_table",
        staticmethod(counted("annotate", AnnotatedProgram.from_table)),
    )
    return counts


@pytest.fixture(autouse=True)
def _deep_recursion():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(400000)
    yield
    sys.setrecursionlimit(old)


def infer_and_check(source, mode=SubtypingMode.FIELD, **config_kwargs):
    """Infer annotations and require the checker to accept them."""
    config = InferenceConfig(mode=mode, **config_kwargs)
    result = infer_source(source, config)
    report = check_target(
        result.target, mode=mode.value, downcast=config.downcast.value
    )
    assert report.ok, [str(i) for i in report.issues[:5]]
    return result


def infer_within(source, config, seconds=1.0):
    """``infer_source`` that must finish within ``seconds`` of wall clock.

    The ablation cost bound: the paper's prototype infers each benchmark
    program well under a second, and so must every ablation config here.
    """
    start = time.perf_counter()
    result = infer_source(source, config)
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"inference took {elapsed:.2f}s (bound {seconds}s)"
    return result


def toy_bench_registry(value=1.0):
    """A one-family benchmark registry that runs in microseconds: ``toy``
    emits ``wall`` (``value`` ms) and ``speedup`` (8x, floor 5x)."""

    def run(ctx):
        return [
            sample("wall", value, "ms", {"case": "a"}),
            sample("speedup", 8.0, "x", {"case": "a"}),
        ]

    return {
        "toy": BenchmarkSpec(
            name="toy",
            description="a toy family for CLI tests",
            run=run,
            key_fields=("case",),
            thresholds=(Threshold("speedup", floor=5.0),),
            rules={"speedup": MetricRule(
                direction="higher", tolerance=0.5, portable=True
            )},
        ),
    }


@pytest.fixture()
def toy_registry(monkeypatch):
    """Swap the benchmark registry for :func:`toy_bench_registry`."""
    monkeypatch.setattr(bench_families, "_REGISTRY", toy_bench_registry())
