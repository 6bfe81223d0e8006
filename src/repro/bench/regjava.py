"""The RegJava benchmark suite (paper Fig 8).

Ten Core-Java programs re-created from the RegJava benchmark set of
Christiansen & Velschow [16] as used in the paper's evaluation.  Each
program carries the paper's reported numbers so the harness can print a
paper-vs-measured table.

The programs are written so their *allocation structure* matches the
paper's space-reuse story:

* sieve / naive life / optimized life (dangling, stack) retain everything
  they allocate (ratio 1 under every subtyping mode);
* ackermann / mandelbrot / merge sort free temporaries regardless of mode;
* **Reynolds3** only reuses space under *field* subtyping (the recursive
  ``RList`` cells need a covariant recursive region);
* **foo-sum** only reuses space under *object* subtyping (a two-way
  assignment into one temp variable otherwise coalesces a per-iteration
  object with a long-lived one).

Inputs are scaled down from the paper's (a tree-walking Python interpreter
stands in for compiled Titanium code); the ratios, not absolute sizes, are
the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["PaperRow", "BenchmarkProgram", "REGJAVA_PROGRAMS", "regjava_program"]


@dataclass(frozen=True)
class PaperRow:
    """The paper's Fig 8 row for one program."""

    source_lines: int
    annotation_lines: int
    inference_seconds: float
    checking_seconds: float
    input_label: str
    ratio_no_sub: Optional[float]
    ratio_object_sub: Optional[float]
    ratio_field_sub: Optional[float]
    diff_vs_regjava: Optional[int]


@dataclass(frozen=True)
class BenchmarkProgram:
    """A runnable benchmark: source text, entry point, inputs, paper data."""

    name: str
    source: str
    entry: str
    #: arguments for a full measurement run
    run_args: Tuple[int, ...]
    #: smaller arguments for quick test runs
    test_args: Tuple[int, ...]
    paper: PaperRow
    #: expected result of ``entry(*test_args)`` (None to skip the check)
    expected_test_result: Optional[int] = None


# ---------------------------------------------------------------------------
# 1. Sieve of Eratosthenes -- flag list retained: no space reuse (ratio 1)
# ---------------------------------------------------------------------------

SIEVE = """
// Sieve of Eratosthenes over a mutable linked list of flags.
class IntList extends Object {
  int value;
  IntList next;
}

IntList buildFlags(int k, int n) {
  if (k > n) { (IntList) null } else { new IntList(1, buildFlags(k + 1, n)) }
}

IntList nth(IntList xs, int i) {
  if (i == 0) { xs } else { nth(xs.next, i - 1) }
}

void markMultiples(IntList flags, int p, int k, int n) {
  if (k <= n) {
    IntList cell = nth(flags, k - 2);
    cell.value = 0;
    markMultiples(flags, p, k + p, n)
  } else { }
}

int countOnes(IntList xs) {
  if (xs == null) { 0 } else { xs.value + countOnes(xs.next) }
}

int sieve(int n) {
  IntList flags = buildFlags(2, n);
  int p = 2;
  while (p * p <= n) {
    IntList cell = nth(flags, p - 2);
    if (cell.value == 1) {
      markMultiples(flags, p, p * p, n);
    }
    p = p + 1;
  }
  countOnes(flags)
}
"""


# ---------------------------------------------------------------------------
# 2. Ackermann -- a temporary box per call: heavy reuse under every mode
# ---------------------------------------------------------------------------

ACKERMANN = """
// Ackermann's function with a per-call scratch object.
class Num extends Object {
  int v;
}

int ack(int m, int n) {
  Num scratch = new Num(m * 1000 + n);
  if (m == 0) { n + 1 }
  else {
    if (n == 0) { ack(m - 1, 1) }
    else { ack(m - 1, ack(m, n - 1)) }
  }
}

int ackermann(int n) { ack(2, n) }
"""


# ---------------------------------------------------------------------------
# 3. Merge Sort -- intermediate split/merge lists die (partial reuse)
# ---------------------------------------------------------------------------

MERGESORT = """
// Bottom-up style recursive merge sort over linked lists.
class IntList extends Object {
  int value;
  IntList next;
}

IntList randomList(int n, int seed) {
  if (n == 0) { (IntList) null }
  else {
    int nxt = (seed * 1103515245 + 12345) % 2147483647;
    if (nxt < 0) { nxt = 0 - nxt; } else { }
    new IntList(nxt % 10000, randomList(n - 1, nxt))
  }
}

IntList evens(IntList xs) {
  if (xs == null) { (IntList) null }
  else {
    if (xs.next == null) { new IntList(xs.value, (IntList) null) }
    else { new IntList(xs.value, evens(xs.next.next)) }
  }
}

IntList odds(IntList xs) {
  if (xs == null) { (IntList) null } else { evens(xs.next) }
}

IntList merge(IntList a, IntList b) {
  // always allocates fresh cells: no structural sharing with the inputs,
  // so the intermediate lists of each recursion level really die there
  if (a == null) {
    if (b == null) { (IntList) null }
    else { new IntList(b.value, merge(a, b.next)) }
  }
  else {
    if (b == null) { new IntList(a.value, merge(a.next, b)) }
    else {
      if (a.value <= b.value) { new IntList(a.value, merge(a.next, b)) }
      else { new IntList(b.value, merge(a, b.next)) }
    }
  }
}

IntList msort(IntList xs) {
  if (xs == null) { (IntList) null }
  else {
    if (xs.next == null) { new IntList(xs.value, (IntList) null) }
    else { merge(msort(evens(xs)), msort(odds(xs))) }
  }
}

int checksum(IntList xs, int acc) {
  if (xs == null) { acc } else { checksum(xs.next, (acc * 31 + xs.value) % 1000000007) }
}

int mergesort(int n) {
  IntList sorted = msort(randomList(n, 42));
  checksum(sorted, 0)
}
"""


# ---------------------------------------------------------------------------
# 4. Mandelbrot -- fixed-point arithmetic, per-pixel temporaries die
# ---------------------------------------------------------------------------

MANDELBROT = """
// Mandelbrot membership over a grid, 10.22 fixed-point arithmetic.
class Complex extends Object {
  int re;
  int im;
}

int fpmul(int a, int b) { (a * b) / 1024 }

int escapes(int cre, int cim) {
  Complex z = new Complex(0, 0);
  int iter = 0;
  int diverged = 0;
  while (iter < 16 && diverged == 0) {
    Complex z2 = new Complex(
      fpmul(z.re, z.re) - fpmul(z.im, z.im) + cre,
      2 * fpmul(z.re, z.im) + cim);
    z = z2;
    if (fpmul(z.re, z.re) + fpmul(z.im, z.im) > 4096) { diverged = 1; } else { }
    iter = iter + 1;
  }
  diverged
}

int mandelbrot(int n) {
  int count = 0;
  int y = 0;
  while (y < n) {
    int x = 0;
    while (x < n) {
      int cre = (x * 3072) / n - 2048;
      int cim = (y * 2048) / n - 1024;
      if (escapes(cre, cim) == 0) { count = count + 1; } else { }
      x = x + 1;
    }
    y = y + 1;
  }
  count
}
"""


# ---------------------------------------------------------------------------
# 5-8. Game of Life variants
# ---------------------------------------------------------------------------

_LIFE_COMMON = """
class Cells extends Object {
  int alive;
  Cells next;
}

Cells emptyBoard(int k) {
  if (k == 0) { (Cells) null } else { new Cells(0, emptyBoard(k - 1)) }
}

Cells glider(int k, int size) {
  // a small seeded pattern on a size x size flat board
  if (k == 0) { (Cells) null }
  else {
    int idx = size * size - k;
    int x = idx % size;
    int y = idx / size;
    int on = 0;
    if (y == 1 && x == 2) { on = 1; } else { }
    if (y == 2 && x == 3) { on = 1; } else { }
    if (y == 3 && (x == 1 || x == 2 || x == 3)) { on = 1; } else { }
    new Cells(on, glider(k - 1, size))
  }
}

int cellAt(Cells b, int i) {
  if (i == 0) { b.alive } else { cellAt(b.next, i - 1) }
}

int at(Cells b, int x, int y, int size) {
  if (x < 0 || y < 0 || x >= size || y >= size) { 0 }
  else { cellAt(b, y * size + x) }
}

int neighbours(Cells b, int x, int y, int size) {
  at(b, x - 1, y - 1, size) + at(b, x, y - 1, size) + at(b, x + 1, y - 1, size) +
  at(b, x - 1, y, size) + at(b, x + 1, y, size) +
  at(b, x - 1, y + 1, size) + at(b, x, y + 1, size) + at(b, x + 1, y + 1, size)
}

int rule(int alive, int n) {
  if (alive == 1) {
    if (n == 2 || n == 3) { 1 } else { 0 }
  } else {
    if (n == 3) { 1 } else { 0 }
  }
}

Cells stepCells(Cells old, int idx, int size) {
  if (idx == size * size) { (Cells) null }
  else {
    int x = idx % size;
    int y = idx / size;
    new Cells(rule(at(old, x, y, size), neighbours(old, x, y, size)),
              stepCells(old, idx + 1, size))
  }
}

int population(Cells b) {
  if (b == null) { 0 } else { b.alive + population(b.next) }
}
"""

NAIVE_LIFE = _LIFE_COMMON + """
// Naive life: every generation is retained in a history list.
class History extends Object {
  Cells board;
  History older;
}

History evolve(History h, int gens, int size) {
  if (gens == 0) { h }
  else { evolve(new History(stepCells(h.board, 0, size), h), gens - 1, size) }
}

int life(int gens) {
  int size = 8;
  History h = new History(glider(size * size, size), (History) null);
  History last = evolve(h, gens, size);
  population(last.board)
}
"""

OPT_LIFE_ARRAY = _LIFE_COMMON + """
// Optimized life (array): two pre-allocated buffers updated in place; the
// only per-generation allocations are scratch objects that die with each
// cell update, so most of the allocation volume is reused.
class Scratch extends Object {
  int count;
  int verdict;
}

void updateCell(Cells dstCell, Cells src, int x, int y, int size) {
  Scratch s = new Scratch(neighbours(src, x, y, size), 0);
  s.verdict = rule(at(src, x, y, size), s.count);
  dstCell.alive = s.verdict;
}

void updateAll(Cells dst, Cells src, int idx, int size) {
  if (idx < size * size) {
    updateCell(nthCell(dst, idx), src, idx % size, idx / size, size);
    updateAll(dst, src, idx + 1, size)
  } else { }
}

Cells nthCell(Cells b, int i) {
  if (i == 0) { b } else { nthCell(b.next, i - 1) }
}

void evolve(Cells a, Cells b, int gens, int size) {
  if (gens == 0) { }
  else {
    updateAll(b, a, 0, size);
    evolve(b, a, gens - 1, size)
  }
}

int life(int gens) {
  int size = 8;
  Cells a = glider(size * size, size);
  Cells b = emptyBoard(size * size);
  evolve(a, b, gens, size);
  if (gens % 2 == 0) { population(a) } else { population(b) }
}
"""

OPT_LIFE_DANGLING = _LIFE_COMMON + """
// Optimized life (dangling): each board keeps a never-read reference to
// its predecessor.  RegJava's no-dangling-access policy lets the old
// generation die anyway; our no-dangling policy must keep it alive, which
// is the paper's "one less localised region" row.
class Linked extends Object {
  Cells board;
  Linked prev;
}

Linked evolve(Linked cur, int gens, int size) {
  if (gens == 0) { cur }
  else { evolve(new Linked(stepCells(cur.board, 0, size), cur), gens - 1, size) }
}

int life(int gens) {
  int size = 8;
  Linked last = evolve(new Linked(glider(size * size, size), (Linked) null), gens, size);
  population(last.board)
}
"""

OPT_LIFE_STACK = _LIFE_COMMON + """
// Optimized life (stack): generations are pushed on an explicit stack
// that is only torn down at the end -- everything lives to the end.
class Stack extends Object {
  Cells board;
  Stack below;
}

Stack pushAll(Stack s, int gens, int size) {
  if (gens == 0) { s }
  else { pushAll(new Stack(stepCells(s.board, 0, size), s), gens - 1, size) }
}

int popCount(Stack s) {
  if (s == null) { 0 } else { population(s.board) + popCount(s.below) }
}

int life(int gens) {
  int size = 8;
  Stack top = pushAll(new Stack(glider(size * size, size), (Stack) null), gens, size);
  popCount(top)
}
"""


# ---------------------------------------------------------------------------
# 9. Reynolds3 -- the field-subtyping showcase (Sec 3.2)
# ---------------------------------------------------------------------------

REYNOLDS3 = """
// Reynolds' escape-analysis challenge: a recursive search builds a
// temporary immutable list (RList) along each tree path.
class Num extends Object {
  int v;
}

class RList extends Object {
  Object value;
  RList next;
}

class Tree extends Object {
  Object value;
  Tree left;
  Tree right;
}

Tree build(int depth, int seed) {
  if (depth == 0) { (Tree) null }
  else {
    new Tree(new Num(seed), build(depth - 1, seed * 2), build(depth - 1, seed * 2 + 1))
  }
}

bool member(Object x, RList p) {
  if (p == null) { false }
  else {
    if (p.value == x) { true } else { member(x, p.next) }
  }
}

bool search(RList p, Tree t) {
  if (t == null) { false }
  else {
    Object x = t.value;
    if (member(x, p)) { true }
    else {
      RList p2 = new RList(x, p);
      if (search(p2, t.left)) { true } else { search(p2, t.right) }
    }
  }
}

int reynolds3(int n) {
  // repeated searches over a fixed tree, starting from a long-lived base
  // list.  Without field subtyping every temporary RList cell is forced
  // into the base list's (equivariant) recursive region and survives the
  // whole run; with field subtyping each search frame reclaims its cell
  // (paper: 1 / 1 / 0.004).
  Tree t = build(7, 1);
  RList base = new RList(new Num(0 - 1), (RList) null);
  int i = 0;
  int hits = 0;
  while (i < n) {
    if (search(base, t)) { hits = hits + 1; } else { }
    i = i + 1;
  }
  hits
}
"""


# ---------------------------------------------------------------------------
# 10. foo-sum -- the object-subtyping showcase (Sec 3.2)
# ---------------------------------------------------------------------------

FOO_SUM = """
// foo-sum: a conditional two-way assignment into one temporary.  Without
// object region subtyping the per-iteration box is coalesced with the
// long-lived accumulator and never freed.
class Box extends Object {
  int v;
}

int pick(Box acc, Box t, int i) {
  Box tmp;
  if (i % 2 == 0) { tmp = acc; } else { tmp = t; }
  tmp.v
}

int scratchWork(int i) {
  // allocation that dies under *every* mode: the paper's foo-sum reuses
  // part of its space even without subtyping (ratio 0.340, not 1)
  Box s1 = new Box(i * 3);
  Box s2 = new Box(s1.v + 1);
  s2.v - s1.v
}

int foosum(int n) {
  Box acc = new Box(7);
  int total = 0;
  int i = 0;
  while (i < n) {
    Box t = new Box(i);
    total = total + pick(acc, t, i) + scratchWork(i);
    i = i + 1;
  }
  total + acc.v
}
"""


REGJAVA_PROGRAMS: Dict[str, BenchmarkProgram] = {
    p.name: p
    for p in [
        BenchmarkProgram(
            name="sieve",
            source=SIEVE,
            entry="sieve",
            run_args=(150,),
            test_args=(30,),
            expected_test_result=10,
            paper=PaperRow(80, 12, 0.08, 0.14, "50000", 1.0, 1.0, 1.0, 0),
        ),
        BenchmarkProgram(
            name="ackermann",
            source=ACKERMANN,
            entry="ackermann",
            run_args=(7,),
            test_args=(3,),
            expected_test_result=9,
            paper=PaperRow(67, 5, 0.02, 0.04, "(4,7)", 0.004, 0.004, 0.004, 0),
        ),
        BenchmarkProgram(
            name="mergesort",
            source=MERGESORT,
            entry="mergesort",
            run_args=(300,),
            test_args=(40,),
            paper=PaperRow(170, 16, 0.35, 0.47, "50000", 0.179, 0.179, 0.179, 0),
        ),
        BenchmarkProgram(
            name="mandelbrot",
            source=MANDELBROT,
            entry="mandelbrot",
            run_args=(24,),
            test_args=(8,),
            paper=PaperRow(110, 14, 0.05, 0.09, "100", 0.002, 0.002, 0.002, 0),
        ),
        BenchmarkProgram(
            name="naive-life",
            source=NAIVE_LIFE,
            entry="life",
            run_args=(10,),
            test_args=(3,),
            paper=PaperRow(114, 14, 0.08, 0.23, "10", 1.0, 1.0, 1.0, 0),
        ),
        BenchmarkProgram(
            name="opt-life-array",
            source=OPT_LIFE_ARRAY,
            entry="life",
            run_args=(10,),
            test_args=(3,),
            paper=PaperRow(121, 15, 0.09, 0.25, "10", 0.196, 0.196, 0.196, 0),
        ),
        BenchmarkProgram(
            name="opt-life-dangling",
            source=OPT_LIFE_DANGLING,
            entry="life",
            run_args=(10,),
            test_args=(3,),
            paper=PaperRow(35, 5, 0.01, 0.04, "10", 1.0, 1.0, 1.0, -1),
        ),
        BenchmarkProgram(
            name="opt-life-stack",
            source=OPT_LIFE_STACK,
            entry="life",
            run_args=(10,),
            test_args=(3,),
            paper=PaperRow(80, 10, 0.04, 0.08, "10", 1.0, 1.0, 1.0, 0),
        ),
        BenchmarkProgram(
            name="reynolds3",
            source=REYNOLDS3,
            entry="reynolds3",
            run_args=(40,),
            test_args=(3,),
            expected_test_result=0,
            paper=PaperRow(59, 12, 0.11, 0.29, "10", 1.0, 1.0, 0.004, None),
        ),
        BenchmarkProgram(
            name="foo-sum",
            source=FOO_SUM,
            entry="foosum",
            run_args=(200,),
            test_args=(10,),
            paper=PaperRow(65, 10, 0.11, 0.24, "100", 0.340, 0.010, 0.010, None),
        ),
    ]
}


def regjava_program(name: str) -> BenchmarkProgram:
    """Look up a RegJava benchmark by name."""
    try:
        return REGJAVA_PROGRAMS[name]
    except KeyError:
        raise KeyError(
            f"unknown RegJava benchmark {name!r}; "
            f"available: {sorted(REGJAVA_PROGRAMS)}"
        ) from None
