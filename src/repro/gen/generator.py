"""Deterministic generation of well-typed, region-inferable programs.

The generator builds Core-Java source *by construction*: every emitted
program parses, normal-typechecks, infers, verifies and terminates when
executed with small entry arguments.  It mirrors the constructs the
hand-ported corpus exercises -- class hierarchies with overrides and
dynamic dispatch, guaranteed-safe downcasts, recursive structures
(lists, trees, and DAG node/list pairs like ``em3d``'s), ``while``
loops, letreg-heavy and letreg-free methods -- while scaling from
~100-line smoke programs to 100k-line / 1k-class corpora.

Determinism contract (pinned by ``tests/gen/test_gen_props.py``):

* the same :class:`~repro.gen.spec.GenSpec` yields the byte-identical
  source text, on every platform and run (string-seeded
  :class:`random.Random` streams, no global state, no iteration over
  unordered containers);
* independent knobs draw from independent streams, so growing one size
  knob never reshuffles the structure chosen by another -- class and
  method counts grow monotonically in their knobs.

Safety invariants the templates maintain:

* every ``new`` supplies one argument per field, inherited first,
  matching the field's declared type;
* reference fields are only read on provably non-null receivers (a
  freshly allocated local, or under an explicit ``== null`` guard);
* downcasts only cast a value back to the exact class it was allocated
  at; division and modulus only use non-zero literal divisors;
* recursion decreases an integer argument towards a ``<= 0`` base case
  and ``while`` loops count up to a bounded expression, so execution
  from ``main(n)`` terminates quickly for small ``n``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from .spec import GenSpec

__all__ = ["generate_source", "generate_program"]

#: multipliers cycling through main's checksum so swapped or dropped
#: call results change the answer
_MAIN_WEIGHTS = (1, 3, 7, 11, 13, 17, 19, 23)

#: argument expressions main and consumers cycle through (all small for
#: any small ``n``, keeping execution bounded)
_ARG_EXPRS = ("n", "(n % 3) + 1", "(n % 5) + 1", "2", "(n % 2) + 2")

#: non-zero literal divisors/moduli
_DIVISORS = (2, 3, 5, 7)
_MODULI = (7, 11, 13)

#: at most this many helper calls in main (keeps execution cheap even
#: for thousand-class corpora, where inference is the point)
_MAIN_CALL_CAP = 16


def _rng(spec: GenSpec, stream: str) -> random.Random:
    """An independent deterministic stream (string seeding is stable)."""
    return random.Random(f"repro-gen:{spec.seed}:{stream}")


class _Field:
    __slots__ = ("type_name", "name", "kind")

    def __init__(self, type_name: str, name: str, kind: str):
        self.type_name = type_name  # "int", "bool" or a class name
        self.name = name
        self.kind = kind  # "int" | "bool" | "ref"


class _Class:
    """Book-keeping for one generated class."""

    __slots__ = ("name", "index", "role", "parent", "own_fields", "depth")

    def __init__(self, name, index, role, parent, own_fields, depth):
        self.name = name
        self.index = index
        self.role = role  # "plain" | "list" | "tree" | "dagnode" | "daglist"
        self.parent = parent  # a _Class or None (extends Object)
        self.own_fields: List[_Field] = own_fields
        self.depth = depth

    def all_fields(self) -> List[_Field]:
        """Every constructor field, inherited first (FJ ``new`` order)."""
        inherited = self.parent.all_fields() if self.parent else []
        return inherited + self.own_fields

    def root(self) -> "_Class":
        return self.parent.root() if self.parent else self


class _Generator:
    def __init__(self, spec: GenSpec):
        self.spec = spec
        self.classes: List[_Class] = []
        #: instance methods of signature ``int (int)`` per class name,
        #: inherited included, in declaration order
        self.methods: Dict[str, List[str]] = {}
        self.lines: List[str] = []
        #: (name, kind) of every emitted ``int (int)`` static helper
        self.statics: List[Tuple[str, str]] = []

    # -- small emission helpers -------------------------------------------
    def _emit(self, line: str = "") -> None:
        self.lines.append(line)

    def _new_expr(
        self, cls: _Class, rng: random.Random, depth: int = 0
    ) -> str:
        """A ``new`` expression for ``cls`` with type-correct arguments."""
        args = []
        for fld in cls.all_fields():
            if fld.kind == "int":
                args.append(str(rng.randrange(10)))
            elif fld.kind == "bool":
                args.append(rng.choice(("true", "false")))
            elif depth == 0 and fld.type_name not in (
                cls.name,
            ) and rng.random() < 0.3:
                target = self._class_named(fld.type_name)
                args.append(self._new_expr(target, rng, depth + 1))
            else:
                args.append("null")
        return f"new {cls.name}({', '.join(args)})"

    def _class_named(self, name: str) -> _Class:
        for c in self.classes:
            if c.name == name:
                return c
        raise KeyError(name)

    # -- class structure ---------------------------------------------------
    def _assign_roles(self) -> List[str]:
        """One role per class slot, a prefix-stable stream: the first k
        roles are identical for every spec that differs only in a larger
        ``classes`` knob."""
        spec = self.spec
        rng = _rng(spec, "roles")
        roles: List[str] = []
        pending_daglist = False
        for i in range(spec.classes):
            draw = rng.random()  # exactly one draw per slot
            if pending_daglist:
                roles.append("daglist")
                pending_daglist = False
                continue
            if i == 0:
                roles.append("plain")  # a guaranteed dispatch/downcast root
                continue
            if i == 1:
                roles.append("plain")  # its guaranteed subclass
                continue
            if not spec.recursion:
                roles.append("plain")
                continue
            if draw < 0.50:
                roles.append("plain")
            elif draw < 0.70:
                roles.append("list")
            elif draw < 0.85:
                roles.append("tree")
            elif i + 1 < spec.classes:
                roles.append("dagnode")
                pending_daglist = True
            else:
                roles.append("list")
        return roles

    def _build_classes(self) -> None:
        spec = self.spec
        roles = self._assign_roles()
        for i, role in enumerate(roles):
            rng = _rng(spec, f"class:{i}")
            name = f"C{i}"
            parent: Optional[_Class] = None
            own: List[_Field] = []
            if role == "plain":
                candidates = [
                    c
                    for c in self.classes
                    if c.role == "plain" and c.depth < spec.hierarchy_depth
                ]
                if i == 1 and candidates:
                    parent = self.classes[0]
                elif candidates and rng.random() < 0.6:
                    parent = rng.choice(candidates)
                for j in range(spec.fields_per_class):
                    if j % 3 == 2:
                        own.append(_Field("bool", f"b{i}_{j}", "bool"))
                    else:
                        own.append(_Field("int", f"f{i}_{j}", "int"))
                if self.classes and rng.random() < 0.4:
                    ref = rng.choice(self.classes)
                    own.append(_Field(ref.name, f"r{i}", "ref"))
            elif role == "list":
                own = [
                    _Field("int", f"f{i}_v", "int"),
                    _Field(name, f"n{i}", "ref"),
                ]
            elif role == "tree":
                own = [
                    _Field("int", f"f{i}_v", "int"),
                    _Field(name, f"l{i}", "ref"),
                    _Field(name, f"r{i}", "ref"),
                ]
            elif role == "dagnode":
                own = [
                    _Field("int", f"f{i}_v", "int"),
                    _Field(f"C{i + 1}", f"a{i}", "ref"),
                ]
            elif role == "daglist":
                own = [
                    _Field(f"C{i - 1}", f"i{i}", "ref"),
                    _Field(name, f"t{i}", "ref"),
                ]
            depth = parent.depth + 1 if parent else 1
            self.classes.append(_Class(name, i, role, parent, own, depth))

    # -- instance methods --------------------------------------------------
    def _int_fields(self, cls: _Class) -> List[str]:
        return [f.name for f in cls.all_fields() if f.kind == "int"]

    def _bool_fields(self, cls: _Class) -> List[str]:
        return [f.name for f in cls.all_fields() if f.kind == "bool"]

    def _plain_method_body(
        self, cls: _Class, rng: random.Random
    ) -> str:
        ints = self._int_fields(cls)
        bools = self._bool_fields(cls)
        callable_methods = self.methods[cls.name]
        kinds = ["arith"]
        if ints:
            kinds.append("field")
        if bools:
            kinds += ["bool", "logic", "neg"]
        if callable_methods:
            kinds.append("self")
        kind = rng.choice(kinds)
        a, b = rng.randrange(1, 9), rng.randrange(9)
        if kind == "arith":
            return f"k * {a} + {b}"
        if kind == "field":
            f = rng.choice(ints)
            return f"{f} * {a} + k"
        if kind == "bool":
            bf = rng.choice(bools)
            e1 = f"k + {a}" if not ints else f"{rng.choice(ints)} + {a}"
            return f"if ({bf}) {{ {e1} }} else {{ k - {b} }}"
        if kind == "logic":
            bf = rng.choice(bools)
            return (
                f"if (k > {b} && {bf}) {{ k - {a} }} "
                f"else {{ {b} }}"
            )
        if kind == "neg":
            bf = rng.choice(bools)
            p = rng.choice(_MODULI)
            return f"if (!{bf}) {{ {a} }} else {{ k % {p} }}"
        assert kind == "self"
        m = rng.choice(callable_methods)
        return f"this.{m}(k) + {a}"

    def _shape_method_body(
        self, cls: _Class, mname: str, j: int, rng: random.Random
    ) -> str:
        """Shape classes get one structurally recursive method, then
        simple arithmetic over their payload."""
        a = rng.randrange(1, 9)
        if cls.role == "list" and j == 0:
            nxt = cls.own_fields[1].name
            v = cls.own_fields[0].name
            return (
                f"if (this.{nxt} == null) {{ this.{v} + k }} "
                f"else {{ this.{v} + this.{nxt}.{mname}(k) }}"
            )
        if cls.role == "tree" and j == 0:
            v, left, right = (f.name for f in cls.own_fields)
            return (
                f"if (this.{left} == null) {{ this.{v} + k }} "
                f"else {{ this.{left}.{mname}(k) + this.{right}.{mname}(k) }}"
            )
        if cls.role == "daglist" and j == 0:
            tail = cls.own_fields[1].name
            return (
                f"if (this.{tail} == null) {{ k }} "
                f"else {{ this.{tail}.{mname}(k) + {a} }}"
            )
        ints = self._int_fields(cls)
        if ints:
            return f"{rng.choice(ints)} * {a} + k"
        return f"k + {a}"

    def _emit_class(self, cls: _Class) -> None:
        spec = self.spec
        rng = _rng(spec, f"methods:{cls.index}")
        inherited = list(self.methods[cls.parent.name]) if cls.parent else []
        self.methods[cls.name] = inherited
        extends = cls.parent.name if cls.parent else "Object"
        self._emit(f"class {cls.name} extends {extends} {{")
        for fld in cls.own_fields:
            self._emit(f"  {fld.type_name} {fld.name};")
        # dispatch anchor: every plain root declares tag(), every plain
        # subclass overrides it (when overrides are enabled)
        if cls.role == "plain":
            if cls.parent is None:
                self._emit(f"  int tag() {{ {10 + cls.index} }}")
            elif spec.overrides:
                self._emit(f"  int tag() {{ {100 + cls.index} }}")
        for j in range(spec.methods_per_class):
            mname = f"m{cls.index}_{j}"
            if cls.role == "plain":
                body = self._plain_method_body(cls, rng)
            else:
                body = self._shape_method_body(cls, mname, j, rng)
            self._emit(f"  int {mname}(int k) {{")
            self._emit(f"    {body}")
            self._emit("  }")
            self.methods[cls.name] = self.methods[cls.name] + [mname]
        self._emit("}")
        self._emit()

    # -- shape statics: builders, walkers, consumers -----------------------
    def _emit_shape_statics(self, cls: _Class, rng: random.Random) -> None:
        spec = self.spec
        i = cls.index
        if cls.role == "list":
            v, nxt = (f.name for f in cls.own_fields)
            if spec.loops:
                self._emit(f"{cls.name} build{i}(int n) {{")
                self._emit(f"  {cls.name} acc = ({cls.name}) null;")
                self._emit("  int i = 0;")
                self._emit("  while (i < n) {")
                self._emit(
                    f"    acc = new {cls.name}(i * {rng.randrange(2, 9)}, acc);"
                )
                self._emit("    i = i + 1;")
                self._emit("  }")
                self._emit("  acc")
                self._emit("}")
            else:
                self._emit(f"{cls.name} build{i}(int n) {{")
                self._emit(f"  if (n <= 0) {{ ({cls.name}) null }}")
                self._emit(
                    f"  else {{ new {cls.name}(n * {rng.randrange(2, 9)}, "
                    f"build{i}(n - 1)) }}"
                )
                self._emit("}")
            self._emit()
            self._emit(f"int walk{i}({cls.name} x) {{")
            self._emit(
                f"  if (x == null) {{ 0 }} else {{ x.{v} + walk{i}(x.{nxt}) }}"
            )
            self._emit("}")
        elif cls.role == "tree":
            v, left, right = (f.name for f in cls.own_fields)
            self._emit(f"{cls.name} build{i}(int d) {{")
            self._emit(f"  if (d <= 0) {{ ({cls.name}) null }}")
            self._emit(
                f"  else {{ new {cls.name}(d * {rng.randrange(2, 9)}, "
                f"build{i}(d - 1), build{i}(d - 1)) }}"
            )
            self._emit("}")
            self._emit()
            self._emit(f"int walk{i}({cls.name} x) {{")
            self._emit(
                f"  if (x == null) {{ 0 }} "
                f"else {{ x.{v} + walk{i}(x.{left}) + walk{i}(x.{right}) }}"
            )
            self._emit("}")
        elif cls.role == "dagnode":
            lst = self._class_named(cls.own_fields[1].type_name)
            v = cls.own_fields[0].name
            item, tail = (f.name for f in lst.own_fields)
            lv = lst.index
            # a shared adjacency tail: two list cells point at one hub
            # node, so the structure is a DAG, not a tree
            self._emit(f"{cls.name} build{i}(int n) {{")
            self._emit(
                f"  {cls.name} hub = new {cls.name}(n, ({lst.name}) null);"
            )
            self._emit(
                f"  {lst.name} shared = new {lst.name}(hub, "
                f"new {lst.name}(hub, ({lst.name}) null));"
            )
            self._emit(
                f"  new {cls.name}(n * 2, new {lst.name}("
                f"new {cls.name}(n * 3, shared), shared))"
            )
            self._emit("}")
            self._emit()
            self._emit(f"int item{i}({cls.name} x) {{")
            self._emit(f"  if (x == null) {{ 0 }} else {{ x.{v} }}")
            self._emit("}")
            self._emit()
            self._emit(f"int walk{lv}({lst.name} l) {{")
            self._emit(
                f"  if (l == null) {{ 0 }} "
                f"else {{ item{i}(l.{item}) + walk{lv}(l.{tail}) }}"
            )
            self._emit("}")
        else:
            return
        self._emit()
        # the consumer: letreg-heavy (locals that die in the method) or
        # letreg-free pass-through style, per the spec toggle
        consumer = f"use{i}"
        depth_arg = rng.choice(("(n % 3) + 1", "(n % 4) + 1", "3"))
        if cls.role == "dagnode":
            lst = self._class_named(cls.own_fields[1].type_name)
            walk = f"walk{lst.index}"
            access = cls.own_fields[1].name
            if spec.letreg:
                self._emit(f"int {consumer}(int n) {{")
                self._emit(f"  {cls.name} g = build{i}({depth_arg});")
                self._emit(f"  {walk}(g.{access}) + g.{cls.own_fields[0].name}")
                self._emit("}")
            else:
                self._emit(f"int {consumer}(int n) {{")
                self._emit(f"  {walk}(build{i}({depth_arg}).{access})")
                self._emit("}")
        else:
            first_method = (
                f"m{i}_0" if spec.methods_per_class > 0 else None
            )
            if spec.letreg:
                self._emit(f"int {consumer}(int n) {{")
                self._emit(f"  {cls.name} t = build{i}({depth_arg});")
                # a second, unused allocation: certainly localizable
                self._emit(f"  {cls.name} dead = build{i}(2);")
                tail = (
                    f"walk{i}(t) + walk{i}(dead)"
                    if first_method is None
                    else f"walk{i}(t) + walk{i}(dead) + "
                    f"{self._new_expr(cls, rng)}.{first_method}(n)"
                )
                self._emit(f"  {tail}")
                self._emit("}")
            else:
                self._emit(f"int {consumer}(int n) {{")
                self._emit(f"  walk{i}(build{i}({depth_arg}))")
                self._emit("}")
        self._emit()
        self.statics.append((consumer, "consumer"))

    # -- extra helper statics ----------------------------------------------
    def _helper_kinds(self) -> List[str]:
        spec = self.spec
        kinds = ["arith", "rec", "alloc"]
        if spec.loops:
            kinds.append("loop")
        pair = self._subclass_pair()
        if pair is not None:
            if spec.downcasts:
                kinds.append("downcast")
            kinds.append("dispatch")
        return kinds

    def _subclass_pair(self) -> Optional[Tuple[_Class, _Class]]:
        for cls in self.classes:
            if cls.role == "plain" and cls.parent is not None:
                return cls.root(), cls
        return None

    def _emit_helper(self, k: int, rng: random.Random) -> None:
        kinds = self._helper_kinds()
        kind = kinds[k % len(kinds)]
        name = f"s{k}"
        a = rng.randrange(1, 9)
        b = rng.randrange(2, 9)
        d = rng.choice(_DIVISORS)
        p = rng.choice(_MODULI)
        if kind == "arith":
            self._emit(f"int {name}(int n) {{")
            self._emit(f"  (n * {a} + {b}) % {p} + n / {d}")
            self._emit("}")
        elif kind == "rec":
            self._emit(f"int {name}(int n) {{")
            self._emit(
                f"  if (n <= 0) {{ {a} }} else {{ {name}(n - 1) + {b} }}"
            )
            self._emit("}")
        elif kind == "loop":
            self._emit(f"int {name}(int n) {{")
            self._emit("  int acc = 0;")
            self._emit("  int i = 0;")
            self._emit(f"  while (i < ((n % {p}) + 2)) {{")
            self._emit(f"    acc = acc + i * {a};")
            self._emit("    i = i + 1;")
            self._emit("  }")
            self._emit("  acc")
            self._emit("}")
        elif kind == "alloc":
            cls = rng.choice([c for c in self.classes if c.role == "plain"])
            ints = [f.name for f in cls.all_fields() if f.kind == "int"]
            self._emit(f"int {name}(int n) {{")
            self._emit(f"  {cls.name} t = {self._new_expr(cls, rng)};")
            if ints:
                f = rng.choice(ints)
                self._emit(f"  t.{f} = n * {a};")
                use = f"t.{f}"
            else:
                use = str(a)
            calls = self.methods[cls.name]
            if calls:
                use += f" + t.{rng.choice(calls)}(n)"
            self._emit(f"  {use} + t.tag()")
            self._emit("}")
        elif kind == "downcast":
            root, sub = self._subclass_pair()
            ints = [f.name for f in sub.own_fields if f.kind == "int"]
            read = f"d.{rng.choice(ints)}" if ints else str(a)
            self._emit(f"int {name}(int n) {{")
            self._emit(f"  {root.name} b = {self._new_expr(sub, rng)};")
            self._emit(f"  {sub.name} d = ({sub.name}) b;")
            self._emit(f"  d.tag() + {read}")
            self._emit("}")
        elif kind == "dispatch":
            root, sub = self._subclass_pair()
            self._emit(f"int {name}(int n) {{")
            self._emit(f"  {root.name} b = ({root.name}) null;")
            self._emit(
                f"  if (n % 2 == 0) {{ b = {self._new_expr(sub, rng)}; }}"
            )
            self._emit(f"  else {{ b = {self._new_expr(root, rng)}; }}")
            self._emit(f"  b.tag() + n * {a}")
            self._emit("}")
        self._emit()
        self.statics.append((name, kind))

    # -- main --------------------------------------------------------------
    def _emit_main(self) -> None:
        rng = _rng(self.spec, "main")
        names = [name for name, _ in self.statics]
        if len(names) > _MAIN_CALL_CAP:
            keep = set(rng.sample(range(len(names)), _MAIN_CALL_CAP))
            names = [n for i, n in enumerate(names) if i in keep]
        terms = []
        for i, name in enumerate(names):
            arg = _ARG_EXPRS[i % len(_ARG_EXPRS)]
            weight = _MAIN_WEIGHTS[i % len(_MAIN_WEIGHTS)]
            term = f"{name}({arg})"
            if weight != 1:
                term += f" * {weight}"
            terms.append(term)
        body = " + ".join(terms) if terms else "n"
        self._emit("int main(int n) {")
        self._emit(f"  {body}")
        self._emit("}")

    # -- driver ------------------------------------------------------------
    def generate(self) -> str:
        spec = self.spec
        self._emit(spec.header())
        self._emit()
        self._build_classes()
        for cls in self.classes:
            self._emit_class(cls)
        shape_rng = _rng(spec, "shapes")
        for cls in self.classes:
            self._emit_shape_statics(cls, shape_rng)
        helper_rng = _rng(spec, "helpers")
        for k in range(spec.statics):
            self._emit_helper(k, helper_rng)
        self._emit_main()
        self._emit()
        return "\n".join(self.lines)


def generate_source(spec: GenSpec) -> str:
    """The source text of the program ``spec`` describes (pure function:
    byte-identical across calls, runs and platforms)."""
    return _Generator(spec).generate()


def generate_program(spec: GenSpec):
    """Convenience: the parsed :class:`~repro.lang.ast.Program`."""
    from ..frontend import parse_program

    return parse_program(generate_source(spec))
