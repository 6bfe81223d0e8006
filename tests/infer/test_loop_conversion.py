"""The two loop treatments agree (paper Sec 2).

The engine handles ``while`` directly with the flow-insensitive loop rule;
``convert_loops`` produces the paper's by-reference tail-recursive form.
Both must be inferable, checkable, and must impose equivalent constraints
on the *shared* interface (the enclosing method's regions).
"""

import pytest

from repro.checking import check_target
from repro.core import InferenceConfig, SubtypingMode, infer_program, infer_source
from repro.frontend import convert_loops, parse_program
from repro.regions import RegionSolver
from repro.typing import check_program

PROGRAMS = {
    "accumulator": """
    class Box extends Object { int v; }
    int f(int n) {
      Box acc = new Box(0);
      int i = 0;
      while (i < n) {
        acc.v = acc.v + i;
        i = i + 1;
      }
      acc.v
    }
    """,
    "list-building": """
    class IntList extends Object { int value; IntList next; }
    IntList f(int n) {
      IntList acc = (IntList) null;
      int i = 0;
      while (i < n) {
        acc = new IntList(i, acc);
        i = i + 1;
      }
      acc
    }
    """,
    "nested": """
    class Box extends Object { int v; }
    int f(int n) {
      Box total = new Box(0);
      int i = 0;
      while (i < n) {
        int j = 0;
        while (j < n) {
          Box t = new Box(i * j);
          total.v = total.v + t.v;
          j = j + 1;
        }
        i = i + 1;
      }
      total.v
    }
    """,
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize(
    "mode", [SubtypingMode.NONE, SubtypingMode.OBJECT, SubtypingMode.FIELD],
    ids=lambda m: m.value,
)
def test_both_paths_check(name, mode):
    src = PROGRAMS[name]
    direct = infer_source(src, InferenceConfig(mode=mode))
    assert check_target(direct.target, mode=mode.value).ok

    converted_program = parse_program(src)
    check_program(converted_program)  # elaborate implicit this
    converted_program = convert_loops(converted_program)
    converted = infer_program(converted_program, InferenceConfig(mode=mode))
    assert check_target(converted.target, mode=mode.value).ok


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_interface_constraints_agree(name):
    """pre.f is equivalent under both loop treatments."""
    src = PROGRAMS[name]
    direct = infer_source(src, InferenceConfig(mode=SubtypingMode.OBJECT))
    converted_program = convert_loops(parse_program(src))
    converted = infer_program(
        converted_program, InferenceConfig(mode=SubtypingMode.OBJECT)
    )

    def pre_shape(result):
        scheme = result.methods["f"].scheme
        params = scheme.abstraction_params
        solver = RegionSolver(result.target.q[scheme.pre].body)
        return frozenset(
            (i, j)
            for i in range(len(params))
            for j in range(len(params))
            if i != j and solver.entails_outlives(params[i], params[j])
        )

    assert pre_shape(direct) == pre_shape(converted)


def test_by_ref_parameters_equate_regions():
    """Loop-method arguments are passed by reference: regions equated."""
    src = PROGRAMS["list-building"]
    converted_program = convert_loops(parse_program(src))
    result = infer_program(
        converted_program, InferenceConfig(mode=SubtypingMode.OBJECT)
    )
    assert check_target(result.target, mode="object").ok
    loop_name = next(
        m.qualified_name
        for m in converted_program.statics
        if m.by_ref
    )
    assert loop_name in result.methods
