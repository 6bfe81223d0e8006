"""Unit tests for the Core-Java parser."""

import pytest

from repro.frontend import ParseError, parse_expr, parse_program
from repro.lang import ast as S


class TestExpressions:
    def test_literals(self):
        assert isinstance(parse_expr("42"), S.IntLit)
        assert isinstance(parse_expr("true"), S.BoolLit)
        assert isinstance(parse_expr("null"), S.Null)

    def test_this(self):
        e = parse_expr("this")
        assert isinstance(e, S.Var) and e.name == "this"

    def test_precedence_arith(self):
        e = parse_expr("1 + 2 * 3")
        assert isinstance(e, S.Binop) and e.op == "+"
        assert isinstance(e.right, S.Binop) and e.right.op == "*"

    def test_precedence_compare_binds_looser(self):
        e = parse_expr("a + b < c")
        assert e.op == "<"

    def test_precedence_logic(self):
        e = parse_expr("a && b || c")
        assert e.op == "||"
        assert e.left.op == "&&"

    def test_left_associativity(self):
        e = parse_expr("a - b - c")
        assert e.op == "-"
        assert isinstance(e.left, S.Binop) and e.left.op == "-"

    def test_unary(self):
        e = parse_expr("!a")
        assert isinstance(e, S.Unop) and e.op == "!"
        e = parse_expr("-x")
        assert isinstance(e, S.Unop) and e.op == "-"

    def test_field_chain(self):
        e = parse_expr("a.b.c")
        assert isinstance(e, S.FieldRead) and e.field_name == "c"
        assert isinstance(e.receiver, S.FieldRead) and e.receiver.field_name == "b"

    def test_method_call(self):
        e = parse_expr("a.m(1, 2)")
        assert isinstance(e, S.Call) and not e.is_static
        assert len(e.args) == 2

    def test_static_call(self):
        e = parse_expr("m(x)")
        assert isinstance(e, S.Call) and e.is_static

    def test_new(self):
        e = parse_expr("new Pair(null, null)")
        assert isinstance(e, S.New) and e.class_name == "Pair"
        assert len(e.args) == 2
        assert e.label  # unique allocation-site label

    def test_new_labels_unique(self):
        a = parse_expr("new A()")
        b = parse_expr("new A()")
        assert a.label != b.label

    def test_cast(self):
        e = parse_expr("(B) a")
        assert isinstance(e, S.Cast) and e.class_name == "B"

    def test_cast_null_becomes_typed_null(self):
        e = parse_expr("(List) null")
        assert isinstance(e, S.Null) and e.class_name == "List"

    def test_parenthesised_expr_not_cast(self):
        e = parse_expr("(a)")
        assert isinstance(e, S.Var)

    def test_cast_of_call(self):
        e = parse_expr("(B) f(x)")
        assert isinstance(e, S.Cast)
        assert isinstance(e.expr, S.Call)

    def test_assignment_right_associative(self):
        e = parse_expr("a = b = c")
        assert isinstance(e, S.Assign)
        assert isinstance(e.rhs, S.Assign)

    def test_assignment_target_validation(self):
        with pytest.raises(ParseError):
            parse_expr("1 = 2")

    def test_if_expression(self):
        e = parse_expr("if (c) { 1 } else { 2 }")
        assert isinstance(e, S.If)

    def test_equality_chain(self):
        e = parse_expr("a == null")
        assert e.op == "=="


class TestBlocks:
    def test_block_result(self):
        e = parse_expr("{ int x = 1; x }")
        assert isinstance(e, S.Block)
        assert isinstance(e.result, S.Var)

    def test_block_no_result(self):
        e = parse_expr("{ x = 1; }")
        assert isinstance(e, S.Block)
        assert e.result is None

    def test_local_decl_without_init(self):
        e = parse_expr("{ List x; x }")
        decl = e.stmts[0]
        assert isinstance(decl, S.LocalDecl)
        assert decl.init is None

    def test_result_must_be_last(self):
        with pytest.raises(ParseError):
            parse_expr("{ f() g() }")


class TestPrograms:
    def test_class_with_fields_and_methods(self):
        p = parse_program(
            """
            class Pair extends Object {
              Object fst;
              Object snd;
              Object getFst() { fst }
            }
            """
        )
        assert len(p.classes) == 1
        cls = p.classes[0]
        assert [f.name for f in cls.fields] == ["fst", "snd"]
        assert cls.methods[0].owner == "Pair"

    def test_default_superclass_is_object(self):
        p = parse_program("class A { }")
        assert p.classes[0].super_name == "Object"

    def test_top_level_statics(self):
        p = parse_program("int f(int x) { x } static int g() { 1 }")
        assert [m.name for m in p.statics] == ["f", "g"]
        assert all(m.is_static for m in p.statics)

    def test_while_statement(self):
        p = parse_program(
            """
            int f(int n) {
              int i = 0;
              while (i < n) { i = i + 1; }
              i
            }
            """
        )
        stmts = p.statics[0].body.stmts
        assert any(
            isinstance(s, S.ExprStmt) and isinstance(s.expr, S.While) for s in stmts
        )

    def test_return_sugar(self):
        p = parse_program("int f() { return 42; }")
        assert isinstance(p.statics[0].body.result, S.IntLit)

    def test_statement_if_without_else(self):
        p = parse_program(
            """
            int f(int n) {
              int x = 0;
              if (n > 0) { x = 1; }
              x
            }
            """
        )
        assert p.statics[0].body.result is not None

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("class { }")
        assert exc.value.pos == 6
        assert (exc.value.line, exc.value.col) == (1, 7)

    def test_body_positions_are_offsets_from_the_method(self):
        source = "class A extends Object {\n  int x;\n  int f() { x }\n}\nint g() { 1 }"
        p = parse_program(source)
        cls = p.classes[0]
        assert (cls.pos, cls.fields[0].pos) == (0, 27)
        (f,) = cls.methods
        assert f.pos == source.index("int f")
        assert (f.body.pos, f.body.result.pos) == (8, 10)
        g = p.statics[0]
        assert g.pos == source.index("int g")
        assert (g.body.pos, g.body.result.pos) == (8, 10)
        assert p.source is source

    def test_trailing_garbage_rejected_in_expr(self):
        with pytest.raises(ParseError):
            parse_expr("1 + 2 extra")

    def test_method_param_list(self):
        p = parse_program("int f(int a, bool b, List c) { a }")
        params = p.statics[0].params
        assert [p_.name for p_ in params] == ["a", "b", "c"]
        assert params[1].param_type == S.BOOL
        assert params[2].param_type == S.ClassType("List")


class TestRoundTrip:
    def test_pretty_then_reparse(self):
        from repro.lang.pretty import pretty_program

        src = """
        class A extends Object {
          int x;
          A id(A other) { other }
        }
        int f(int n) { if (n > 0) { f(n - 1) } else { 0 } }
        """
        p1 = parse_program(src)
        text = pretty_program(p1)
        p2 = parse_program(text)
        assert [c.name for c in p2.classes] == ["A"]
        assert [m.name for m in p2.statics] == ["f"]
