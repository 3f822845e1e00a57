"""Tests for the Boogie parser (round-trips with the pretty-printer)."""

import time
from dataclasses import replace
from fractions import Fraction

import pytest

import repro
from repro.boogie import (
    AxiomDecl,
    BBinOp,
    BBinOpKind,
    BIntLit,
    BoogieProgram,
    BRealLit,
    BVar,
    check_boogie_program,
    CondB,
    Exists,
    Forall,
    FuncApp,
    INT,
    MapSelect,
    MapStore,
    MapType,
    pretty_boogie_program,
    TCon,
    TVar,
)
from repro.boogie.lexer import BoogieSyntaxError
from repro.boogie.parser import parse_boogie_expr, parse_boogie_program


def strip_comments(program: BoogieProgram) -> BoogieProgram:
    """Axiom comments are printed but not parsed; normalise them away."""
    return replace(
        program,
        axioms=tuple(AxiomDecl(a.expr, "") for a in program.axioms),
    )


class TestExpressions:
    def test_literals(self):
        assert parse_boogie_expr("42") == BIntLit(42)
        assert parse_boogie_expr("3.5") == BRealLit(Fraction(7, 2))
        assert parse_boogie_expr("-7") == BIntLit(-7)

    def test_real_fraction_folds(self):
        assert parse_boogie_expr("(1.0 / 2.0)") == BRealLit(Fraction(1, 2))

    def test_precedence(self):
        expr = parse_boogie_expr("a + b * c == d")
        assert expr.op is BBinOpKind.EQ
        assert expr.left.op is BBinOpKind.ADD

    def test_implies_right_associative(self):
        expr = parse_boogie_expr("a ==> b ==> c")
        assert expr.op is BBinOpKind.IMPLIES
        assert expr.right.op is BBinOpKind.IMPLIES

    def test_iff(self):
        assert parse_boogie_expr("a <==> b").op is BBinOpKind.IFF

    def test_function_application_with_type_args(self):
        expr = parse_boogie_expr("readHeap<int>(H, r, f)")
        assert expr == FuncApp(
            "readHeap", (INT,), (BVar("H"), BVar("r"), BVar("f"))
        )

    def test_type_args_do_not_shadow_comparison(self):
        expr = parse_boogie_expr("a < b")
        assert isinstance(expr, BBinOp) and expr.op is BBinOpKind.LT

    def test_nested_type_constructor_argument(self):
        expr = parse_boogie_expr("g<(Field int)>(x)")
        assert expr.type_args == (TCon("Field", (INT,)),)

    def test_quantifiers(self):
        expr = parse_boogie_expr("(forall i: int :: i >= 0)")
        assert isinstance(expr, Forall)
        assert expr.bound == (("i", INT),)
        expr = parse_boogie_expr("(exists i: int :: i == 0)")
        assert isinstance(expr, Exists)

    def test_type_quantifier(self):
        expr = parse_boogie_expr("(forall <T> v: T :: v == v)")
        assert expr.type_vars == ("T",)
        assert expr.bound == (("v", TVar("T")),)

    def test_if_then_else(self):
        expr = parse_boogie_expr("(if b then 1 else 2)")
        assert expr == CondB(BVar("b"), BIntLit(1), BIntLit(2))

    def test_map_select_and_store(self):
        assert parse_boogie_expr("m[1]") == MapSelect(BVar("m"), (), (BIntLit(1),))
        assert parse_boogie_expr("m[1 := 2]") == MapStore(
            BVar("m"), (), (BIntLit(1),), BIntLit(2)
        )

    def test_div_mod_keywords(self):
        assert parse_boogie_expr("a div b").op is BBinOpKind.DIV
        assert parse_boogie_expr("a mod b").op is BBinOpKind.MOD

    def test_error_position(self):
        with pytest.raises(BoogieSyntaxError):
            parse_boogie_expr("1 +")

    def test_unclosed_comments_are_found_in_linear_time(self):
        """A lazy comment scan from each unclosed ``/*`` to the end of the
        text would be quadratic (minutes for 50,000 of them); the lexer
        takes the first one's rest as one token, in one pass."""
        text = "axiom true;\n" + "/* " * 50_000
        start = time.perf_counter()
        with pytest.raises(BoogieSyntaxError, match="^2:1: unterminated comment$"):
            parse_boogie_program(text)
        assert time.perf_counter() - start < 2.0


class TestPrograms:
    def test_declarations(self):
        program = parse_boogie_program(
            """
            type Ref;
            type Field _;
            const unique f1: (Field int);
            var g: int;
            function read<T>((Field T)): T;
            axiom (forall i: int :: i == i);

            procedure p()
            {
              var x: int;
              x := 1;
              assert x == 1;
            }
            """
        )
        assert program.type_decls[1].arity == 1
        assert program.consts[0].unique
        assert program.functions[0].type_params == ("T",)
        check_boogie_program(program)

    def test_if_statements(self):
        program = parse_boogie_program(
            """
            procedure p()
            {
              var x: int;
              if (x > 0) {
                x := 1;
              } else {
                x := 2;
              }
              if (*) {
                havoc x;
              }
              assume x >= 0;
            }
            """
        )
        body = program.procedure("p").body
        assert body[0].ifopt is not None
        assert body[0].ifopt.cond is not None
        assert body[1].ifopt.cond is None
        assert len(body[2].cmds) == 1

    def test_map_typed_global(self):
        program = parse_boogie_program(
            """
            type Ref;
            type Field _;
            var H: <T>[Ref,(Field T)]T;
            """
        )
        heap_type = program.globals[0].typ
        assert isinstance(heap_type, MapType)
        assert heap_type.type_params == ("T",)


class TestRoundTrip:
    def test_translator_output_roundtrips(self):
        result = repro.translate_source(
            """
            field f: Int
            field g: Bool

            method callee(x: Ref) requires acc(x.f, 1/2) ensures acc(x.f, 1/2)
            { assert true }

            method m(x: Ref, p: Perm, b: Bool) returns (r: Int)
              requires acc(x.f, p) && p > none
              ensures acc(x.f, p)
            {
              if (b) { x.f := 0 - x.f } else { r := x.f }
              callee(x)
              exhale b ==> acc(x.f, p/2)
              inhale b ==> acc(x.f, p/2)
            }
            """
        )
        text = pretty_boogie_program(result.boogie_program)
        reparsed = parse_boogie_program(text)
        assert strip_comments(reparsed) == strip_comments(result.boogie_program)

    def test_reparsed_program_typechecks(self):
        result = repro.translate_source(
            "field f: Int\nmethod m(x: Ref) requires acc(x.f, write) "
            "ensures acc(x.f, write) { x.f := 1 }"
        )
        reparsed = parse_boogie_program(pretty_boogie_program(result.boogie_program))
        check_boogie_program(reparsed)
