"""Property tests: the pretty-printer round-trips with the parser."""

from hypothesis import given, settings

from repro.viper import (
    parse_assertion,
    parse_expr,
    parse_program,
    parse_stmt,
    pretty_assertion,
    pretty_expr,
    pretty_program,
    pretty_stmt,
)
from repro.viper.pretty import count_loc

from tests.strategies import assertions, expr_of, statements
from repro.viper.ast import Type


@given(expr_of(Type.INT, 3))
@settings(max_examples=150)
def test_int_expr_roundtrip(expr):
    assert parse_expr(pretty_expr(expr)) == expr


@given(expr_of(Type.BOOL, 3))
@settings(max_examples=150)
def test_bool_expr_roundtrip(expr):
    assert parse_expr(pretty_expr(expr)) == expr


@given(expr_of(Type.PERM, 3))
@settings(max_examples=100)
def test_perm_expr_roundtrip(expr):
    assert parse_expr(pretty_expr(expr)) == expr


def right_nest_assertion(assertion):
    """Reassociate separating conjunctions to the right.

    ``*`` is associative, and the parser produces right-nested trees; the
    printer flattens, so round-tripping is equality modulo reassociation.
    """
    from repro.viper.ast import CondAssert, Implies, SepConj

    if isinstance(assertion, SepConj):
        left = right_nest_assertion(assertion.left)
        right = right_nest_assertion(assertion.right)
        if isinstance(left, SepConj):
            return right_nest_assertion(
                SepConj(left.left, SepConj(left.right, right))
            )
        return SepConj(left, right)
    if isinstance(assertion, Implies):
        return Implies(assertion.cond, right_nest_assertion(assertion.body))
    if isinstance(assertion, CondAssert):
        return CondAssert(
            assertion.cond,
            right_nest_assertion(assertion.then),
            right_nest_assertion(assertion.otherwise),
        )
    return assertion


def right_nest_stmt(stmt):
    """Reassociate sequential composition to the right (same argument)."""
    from repro.viper.ast import AssertStmt, Exhale, If, Inhale, Seq

    if isinstance(stmt, Seq):
        first = right_nest_stmt(stmt.first)
        second = right_nest_stmt(stmt.second)
        if isinstance(first, Seq):
            return right_nest_stmt(Seq(first.first, Seq(first.second, second)))
        return Seq(first, second)
    if isinstance(stmt, If):
        return If(stmt.cond, right_nest_stmt(stmt.then), right_nest_stmt(stmt.otherwise))
    if isinstance(stmt, Inhale):
        return Inhale(right_nest_assertion(stmt.assertion))
    if isinstance(stmt, Exhale):
        return Exhale(right_nest_assertion(stmt.assertion))
    if isinstance(stmt, AssertStmt):
        return AssertStmt(right_nest_assertion(stmt.assertion))
    return stmt


@given(assertions(2))
@settings(max_examples=150)
def test_assertion_roundtrip(assertion):
    reparsed = parse_assertion(pretty_assertion(assertion))
    assert reparsed == right_nest_assertion(assertion)


@given(statements(2))
@settings(max_examples=150)
def test_statement_roundtrip(stmt):
    printed = pretty_stmt(stmt)
    assert parse_stmt(printed) == right_nest_stmt(stmt)


def test_program_roundtrip_example():
    source = """
field f: Int

method m(x: Ref, n: Int) returns (y: Int)
  requires acc(x.f, 1/2) && n > 0
  ensures acc(x.f, 1/2) && y == x.f
{
  var t: Int
  t := x.f
  if (n > 1) {
    y := t
  } else {
    y := t
  }
}
"""
    program = parse_program(source)
    assert parse_program(pretty_program(program)) == program


def test_count_loc_ignores_blanks_and_comments():
    text = "a\n\n// comment\n  b\n   \n"
    assert count_loc(text) == 2


def _per_line_count_loc(text):
    """The LoC definition, one line at a time."""
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


def test_count_loc_matches_the_per_line_definition():
    import random

    # Every line break str.splitlines knows, and whitespace str.strip
    # removes, next to comment markers and code.
    pieces = [" ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f",
              "\x85", "\xa0", "\u2028", "/", "//", "a", "x // y"]
    rng = random.Random(0)
    for _ in range(5000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 24)))
        assert count_loc(text) == _per_line_count_loc(text), repr(text)
