"""Differential tests: the Boogie parser against the one it replaced.

``repro.boogie.parser`` scans the text with one regular expression into
flat token lists and parses them by precedence climbing;
``tests/boogie/reference_parser.py`` is the per-character lexer and the
one-method-per-level parser it replaced.  On every input below the two
must return equal ASTs, or raise ``BoogieSyntaxError`` with the same
message, line and column included:

* the 72 corpus programs' Boogie texts;
* Boogie texts of generated ``large``-size programs (1,000 LoC and more);
* Boogie texts of 200 fuzz-generator programs;
* seeded truncations and one-character edits of corpus texts;
* hand-written inputs for each corner of the language the old lexer
  defined by its character tests (``QUIRKS``).

Where the reference raises something other than ``BoogieSyntaxError``,
the new parser raises ``BoogieSyntaxError`` at that token or parses the
input.  These are the only intended differences, listed in
``INTENDED_DIFFERENCES``:

* ``ValueError`` from ``int()`` on a token of kind ``int`` or ``real``:
  ``str.isdigit`` accepts characters such as '²' that ``int`` refuses,
  ``int`` refuses more than 4,300 digits, and the keywords ``int`` and
  ``real`` share those kinds with the literals (so where a type is
  expected, ``5`` is ``int``, in both parsers);
* ``RecursionError`` at ~90 nested parentheses (11 frames per level in the
  reference): the new parser nests ~3 frames per level, and reports
  nesting past the recursion limit as a syntax error.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro.boogie.ast import BIntLit
from repro.boogie.lexer import BoogieSyntaxError
from repro.boogie.parser import parse_boogie_expr, parse_boogie_program
from repro.fuzz.generate import generate_corpus
from repro.harness import full_corpus
from repro.harness.corpus import generate_file
from repro.pipeline import run_pipeline
from tests.boogie import reference_parser

#: The exceptions of the reference that the new parser turns into a
#: ``BoogieSyntaxError`` or a parse.
INTENDED = (ValueError, RecursionError)


def _outcome(parse, text):
    try:
        return "ast", parse(text)
    except BoogieSyntaxError as error:
        return "error", str(error)


def _assert_same(text, expr=False):
    """The new parser agrees with the reference on ``text``; returns the
    reference's outcome, or ``"intended"``."""
    new = parse_boogie_expr if expr else parse_boogie_program
    reference = reference_parser.parse_boogie_expr if expr else reference_parser.parse_boogie_program
    try:
        expected = _outcome(reference, text)
    except INTENDED:
        assert _outcome(new, text)[0] in ("ast", "error"), text[:200]
        return "intended"
    assert _outcome(new, text) == expected, text[:200]
    return expected[0]


@lru_cache(maxsize=None)
def _corpus_texts():
    return tuple(
        run_pipeline(item.source, upto="translate").boogie_text
        for items in full_corpus().values()
        for item in items
    )


def test_corpus_texts_parse_alike():
    texts = _corpus_texts()
    assert len(texts) == 72
    for text in texts:
        assert _assert_same(text) == "ast"


def test_large_programs_parse_alike():
    for index, (loc, methods) in enumerate(((1000, 30), (2000, 60))):
        source = generate_file("Large", f"large-diff-{index}", round(loc * 1.33), methods).source
        text = run_pipeline(source, upto="translate").boogie_text
        assert text.count("\n") > 2000
        assert _assert_same(text) == "ast"


def test_fuzz_generated_programs_parse_alike():
    programs = generate_corpus(23, 200)
    for program in programs:
        assert _assert_same(run_pipeline(program.source, upto="translate").boogie_text) == "ast"


#: Characters one-character edits insert: the corners of both lexers'
#: character classes, next to the ones Boogie text is made of.
EDIT_ALPHABET = (
    " \t\r\n\f\v\xa0"  # whitespace, and what only looks like it
    "09²٣½Ⅻ"  # ASCII and other decimal digits, non-decimal digits, numerics
    "azéǅ_'#"  # identifier characters
    "/*<=>!:;,(){}[]+-%.&|"  # operator and comment characters
)


def test_truncations_and_edits_agree():
    rng = random.Random("boogie-parser-differential")
    outcomes = {}
    for text in _corpus_texts():
        variants = [text[: rng.randrange(len(text))] for _ in range(2)]
        for _ in range(2):
            at = rng.randrange(len(text))
            char = rng.choice(EDIT_ALPHABET)
            variants.append(rng.choice((
                text[:at] + char + text[at + 1:],  # replace
                text[:at] + char + text[at:],  # insert
                text[:at] + text[at + 1:],  # delete
            )))
        for variant in variants:
            outcome = _assert_same(variant)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    # The edits reach both the accepting and the error paths.
    assert outcomes.get("ast", 0) > 20 and outcomes.get("error", 0) > 150, outcomes


#: Inputs at each corner of the reference's language: name -> (text,
#: whether it is an expression).  All parse alike, or fail alike.
QUIRKS = {
    # Whitespace is exactly space, tab, CR and LF.
    "tab-cr-lf": ("axiom\ttrue\r\n;", False),
    "form-feed": ("axiom\ftrue;", False),
    "vertical-tab": ("axiom\vtrue;", False),
    "nbsp": ("axiom\xa0true;", False),
    # Numbers start at str.isdigit; int() takes every decimal digit.
    "arabic-indic-digit": ("٣ + 1", True),
    "arabic-indic-real": ("1.٣", True),
    "number-then-ident": ("12abc", True),
    "real-without-fraction": ("1.", True),
    "real-then-dot": ("1.2.3", True),
    # Identifiers start at isalpha or at _ followed by a letter, digit or _,
    # and continue with isalnum or _'#.
    "ident-accented": ("é == ǅ", True),
    "ident-underscore-digit": ("_1 + __", True),
    "ident-underscore-quote": ("_'", True),
    "ident-quote-hash": ("x'#1 + y''", True),
    "ident-continues-with-digit-chars": ("a² + b٣ + c½", True),
    "ident-roman-numeral": ("Ⅻ", True),
    "ident-vulgar-fraction": ("½", True),
    "underscore-alone": ("type T _ _;", False),
    "underscore-then-space": ("_ x", True),
    # Operators match in OPERATORS order.
    "iff-implies": ("a<==>b==>c<==>d", True),
    "le-lt-ge-gt": ("a<=b&&c<d&&e>=f&&g>h", True),
    "assign-colon": ("procedure p() { var x: int; x:=1; }", False),
    "quantifier-colons": ("(forall x: int :: x == x)", True),
    "not-ne": ("!a != !b", True),
    "percent-mod-div": ("a % b mod c div d / e", True),
    # Comments.
    "trailing-line-comment": ("axiom true // no newline", False),
    "trailing-line-comment-after-newline": ("axiom true\n  // no newline", False),
    "trailing-block-comment": ("axiom true /* c */", False),
    "block-comment-spans-lines": ("axiom /* a\nb */ true /* c\n */ x", False),
    "line-comment-in-block": ("axiom /* // */ true;", False),
    "block-comment-in-line": ("axiom true; // /* \n axiom", False),
    "unterminated-comment": ("axiom true;\n  /* never closed", False),
    "unterminated-comment-after-closed": ("axiom /* a */ true; /*/", False),
    "unterminated-comments": ("axiom true; /* a /* b /* c", False),
    "comment-only": ("// nothing\n/* at all */", False),
    "empty": ("", False),
    "empty-expression": ("  ", True),
    # Folding of literals.
    "real-fraction": ("(1.0 / 2.0)", True),
    "real-fraction-chain": ("1.0 / 2.0 / 4.0", True),
    "real-fraction-by-zero": ("1.0 / 0.0", True),
    "real-fraction-after-product": ("x * 1.0 / 2.0", True),
    "negated-literals": ("-1 + --2 + -(3) + -1.5 + -(1.0 / 2.0)", True),
    "negated-variable": ("-x + !b", True),
    # Comparisons are non-associative; ==> associates to the right.
    "chained-comparison": ("a < b < c", True),
    "chained-equality": ("a == b == c", True),
    "comparison-after-and": ("a && b < c < d", True),
    "comparison-after-implies": ("a ==> b < c < d", True),
    "comparisons-in-and": ("a < b && c < d ==> e == f ==> g", True),
    "arithmetic-precedence": ("a * b + c * d - e < f + g * h", True),
    # Type arguments: f<...>( only within 40 tokens of the '<'.
    "type-args": ("readHeap<(Field int)>(H, r, f)", True),
    "type-args-20": ("f<" + ", ".join(["int"] * 20) + ">(x)", True),
    "type-args-21": ("f<" + ", ".join(["T"] * 21) + ">(x)", True),
    "less-than-not-type-args": ("a < b && c > (d)", True),
    "type-args-stop-at-semicolon": ("procedure p() { x := a < b; y := c > (d); }", False),
    "unbalanced-paren-in-type-args": ("f(a < b) > (c)", True),
    # Literals share their kinds with the type keywords `int` and `real`.
    "literals-as-types": ("var x: 5; var y: 1.5; var m: [0]2.5;", False),
    # Errors at the end of the text.
    "missing-semicolon": ("axiom true", False),
    "unclosed-paren": ("((1 + 2)", True),
    "missing-top-level": ("axiom true; x", False),
    "nested-parens-50": ("(" * 50 + "1" + ")" * 50, True),
}


@pytest.mark.parametrize("name", sorted(QUIRKS))
def test_quirk_inputs_agree(name):
    text, expr = QUIRKS[name]
    assert _assert_same(text, expr) != "intended"


#: The inputs on which the reference raises something other than
#: ``BoogieSyntaxError``: name -> (text, the reference's exception, what
#: the new parser gives: an AST, or the message of its syntax error).
INTENDED_DIFFERENCES = {
    "int-refuses-superscript-two": (
        "axiom ² == 2;", ValueError, "1:7: expected an expression, found '²'"),
    "int-refuses-superscript-fraction": (
        "axiom 1.²;", ValueError, "1:7: expected an expression, found '1.²'"),
    "int-refuses-5000-digits": (
        "axiom x == " + "1" * 5000 + ";", ValueError, "1:12: expected an expression, found '111"),
    "int-refuses-keyword-int": (
        "axiom int;", ValueError, "1:7: expected an expression, found 'int'"),
    "int-refuses-keyword-real": (
        "axiom x == real;", ValueError, "1:12: expected an expression, found 'real'"),
    "nested-parens-200": ("(" * 200 + "1" + ")" * 200, RecursionError, BIntLit(1)),
    "nested-parens-2000": (
        "axiom " + "(" * 2000 + "true" + ")" * 2000 + ";", RecursionError,
        "expression nested too deeply"),
    "nested-negation-2000": ("!" * 2000 + "true", RecursionError, "expression nested too deeply"),
    "nested-implication-2000": ("a ==> " * 2000 + "b", RecursionError,
                                "expression nested too deeply"),
}


@pytest.mark.parametrize("name", sorted(INTENDED_DIFFERENCES))
def test_intended_differences(name):
    text, raised, expected = INTENDED_DIFFERENCES[name]
    expr = not text.startswith("axiom")
    reference = reference_parser.parse_boogie_expr if expr else reference_parser.parse_boogie_program
    with pytest.raises(raised):
        reference(text)
    kind, outcome = _outcome(parse_boogie_expr if expr else parse_boogie_program, text)
    if isinstance(expected, str):
        assert kind == "error" and expected in outcome, outcome[:80]
    else:
        assert (kind, outcome) == ("ast", expected)


def test_deep_nesting_error_names_a_position():
    with pytest.raises(BoogieSyntaxError) as caught:
        parse_boogie_program("axiom\n" + "(" * 2000 + "true" + ")" * 2000 + ";")
    assert caught.value.line == 2 and 1 < caught.value.column <= 2000
