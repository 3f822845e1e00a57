"""Shared helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from repro.viper import (
    check_program,
    parse_program,
    Program,
    ViperContext,
)
from repro.viper.state import ViperState
from repro.viper.typechecker import ProgramTypeInfo
from repro.viper.values import NULL, VBool, VInt, VPerm, VRef


def parsed(source: str) -> Tuple[Program, ProgramTypeInfo]:
    """Parse and type-check a Viper program."""
    program = parse_program(source)
    return program, check_program(program)


def context_for(source: str, method: str) -> Tuple[Program, ProgramTypeInfo, ViperContext]:
    program, info = parsed(source)
    return program, info, ViperContext(program, info, method)


def vstate(
    store: Optional[Dict] = None,
    heap: Optional[Dict] = None,
    mask: Optional[Dict] = None,
    field_types: Optional[Dict] = None,
) -> ViperState:
    """Build a Viper state with defaulted components."""
    from repro.viper.ast import Type

    return ViperState(
        store=store or {},
        heap=heap or {},
        mask={k: Fraction(v) for k, v in (mask or {}).items()},
        field_types=field_types or {"f": Type.INT},
    )


#: A one-field one-method scaffold many expression tests reuse.
SCAFFOLD = """
field f: Int

method scaffold(x: Ref, y: Ref, n: Int, b: Bool, p: Perm) returns (r: Int)
  requires true
  ensures true
{
  r := 0
}
"""


def scaffold_context() -> Tuple[Program, ProgramTypeInfo, ViperContext]:
    return context_for(SCAFFOLD, "scaffold")


def deep_sum_source(terms: int) -> str:
    """A one-method program assigning a flat sum of ``terms`` ones."""
    return ("method m() returns (r: Int)\n{\n  r := "
            + " + ".join(["1"] * terms) + "\n}\n")


def deep_parens_source(depth: int) -> str:
    """A one-method program assigning ``1`` under ``depth`` parentheses."""
    return ("method m() returns (r: Int)\n{\n  r := "
            + "(" * depth + "1" + ")" * depth + "\n}\n")


__all__ = [
    "parsed",
    "context_for",
    "vstate",
    "scaffold_context",
    "SCAFFOLD",
    "deep_sum_source",
    "deep_parens_source",
    "NULL",
    "VBool",
    "VInt",
    "VPerm",
    "VRef",
    "Fraction",
]

