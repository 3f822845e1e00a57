"""Type and function interpretations for Boogie (Sec. 2.2, Sec. 4.4).

Trust: **trusted** — evaluates axioms under the standard interpretation;
background validity rests on it.

The correctness of a Boogie procedure quantifies over all *well-formed*
interpretations of the uninterpreted types and functions that satisfy the
program's axioms (Fig. 9, top).  Executable semantics need concrete,
finitely-sampled interpretations:

* :class:`Interpretation` holds carrier samples for uninterpreted types and
  Python callables for uninterpreted functions.
* ``check_axioms_bounded`` evaluates each axiom over the sampled carriers
  (bounded AxiomSat, Fig. 9); the kernel skips the seven background schemas,
  which the suite checks once: the analog of the paper's Isabelle lemma.

The *standard interpretation* for the Viper encoding (heap/mask carriers as
partial maps with a default-value ``read`` — the circularity-breaking model
of Sec. 4.4) is constructed in :mod:`repro.frontend.background`, since its
shape is dictated by the background declarations the translation emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .ast import (
    AxiomDecl,
    BBool,
    BInt,
    BReal,
    BType,
    BoogieProgram,
    BOOL,
    INT,
    MapType,
    REAL,
    TCon,
    TVar,
)
from .values import BValue, BVBool, BVInt, BVReal, FrozenMap, UValue

#: Signature of an uninterpreted-function implementation.
FuncImpl = Callable[[Tuple[BType, ...], Tuple[BValue, ...]], BValue]

#: Signature of a carrier: given the constructor's type arguments, return a
#: finite sample of the carrier set.
Carrier = Callable[[Tuple[BType, ...]], Sequence[BValue]]

#: Finite samples for the built-in types (used by havoc and quantifiers).
INT_SAMPLE: Tuple[BValue, ...] = (BVInt(0), BVInt(1), BVInt(-1), BVInt(7))
REAL_SAMPLE: Tuple[BValue, ...] = (
    BVReal(Fraction(0)),
    BVReal(Fraction(1, 2)),
    BVReal(Fraction(1)),
)
BOOL_SAMPLE: Tuple[BValue, ...] = (BVBool(False), BVBool(True))


class InterpretationError(Exception):
    """Raised when an interpretation is queried for something it lacks."""


@dataclass
class Interpretation:
    """A concrete interpretation 𝒯, ℱ of uninterpreted types and functions."""

    carriers: Dict[str, Carrier] = field(default_factory=dict)
    functions: Dict[str, FuncImpl] = field(default_factory=dict)
    #: Monotypes over which type quantifiers (∀_ty) are evaluated.
    type_universe: Tuple[BType, ...] = (INT, BOOL)
    #: Overrides for built-in-type samples (rarely needed).
    int_sample: Tuple[BValue, ...] = INT_SAMPLE
    real_sample: Tuple[BValue, ...] = REAL_SAMPLE

    def carrier_of(self, typ: BType) -> Sequence[BValue]:
        """A finite sample of the values of ``typ``."""
        if isinstance(typ, BInt):
            return self.int_sample
        if isinstance(typ, BReal):
            return self.real_sample
        if isinstance(typ, BBool):
            return BOOL_SAMPLE
        if isinstance(typ, TCon):
            if typ.name not in self.carriers:
                raise InterpretationError(f"no carrier for type {typ}")
            return self.carriers[typ.name](typ.args)
        if isinstance(typ, MapType):
            # Sugar-level map values are FrozenMaps; sample only the empty
            # map plus single-entry maps over the index carriers.
            return (UValue("__map__", FrozenMap()),)
        raise InterpretationError(f"cannot sample carrier of {typ}")

    def apply(self, name: str, type_args: Tuple[BType, ...], args: Tuple[BValue, ...]) -> BValue:
        if name not in self.functions:
            raise InterpretationError(f"no interpretation for function {name!r}")
        return self.functions[name](type_args, args)

    def with_function(self, name: str, impl: FuncImpl) -> "Interpretation":
        functions = dict(self.functions)
        functions[name] = impl
        return Interpretation(
            carriers=dict(self.carriers),
            functions=functions,
            type_universe=self.type_universe,
            int_sample=self.int_sample,
            real_sample=self.real_sample,
        )


def fixed_carrier(values: Sequence[BValue]) -> Carrier:
    """A carrier that ignores type arguments and returns a fixed sample."""
    sample = tuple(values)

    def carrier(_type_args: Tuple[BType, ...]) -> Sequence[BValue]:
        return sample

    return carrier


@dataclass
class AxiomCheckResult:
    ok: bool
    failed_axiom: Optional[AxiomDecl] = None
    detail: str = ""


def check_axioms_bounded(
    program: BoogieProgram,
    interp: Interpretation,
    const_values: Dict[str, BValue],
) -> AxiomCheckResult:
    """Evaluate every axiom over the sampled carriers (bounded AxiomSat).

    ``const_values`` maps declared constants to their interpreted values
    (the initial Boogie state restricted to constants).
    """
    from .semantics import BoogieContext, eval_bexpr
    from .state import BoogieState

    ctx = BoogieContext(program=program, interp=interp, var_types=program.global_types())
    state = BoogieState(dict(const_values))
    for axiom in program.axioms:
        value = eval_bexpr(axiom.expr, state, ctx)
        if not isinstance(value, BVBool) or not value.value:
            return AxiomCheckResult(
                ok=False,
                failed_axiom=axiom,
                detail=f"axiom {axiom.comment or axiom.expr!r} evaluated to {value!r}",
            )
    return AxiomCheckResult(ok=True)
