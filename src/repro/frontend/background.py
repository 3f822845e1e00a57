"""Background theory G and its standard interpretation (Sec. 4.4).

Trust: **trusted** — the standard interpretation used to check background
axioms (Sec. 4.4).

The Viper-to-Boogie translation always emits a fixed set of global Boogie
declarations: uninterpreted types for references, fields, heaps and masks;
``read``/``upd`` functions (the desugared polymorphic maps); the
``GoodMask`` and ``idOnPositive`` functions; the ``null`` and ``ZeroMask``
constants; and one ``Field τ`` constant per Viper field.

This module also constructs the *standard interpretation* used by the final
theorem (Fig. 9 / Fig. 10): heap and mask carriers are **partial maps**
represented by :class:`~repro.boogie.values.FrozenMap`; ``read`` returns a
type-appropriate default for keys outside the domain.  Admitting the empty
map as a heap value is exactly how the paper breaks the impredicativity
circularity of Boogie's polymorphic maps.  ``check_axioms_bounded``
(from :mod:`repro.boogie.interp`) validates that this interpretation
satisfies all emitted axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..boogie.ast import (
    AxiomDecl,
    band,
    BBinOp,
    BBinOpKind,
    beq,
    bimplies,
    BOOL,
    BRealLit,
    BType,
    BVar,
    ConstDecl,
    Forall,
    FuncApp,
    FuncDecl,
    REAL,
    TCon,
    TVar,
    TypeConDecl,
)
from ..boogie.interp import Interpretation, fixed_carrier
from ..boogie.values import (
    BValue,
    BVBool,
    BVInt,
    BVReal,
    FrozenMap,
    UValue,
    as_b_real,
)
from ..viper.ast import Program, Type
from ..viper.state import ViperState
from ..viper.values import NULL, Value, VBool, VInt, VNull, VPerm, VRef
from .records import boogie_type_of, field_type_con, REF_TYPE

# Canonical names of the background components.
HEAP_TYPE = TCon("HeapType")
MASK_TYPE = TCon("MaskType")
READ_HEAP = "readHeap"
UPD_HEAP = "updHeap"
READ_MASK = "readMask"
UPD_MASK = "updMask"
GOOD_MASK = "GoodMask"
ID_ON_POSITIVE = "idOnPositive"
NULL_CONST = "null"
ZERO_MASK_CONST = "ZeroMask"


def field_const_name(field_name: str) -> str:
    """The Boogie constant name representing a Viper field."""
    return f"field_{field_name}"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackgroundTheory:
    """The background declarations G plus bookkeeping for the program."""

    type_decls: Tuple[TypeConDecl, ...]
    consts: Tuple[ConstDecl, ...]
    functions: Tuple[FuncDecl, ...]
    axioms: Tuple[AxiomDecl, ...]
    field_types: Mapping[str, Type]

    @property
    def field_consts(self) -> Dict[str, str]:
        return {name: field_const_name(name) for name in self.field_types}


def build_background(field_types: Mapping[str, Type]) -> BackgroundTheory:
    """Build the background declarations for a program's fields."""
    type_decls = (
        TypeConDecl("Ref", 0),
        TypeConDecl("Field", 1),
        TypeConDecl("HeapType", 0),
        TypeConDecl("MaskType", 0),
    )
    consts = [ConstDecl(NULL_CONST, REF_TYPE)]
    for name in sorted(field_types):
        consts.append(
            ConstDecl(field_const_name(name), field_type_con(field_types[name]), unique=True)
        )
    consts.append(ConstDecl(ZERO_MASK_CONST, MASK_TYPE))
    t = TVar("T")
    field_t = TCon("Field", (t,))
    functions = (
        FuncDecl(READ_HEAP, ("T",), (HEAP_TYPE, REF_TYPE, field_t), t),
        FuncDecl(UPD_HEAP, ("T",), (HEAP_TYPE, REF_TYPE, field_t, t), HEAP_TYPE),
        FuncDecl(READ_MASK, ("T",), (MASK_TYPE, REF_TYPE, field_t), REAL),
        FuncDecl(UPD_MASK, ("T",), (MASK_TYPE, REF_TYPE, field_t, REAL), MASK_TYPE),
        FuncDecl(GOOD_MASK, (), (MASK_TYPE,), BOOL),
        FuncDecl(ID_ON_POSITIVE, (), (HEAP_TYPE, HEAP_TYPE, MASK_TYPE), BOOL),
    )
    return BackgroundTheory(
        type_decls=type_decls,
        consts=tuple(consts),
        functions=functions,
        axioms=BACKGROUND_AXIOMS,
        field_types=dict(field_types),
    )


def _background_axioms() -> Tuple[AxiomDecl, ...]:
    t = TVar("T")
    field_t = TCon("Field", (t,))
    h, h2, m = BVar("h"), BVar("h2"), BVar("m")
    r, r2, f, f2 = BVar("r"), BVar("r2"), BVar("f"), BVar("f2")
    v, p = BVar("v"), BVar("p")
    zero = BRealLit(Fraction(0))
    one = BRealLit(Fraction(1))

    def read_heap(heap, ref, fld):
        return FuncApp(READ_HEAP, (t,), (heap, ref, fld))

    def read_mask(mask, ref, fld):
        return FuncApp(READ_MASK, (t,), (mask, ref, fld))

    heap_upd = FuncApp(UPD_HEAP, (t,), (h, r, f, v))
    mask_upd = FuncApp(UPD_MASK, (t,), (m, r, f, p))
    distinct = BBinOp(
        BBinOpKind.OR, BBinOp(BBinOpKind.NE, r, r2), BBinOp(BBinOpKind.NE, f, f2)
    )
    return (
        AxiomDecl(
            Forall(
                ("T",),
                (("h", HEAP_TYPE), ("r", REF_TYPE), ("f", field_t), ("v", t)),
                beq(read_heap(heap_upd, r, f), v),
            ),
            comment="heap read-over-update (same location)",
        ),
        AxiomDecl(
            Forall(
                ("T",),
                (
                    ("h", HEAP_TYPE),
                    ("r", REF_TYPE),
                    ("f", field_t),
                    ("v", t),
                    ("r2", REF_TYPE),
                    ("f2", field_t),
                ),
                bimplies(distinct, beq(read_heap(heap_upd, r2, f2), read_heap(h, r2, f2))),
            ),
            comment="heap read-over-update (other location)",
        ),
        AxiomDecl(
            Forall(
                ("T",),
                (("m", MASK_TYPE), ("r", REF_TYPE), ("f", field_t), ("p", REAL)),
                beq(read_mask(mask_upd, r, f), p),
            ),
            comment="mask read-over-update (same location)",
        ),
        AxiomDecl(
            Forall(
                ("T",),
                (
                    ("m", MASK_TYPE),
                    ("r", REF_TYPE),
                    ("f", field_t),
                    ("p", REAL),
                    ("r2", REF_TYPE),
                    ("f2", field_t),
                ),
                bimplies(distinct, beq(read_mask(mask_upd, r2, f2), read_mask(m, r2, f2))),
            ),
            comment="mask read-over-update (other location)",
        ),
        AxiomDecl(
            Forall(
                ("T",),
                (("r", REF_TYPE), ("f", field_t)),
                beq(read_mask(BVar(ZERO_MASK_CONST), r, f), zero),
            ),
            comment="ZeroMask holds no permission",
        ),
        AxiomDecl(
            Forall(
                ("T",),
                (("m", MASK_TYPE), ("r", REF_TYPE), ("f", field_t)),
                bimplies(
                    FuncApp(GOOD_MASK, (), (m,)),
                    band(
                        BBinOp(BBinOpKind.GE, read_mask(m, r, f), zero),
                        BBinOp(BBinOpKind.LE, read_mask(m, r, f), one),
                    ),
                ),
            ),
            comment="GoodMask implies a consistent permission mask",
        ),
        AxiomDecl(
            Forall(
                ("T",),
                (
                    ("h", HEAP_TYPE),
                    ("h2", HEAP_TYPE),
                    ("m", MASK_TYPE),
                    ("r", REF_TYPE),
                    ("f", field_t),
                ),
                bimplies(
                    band(
                        FuncApp(ID_ON_POSITIVE, (), (h, h2, m)),
                        BBinOp(BBinOpKind.GT, read_mask(m, r, f), zero),
                    ),
                    beq(read_heap(h2, r, f), read_heap(h, r, f)),
                ),
            ),
            comment="idOnPositive preserves permissioned locations",
        ),
    )


#: Built once: every translation emits these, and the kernel recognises them.
BACKGROUND_AXIOMS: Tuple[AxiomDecl, ...] = _background_axioms()


# ---------------------------------------------------------------------------
# Value correspondence (Viper values ↔ Boogie values)
# ---------------------------------------------------------------------------

NULL_ADDRESS = 0
_NO_PERM = Fraction(0)
_FULL_PERM = Fraction(1)


def to_boogie_value(value: Value) -> BValue:
    """The Boogie representation of a Viper value."""
    if isinstance(value, VInt):
        return BVInt(value.value)
    if isinstance(value, VBool):
        return BVBool(value.value)
    if isinstance(value, VNull):
        return UValue("Ref", NULL_ADDRESS)
    if isinstance(value, VRef):
        return UValue("Ref", value.address)
    if isinstance(value, VPerm):
        return BVReal(value.amount)
    raise TypeError(f"unknown Viper value {value!r}")


def from_boogie_value(value: BValue, viper_type: Type) -> Value:
    """The Viper value represented by a Boogie value of the given type."""
    if viper_type is Type.INT:
        if isinstance(value, BVInt):
            return VInt(value.value)
    if viper_type is Type.BOOL:
        if isinstance(value, BVBool):
            return VBool(value.value)
    if viper_type is Type.REF:
        if isinstance(value, UValue) and value.type_name == "Ref":
            address = value.payload
            return NULL if address == NULL_ADDRESS else VRef(address)
    if viper_type is Type.PERM:
        if isinstance(value, (BVReal, BVInt)):
            return VPerm(as_b_real(value))
    raise TypeError(f"{value!r} does not represent a Viper {viper_type}")


def values_correspond(viper_value: Value, boogie_value: BValue) -> bool:
    """Whether a Boogie value represents a Viper value (numeric-coercive)."""
    if isinstance(viper_value, (VInt, VPerm)) and isinstance(
        boogie_value, (BVInt, BVReal)
    ):
        amount = (
            Fraction(viper_value.value)
            if isinstance(viper_value, VInt)
            else viper_value.amount
        )
        return amount == as_b_real(boogie_value)
    return to_boogie_value(viper_value) == boogie_value


def heap_to_boogie(state: ViperState) -> UValue:
    """Encode a Viper heap as a Boogie heap carrier element.

    Only explicitly-stored locations enter the partial map; unmapped
    locations agree via the default-valued ``read``.
    """
    payload = {}
    for (address, field_name), value in state.heap.items():
        payload[(address, field_name)] = to_boogie_value(value)
    return UValue("HeapType", FrozenMap(payload))


def mask_to_boogie(state: ViperState) -> UValue:
    """Encode a Viper permission mask as a Boogie mask carrier element."""
    payload = {}
    for (address, field_name), amount in state.mask.items():
        if amount != 0:
            payload[(address, field_name)] = amount
    return UValue("MaskType", FrozenMap(payload))


# ---------------------------------------------------------------------------
# Standard interpretation (Sec. 4.4)
# ---------------------------------------------------------------------------


def _field_default(field_types: Mapping[str, Type], field_name: str) -> BValue:
    viper_type = field_types.get(field_name, Type.INT)
    if viper_type is Type.INT:
        return BVInt(0)
    if viper_type is Type.BOOL:
        return BVBool(False)
    if viper_type is Type.REF:
        return UValue("Ref", NULL_ADDRESS)
    return BVReal(Fraction(0))


def _as_map(value: BValue, kind: str) -> FrozenMap:
    if isinstance(value, UValue) and value.type_name == kind:
        payload = value.payload
        if isinstance(payload, FrozenMap):
            return payload
    raise TypeError(f"expected a {kind} carrier element, got {value!r}")


def standard_interpretation(
    field_types: Mapping[str, Type],
    ref_addresses: Sequence[int] = (NULL_ADDRESS, 1, 2),
) -> Interpretation:
    """The interpretation 𝒯, ℱ justifying the background theory.

    Heap and mask carriers are partial maps keyed by ``(address, field)``;
    ``readHeap`` returns the field's typed default outside the domain and
    ``readMask`` returns zero — the circularity-free model of Sec. 4.4.
    """
    refs = tuple(UValue("Ref", a) for a in ref_addresses)
    field_names = sorted(field_types)

    def field_carrier(type_args):
        if len(type_args) != 1:
            return ()
        wanted = type_args[0]
        return tuple(
            UValue("Field", name)
            for name in field_names
            if boogie_type_of(field_types[name]) == wanted
        )

    # Heap and mask carriers ignore their type arguments: sample them once.
    heaps = [UValue("HeapType", FrozenMap())]
    for name in field_names[:2]:
        heaps.append(
            UValue("HeapType", FrozenMap({(1, name): _field_default(field_types, name)}))
        )
    masks = [UValue("MaskType", FrozenMap())]
    if field_names:
        loc = (1, field_names[0])
        masks.append(UValue("MaskType", FrozenMap({loc: Fraction(1)})))
        masks.append(UValue("MaskType", FrozenMap({loc: Fraction(1, 2)})))
        # An inconsistent mask keeps the GoodMask axiom non-vacuous.
        masks.append(UValue("MaskType", FrozenMap({loc: Fraction(3, 2)})))

    def read_heap(_targs, args):
        heap, ref, fld = args
        key = (ref.payload, fld.payload)
        payload = _as_map(heap, "HeapType")
        if key in payload:
            return payload.get(key)
        return _field_default(field_types, fld.payload)

    def upd_heap(_targs, args):
        heap, ref, fld, value = args
        payload = _as_map(heap, "HeapType")
        return UValue("HeapType", payload.set((ref.payload, fld.payload), value))

    def read_mask(_targs, args):
        mask, ref, fld = args
        payload = _as_map(mask, "MaskType")
        return BVReal(payload.get((ref.payload, fld.payload), _NO_PERM))

    def upd_mask(_targs, args):
        mask, ref, fld, value = args
        payload = _as_map(mask, "MaskType")
        return UValue(
            "MaskType", payload.set((ref.payload, fld.payload), as_b_real(value))
        )

    def good_mask(_targs, args):
        payload = _as_map(args[0], "MaskType")
        return BVBool(all(_NO_PERM <= p <= _FULL_PERM for _, p in payload.items()))

    def id_on_positive(_targs, args):
        h_payload = _as_map(args[0], "HeapType")
        h2_payload = _as_map(args[1], "HeapType")
        m_payload = _as_map(args[2], "MaskType")
        keys = set(h_payload.keys()) | set(h2_payload.keys())
        for key in keys:
            address, field_name = key
            if m_payload.get(key, _NO_PERM) > 0:
                default = _field_default(field_types, field_name)
                if h_payload.get(key, default) != h2_payload.get(key, default):
                    return BVBool(False)
        return BVBool(True)

    return Interpretation(
        carriers={
            "Ref": fixed_carrier(refs),
            "Field": field_carrier,
            "HeapType": fixed_carrier(heaps),
            "MaskType": fixed_carrier(masks),
        },
        functions={
            READ_HEAP: read_heap,
            UPD_HEAP: upd_heap,
            READ_MASK: read_mask,
            UPD_MASK: upd_mask,
            GOOD_MASK: good_mask,
            ID_ON_POSITIVE: id_on_positive,
        },
        type_universe=(boogie_type_of(Type.INT), boogie_type_of(Type.BOOL), REF_TYPE, REAL),
    )


def constant_valuation(background: BackgroundTheory) -> Dict[str, BValue]:
    """Values of the declared constants in the standard interpretation."""
    values: Dict[str, BValue] = {
        NULL_CONST: UValue("Ref", NULL_ADDRESS),
        ZERO_MASK_CONST: UValue("MaskType", FrozenMap()),
    }
    for field_name in background.field_types:
        values[field_const_name(field_name)] = UValue("Field", field_name)
    return values
