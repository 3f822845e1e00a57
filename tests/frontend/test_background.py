"""Tests for the background theory and the standard interpretation."""

from fractions import Fraction

import pytest

from repro.boogie import check_axioms_bounded, check_boogie_program, BoogieProgram
from repro.boogie.ast import INT
from repro.boogie.values import BVBool, BVInt, BVReal, FrozenMap, UValue
from repro.frontend.background import (
    build_background,
    constant_valuation,
    field_const_name,
    from_boogie_value,
    GOOD_MASK,
    heap_to_boogie,
    ID_ON_POSITIVE,
    mask_to_boogie,
    NULL_ADDRESS,
    standard_interpretation,
    to_boogie_value,
    values_correspond,
)
from repro.viper.ast import Type
from repro.viper.state import ViperState
from repro.viper.values import NULL, VBool, VInt, VPerm, VRef

FIELDS = {"f": Type.INT, "g": Type.BOOL}


class TestDeclarations:
    def test_background_program_typechecks(self):
        bg = build_background(FIELDS)
        program = BoogieProgram(
            type_decls=bg.type_decls,
            consts=bg.consts,
            functions=bg.functions,
            axioms=bg.axioms,
        )
        check_boogie_program(program)

    def test_field_constants_declared_per_field(self):
        bg = build_background(FIELDS)
        const_names = {c.name for c in bg.consts}
        assert field_const_name("f") in const_names
        assert field_const_name("g") in const_names

    def test_axioms_satisfied_by_standard_interpretation(self):
        bg = build_background(FIELDS)
        program = BoogieProgram(
            type_decls=bg.type_decls,
            consts=bg.consts,
            functions=bg.functions,
            axioms=bg.axioms,
        )
        interp = standard_interpretation(FIELDS)
        result = check_axioms_bounded(program, interp, constant_valuation(bg))
        assert result.ok, result.detail


class TestValueCorrespondence:
    @pytest.mark.parametrize(
        "viper_value",
        [VInt(3), VBool(True), VRef(2), NULL, VPerm(Fraction(1, 2))],
    )
    def test_roundtrip(self, viper_value):
        viper_type = {
            VInt: Type.INT,
            VBool: Type.BOOL,
            VRef: Type.REF,
            type(NULL): Type.REF,
            VPerm: Type.PERM,
        }[type(viper_value)]
        boogie_value = to_boogie_value(viper_value)
        assert from_boogie_value(boogie_value, viper_type) == viper_value

    def test_numeric_correspondence_coerces(self):
        assert values_correspond(VPerm(Fraction(1)), BVInt(1))
        assert values_correspond(VInt(1), BVReal(Fraction(1)))
        assert not values_correspond(VInt(1), BVReal(Fraction(2)))

    def test_null_is_address_zero(self):
        assert to_boogie_value(NULL) == UValue("Ref", NULL_ADDRESS)

    def test_heap_encoding(self):
        state = ViperState(
            heap={(1, "f"): VInt(5)}, field_types=dict(FIELDS)
        )
        heap = heap_to_boogie(state)
        assert heap.payload.get((1, "f")) == BVInt(5)

    def test_mask_encoding_drops_zero_entries(self):
        state = ViperState(
            mask={(1, "f"): Fraction(0), (2, "f"): Fraction(1, 2)},
            field_types=dict(FIELDS),
        )
        mask = mask_to_boogie(state)
        assert (1, "f") not in mask.payload
        assert mask.payload.get((2, "f")) == Fraction(1, 2)


class TestStandardInterpretation:
    def setup_method(self):
        self.interp = standard_interpretation(FIELDS)

    def test_good_mask_accepts_consistent(self):
        mask = UValue("MaskType", FrozenMap({(1, "f"): Fraction(1)}))
        assert self.interp.apply(GOOD_MASK, (), (mask,)) == BVBool(True)

    def test_good_mask_rejects_inconsistent(self):
        mask = UValue("MaskType", FrozenMap({(1, "f"): Fraction(3, 2)}))
        assert self.interp.apply(GOOD_MASK, (), (mask,)) == BVBool(False)
        negative = UValue("MaskType", FrozenMap({(1, "f"): Fraction(-1, 2)}))
        assert self.interp.apply(GOOD_MASK, (), (negative,)) == BVBool(False)

    def test_read_after_update(self):
        heap = UValue("HeapType", FrozenMap())
        updated = self.interp.apply(
            "updHeap", (INT,), (heap, UValue("Ref", 1), UValue("Field", "f"), BVInt(9))
        )
        read = self.interp.apply(
            "readHeap", (INT,), (updated, UValue("Ref", 1), UValue("Field", "f"))
        )
        assert read == BVInt(9)

    def test_mask_read_defaults_to_zero(self):
        mask = UValue("MaskType", FrozenMap())
        read = self.interp.apply(
            "readMask", (INT,), (mask, UValue("Ref", 1), UValue("Field", "f"))
        )
        assert read == BVReal(Fraction(0))

    def test_id_on_positive_semantics(self):
        h1 = UValue("HeapType", FrozenMap({(1, "f"): BVInt(1)}))
        h2 = UValue("HeapType", FrozenMap({(1, "f"): BVInt(2)}))
        protected = UValue("MaskType", FrozenMap({(1, "f"): Fraction(1, 2)}))
        unprotected = UValue("MaskType", FrozenMap())
        assert self.interp.apply(ID_ON_POSITIVE, (), (h1, h2, protected)) == BVBool(False)
        assert self.interp.apply(ID_ON_POSITIVE, (), (h1, h2, unprotected)) == BVBool(True)
        assert self.interp.apply(ID_ON_POSITIVE, (), (h1, h1, protected)) == BVBool(True)

    def test_field_carrier_is_type_indexed(self):
        int_fields = self.interp.carrier_of(
            __import__("repro.boogie.ast", fromlist=["TCon"]).TCon("Field", (INT,))
        )
        assert UValue("Field", "f") in int_fields
        assert UValue("Field", "g") not in int_fields


class TestCircularityModel:
    def test_empty_map_is_a_legal_heap_value(self):
        """The partial-map model admits the empty map as a heap — the
        construction that breaks the impredicativity circularity."""
        from repro.boogie.ast import TCon

        empty_heap = UValue("HeapType", FrozenMap())
        assert len(empty_heap.payload) == 0
        assert empty_heap in standard_interpretation(FIELDS).carrier_of(TCon("HeapType"))

    def test_read_returns_default_outside_domain(self):
        interp = standard_interpretation({"f": Type.INT})
        result = interp.apply(
            "readHeap",
            (INT,),
            (UValue("HeapType", FrozenMap()), UValue("Ref", 1), UValue("Field", "f")),
        )
        assert result == BVInt(0)
