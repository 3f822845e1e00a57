"""Tests for the Boogie type checker."""

import pytest

from repro.boogie import (
    Assign,
    Assume,
    AxiomDecl,
    BAssert,
    BBinOp,
    BBinOpKind,
    beq,
    BIntLit,
    BOOL,
    BoogieProgram,
    BoogieTypeError,
    BRealLit,
    BVar,
    check_boogie_program,
    ConstDecl,
    Forall,
    FuncApp,
    FuncDecl,
    GlobalVarDecl,
    Havoc,
    INT,
    MapType,
    Procedure,
    REAL,
    single_block,
    TCon,
    TRUE,
    TVar,
    TypeConDecl,
)
from fractions import Fraction


def check(program: BoogieProgram):
    return check_boogie_program(program)


def rejects(program: BoogieProgram, fragment: str = ""):
    with pytest.raises(BoogieTypeError) as excinfo:
        check(program)
    if fragment:
        assert fragment in str(excinfo.value)


class TestDeclarations:
    def test_minimal_program(self):
        info = check(BoogieProgram())
        assert info.global_types == {}

    def test_undeclared_type_constructor(self):
        rejects(
            BoogieProgram(globals=(GlobalVarDecl("g", TCon("Mystery")),)),
            "undeclared type constructor",
        )

    def test_type_constructor_arity(self):
        rejects(
            BoogieProgram(
                type_decls=(TypeConDecl("Pair", 2),),
                globals=(GlobalVarDecl("g", TCon("Pair", (INT,))),),
            ),
            "expects 2 arguments",
        )

    def test_duplicate_global(self):
        rejects(
            BoogieProgram(
                globals=(GlobalVarDecl("g", INT), GlobalVarDecl("g", BOOL))
            ),
            "duplicate",
        )

    def test_unbound_type_variable_in_global(self):
        rejects(
            BoogieProgram(globals=(GlobalVarDecl("g", TVar("T")),)),
            "unbound type variable",
        )

    def test_function_signature_may_use_its_type_params(self):
        check(
            BoogieProgram(
                functions=(FuncDecl("id", ("T",), (TVar("T"),), TVar("T")),)
            )
        )


class TestAxioms:
    def test_axiom_must_be_boolean(self):
        rejects(BoogieProgram(axioms=(AxiomDecl(BIntLit(1)),)), "boolean")

    def test_axiom_may_use_constants(self):
        check(
            BoogieProgram(
                consts=(ConstDecl("c", INT),),
                axioms=(AxiomDecl(beq(BVar("c"), BIntLit(0))),),
            )
        )

    def test_axiom_must_not_read_global_variables(self):
        # The syntactic guard Boogie enforces where Viper uses semantics.
        rejects(
            BoogieProgram(
                globals=(GlobalVarDecl("g", INT),),
                axioms=(AxiomDecl(beq(BVar("g"), BIntLit(0))),),
            ),
            "global",
        )


class TestPolymorphicApplications:
    PROGRAM = BoogieProgram(
        type_decls=(TypeConDecl("Box", 1),),
        functions=(
            FuncDecl("wrap", ("T",), (TVar("T"),), TCon("Box", (TVar("T"),))),
        ),
        globals=(GlobalVarDecl("b", TCon("Box", (INT,))),),
    )

    def test_correct_instantiation(self):
        program = BoogieProgram(
            type_decls=self.PROGRAM.type_decls,
            functions=self.PROGRAM.functions,
            globals=self.PROGRAM.globals,
            procedures=(
                Procedure(
                    "p", (), single_block(Assign("b", FuncApp("wrap", (INT,), (BIntLit(1),))))
                ),
            ),
        )
        check(program)

    def test_wrong_type_argument_count(self):
        program = BoogieProgram(
            type_decls=self.PROGRAM.type_decls,
            functions=self.PROGRAM.functions,
            globals=self.PROGRAM.globals,
            procedures=(
                Procedure(
                    "p", (), single_block(Assign("b", FuncApp("wrap", (), (BIntLit(1),))))
                ),
            ),
        )
        rejects(program, "type")

    def test_argument_type_checked_after_substitution(self):
        program = BoogieProgram(
            type_decls=self.PROGRAM.type_decls,
            functions=self.PROGRAM.functions,
            globals=self.PROGRAM.globals,
            procedures=(
                Procedure(
                    "p",
                    (),
                    single_block(Assign("b", FuncApp("wrap", (INT,), (TRUE,)))),
                ),
            ),
        )
        rejects(program)

    def test_result_type_substituted(self):
        # wrap<bool>(true) : Box bool is not assignable to Box int.
        program = BoogieProgram(
            type_decls=self.PROGRAM.type_decls,
            functions=self.PROGRAM.functions,
            globals=self.PROGRAM.globals,
            procedures=(
                Procedure(
                    "p",
                    (),
                    single_block(Assign("b", FuncApp("wrap", (BOOL,), (TRUE,)))),
                ),
            ),
        )
        rejects(program)


class TestCommandsAndNumericRelaxation:
    def test_int_accepted_where_real_expected(self):
        program = BoogieProgram(
            globals=(GlobalVarDecl("r", REAL),),
            procedures=(
                Procedure("p", (), single_block(Assign("r", BIntLit(1)))),
            ),
        )
        check(program)

    def test_bool_rejected_where_real_expected(self):
        program = BoogieProgram(
            globals=(GlobalVarDecl("r", REAL),),
            procedures=(Procedure("p", (), single_block(Assign("r", TRUE))),),
        )
        rejects(program)

    def test_assume_requires_bool(self):
        program = BoogieProgram(
            procedures=(Procedure("p", (), single_block(Assume(BIntLit(1)))),)
        )
        rejects(program, "bool")

    def test_havoc_requires_declared_variable(self):
        program = BoogieProgram(
            procedures=(Procedure("p", (), single_block(Havoc("ghost"))),)
        )
        rejects(program, "undeclared")

    def test_local_shadowing_global_rejected(self):
        program = BoogieProgram(
            globals=(GlobalVarDecl("g", INT),),
            procedures=(Procedure("p", (("g", INT),), single_block()),),
        )
        rejects(program, "shadows")

    def test_quantifier_body_must_be_bool(self):
        program = BoogieProgram(
            procedures=(
                Procedure(
                    "p",
                    (),
                    single_block(Assume(Forall((), (("i", INT),), BVar("i")))),
                ),
            )
        )
        rejects(program)

    def test_map_select_typing(self):
        map_type = MapType((), (INT,), BOOL)
        from repro.boogie import MapSelect

        program = BoogieProgram(
            globals=(GlobalVarDecl("m", map_type),),
            procedures=(
                Procedure(
                    "p",
                    (),
                    single_block(Assume(MapSelect(BVar("m"), (), (BIntLit(0),)))),
                ),
            ),
        )
        check(program)

    def test_polymorphic_map_store_select(self):
        """The Viper heap as a polymorphic map, ``<T>[Ref, Field T]T``:
        a store, then a select at an instantiated field type."""
        from repro.boogie import MapSelect, MapStore

        heap = MapType(("T",), (TCon("Ref"), TCon("Field", (TVar("T"),))), TVar("T"))
        location = (BVar("r"), BVar("f"))
        program = BoogieProgram(
            type_decls=(TypeConDecl("Ref", 0), TypeConDecl("Field", 1)),
            consts=(ConstDecl("r", TCon("Ref")), ConstDecl("f", TCon("Field", (INT,)))),
            globals=(GlobalVarDecl("H", heap),),
            procedures=(
                Procedure(
                    "p",
                    (("v", INT),),
                    single_block(
                        Assign("H", MapStore(BVar("H"), (INT,), location, BIntLit(1))),
                        Assign("v", MapSelect(BVar("H"), (INT,), location)),
                    ),
                ),
            ),
        )
        check(program)
