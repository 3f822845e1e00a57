"""The Boogie language substrate: AST, typechecker, semantics, back-end.

Trust: **untrusted-but-checked** — package hub re-exporting both trusted
semantics and untrusted rendering.
"""

from .ast import (  # noqa: F401
    Assign,
    Assume,
    AxiomDecl,
    BAssert,
    band,
    BBinOp,
    BBinOpKind,
    BBool,
    BBoolLit,
    beq,
    BExpr,
    bimplies,
    BInt,
    BIntLit,
    BIf,
    bnot,
    BoogieProgram,
    BOOL,
    BReal,
    BRealLit,
    BStmt,
    BType,
    BUnOp,
    BUnOpKind,
    BVar,
    CondB,
    ConstDecl,
    Exists,
    FALSE,
    Forall,
    FuncApp,
    FuncDecl,
    GlobalVarDecl,
    Havoc,
    INT,
    MapSelect,
    MapStore,
    MapType,
    Procedure,
    REAL,
    SimpleCmd,
    single_block,
    StmtBlock,
    TCon,
    TRUE,
    TVar,
    TypeConDecl,
)
from .cursor import Cursor  # noqa: F401
from .lexer import BoogieSyntaxError  # noqa: F401
from .parser import parse_boogie_expr, parse_boogie_program  # noqa: F401
from .interp import (  # noqa: F401
    check_axioms_bounded,
    fixed_carrier,
    Interpretation,
    InterpretationError,
)
from .pretty import pretty_bexpr, pretty_boogie_program, pretty_procedure  # noqa: F401
from .prover import (  # noqa: F401
    check_vc_bounded,
    ProveResult,
    Verdict,
    verify_procedure_bounded,
    verify_procedure_via_vc,
)
from .semantics import (  # noqa: F401
    BFailure,
    BMagic,
    BNormal,
    BoogieContext,
    BOutcome,
    eval_bexpr,
    exec_simple_cmd,
    procedure_context,
    run_from,
    run_procedure,
    step,
)
from .state import BoogieState  # noqa: F401
from .typechecker import BoogieTypeError, BoogieTypeInfo, check_boogie_program  # noqa: F401
from .values import BValue, BVBool, BVInt, BVReal, EMPTY_MAP, FrozenMap, UValue  # noqa: F401
from .vcgen import procedure_vc, wlp_stmt  # noqa: F401
