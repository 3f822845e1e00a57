"""The per-character Boogie lexer and parser, kept as a reference oracle.

``repro.boogie.lexer`` used to walk the text one character at a time and
build a ``BToken`` per token, and ``repro.boogie.parser`` descended one
method per precedence level over those tokens.  Both were replaced by a
regex scanner over flat token lists and a precedence-climbing parser.
This module is the code they replaced, unchanged apart from its imports
(``BoogieSyntaxError`` is the library's class), so
``test_parser_differential.py`` can check that the new parser accepts the
same language: the same AST, or the same error at the same position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Set, Tuple

from repro.boogie.ast import (
    Assign,
    Assume,
    AxiomDecl,
    BAssert,
    BBinOp,
    BBinOpKind,
    BBoolLit,
    BExpr,
    BIf,
    BIntLit,
    BoogieProgram,
    BOOL,
    BRealLit,
    BStmt,
    BType,
    BUnOp,
    BUnOpKind,
    BVar,
    CondB,
    ConstDecl,
    Exists,
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
    StmtBlock,
    TCon,
    TVar,
    TypeConDecl,
)
from repro.boogie.lexer import BoogieSyntaxError

@dataclass(frozen=True)
class BToken:
    kind: str
    text: str
    line: int
    column: int


KEYWORDS = frozenset(
    {
        "type",
        "const",
        "unique",
        "var",
        "function",
        "axiom",
        "procedure",
        "assume",
        "assert",
        "havoc",
        "if",
        "else",
        "forall",
        "exists",
        "then",
        "true",
        "false",
        "int",
        "real",
        "bool",
        "div",
        "mod",
    }
)

OPERATORS = [
    "<==>",
    "==>",
    "::",
    ":=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    ",",
    ";",
    ":",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "_",
]


def tokenize_boogie(source: str) -> List[BToken]:
    """Tokenise Boogie source text; raises ``BoogieSyntaxError``."""
    tokens: List[BToken] = []
    line, column, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise BoogieSyntaxError("unterminated comment", line, column)
            skipped = source[i : end + 2]
            newlines = skipped.count("\n")
            if newlines:
                line += newlines
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            i = end + 2
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdigit():
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
                text = source[start:i]
                tokens.append(BToken("real", text, line, column))
            else:
                text = source[start:i]
                tokens.append(BToken("int", text, line, column))
            column += i - start
            continue
        if ch.isalpha() or ch == "_" and i + 1 < n and (source[i + 1].isalnum() or source[i + 1] == "_"):
            start = i
            while i < n and (source[i].isalnum() or source[i] in "_'#"):
                i += 1
            text = source[start:i]
            kind = text if text in KEYWORDS else "ident"
            tokens.append(BToken(kind, text, line, column))
            column += len(text)
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(BToken(op, op, line, column))
                i += len(op)
                column += len(op)
                break
        else:
            raise BoogieSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(BToken("eof", "", line, column))
    return tokens


class _BoogieParser:
    def __init__(self, tokens: List[BToken]):
        self._tokens = tokens
        self._pos = 0
        self._tvars: Set[str] = set()

    # -- plumbing ------------------------------------------------------------

    def _peek(self, offset: int = 0) -> BToken:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> BToken:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _check(self, kind: str) -> bool:
        return self._peek().kind == kind

    def _accept(self, kind: str) -> Optional[BToken]:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: str) -> BToken:
        token = self._peek()
        if token.kind != kind:
            raise BoogieSyntaxError(
                f"expected {kind!r}, found {token.text!r}", token.line, token.column
            )
        return self._advance()

    def _error(self, message: str) -> BoogieSyntaxError:
        token = self._peek()
        return BoogieSyntaxError(message, token.line, token.column)

    # -- program -------------------------------------------------------------

    def parse_program(self) -> BoogieProgram:
        type_decls: List[TypeConDecl] = []
        consts: List[ConstDecl] = []
        globals_: List[GlobalVarDecl] = []
        functions: List[FuncDecl] = []
        axioms: List[AxiomDecl] = []
        procedures: List[Procedure] = []
        while not self._check("eof"):
            if self._accept("type"):
                name = self._expect("ident").text
                arity = 0
                while self._accept("_"):
                    arity += 1
                self._expect(";")
                type_decls.append(TypeConDecl(name, arity))
            elif self._accept("const"):
                unique = bool(self._accept("unique"))
                name = self._expect("ident").text
                self._expect(":")
                typ = self.parse_type()
                self._expect(";")
                consts.append(ConstDecl(name, typ, unique))
            elif self._accept("var"):
                name = self._expect("ident").text
                self._expect(":")
                typ = self.parse_type()
                self._expect(";")
                globals_.append(GlobalVarDecl(name, typ))
            elif self._accept("function"):
                functions.append(self._parse_function())
            elif self._accept("axiom"):
                expr = self.parse_expr()
                self._expect(";")
                axioms.append(AxiomDecl(expr))
            elif self._accept("procedure"):
                procedures.append(self._parse_procedure())
            else:
                raise self._error("expected a top-level declaration")
        return BoogieProgram(
            type_decls=tuple(type_decls),
            consts=tuple(consts),
            globals=tuple(globals_),
            functions=tuple(functions),
            axioms=tuple(axioms),
            procedures=tuple(procedures),
        )

    def _parse_function(self) -> FuncDecl:
        name = self._expect("ident").text
        type_params: Tuple[str, ...] = ()
        if self._accept("<"):
            params = [self._expect("ident").text]
            while self._accept(","):
                params.append(self._expect("ident").text)
            self._expect(">")
            type_params = tuple(params)
        saved = set(self._tvars)
        self._tvars |= set(type_params)
        self._expect("(")
        arg_types: List[BType] = []
        if not self._check(")"):
            arg_types.append(self.parse_type())
            while self._accept(","):
                arg_types.append(self.parse_type())
        self._expect(")")
        self._expect(":")
        result = self.parse_type()
        self._expect(";")
        self._tvars = saved
        return FuncDecl(name, type_params, tuple(arg_types), result)

    def _parse_procedure(self) -> Procedure:
        name = self._expect("ident").text
        self._expect("(")
        self._expect(")")
        self._expect("{")
        locals_: List[Tuple[str, BType]] = []
        while self._check("var"):
            self._advance()
            var_name = self._expect("ident").text
            self._expect(":")
            locals_.append((var_name, self.parse_type()))
            self._expect(";")
        body = self._parse_stmt_until("}")
        self._expect("}")
        return Procedure(name, tuple(locals_), body)

    # -- types ------------------------------------------------------------------

    def parse_type(self) -> BType:
        if self._accept("int"):
            return INT
        if self._accept("real"):
            return REAL
        if self._accept("bool"):
            return BOOL
        if self._check("ident"):
            name = self._advance().text
            if name in self._tvars:
                return TVar(name)
            return TCon(name)
        if self._check("(") and self._peek(1).kind == "ident":
            # Applied type constructor: (Name T1 T2 ...)
            self._advance()
            name = self._expect("ident").text
            args: List[BType] = []
            while not self._check(")"):
                args.append(self.parse_type())
            self._expect(")")
            return TCon(name, tuple(args))
        if self._check("<") or self._check("["):
            return self._parse_map_type()
        raise self._error("expected a type")

    def _parse_map_type(self) -> BType:
        type_params: Tuple[str, ...] = ()
        if self._accept("<"):
            params = [self._expect("ident").text]
            while self._accept(","):
                params.append(self._expect("ident").text)
            self._expect(">")
            type_params = tuple(params)
        saved = set(self._tvars)
        self._tvars |= set(type_params)
        self._expect("[")
        arg_types = [self.parse_type()]
        while self._accept(","):
            arg_types.append(self.parse_type())
        self._expect("]")
        result = self.parse_type()
        self._tvars = saved
        return MapType(type_params, tuple(arg_types), result)

    # -- statements ------------------------------------------------------------

    def _parse_stmt_until(self, terminator: str) -> BStmt:
        blocks: List[StmtBlock] = []
        cmds: List[SimpleCmd] = []
        while not self._check(terminator):
            if self._check("if"):
                self._advance()
                self._expect("(")
                cond: Optional[BExpr]
                if self._accept("*"):
                    cond = None
                else:
                    cond = self.parse_expr()
                self._expect(")")
                self._expect("{")
                then = self._parse_stmt_until("}")
                self._expect("}")
                otherwise: BStmt = ()
                if self._accept("else"):
                    self._expect("{")
                    otherwise = self._parse_stmt_until("}")
                    self._expect("}")
                blocks.append(StmtBlock(tuple(cmds), BIf(cond, then, otherwise)))
                cmds = []
                continue
            cmds.append(self._parse_cmd())
        if cmds or not blocks:
            blocks.append(StmtBlock(tuple(cmds), None))
        return tuple(blocks)

    def _parse_cmd(self) -> SimpleCmd:
        if self._accept("assume"):
            expr = self.parse_expr()
            self._expect(";")
            return Assume(expr)
        if self._accept("assert"):
            expr = self.parse_expr()
            self._expect(";")
            return BAssert(expr)
        if self._accept("havoc"):
            name = self._expect("ident").text
            self._expect(";")
            return Havoc(name)
        name = self._expect("ident").text
        self._expect(":=")
        expr = self.parse_expr()
        self._expect(";")
        return Assign(name, expr)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> BExpr:
        return self._parse_iff()

    def _parse_iff(self) -> BExpr:
        left = self._parse_implies()
        while self._accept("<==>"):
            right = self._parse_implies()
            left = BBinOp(BBinOpKind.IFF, left, right)
        return left

    def _parse_implies(self) -> BExpr:
        left = self._parse_or()
        if self._accept("==>"):
            right = self._parse_implies()
            return BBinOp(BBinOpKind.IMPLIES, left, right)
        return left

    def _parse_or(self) -> BExpr:
        left = self._parse_and()
        while self._accept("||"):
            left = BBinOp(BBinOpKind.OR, left, self._parse_and())
        return left

    def _parse_and(self) -> BExpr:
        left = self._parse_cmp()
        while self._accept("&&"):
            left = BBinOp(BBinOpKind.AND, left, self._parse_cmp())
        return left

    _CMP = {
        "==": BBinOpKind.EQ,
        "!=": BBinOpKind.NE,
        "<": BBinOpKind.LT,
        "<=": BBinOpKind.LE,
        ">": BBinOpKind.GT,
        ">=": BBinOpKind.GE,
    }

    def _parse_cmp(self) -> BExpr:
        left = self._parse_additive()
        if self._peek().kind in self._CMP:
            op = self._CMP[self._advance().kind]
            return BBinOp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> BExpr:
        left = self._parse_multiplicative()
        while self._peek().kind in ("+", "-"):
            op = BBinOpKind.ADD if self._advance().kind == "+" else BBinOpKind.SUB
            left = BBinOp(op, left, self._parse_multiplicative())
        return left

    _MUL = {"*": BBinOpKind.MUL, "/": BBinOpKind.REAL_DIV, "div": BBinOpKind.DIV,
            "mod": BBinOpKind.MOD, "%": BBinOpKind.MOD}

    def _parse_multiplicative(self) -> BExpr:
        left = self._parse_unary()
        while self._peek().kind in self._MUL:
            op = self._MUL[self._advance().kind]
            right = self._parse_unary()
            # Fold literal real fractions back: (1.0 / 2.0) -> BRealLit(1/2).
            if (
                op is BBinOpKind.REAL_DIV
                and isinstance(left, BRealLit)
                and isinstance(right, BRealLit)
                and right.value != 0
            ):
                left = BRealLit(left.value / right.value)
            else:
                left = BBinOp(op, left, right)
        return left

    def _parse_unary(self) -> BExpr:
        if self._accept("-"):
            operand = self._parse_unary()
            if isinstance(operand, BIntLit):
                return BIntLit(-operand.value)
            if isinstance(operand, BRealLit):
                return BRealLit(-operand.value)
            return BUnOp(BUnOpKind.NEG, operand)
        if self._accept("!"):
            return BUnOp(BUnOpKind.NOT, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> BExpr:
        expr = self._parse_atom()
        while self._check("["):
            self._advance()
            indices = [self.parse_expr()]
            while self._accept(","):
                indices.append(self.parse_expr())
            if self._accept(":="):
                value = self.parse_expr()
                self._expect("]")
                expr = MapStore(expr, (), tuple(indices), value)
            else:
                self._expect("]")
                expr = MapSelect(expr, (), tuple(indices))
        return expr

    def _parse_atom(self) -> BExpr:
        token = self._peek()
        if token.kind == "int":
            self._advance()
            return BIntLit(int(token.text))
        if token.kind == "real":
            self._advance()
            whole, _, frac = token.text.partition(".")
            denominator = 10 ** len(frac)
            return BRealLit(Fraction(int(whole) * denominator + int(frac or 0), denominator))
        if token.kind == "true":
            self._advance()
            return BBoolLit(True)
        if token.kind == "false":
            self._advance()
            return BBoolLit(False)
        if token.kind == "ident":
            self._advance()
            # Function application with optional type arguments.
            if self._check("<") and self._looks_like_type_args():
                type_args = self._parse_type_args()
                self._expect("(")
                args = self._parse_args()
                return FuncApp(token.text, type_args, args)
            if self._check("("):
                self._advance()
                args_list: List[BExpr] = []
                if not self._check(")"):
                    args_list.append(self.parse_expr())
                    while self._accept(","):
                        args_list.append(self.parse_expr())
                self._expect(")")
                return FuncApp(token.text, (), tuple(args_list))
            return BVar(token.text)
        if token.kind == "(":
            self._advance()
            if self._check("forall") or self._check("exists"):
                expr = self._parse_quantifier()
                self._expect(")")
                return expr
            if self._accept("if"):
                cond = self.parse_expr()
                self._expect("then")
                then = self.parse_expr()
                self._expect("else")
                otherwise = self.parse_expr()
                self._expect(")")
                return CondB(cond, then, otherwise)
            expr = self.parse_expr()
            self._expect(")")
            return expr
        raise self._error(f"expected an expression, found {token.text!r}")

    def _looks_like_type_args(self) -> bool:
        """Disambiguate ``f<T>(...)`` from ``a < b``: scan for `>` then `(`.

        Parentheses may occur *inside* the type-argument list (applied type
        constructors like ``(Field int)``), so only an unbalanced `)` aborts.
        """
        angle_depth = 0
        paren_depth = 0
        offset = 0
        while True:
            token = self._peek(offset)
            if token.kind == "eof" or offset > 40:
                return False
            if token.kind == "<":
                angle_depth += 1
            elif token.kind == ">":
                angle_depth -= 1
                if angle_depth == 0:
                    return self._peek(offset + 1).kind == "("
            elif token.kind == "(":
                paren_depth += 1
            elif token.kind == ")":
                if paren_depth == 0:
                    return False
                paren_depth -= 1
            elif token.kind in (";", "{", "}", ":=", "&&", "||"):
                return False
            offset += 1

    def _parse_type_args(self) -> Tuple[BType, ...]:
        self._expect("<")
        args = [self.parse_type()]
        while self._accept(","):
            args.append(self.parse_type())
        self._expect(">")
        return tuple(args)

    def _parse_args(self) -> Tuple[BExpr, ...]:
        args: List[BExpr] = []
        if not self._check(")"):
            args.append(self.parse_expr())
            while self._accept(","):
                args.append(self.parse_expr())
        self._expect(")")
        return tuple(args)

    def _parse_quantifier(self) -> BExpr:
        is_forall = bool(self._accept("forall"))
        if not is_forall:
            self._expect("exists")
        type_vars: Tuple[str, ...] = ()
        if self._accept("<"):
            params = [self._expect("ident").text]
            while self._accept(","):
                params.append(self._expect("ident").text)
            self._expect(">")
            type_vars = tuple(params)
        saved = set(self._tvars)
        self._tvars |= set(type_vars)
        bound: List[Tuple[str, BType]] = []
        if not self._check("::"):
            name = self._expect("ident").text
            self._expect(":")
            bound.append((name, self.parse_type()))
            while self._accept(","):
                name = self._expect("ident").text
                self._expect(":")
                bound.append((name, self.parse_type()))
        self._expect("::")
        body = self.parse_expr()
        self._tvars = saved
        ctor = Forall if is_forall else Exists
        return ctor(type_vars, tuple(bound), body)


def parse_boogie_program(source: str) -> BoogieProgram:
    """Parse a complete Boogie program."""
    parser = _BoogieParser(tokenize_boogie(source))
    return parser.parse_program()


def parse_boogie_expr(source: str, type_vars: Tuple[str, ...] = ()) -> BExpr:
    """Parse a single Boogie expression (``type_vars`` are in scope)."""
    parser = _BoogieParser(tokenize_boogie(source))
    parser._tvars = set(type_vars)
    expr = parser.parse_expr()
    parser._expect("eof")
    return expr
