"""Parser for Boogie concrete syntax.

Trust: **trusted** — the kernel re-parses the Boogie program from text;
this parser decides what was actually emitted.

Parses the subset the pretty-printer emits (which is also the subset the
Viper-to-Boogie translation produces), including polymorphic function
declarations and applications, type quantifiers, map types with
select/store sugar, and nondeterministic if-statements.

A recursive-descent parser over the lexer's flat ``kinds``/``texts``
lists.  Binary operators are parsed by precedence climbing over the
``_BINARY`` table: ``<==>``, ``||`` and ``&&`` associate to the left,
``==>`` to the right, and comparisons not at all.  Input nested deeper
than Python's recursion limit allows is a ``BoogieSyntaxError`` at the
token where the parser gave up.

The kernel judges what this parser builds wherever Boogie arrives as
text: the service's disk tiers and ``repro check`` (docs/TRUSTED_BASE.md).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Set, Tuple

from .ast import (
    Assign, Assume, AxiomDecl, BAssert, BBinOp, BBinOpKind, BBoolLit, BExpr,
    BIf, BIntLit, BoogieProgram, BOOL, BRealLit, BStmt, BType, BUnOp,
    BUnOpKind, BVar, CondB, ConstDecl, Exists, Forall, FuncApp, FuncDecl,
    GlobalVarDecl, Havoc, INT, MapSelect, MapStore, MapType, Procedure, REAL,
    SimpleCmd, StmtBlock, TCon, TVar, TypeConDecl,
)
from .lexer import BoogieSyntaxError, syntax_error, tokenize_boogie

# Operator kind -> (precedence, AST operator); a higher precedence binds
# tighter.  Each level of the grammar is one precedence.
_IFF, _IMPLIES, _OR, _AND, _CMP, _ADD, _MUL = range(1, 8)
_BINARY = {
    "<==>": (_IFF, BBinOpKind.IFF),
    "==>": (_IMPLIES, BBinOpKind.IMPLIES),
    "||": (_OR, BBinOpKind.OR),
    "&&": (_AND, BBinOpKind.AND),
    "==": (_CMP, BBinOpKind.EQ),
    "!=": (_CMP, BBinOpKind.NE),
    "<": (_CMP, BBinOpKind.LT),
    "<=": (_CMP, BBinOpKind.LE),
    ">": (_CMP, BBinOpKind.GT),
    ">=": (_CMP, BBinOpKind.GE),
    "+": (_ADD, BBinOpKind.ADD),
    "-": (_ADD, BBinOpKind.SUB),
    "*": (_MUL, BBinOpKind.MUL),
    "/": (_MUL, BBinOpKind.REAL_DIV),
    "div": (_MUL, BBinOpKind.DIV),
    "mod": (_MUL, BBinOpKind.MOD),
    "%": (_MUL, BBinOpKind.MOD),
}
_BASE_TYPES = {"int": INT, "real": REAL, "bool": BOOL}
#: Tokens at which ``_looks_like_type_args`` stops looking.
_NOT_IN_TYPE_ARGS = frozenset({";", "{", "}", ":=", "&&", "||"})


class _BoogieParser:
    def __init__(self, source: str, type_vars: Tuple[str, ...] = ()):
        self._source = source
        self._kinds, self._texts = tokenize_boogie(source)
        self._pos = 0
        self._tvars: Set[str] = set(type_vars)

    # -- plumbing ------------------------------------------------------------

    def _error(self, message: str) -> BoogieSyntaxError:
        return syntax_error(self._source, self._texts, self._pos, message)

    def _accept(self, kind: str) -> bool:
        if self._kinds[self._pos] == kind:
            self._pos += 1
            return True
        return False

    def _expect(self, kind: str) -> str:
        pos = self._pos
        if self._kinds[pos] != kind:
            raise self._error(f"expected {kind!r}, found {self._texts[pos]!r}")
        if kind != "eof":
            self._pos = pos + 1
        return self._texts[pos]

    def _list(self, parse_one) -> tuple:
        """``item (, item)*``."""
        items = [parse_one()]
        while self._accept(","):
            items.append(parse_one())
        return tuple(items)

    def _ident(self) -> str:
        return self._expect("ident")

    def _typed_name(self) -> Tuple[str, BType]:
        """``name : type``."""
        name = self._expect("ident")
        self._expect(":")
        return name, self.parse_type()

    def _type_params(self) -> Tuple[str, ...]:
        """An optional ``<T, U>``; the names stay in scope until restored."""
        if not self._accept("<"):
            return ()
        params = self._list(self._ident)
        self._expect(">")
        self._tvars = self._tvars | set(params)
        return params

    # -- program -------------------------------------------------------------

    def parse_program(self) -> BoogieProgram:
        decls = {
            "type": [], "const": [], "var": [], "function": [], "axiom": [],
            "procedure": [],
        }
        kinds = self._kinds
        while kinds[self._pos] != "eof":
            kind = kinds[self._pos]
            if kind not in decls:
                raise self._error("expected a top-level declaration")
            self._pos += 1
            if kind == "type":
                name = self._expect("ident")
                arity = 0
                while self._accept("_"):
                    arity += 1
                decl = TypeConDecl(name, arity)
            elif kind == "const":
                unique = self._accept("unique")
                decl = ConstDecl(*self._typed_name(), unique)
            elif kind == "var":
                decl = GlobalVarDecl(*self._typed_name())
            elif kind == "function":
                decl = self._parse_function()
            elif kind == "axiom":
                decl = AxiomDecl(self.parse_expr())
            else:
                decls[kind].append(self._parse_procedure())
                continue
            self._expect(";")
            decls[kind].append(decl)
        return BoogieProgram(
            type_decls=tuple(decls["type"]),
            consts=tuple(decls["const"]),
            globals=tuple(decls["var"]),
            functions=tuple(decls["function"]),
            axioms=tuple(decls["axiom"]),
            procedures=tuple(decls["procedure"]),
        )

    def _parse_function(self) -> FuncDecl:
        name = self._expect("ident")
        saved = self._tvars
        type_params = self._type_params()
        self._expect("(")
        arg_types = self._list(self.parse_type) if self._kinds[self._pos] != ")" else ()
        self._expect(")")
        self._expect(":")
        result = self.parse_type()
        self._tvars = saved
        return FuncDecl(name, type_params, arg_types, result)

    def _parse_procedure(self) -> Procedure:
        name = self._expect("ident")
        self._expect("(")
        self._expect(")")
        self._expect("{")
        locals_: List[Tuple[str, BType]] = []
        while self._accept("var"):
            locals_.append(self._typed_name())
            self._expect(";")
        body = self._parse_stmt_until("}")
        self._expect("}")
        return Procedure(name, tuple(locals_), body)

    # -- types ------------------------------------------------------------------

    def parse_type(self) -> BType:
        pos = self._pos
        kind = self._kinds[pos]
        base = _BASE_TYPES.get(kind)
        if base is not None:
            self._pos = pos + 1
            return base
        if kind == "ident":
            self._pos = pos + 1
            name = self._texts[pos]
            return TVar(name) if name in self._tvars else TCon(name)
        if kind == "(" and self._kinds[pos + 1] == "ident":
            # Applied type constructor: (Name T1 T2 ...)
            self._pos = pos + 2
            args: List[BType] = []
            while self._kinds[self._pos] != ")":
                args.append(self.parse_type())
            self._pos += 1
            return TCon(self._texts[pos + 1], tuple(args))
        if kind == "<" or kind == "[":
            saved = self._tvars
            type_params = self._type_params()
            self._expect("[")
            arg_types = self._list(self.parse_type)
            self._expect("]")
            result = self.parse_type()
            self._tvars = saved
            return MapType(type_params, arg_types, result)
        raise self._error("expected a type")

    # -- statements ------------------------------------------------------------

    def _parse_stmt_until(self, terminator: str) -> BStmt:
        blocks: List[StmtBlock] = []
        cmds: List[SimpleCmd] = []
        kinds = self._kinds
        while kinds[self._pos] != terminator:
            kind = kinds[self._pos]
            if kind == "if":
                self._pos += 1
                self._expect("(")
                cond: Optional[BExpr] = None if self._accept("*") else self.parse_expr()
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
            if kind == "assume":
                self._pos += 1
                cmd: SimpleCmd = Assume(self.parse_expr())
            elif kind == "assert":
                self._pos += 1
                cmd = BAssert(self.parse_expr())
            elif kind == "havoc":
                self._pos += 1
                cmd = Havoc(self._expect("ident"))
            else:
                name = self._expect("ident")
                self._expect(":=")
                cmd = Assign(name, self.parse_expr())
            self._expect(";")
            cmds.append(cmd)
        if cmds or not blocks:
            blocks.append(StmtBlock(tuple(cmds), None))
        return tuple(blocks)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self, min_prec: int = _IFF) -> BExpr:
        """Precedence climbing: consume operators that bind at least as
        tightly as ``min_prec``, and no looser than the last one built."""
        left = self._parse_unary()
        kinds = self._kinds
        max_prec = _MUL
        while True:
            entry = _BINARY.get(kinds[self._pos])
            if entry is None:
                return left
            prec, op = entry
            if prec < min_prec or prec > max_prec:
                return left
            self._pos += 1
            if prec == _MUL:
                right = self._parse_unary()
            else:
                # ``==>`` associates to the right: its right operand may be one.
                right = self.parse_expr(prec if prec == _IMPLIES else prec + 1)
            if (
                op is BBinOpKind.REAL_DIV
                and type(left) is BRealLit
                and type(right) is BRealLit
                and right.value != 0
            ):
                # Fold literal real fractions back: (1.0 / 2.0) -> BRealLit(1/2).
                left = BRealLit(left.value / right.value)
            else:
                left = BBinOp(op, left, right)
            max_prec = prec - 1 if prec == _CMP else prec

    def _parse_unary(self) -> BExpr:
        kind = self._kinds[self._pos]
        if kind == "-":
            self._pos += 1
            operand = self._parse_unary()
            if type(operand) is BIntLit:
                return BIntLit(-operand.value)
            if type(operand) is BRealLit:
                return BRealLit(-operand.value)
            return BUnOp(BUnOpKind.NEG, operand)
        if kind == "!":
            self._pos += 1
            return BUnOp(BUnOpKind.NOT, self._parse_unary())
        expr = self._parse_atom()
        while self._kinds[self._pos] == "[":
            self._pos += 1
            indices = self._list(self.parse_expr)
            if self._accept(":="):
                value = self.parse_expr()
                self._expect("]")
                expr = MapStore(expr, (), indices, value)
            else:
                self._expect("]")
                expr = MapSelect(expr, (), indices)
        return expr

    def _parse_atom(self) -> BExpr:
        pos = self._pos
        kind = self._kinds[pos]
        text = self._texts[pos]
        if kind == "ident":
            self._pos = pos + 1
            next_kind = self._kinds[pos + 1]
            if next_kind == "(":
                self._pos = pos + 2
                return FuncApp(text, (), self._parse_args())
            if next_kind == "<" and self._looks_like_type_args():
                self._pos = pos + 2
                type_args = self._list(self.parse_type)
                self._expect(">")
                self._expect("(")
                return FuncApp(text, type_args, self._parse_args())
            return BVar(text)
        if kind == "(":
            self._pos = pos + 1
            next_kind = self._kinds[pos + 1]
            if next_kind == "forall" or next_kind == "exists":
                expr = self._parse_quantifier()
            elif self._accept("if"):
                cond = self.parse_expr()
                self._expect("then")
                then = self.parse_expr()
                self._expect("else")
                expr = CondB(cond, then, self.parse_expr())
            else:
                expr = self.parse_expr()
            self._expect(")")
            return expr
        if kind == "true" or kind == "false":
            self._pos = pos + 1
            return BBoolLit(kind == "true")
        if kind == "int" or kind == "real":
            # ``int`` refuses the type keywords of the same kinds, and
            # ``isdigit`` characters such as '²': both are no expression.
            try:
                if kind == "int":
                    value: BExpr = BIntLit(int(text))
                else:
                    whole, _, frac = text.partition(".")
                    denominator = 10 ** len(frac)
                    value = BRealLit(Fraction(int(whole) * denominator + int(frac), denominator))
                self._pos = pos + 1
                return value
            except ValueError:
                pass
        raise self._error(f"expected an expression, found {text!r}")

    def _looks_like_type_args(self) -> bool:
        """Disambiguate ``f<T>(...)`` from ``a < b``: scan for `>` then `(`.

        Parentheses may occur *inside* the type-argument list (applied type
        constructors like ``(Field int)``), so only an unbalanced `)` aborts.
        Looks at most 40 tokens past the `<`.
        """
        kinds = self._kinds
        angle_depth = 0
        paren_depth = 0
        for pos in range(self._pos, self._pos + 41):
            kind = kinds[pos]
            if kind == "eof":
                return False
            if kind == "<":
                angle_depth += 1
            elif kind == ">":
                angle_depth -= 1
                if angle_depth == 0:
                    return kinds[pos + 1] == "("
            elif kind == "(":
                paren_depth += 1
            elif kind == ")":
                if paren_depth == 0:
                    return False
                paren_depth -= 1
            elif kind in _NOT_IN_TYPE_ARGS:
                return False
        return False

    def _parse_args(self) -> Tuple[BExpr, ...]:
        """``(expr (, expr)*)?`` and the closing `)`."""
        args = self._list(self.parse_expr) if self._kinds[self._pos] != ")" else ()
        self._expect(")")
        return args

    def _parse_quantifier(self) -> BExpr:
        ctor = Forall if self._kinds[self._pos] == "forall" else Exists
        self._pos += 1
        saved = self._tvars
        type_vars = self._type_params()
        bound = self._list(self._typed_name) if self._kinds[self._pos] != "::" else ()
        self._expect("::")
        body = self.parse_expr()
        self._tvars = saved
        return ctor(type_vars, bound, body)

    def run(self, parse):
        """``parse()``, with nesting too deep to recurse over reported as a
        syntax error at the token reached."""
        try:
            return parse()
        except RecursionError:
            raise self._error("expression nested too deeply") from None


def parse_boogie_program(source: str) -> BoogieProgram:
    """Parse a complete Boogie program."""
    parser = _BoogieParser(source)
    return parser.run(parser.parse_program)


def parse_boogie_expr(source: str, type_vars: Tuple[str, ...] = ()) -> BExpr:
    """Parse a single Boogie expression (``type_vars`` are in scope)."""
    parser = _BoogieParser(source, type_vars)

    def parse() -> BExpr:
        expr = parser.parse_expr()
        parser._expect("eof")
        return expr

    return parser.run(parse)
