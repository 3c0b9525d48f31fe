"""Independent validation of UCLID5 module text.

This module has its own tokenizer, parser, and typechecker so that it can
serve as a cross-check on the compiler: none of the typing logic is shared
with `uclid.py` or `constraints.py`. Types are represented as plain tuples
("bool",), ("int",), ("real",), ("bv", n), ("enum", tags...), and
("arr", index, elem).

`parse_uclid` additionally reconstructs a `UclidModule`, so text can be
round-tripped through `print_uclid`.

The accepted layout is deliberately looser than what the compiler prints:
declarations may list several names per line, a `modifies` clause may name
several variables, and the next block may either call a procedure or
contain statements directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .ast_core import (
    ArraySelect,
    ArrayType,
    Assert,
    Assign,
    Assume,
    BOOL,
    BVLit,
    BVType,
    Binary,
    BoolLit,
    EnumType,
    Expr,
    Havoc,
    IDENTIFIER_PATTERN,
    If,
    INT,
    IntLit,
    Ite,
    REAL,
    RealLit,
    Stmt,
    SynonymType,
    TypeTerm,
    Unary,
    VarRef,
    identifier_head,
    left_spine,
)
from .uclid import UclidModule


class UclidParseError(ValueError):
    pass


@dataclass(unsafe_hash=True, slots=True)
class Diagnostic:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One token per match: a match first passes over any whitespace and
# comments, then takes the first of these that fits. A name is an
# identifier (`IDENTIFIER_PATTERN`, whose head `identifier_head` checks);
# it comes first, as the commonest token, and no other alternative starts
# with a word character that is not a decimal digit, so its place changes
# no match. `bad` takes a character that starts no token and `end`
# matches only at the end of the text, so a match never fails and never
# backtracks into the whitespace.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:(?://[^\n]*|/\*.*?\*/)\s*)*
    (?:
      (?P<name>""" + IDENTIFIER_PATTERN + r""")
    | (?P<bv>\d+bv\d+)
    | (?P<real>\d+\.\d+)
    | (?P<int>\d+)
    | (?P<op>==>|==|!=|<=|>=|<<|>>|\+\+|&&|\|\||[-+*/%&|^!<>=:;,(){}\[\]])
    | (?P<bad>.)
    | (?P<end>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


#: the last token of every token list: the parser reads the list by
#: index with no bound check, and this token matches no expected value
_EOF = ("end", "")


def _untokenizable(text: str, at: int) -> UclidParseError:
    return UclidParseError(f"cannot tokenize at offset {at}: "
                           f"{text[at:at + 20]!r}")


def _lex(text: str) -> list[tuple[str, str]]:
    """The (kind, text) tokens of `text`, then `_EOF`."""
    toks: list[tuple[str, str]] = []
    append = toks.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        at = m.start(kind)
        value = text[at:m.end()]
        if kind == "name":
            # an ASCII word character that starts a name is a letter or
            # `_`; only another head needs the identifier test
            if value >= "\x80" and not identifier_head(value[0]):
                raise _untokenizable(text, at)
        elif kind != "op":
            if kind == "end":
                break
            if kind == "bad":
                raise _untokenizable(text, at)
        append((kind, value))
    append(_EOF)
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Binary operators: token -> (operator, precedence), loosest first. `==>`,
# looser than all of them and right-associative, is parsed by `_implies`.
_BINOPS = {
    "||": ("or", 1),
    "&&": ("and", 2),
    "==": ("==", 3), "!=": ("!=", 3), "<": ("<", 3), "<=": ("<=", 3),
    ">": (">", 3), ">=": (">=", 3),
    "|": ("bvor", 4),
    "^": ("xor", 5),
    "&": ("bvand", 6),
    "<<": ("shl", 7), ">>": ("lshr", 7),
    "++": ("concat", 8),
    "+": ("+", 9), "-": ("-", 9),
    "*": ("*", 10), "/": ("div", 10), "%": ("mod", 10),
}
_NO_OP = (None, 0)

# The deepest nesting of parentheses, subscripts, `ite` arguments, prefix
# operators and `==>` right operands accepted in one expression. A level
# costs about six Python frames, so this stays well inside the default
# recursion limit; deeper text is a parse error.
MAX_NESTING = 100

# The deepest nesting of `if` bodies accepted in one block. The parser and
# the checker each take about two frames per level; `else if` and an
# `else {` block that opens with `if` are read in a loop and count no
# level. The frontend nests blocks at most 80 deep, so compiled output
# never reaches this; deeper text is a parse error.
MAX_IF_NESTING = 100


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # past Python's int-string digit limit
        raise UclidParseError(
            f"integer literal of {len(text)} digits is too long") from None


_STMT_KEYWORDS = frozenset(("havoc", "assume", "assert", "if"))


class _Parser:
    """Recursive descent over a token list from `_lex`, which ends in
    `_EOF`; `i` is the next token."""

    def __init__(self, toks: list[tuple[str, str]]):
        self.toks = toks
        self.i = 0
        self.depth = 0
        self.if_depth = 0

    def next(self) -> tuple[str, str]:
        t = self.toks[self.i]
        if t is _EOF:
            raise UclidParseError("unexpected end of input")
        self.i += 1
        return t

    def accept(self, value: str) -> bool:
        if self.toks[self.i][1] == value:
            self.i += 1
            return True
        return False

    def expect(self, value: str) -> None:
        got = self.next()[1]
        if got != value:
            raise UclidParseError(f"expected {value!r}, got {got!r}")

    def name(self) -> str:
        kind, value = self.next()
        if kind != "name":
            raise UclidParseError(f"expected identifier, got {value!r}")
        return value

    # -- module ---------------------------------------------------------------

    def module(self) -> UclidModule:
        self.expect("module")
        m = UclidModule(name=self.name())
        procedures: dict[str, list[str]] = {}
        proc_bodies: dict[str, list[Stmt]] = {}
        next_calls: list[str] = []
        self.expect("{")
        while not self.accept("}"):
            kind, value = self.next()
            if value == "type":
                tname = self.name()
                self.expect("=")
                m.type_defs.append((tname, self.type_()))
                self.expect(";")
            elif value in ("var", "input", "output", "sharedvar"):
                names = [self.name()]
                while self.accept(","):
                    names.append(self.name())
                self.expect(":")
                ty = self.type_()
                self.expect(";")
                dest = {"var": m.vars, "input": m.inputs,
                        "output": m.outputs, "sharedvar": m.vars}[value]
                dest.extend((n, ty) for n in names)
            elif value == "init":
                m.init_body.extend(self.block())
            elif value == "next":
                body, calls = self.next_block()
                m.next_body.extend(body)
                next_calls.extend(calls)
            elif value == "procedure":
                pname = self.name()
                self.expect("(")
                self.expect(")")
                mods: list[str] = []
                while self.accept("modifies"):
                    mods.append(self.name())
                    while self.accept(","):
                        mods.append(self.name())
                    self.expect(";")
                procedures[pname] = mods
                proc_bodies[pname] = self.block()
            elif value in ("invariant", "property"):
                iname = self.name()
                self.expect(":")
                m.invariants.append((iname, self.expr()))
                self.expect(";")
            else:
                raise UclidParseError(f"unexpected {value!r} in module body")
        if self.toks[self.i] is not _EOF:
            raise UclidParseError(f"trailing input after module: "
                                  f"{self.toks[self.i][1]!r}")
        # resolve procedure calls in next into the effective next body
        for pname in next_calls:
            if pname not in proc_bodies:
                raise UclidParseError(f"call to unknown procedure {pname!r}")
            m.next_body.extend(proc_bodies[pname])
            m.modifies.extend(procedures[pname])
        if not next_calls:
            # the effective write set is whatever next writes directly
            m.modifies.extend(_written(m.next_body))
        return m

    def next_block(self) -> tuple[list[Stmt], list[str]]:
        self.expect("{")
        body: list[Stmt] = []
        calls: list[str] = []
        while not self.accept("}"):
            if self.accept("call"):
                calls.append(self.name())
                self.expect("(")
                self.expect(")")
                self.expect(";")
            else:
                body.append(self.stmt())
        return body, calls

    def block(self) -> list[Stmt]:
        self.expect("{")
        return self.block_rest()

    def block_rest(self) -> list[Stmt]:
        out: list[Stmt] = []
        while not self.accept("}"):
            out.append(self.stmt())
        return out

    def stmt(self) -> Stmt:
        head = self.toks[self.i][1]
        if head not in _STMT_KEYWORDS:
            lhs: Expr = VarRef(self.name())
            while self.accept("["):
                idx = self.expr()
                self.expect("]")
                lhs = ArraySelect(lhs, idx)
            self.expect("=")
            rhs = self.expr()
            self.expect(";")
            return Assign(lhs, rhs)
        self.i += 1
        if head == "havoc":
            name = self.name()
            self.expect(";")
            return Havoc(name)
        if head == "assume" or head == "assert":
            self.expect("(")
            e = self.expr()
            self.expect(")")
            self.expect(";")
            return Assume(e) if head == "assume" else Assert(e)
        if head == "if":
            if self.if_depth == MAX_IF_NESTING:
                raise UclidParseError(
                    f"if statements nested deeper than {MAX_IF_NESTING} levels")
            self.if_depth += 1
            # a chain is read in a loop, not a frame per arm: `else if` and
            # an `else {` block that opens with `if` each add an arm
            arms: list[tuple[Expr, tuple[Stmt, ...]]] = []
            opened: list[int] = []  # where each open block's arms start
            orelse: tuple[Stmt, ...] = ()
            while True:
                self.expect("(")
                cond = self.expr()
                self.expect(")")
                self.expect("{")
                arms.append((cond, tuple(self.block_rest())))
                if not self.accept("else"):
                    break
                if self.accept("if"):
                    continue
                self.expect("{")
                if not self.accept("if"):
                    orelse = tuple(self.block_rest())
                    break
                opened.append(len(arms))
            # close the open blocks innermost first; statements after the
            # `if` in one make its arms an `If` of their own, followed by them
            while opened:
                start = opened.pop()
                rest = self.block_rest()
                if rest:
                    orelse = (If(tuple(arms[start:]), orelse), *rest)
                    del arms[start:]
            self.if_depth -= 1
            return If(tuple(arms), orelse)

    # -- types ----------------------------------------------------------------

    def type_(self) -> TypeTerm:
        if self.accept("boolean"):
            return BOOL
        if self.accept("integer"):
            return INT
        if self.accept("real"):
            return REAL
        if self.accept("enum"):
            self.expect("{")
            tags = [self.name()]
            while self.accept(","):
                tags.append(self.name())
            self.expect("}")
            if len(set(tags)) != len(tags):
                raise UclidParseError(f"enum lists a tag twice: {tags}")
            return EnumType(tuple(tags))
        if self.accept("["):
            idx = self.type_()
            self.expect("]")
            return ArrayType(idx, self.type_())
        kind, value = self.next()
        if kind != "name":
            raise UclidParseError(f"expected a type, got {value!r}")
        m = re.fullmatch(r"bv(\d+)", value)
        if m:
            width = _int(m.group(1))
            if width < 1:
                raise UclidParseError(f"bitvector type {value!r} has no bits")
            return BVType(width)
        return SynonymType(value)

    # -- expressions ------------------------------------------------------------

    def expr(self) -> Expr:
        return self._implies()

    def _down(self) -> None:
        """Enter one nesting level; the caller leaves it by lowering
        `depth` after parsing the body. A failed parse is abandoned as a
        whole, so the level is only left on success."""
        if self.depth == MAX_NESTING:
            raise UclidParseError(
                f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1

    def _implies(self) -> Expr:
        left = self._binary(1)
        if self.toks[self.i][1] != "==>":
            return left
        self.i += 1
        self._down()
        right = self._implies()
        self.depth -= 1
        return Binary("implies", left, right)

    def _binary(self, min_prec: int) -> Expr:
        """Precedence climbing over `_BINOPS`: operands bind to operators
        of at least `min_prec`; equal levels associate to the left."""
        toks = self.toks
        node = self._unary()
        while True:
            op, prec = _BINOPS.get(toks[self.i][1], _NO_OP)
            if prec < min_prec:
                return node
            self.i += 1
            node = Binary(op, node, self._binary(prec + 1))

    def _unary(self) -> Expr:
        head = self.toks[self.i][1]
        if head != "!" and head != "-":
            return self._postfix()
        self.i += 1
        self._down()
        operand = self._unary()
        self.depth -= 1
        return Unary("not" if head == "!" else "neg", operand)

    def _postfix(self) -> Expr:
        toks = self.toks
        node = self._atom()
        while toks[self.i][1] == "[":
            self.i += 1
            self._down()
            idx = self.expr()
            self.depth -= 1
            self.expect("]")
            node = ArraySelect(node, idx)
        return node

    def _atom(self) -> Expr:
        kind, value = self.next()
        if kind == "name":
            if value == "true":
                return BoolLit(True)
            if value == "false":
                return BoolLit(False)
            if value != "ite":
                return VarRef(value)
            self.expect("(")
            self._down()
            c = self.expr()
            self.expect(",")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.depth -= 1
            self.expect(")")
            return Ite(c, a, b)
        if kind == "int":
            return IntLit(_int(value))
        if value == "(":
            self._down()
            e = self.expr()
            self.depth -= 1
            self.expect(")")
            return e
        if kind == "bv":
            v, w = value.split("bv")
            return BVLit(_int(v), _int(w))
        if kind == "real":
            return RealLit(float(value))
        raise UclidParseError(f"unexpected token {value!r} in expression")


def _written(body) -> list[str]:
    out: list[str] = []

    def walk(stmts) -> None:
        for s in stmts:
            if isinstance(s, Assign):
                e = s.lhs
                while isinstance(e, ArraySelect):
                    e = e.array
                if isinstance(e, VarRef) and e.name not in out:
                    out.append(e.name)
            elif isinstance(s, Havoc):
                if s.name not in out:
                    out.append(s.name)
            elif isinstance(s, If):
                for _, then in s.arms:
                    walk(then)
                walk(s.orelse)

    walk(body)
    return out


def parse_uclid(text: str) -> UclidModule:
    """Parse UCLID5 module text; raises UclidParseError on malformed input."""
    return _Parser(_lex(text)).module()


# ---------------------------------------------------------------------------
# Typechecker (tuple-based, independent of the constraint generator)
# ---------------------------------------------------------------------------

TyTuple = tuple

_NUMERIC = ("int", "real", "bv")

# UCLID5 reserved words, kept apart from the compiler's list so that a
# name the compiler forgets to respell is caught here
_RESERVED = frozenset(
    """module init next var input output type const function define
    procedure returns modifies requires ensures call havoc assume assert
    invariant property axiom control if else case esac for while skip
    forall exists boolean integer real true false enum record instance
    sharedvar synthesis grammar parameter group""".split()
)


class _Checker:
    def __init__(self, m: UclidModule):
        self.m = m
        self.diags: list[Diagnostic] = []
        self.typedefs: dict[str, TyTuple] = {}
        self.env: dict[str, TyTuple] = {}
        self.inputs: set[str] = set()
        self.enum_tags: dict[str, TyTuple] = {}

    def err(self, code: str, message: str) -> None:
        self.diags.append(Diagnostic(code, message))

    def tuple_of(self, t: TypeTerm) -> Optional[TyTuple]:
        if isinstance(t, SynonymType):
            got = self.typedefs.get(t.name)
            if got is None:
                self.err("undefined-type", f"unknown type {t.name!r}")
            return got
        if isinstance(t, EnumType):
            return ("enum",) + t.tags
        if isinstance(t, ArrayType):
            i = self.tuple_of(t.index)
            e = self.tuple_of(t.elem)
            return ("arr", i, e) if i is not None and e is not None else None
        if isinstance(t, BVType):
            return ("bv", t.width)
        name = type(t).__name__
        return {"BoolType": ("bool",), "IntType": ("int",),
                "RealType": ("real",)}.get(name)

    # -- checks ------------------------------------------------------------

    def reserved(self, what: str, name: str) -> None:
        if name in _RESERVED:
            self.err("reserved-word", f"{what} {name!r} is a reserved word")

    def run(self) -> list[Diagnostic]:
        for name, ty in self.m.type_defs:
            self.reserved("type", name)
            if name in self.typedefs:
                self.err("duplicate-type", f"type {name!r} declared twice")
            got = self.tuple_of(ty)
            if got is not None:
                self.typedefs[name] = got
        for section, names in (
            ("var", self.m.vars), ("input", self.m.inputs),
            ("output", self.m.outputs),
        ):
            for name, ty in names:
                self.reserved(section, name)
                if name in self.env:
                    self.err(
                        "duplicate-declaration",
                        f"variable {name!r} declared more than once",
                    )
                    continue
                got = self.tuple_of(ty)
                if got is None:
                    continue
                self.env[name] = got
                if section == "input":
                    self.inputs.add(name)
                self._register_tags(got)
        for name, ty in self.typedefs.items():
            self._register_tags(ty)
        # a tag and a variable share one namespace, whichever comes first
        for tag in self.enum_tags:
            if tag in self.env:
                self.err("tag-variable",
                         f"enum tag {tag!r} is spelled like a variable")

        self.check_body(self.m.init_body, "init")
        self.check_body(self.m.next_body, "next")
        for name, e in self.m.invariants:
            ty = self.expr_type(e)
            if ty is not None and ty != ("bool",):
                self.err(
                    "invariant-not-boolean",
                    f"invariant {name!r} has type {ty}",
                )
        self._check_modifies()
        return self.diags

    def _register_tags(self, ty: TyTuple) -> None:
        if ty[0] == "enum":
            for tag in ty[1:]:
                if tag not in self.enum_tags:
                    self.reserved("enum tag", tag)
                elif self.enum_tags[tag] != ty:
                    self.err(
                        "ambiguous-tag",
                        f"enum tag {tag!r} belongs to two types",
                    )
                self.enum_tags[tag] = ty
        elif ty[0] == "arr":
            self._register_tags(ty[1])
            self._register_tags(ty[2])

    def _check_modifies(self) -> None:
        declared = set(self.m.modifies)
        actual = set(_written(self.m.next_body))
        for name in sorted(actual - declared):
            self.err("missing-modifies",
                     f"next writes {name!r} without declaring it in modifies")
        for name in sorted(declared - actual):
            self.err("stale-modifies",
                     f"modifies lists {name!r} but next never writes it")

    def check_body(self, body, where: str) -> None:
        for s in body:
            self.check_stmt(s, where)

    def check_stmt(self, s: Stmt, where: str) -> None:
        if isinstance(s, Assign):
            lt = self.lvalue_type(s.lhs)
            rt = self.expr_type(s.rhs)
            if lt is not None and rt is not None and lt != rt:
                self.err(
                    "assign-mismatch",
                    f"cannot assign {rt} to {lt} in {where}",
                )
        elif isinstance(s, Havoc):
            if s.name not in self.env:
                self.err("undeclared", f"havoc of undeclared {s.name!r}")
            elif s.name in self.inputs:
                self.err("input-write", f"havoc of input {s.name!r}")
        elif isinstance(s, (Assume, Assert)):
            ty = self.expr_type(s.cond)
            if ty is not None and ty != ("bool",):
                self.err("condition-not-boolean",
                         f"condition in {where} has type {ty}")
        elif isinstance(s, If):
            for cond, body in s.arms:
                ty = self.expr_type(cond)
                if ty is not None and ty != ("bool",):
                    self.err("condition-not-boolean",
                             f"if condition in {where} has type {ty}")
                self.check_body(body, where)
            self.check_body(s.orelse, where)
        else:
            self.err("unsupported", f"unsupported statement {s!r}")

    def lvalue_type(self, e: Expr) -> Optional[TyTuple]:
        # the parser roots every assignment target at a variable
        base = e
        while isinstance(base, ArraySelect):
            base = base.array
        if base.name not in self.env:
            self.err("undeclared",
                     f"assignment to undeclared {base.name!r}")
            return None
        if base.name in self.inputs:
            self.err("input-write", f"assignment to input {base.name!r}")
        return self.expr_type(e)

    # -- expression typing ---------------------------------------------------

    def expr_type(self, e: Expr) -> Optional[TyTuple]:
        if isinstance(e, BoolLit):
            return ("bool",)
        if isinstance(e, IntLit):
            return ("int",)
        if isinstance(e, RealLit):
            return ("real",)
        if isinstance(e, BVLit):
            return ("bv", e.width)
        if isinstance(e, VarRef):
            got = self.env.get(e.name)
            if got is None:
                tag = self.enum_tags.get(e.name)
                if tag is not None:
                    return tag
                self.err("undeclared", f"use of undeclared {e.name!r}")
            return got
        if isinstance(e, Unary):
            ty = self.expr_type(e.operand)
            if ty is None:
                return None
            if e.op == "not":
                if ty != ("bool",):
                    self.err("operand-type", f"! applied to {ty}")
                return ("bool",)
            if ty[0] not in _NUMERIC:
                self.err("operand-type", f"unary - applied to {ty}")
                return None
            return ty
        if isinstance(e, Binary):
            spine = left_spine(e)
            ty = self.expr_type(spine[-1].left)
            for b in reversed(spine):
                ty = self.binary_type(b.op, ty, self.expr_type(b.right))
            return ty
        if isinstance(e, Ite):
            ct = self.expr_type(e.cond)
            if ct is not None and ct != ("bool",):
                self.err("condition-not-boolean",
                         f"ite condition has type {ct}")
            at = self.expr_type(e.then)
            bt = self.expr_type(e.other)
            if at is not None and bt is not None and at != bt:
                self.err("ite-mismatch", f"ite branches differ: {at} vs {bt}")
                return None
            return at or bt
        if isinstance(e, ArraySelect):
            arr = self.expr_type(e.array)
            idx = self.expr_type(e.index)
            if arr is None:
                return None
            if arr[0] != "arr":
                self.err("operand-type", f"indexing into {arr}")
                return None
            if idx is not None and idx != arr[1]:
                self.err("index-type",
                         f"index has type {idx}, expected {arr[1]}")
            return arr[2]
        self.err("unsupported", f"unsupported expression {e!r}")
        return None

    def binary_type(self, op: str, lt: Optional[TyTuple],
                    rt: Optional[TyTuple]) -> Optional[TyTuple]:
        if lt is None or rt is None:
            return ("bool",) if op in (
                "and", "or", "implies", "==", "!=", "<", "<=", ">", ">="
            ) else None
        if op in ("and", "or", "implies"):
            for ty in (lt, rt):
                if ty != ("bool",):
                    self.err("operand-type", f"{op} applied to {ty}")
            return ("bool",)
        if op in ("==", "!="):
            if lt != rt:
                self.err("compare-mismatch", f"comparing {lt} with {rt}")
            return ("bool",)
        if op in ("<", "<=", ">", ">="):
            if lt != rt:
                self.err("compare-mismatch", f"comparing {lt} with {rt}")
            elif lt[0] not in _NUMERIC:
                self.err("operand-type", f"{op} applied to {lt}")
            return ("bool",)
        if op in ("+", "-", "*"):
            if lt != rt:
                self.err("arith-mismatch", f"{op} on {lt} and {rt}")
                return None
            if lt[0] not in _NUMERIC:
                self.err("operand-type", f"{op} applied to {lt}")
                return None
            return lt
        if op in ("div", "mod"):
            if lt != ("int",) or rt != ("int",):
                self.err("operand-type",
                         f"{op} needs integers, got {lt} and {rt}")
                return None
            return ("int",)
        if op == "xor":
            if lt != rt:
                self.err("arith-mismatch", f"^ on {lt} and {rt}")
                return None
            if lt[0] not in ("bool", "bv"):
                self.err("operand-type", f"^ applied to {lt}")
                return None
            return lt
        if op in ("bvand", "bvor", "shl", "lshr"):
            if lt != rt:
                self.err("arith-mismatch", f"{op} on {lt} and {rt}")
                return None
            if lt[0] != "bv":
                self.err("operand-type", f"{op} applied to {lt}")
                return None
            return lt
        if op == "concat":
            if lt[0] != "bv" or rt[0] != "bv":
                self.err("operand-type", f"++ on {lt} and {rt}")
                return None
            return ("bv", lt[1] + rt[1])
        self.err("unsupported", f"unsupported operator {op!r}")
        return None


def validate_uclid(text: str) -> list[Diagnostic]:
    """All problems with a UCLID5 module; empty means it passed."""
    try:
        module = parse_uclid(text)
    except UclidParseError as exc:
        return [Diagnostic("parse-error", str(exc))]
    return _Checker(module).run()
