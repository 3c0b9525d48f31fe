"""Error-tolerant parsing of LLM output and pruning to the module language.

The surface syntax is an indentation-delimited, class-based scripting
notation (a Python subset). `parse_tolerant` is total: anything it cannot
parse becomes an error node and recovery re-synchronizes on the next line
at the same or lower indentation. A line holding a character outside the
surface alphabet (an emoji, a stray `?`, a non-decimal digit such as `²`)
is such an error node, so pruning turns it into a hole. `prune_to_child`
keeps the maximal subtree expressible in the module language, inserting
holes in mandatory slots and dropping (and logging) everything else. In
`specification`, `return e` and `assert e` both state the invariant `e`;
any other statement becomes a hole invariant.
"""

from __future__ import annotations

import copy
import functools
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import Decimal
from typing import NamedTuple

from .ast_core import (
    ArraySelect,
    ArrayType,
    Assert,
    Assign,
    Assume,
    BOOL,
    BVLit,
    BVType,
    BoolLit,
    ChildProgram,
    Decl,
    DeclValue,
    EnumLit,
    EnumType,
    Expr,
    Havoc,
    HoleDecl,
    HoleExpr,
    HoleStmt,
    HoleType,
    If,
    INT,
    IntLit,
    Ite,
    PNode,
    ParentAst,
    REAL,
    RealLit,
    Span,
    Stmt,
    SynonymType,
    TypeAnnot,
    TypeTerm,
    Unary,
    Binary,
    VarRef,
    IDENTIFIER_PATTERN,
    format_real,
    format_type,
    identifier_head,
    is_identifier,
    iter_pnodes,
    left_spine,
    node_index,
)


class ExtractError(ValueError):
    """Raised when no source text can be extracted from an LLM response."""


SECTION_METHODS = (
    "types", "locals", "inputs", "outputs", "init", "next", "specification",
)

BASE_CLASS = "Module"


# ---------------------------------------------------------------------------
# Code extraction
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"^\s*```", re.MULTILINE)
_DECL_LINE_RE = re.compile(r"^(class\s+\w|import\s+\w|from\s+\w)", re.MULTILINE)


def extract_code(llm_response: str) -> str:
    """Pull source text out of a raw LLM response.

    Policy: the contents of the first fenced code block win. A single fence
    is treated as the terminator of a block opened by the prompt when code
    precedes it. Without any fence, the longest suffix starting at a line
    that begins a class or import declaration is used; failing that, the
    whole response is returned.
    """
    if not llm_response.strip():
        raise ExtractError("empty LLM response")
    fences = list(_FENCE_RE.finditer(llm_response))
    if len(fences) >= 2:
        start = llm_response.index("\n", fences[0].start())
        return llm_response[start + 1 : fences[1].start()].strip("\n")
    if len(fences) == 1:
        before = llm_response[: fences[0].start()]
        after = llm_response[fences[0].end() :]
        after = after[after.index("\n") + 1 :] if "\n" in after else ""
        if _DECL_LINE_RE.search(before):
            return before.strip("\n")
        return after.strip("\n")
    m = _DECL_LINE_RE.search(llm_response)
    if m:
        return llm_response[m.start() :].strip("\n")
    return llm_response


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Tok(NamedTuple):
    kind: str  # NAME, INT, FLOAT, STR, OP, HOLE
    value: str
    pos: int  # byte offset into the source


# One token per match: a match first passes over blanks and a `#`
# comment, then takes the first of these that fits. Only decimal digits
# make a number. NAME is the identifier pattern, which also admits a
# leading non-decimal digit such as `²`; the scan rejects that. A quoted
# string ends on its line; an unterminated triple-quoted one matches
# OPEN, any other character that starts no token matches BAD, and END
# matches only at the end of the source, so a match never fails and
# never backtracks into the blanks.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*(?:\#[^\n]*)?
    (?:
      (?P<NL>\n)
    | (?P<TRIPLE>'{3}.*?'{3}|"{3}.*?"{3})
    | (?P<OPEN>'{3}|"{3})
    | (?P<QUOTED>'(?:[^'\\\n]|\\[^\n])*'|"(?:[^"\\\n]|\\[^\n])*")
    | (?P<FLOAT>\d*\.\d+)
    | (?P<INT>\d+)
    | (?P<NAME>""" + IDENTIFIER_PATTERN + r""")
    | (?P<HOLE>\?\?)
    | (?P<OP>\*\*=|//=|==|!=|<=|>=|<<|>>|//|\*\*|\+=|-=|\*=|/=|%=|&=|\|=|\^=|->
            |[()\[\]{}:,.=+\-*/%<>&|^~@;])
    | (?P<BAD>.)
    | (?P<END>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)")

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "//=", "%=", "&=", "|=", "^=")


@dataclass
class _Line:
    indent: int
    toks: list[Tok]
    span: Span
    bad: bool = False  # an unknown character or an unterminated string
    assign: int | None = None  # index of the first depth-0 `=` or `op=`


def _line_end(source: str, pos: int) -> int:
    end = source.find("\n", pos)
    return len(source) if end < 0 else end


def _logical_lines(source: str) -> list[_Line]:
    """Tokenize in one forward scan. A logical line starts at a physical
    line that is neither blank nor a comment, and ends at a newline where
    no bracket is open. A bad character empties its logical line and ends
    it at its physical line; an unterminated triple-quoted string makes
    the rest of the source one bad line."""
    out: list[_Line] = []
    finditer = _TOKEN_RE.finditer
    start = 0
    while start <= len(source):
        text = source[start : _line_end(source, start)]
        stripped = text.strip()
        if not stripped or stripped.startswith("#"):
            start += len(text) + 1
            continue
        lead = text[: len(text) - len(text.lstrip(" \t"))]
        indent = len(lead) + 3 * lead.count("\t")  # a tab counts as four
        toks: list[Tok] = []
        depth, assign, bad = 0, None, False
        # every line ends in a break: END matches at the end of the source
        for m in finditer(source, start):
            kind = m.lastgroup
            at, end = m.span(m.lastindex)
            if kind == "END" or (kind == "NL" and depth <= 0):
                break
            if kind in ("OPEN", "BAD") or (
                    kind == "NAME" and not identifier_head(source[at])):
                toks, assign, bad = [], None, True
                at = len(source) if kind == "OPEN" else _line_end(source, at)
                break
            value = source[at:end]
            if kind == "TRIPLE":
                kind, value = "STR", value[3:-3]
            elif kind == "QUOTED":
                kind, value = "STR", _ESCAPE_RE.sub(r"\1", value[1:-1])
            elif kind == "OP":
                if value in ("(", "[", "{"):
                    depth += 1
                elif value in (")", "]", "}"):
                    depth -= 1
                elif depth == 0 and assign is None and value in _ASSIGN_OPS:
                    assign = len(toks)
            if kind != "NL":
                toks.append(Tok(kind, value, at))
        out.append(_Line(indent, toks, Span(start, at), bad, assign))
        start = at + 1
    return out


# ---------------------------------------------------------------------------
# Expression parsing (precedence climbing over one logical line)
# ---------------------------------------------------------------------------

class _ParseFail(Exception):
    pass


# Binary operators: surface spelling -> (module-language operator,
# precedence). The order of the levels is Python's, loosest first; prefix
# `not` sits at _NOT_PREC, between `and` and the comparisons.
_BINOPS = {
    "or": ("or", 1),
    "and": ("and", 2),
    "==": ("==", 4), "!=": ("!=", 4), "<": ("<", 4), "<=": ("<=", 4),
    ">": (">", 4), ">=": (">=", 4),
    "|": ("bvor", 5),
    "^": ("xor", 6),
    "&": ("bvand", 7),
    "<<": ("shl", 8), ">>": ("lshr", 8),
    "+": ("+", 9), "-": ("-", 9),
    "*": ("*", 10), "/": ("div", 10), "//": ("div", 10), "%": ("mod", 10),
}
_NOT_PREC = 3

# The deepest nesting of parentheses, subscripts, call arguments,
# conditional expressions and prefix operators accepted in one line. A
# level costs about six Python frames, so this stays well inside the
# default recursion limit; a deeper line becomes an error node.
MAX_NESTING = 100


class _ExprParser:
    def __init__(self, toks: list[Tok]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self) -> Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Tok:
        t = self.peek()
        if t is None:
            raise _ParseFail("unexpected end of line")
        self.i += 1
        return t

    def expect(self, value: str) -> Tok:
        t = self.next()
        if t.value != value:
            raise _ParseFail(f"expected {value!r}, got {t.value!r}")
        return t

    def at(self, value: str) -> bool:
        t = self.peek()
        return t is not None and t.value == value and t.kind in ("OP", "NAME")

    def span_from(self, tok: Tok) -> Span:
        end = self.toks[self.i - 1] if self.i > 0 else tok
        return Span(tok.pos, end.pos + len(end.value))

    def parse(self) -> PNode:
        return self.ternary()

    @contextmanager
    def _nested(self):
        """Parse the body one nesting level down. A failed parse is
        abandoned as a whole, so the level is only left on success."""
        if self.depth == MAX_NESTING:
            raise _ParseFail(
                f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        yield
        self.depth -= 1

    def ternary(self) -> PNode:
        start = self.peek()
        body = self.binary()
        if self.at("if"):
            self.next()
            cond = self.binary()
            self.expect("else")
            with self._nested():
                other = self.ternary()
            return PNode("ifexp", (body, cond, other), span=self.span_from(start))
        return body

    def binary(self, min_prec: int = 1) -> PNode:
        """Precedence climbing over `_BINOPS`: operands bind to operators
        of at least `min_prec`; equal levels associate to the left."""
        start = self.peek()
        if min_prec <= _NOT_PREC and self.at("not"):
            self.next()
            with self._nested():
                operand = self.binary(_NOT_PREC)
            node = PNode("unop", (operand,), "not", span=self.span_from(start))
        else:
            node = self.unary()
        while True:
            t = self.peek()
            if t is None or t.kind not in ("OP", "NAME"):
                return node
            prec = _BINOPS.get(t.value, (None, 0))[1]
            if prec < min_prec:
                return node
            self.next()
            rhs = self.binary(prec + 1)
            node = PNode("binop", (node, rhs), t.value, span=self.span_from(start))

    def unary(self) -> PNode:
        t = self.peek()
        if t is not None and t.kind == "OP" and t.value in ("-", "+", "~"):
            self.next()
            with self._nested():
                operand = self.unary()
            if t.value == "+":
                return operand
            return PNode("unop", (operand,), t.value, span=self.span_from(t))
        return self.postfix()

    def postfix(self) -> PNode:
        node = self.atom()
        while True:
            t = self.peek()
            if t is None or t.kind != "OP":
                return node
            if t.value == ".":
                self.next()
                name = self.next()
                if name.kind != "NAME":
                    raise _ParseFail("expected attribute name")
                node = PNode(
                    "attr", (node,), name.value,
                    span=Span(node.span.start, name.pos + len(name.value)),
                )
            elif t.value == "(":
                self.next()
                args = []
                with self._nested():
                    if not self.at(")"):
                        args.append(self.parse())
                        while self.at(","):
                            self.next()
                            if self.at(")"):
                                break
                            args.append(self.parse())
                close = self.expect(")")
                node = PNode(
                    "call", (node, *args), "",
                    span=Span(node.span.start, close.pos + 1),
                )
            elif t.value == "[":
                self.next()
                with self._nested():
                    idx = self.parse()
                close = self.expect("]")
                node = PNode(
                    "subscript", (node, idx), "",
                    span=Span(node.span.start, close.pos + 1),
                )
            else:
                return node

    def atom(self) -> PNode:
        t = self.next()
        sp = Span(t.pos, t.pos + len(t.value))
        if t.kind == "HOLE":
            return PNode("hole", span=sp)
        if t.kind == "INT":
            return PNode("int", text=t.value, span=sp)
        if t.kind == "FLOAT":
            return PNode("float", text=t.value, span=sp)
        if t.kind == "STR":
            return PNode("str", text=t.value, span=Span(t.pos, t.pos + len(t.value) + 2))
        if t.kind == "NAME":
            if t.value in ("True", "False"):
                return PNode("bool", text=t.value, span=sp)
            if t.value in ("if", "else", "and", "or", "not", "in", "is"):
                raise _ParseFail(f"keyword {t.value!r} in atom position")
            return PNode("name", text=t.value, span=sp)
        if t.kind == "OP" and t.value == "(":
            with self._nested():
                inner = self.parse()
            if self.at(","):
                raise _ParseFail("tuple expressions are not supported")
            self.expect(")")
            return inner
        raise _ParseFail(f"unexpected token {t.value!r}")


def _parse_expr_tokens(toks: list[Tok]) -> PNode:
    p = _ExprParser(toks)
    node = p.parse()
    if p.peek() is not None:
        raise _ParseFail(f"trailing tokens after expression: {p.peek().value!r}")
    return node


# ---------------------------------------------------------------------------
# Statement / block parsing
# ---------------------------------------------------------------------------

# The deepest nesting of indented blocks (class, def, if, elif, else). A
# level costs about four Python frames on top of a line's expression
# nesting; an opener past it becomes an error node covering its body.
MAX_BLOCK_NESTING = 80


class _BlockParser:
    def __init__(self, lines: list[_Line], source: str):
        self.lines = lines
        self.source = source
        self.depth = 0  # blocks open, the top level included

    def parse_block(self, i: int, indent: int) -> tuple[list[PNode], int]:
        if self.depth > MAX_BLOCK_NESTING:
            # the opener's parse_line makes this an error node over the body
            raise _ParseFail(
                f"blocks nested deeper than {MAX_BLOCK_NESTING} levels")
        self.depth += 1
        nodes: list[PNode] = []
        while i < len(self.lines):
            line = self.lines[i]
            if line.indent < indent:
                break
            if line.indent > indent:
                # orphan over-indented line: error, consume it alone
                nodes.append(self._error_region(i, line.indent))
                i = self._skip_region(i, line.indent)
                continue
            node, i = self.parse_line(i)
            # an `if` takes further arms until its `else`, and none after it
            if node.kind in ("elif", "else") and nodes and nodes[-1].kind == "if" \
                    and nodes[-1].children[-1].kind != "else":
                nodes[-1] = PNode(
                    "if", nodes[-1].children + (node,), "",
                    span=Span(nodes[-1].span.start, node.span.end),
                )
            elif node.kind in ("elif", "else"):
                nodes.append(self._as_error(node, "dangling elif/else"))
            else:
                nodes.append(node)
        self.depth -= 1
        return nodes, i

    def _skip_region(self, i: int, indent: int) -> int:
        """Skip line i and every following line more indented than it."""
        j = i + 1
        while j < len(self.lines) and self.lines[j].indent > indent:
            j += 1
        return j

    def _error_region(self, i: int, indent: int) -> PNode:
        j = self._skip_region(i, indent)
        last = self.lines[j - 1]
        return PNode("error",
                     span=Span(self.lines[i].span.start, last.span.end))

    def _as_error(self, node: PNode, reason: str) -> PNode:
        return PNode("error", text=reason, span=node.span)

    def parse_line(self, i: int) -> tuple[PNode, int]:
        line = self.lines[i]
        if line.bad or not line.toks:
            node = self._error_region(i, line.indent)
            return node, self._skip_region(i, line.indent)
        try:
            return self._parse_line_inner(i)
        except _ParseFail:
            node = self._error_region(i, line.indent)
            return node, self._skip_region(i, line.indent)

    def _parse_line_inner(self, i: int) -> tuple[PNode, int]:
        line = self.lines[i]
        toks = line.toks
        head = toks[0]
        if head.kind == "NAME" and head.value in ("class", "def"):
            return self._parse_def_like(i, head.value)
        if head.kind == "NAME" and head.value in ("if", "elif"):
            return self._parse_cond_block(i, head.value)
        if head.kind == "NAME" and head.value == "else":
            if len(toks) != 2 or toks[1].value != ":":
                raise _ParseFail("malformed else")
            body, j = self.parse_block(i + 1, self._body_indent(i))
            return PNode("else", (self._block(body, line.span),), span=line.span), j
        if head.kind == "NAME" and head.value == "assert":
            expr = _parse_expr_tokens(toks[1:])
            return PNode("assert_stmt", (expr,), span=line.span), i + 1
        if head.kind == "NAME" and head.value == "return":
            if len(toks) == 1:
                return PNode("return", span=line.span), i + 1
            expr = _parse_expr_tokens(toks[1:])
            return PNode("return", (expr,), span=line.span), i + 1
        if head.kind == "NAME" and head.value == "pass":
            if len(toks) != 1:
                raise _ParseFail("malformed pass")
            return PNode("pass", span=line.span), i + 1
        if head.kind == "NAME" and head.value in ("import", "from"):
            return PNode("import", text=self._line_text(line), span=line.span), i + 1
        if head.kind == "STR" and len(toks) == 1:
            return PNode("docstring", text=head.value, span=line.span), i + 1
        # assignment, augmented assignment, or expression statement
        idx = line.assign
        if idx is not None:
            opval = toks[idx].value
            lhs = _parse_expr_tokens(toks[:idx])
            rhs = _parse_expr_tokens(toks[idx + 1 :])
            if opval == "=":
                return PNode("assign", (lhs, rhs), span=line.span), i + 1
            return PNode("augassign", (lhs, rhs), opval, span=line.span), i + 1
        expr = _parse_expr_tokens(toks)
        return PNode("expr_stmt", (expr,), span=line.span), i + 1

    def _line_text(self, line: _Line) -> str:
        return self.source[line.span.start : line.span.end].strip()

    def _body_indent(self, i: int) -> int:
        line = self.lines[i]
        if i + 1 < len(self.lines) and self.lines[i + 1].indent > line.indent:
            return self.lines[i + 1].indent
        return line.indent + 4

    def _parse_def_like(self, i: int, kw: str) -> tuple[PNode, int]:
        line = self.lines[i]
        toks = line.toks
        if len(toks) < 3 or toks[1].kind != "NAME" or toks[-1].value != ":":
            raise _ParseFail(f"malformed {kw}")
        name = toks[1].value
        bases: list[str] = []
        if len(toks) > 3:
            if toks[2].value != "(" or toks[-2].value != ")":
                raise _ParseFail(f"malformed {kw} header")
            for t in toks[3:-2]:
                if t.kind == "NAME":
                    bases.append(t.value)
                elif t.value not in (",", ".", "*"):
                    raise _ParseFail(f"unexpected token in {kw} header")
        body, j = self.parse_block(i + 1, self._body_indent(i))
        kind = "class" if kw == "class" else "def"
        header = PNode("bases" if kw == "class" else "params",
                       tuple(PNode("name", text=b) for b in bases), span=line.span)
        return (
            PNode(kind, (header, self._block(body, line.span)), name, span=line.span),
            j,
        )

    def _parse_cond_block(self, i: int, kw: str) -> tuple[PNode, int]:
        line = self.lines[i]
        toks = line.toks
        if toks[-1].value != ":":
            raise _ParseFail(f"malformed {kw}")
        cond = _parse_expr_tokens(toks[1:-1])
        body, j = self.parse_block(i + 1, self._body_indent(i))
        return PNode(kw, (cond, self._block(body, line.span)), span=line.span), j

    def _block(self, nodes: list[PNode], span: Span) -> PNode:
        return PNode("block", tuple(nodes), span=span)


def parse_tolerant(source: str) -> ParentAst:
    """Parse arbitrary text into a surface AST. Total: never raises."""
    lines = _logical_lines(source)
    bp = _BlockParser(lines, source)
    nodes, i = bp.parse_block(0, lines[0].indent if lines else 0)
    # anything left over (dedented below the first line) is parsed as a
    # fresh top-level run
    while i < len(lines):
        more, i2 = bp.parse_block(i, lines[i].indent)
        nodes.extend(more)
        i = max(i2, i + 1)
    root = PNode("module", tuple(nodes), span=Span(0, len(source)))
    errors = [pos for pos, (n, _) in enumerate(iter_pnodes(root))
              if n.kind == "error"]
    return ParentAst(root, errors, source)


# ---------------------------------------------------------------------------
# Pruning to the module language
# ---------------------------------------------------------------------------

@dataclass
class PruneReport:
    source: str = field(repr=False)
    dropped: list[tuple[int, Span, str]] = field(default_factory=list)
    holes_inserted: list[tuple[int, str, Span]] = field(default_factory=list)

    def line(self, sp: Span) -> int:
        """The 1-based source line where `sp` starts."""
        return self.source.count("\n", 0, sp.start) + 1

    def to_dict(self) -> dict:
        return {
            "dropped": [
                {"node": pos, "line": self.line(sp), "reason": reason}
                for pos, sp, reason in self.dropped
            ],
            "holes_inserted": [
                {"hole": hid, "category": cat, "line": self.line(sp)}
                for hid, cat, sp in self.holes_inserted
            ],
        }


def _int_literal(text: str) -> int | None:
    """The value of a decimal literal, or None for one longer than Python
    converts (`sys.get_int_max_str_digits`)."""
    try:
        return int(text)
    except ValueError:
        return None


def _real_literal(text: str) -> float | None:
    """The value of a decimal literal with a point, or None for one that no
    float holds: past the largest, or nonzero and below the smallest."""
    value = float(text)
    if math.isinf(value) or (value == 0.0 and Decimal(text) != 0):
        return None
    return value


class _Pruner:
    def __init__(self, ast: ParentAst):
        self.ast = ast
        self.report = PruneReport(ast.source)
        self.hole_counter = 0
        self.typedef_names: set[str] = set()

    @functools.cached_property
    def positions(self) -> dict[int, int]:
        return node_index(self.ast.root)

    def drop(self, node: PNode, reason: str) -> None:
        self.report.dropped.append(
            (self.positions[id(node)], node.span, reason))

    def fresh_hole(self, category: str, span: Span) -> int:
        hid = self.hole_counter
        self.hole_counter += 1
        self.report.holes_inserted.append((hid, category, span))
        return hid

    def carried_hole(self) -> int:
        # a `??` already present in the source: carried, not inserted
        hid = self.hole_counter
        self.hole_counter += 1
        return hid

    def run(self) -> ChildProgram:
        cls = self._find_module_class()
        if cls is None:
            root = self.ast.root
            hid = self.fresh_hole("module", root.span)
            self.drop(root, "no class extending Module")
            return ChildProgram(module_hole=hid, span=root.span)
        body = cls.children[1]
        sections: dict[str, PNode] = {}
        for item in body.children:
            if item.kind == "def" and item.text in SECTION_METHODS:
                if item.text in sections:
                    self.drop(item, "duplicate method")
                else:
                    sections[item.text] = item
            elif item.kind in ("docstring", "pass"):
                continue
            else:
                self.drop(item, "not a recognized method")

        # typedef names must be known before elaborating other sections
        if "types" in sections:
            for stmt in sections["types"].children[1].children:
                name = self._decl_target(stmt)
                if name:
                    self.typedef_names.add(name)

        type_defs = self._decl_section(sections.get("types"), is_typedef=True)
        locals_ = self._decl_section(sections.get("locals"))
        inputs = self._decl_section(sections.get("inputs"))
        outputs = self._decl_section(sections.get("outputs"))
        init_body = self._stmt_block(sections["init"].children[1]) if "init" in sections else ()
        next_body = self._stmt_block(sections["next"].children[1]) if "next" in sections else ()
        invariants = self._spec_section(sections.get("specification"))

        return ChildProgram(
            module_name=cls.text,
            type_defs=type_defs,
            locals=locals_,
            inputs=inputs,
            outputs=outputs,
            init_body=init_body,
            next_body=next_body,
            invariants_spec=invariants,
            span=cls.span,
        )

    def _spec_section(self, method: PNode | None):
        if method is None:
            return ()
        out: list[tuple[str, Expr]] = []
        for stmt in method.children[1].children:
            if stmt.kind in ("pass", "docstring"):
                continue
            if stmt.kind in ("return", "assert_stmt") and stmt.children:
                prop = self._expr(stmt.children[0])
            else:
                self.drop(stmt, "unparseable" if stmt.kind == "error"
                          else "specification must return or assert a property")
                prop = HoleExpr(self.fresh_hole("invariant", stmt.span),
                                span=stmt.span)
            out.append((f"spec{len(out)}", prop))
        return tuple(out)

    def _find_module_class(self) -> PNode | None:
        for node in self.ast.root.children:
            if node.kind != "class":
                continue
            bases = [b.text for b in node.children[0].children]
            if BASE_CLASS in bases:
                return node
        return None

    def _decl_target(self, stmt: PNode) -> str | None:
        if stmt.kind != "assign":
            return None
        lhs = stmt.children[0]
        if lhs.kind == "attr" and lhs.children[0].kind == "name" \
                and lhs.children[0].text == "self":
            return lhs.text
        return None

    def _decl_section(self, method: PNode | None, is_typedef: bool = False):
        if method is None:
            return ()
        out: list = []
        for stmt in method.children[1].children:
            if stmt.kind in ("pass", "docstring"):
                continue
            if stmt.kind == "expr_stmt" and stmt.children[0].kind == "hole":
                out.append(HoleDecl(self.carried_hole(), span=stmt.span))
                continue
            if stmt.kind == "error":
                self.drop(stmt, "unparseable")
                hid = self.fresh_hole("declaration", stmt.span)
                out.append(HoleDecl(hid, span=stmt.span))
                continue
            name = self._decl_target(stmt)
            if name is None:
                self.drop(stmt, "not a declaration")
                continue
            rhs = stmt.children[1]
            annot = self._elaborate_annot(rhs, is_typedef)
            out.append(Decl(name, annot, span=stmt.span))
        return tuple(out)

    def _elaborate_annot(self, rhs: PNode, is_typedef: bool):
        ty = self._try_type(rhs)
        if ty is not None:
            return TypeAnnot(ty, span=rhs.span)
        if rhs.kind == "hole":
            return HoleType(self.carried_hole(), span=rhs.span)
        if not is_typedef:
            expr = self._expr(rhs, optional=True)
            if expr is not None:
                return DeclValue(expr, span=rhs.span)
        hid = self.fresh_hole("type", rhs.span)
        self.drop(rhs, "unrecognized type expression")
        return HoleType(hid, span=rhs.span)

    def _try_type(self, node: PNode) -> TypeTerm | None:
        if node.kind == "name":
            return {"bool": BOOL, "int": INT, "real": REAL}.get(node.text)
        if node.kind == "attr" and node.children[0].kind == "name" \
                and node.children[0].text == "self":
            if node.text in self.typedef_names:
                return SynonymType(node.text)
            return None
        if node.kind == "call" and node.children[0].kind == "name":
            fn = node.children[0].text
            args = node.children[1:]
            if fn == "BitVector" and len(args) == 1 and args[0].kind == "int":
                width = _int_literal(args[0].text)
                return BVType(width) if width is not None and width >= 1 else None
            if fn == "Enum" and args and all(a.kind == "str" for a in args):
                tags = [a.text for a in args]
                if len(set(tags)) != len(tags):
                    return None
                return EnumType(tuple(tags))
            if fn == "Array" and len(args) == 2:
                idx = self._try_type(args[0])
                elem = self._try_type(args[1])
                if idx is not None and elem is not None:
                    return ArrayType(idx, elem)
            return None
        return None

    def _stmt_block(self, block: PNode) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for stmt in block.children:
            got = self._stmt(stmt)
            if got is not None:
                out.append(got)
        return tuple(out)

    def _stmt(self, stmt: PNode) -> Stmt | None:
        if stmt.kind in ("pass", "docstring"):
            return None
        if stmt.kind == "error":
            self.drop(stmt, "unparseable")
            return HoleStmt(self.fresh_hole("statement", stmt.span),
                            span=stmt.span)
        if stmt.kind == "assign":
            lhs = self._lvalue(stmt.children[0])
            if lhs is None:
                self.drop(stmt, "assignment target is not a state variable")
                return None
            rhs = self._expr(stmt.children[1])
            return Assign(lhs, rhs, span=stmt.span)
        if stmt.kind == "augassign":
            lhs = self._lvalue(stmt.children[0])
            if lhs is None:
                self.drop(stmt, "assignment target is not a state variable")
                return None
            op = _BINOPS[stmt.text[:-1]][0]
            rhs_inner = self._expr(stmt.children[1])
            # the target's own copy: a node object occurs once in a tree
            rhs = Binary(op, copy.deepcopy(lhs), rhs_inner, span=stmt.span)
            return Assign(lhs, rhs, span=stmt.span)
        if stmt.kind == "if":
            return self._if_stmt(stmt)
        if stmt.kind == "assert_stmt":
            return Assert(self._expr(stmt.children[0]), span=stmt.span)
        if stmt.kind == "expr_stmt":
            inner = stmt.children[0]
            if inner.kind == "hole":
                return HoleStmt(self.carried_hole(), span=stmt.span)
            if inner.kind == "call" and inner.children[0].kind == "name":
                fn = inner.children[0].text
                args = inner.children[1:]
                if fn == "assume" and len(args) == 1:
                    return Assume(self._expr(args[0]), span=stmt.span)
                if fn == "havoc" and len(args) == 1:
                    target = self._lvalue(args[0])
                    if isinstance(target, VarRef):
                        return Havoc(target.name, span=stmt.span)
            self.drop(stmt, "statement outside the module language")
            return None
        self.drop(stmt, "statement outside the module language")
        return None

    def _if_stmt(self, stmt: PNode) -> If:
        arms = [(self._expr(stmt.children[0]), self._stmt_block(stmt.children[1]))]
        orelse: tuple[Stmt, ...] = ()
        for extra in stmt.children[2:]:
            if extra.kind == "elif":
                arms.append(
                    (self._expr(extra.children[0]), self._stmt_block(extra.children[1]))
                )
            elif extra.kind == "else":
                orelse = self._stmt_block(extra.children[0])
        return If(tuple(arms), orelse, span=stmt.span)

    def _lvalue(self, node: PNode):
        if node.kind == "attr" and node.children[0].kind == "name" \
                and node.children[0].text == "self":
            return VarRef(node.text, span=node.span)
        if node.kind == "subscript":
            arr = self._lvalue(node.children[0])
            if arr is None:
                return None
            idx = self._expr(node.children[1])
            return ArraySelect(arr, idx, span=node.span)
        return None

    def _expr(self, node: PNode, optional: bool = False):
        """Convert a surface expression. Mandatory slots get holes when the
        form is outside the module language; with optional=True, returns
        None instead."""
        got = self._expr_inner(node)
        if got is not None:
            return got
        if optional:
            return None
        hid = self.fresh_hole("expression", node.span)
        self.drop(node, "expression outside the module language")
        return HoleExpr(hid, span=node.span)

    def _expr_inner(self, node: PNode):
        k = node.kind
        if k == "hole":
            return HoleExpr(self.carried_hole(), span=node.span)
        if k == "int":
            value = _int_literal(node.text)
            return None if value is None else IntLit(value, span=node.span)
        if k == "float":
            value = _real_literal(node.text)
            return None if value is None else RealLit(value, span=node.span)
        if k == "bool":
            return BoolLit(node.text == "True", span=node.span)
        if k == "str":
            if is_identifier(node.text):
                return EnumLit(node.text, span=node.span)
            return None
        if k == "attr" and node.children[0].kind == "name" \
                and node.children[0].text == "self":
            return VarRef(node.text, span=node.span)
        if k == "unop":
            operand = self._expr(node.children[0])
            op = {"not": "not", "-": "neg"}.get(node.text)
            if op is None:
                return None
            return Unary(op, operand, span=node.span)
        if k == "binop":
            # down the left spine in a loop: no stack frame per chain link
            spine = [node]
            while spine[-1].children[0].kind == "binop":
                spine.append(spine[-1].children[0])
            e = self._expr(spine[-1].children[0])
            for n in reversed(spine):
                e = Binary(_BINOPS[n.text][0], e, self._expr(n.children[1]),
                           span=n.span)
            return e
        if k == "ifexp":
            body, cond, other = node.children
            return Ite(
                self._expr(cond), self._expr(body), self._expr(other),
                span=node.span,
            )
        if k == "subscript":
            arr = self._expr(node.children[0])
            idx = self._expr(node.children[1])
            return ArraySelect(arr, idx, span=node.span)
        if k == "call" and node.children[0].kind == "name":
            fn = node.children[0].text
            args = node.children[1:]
            if fn == "BV" and len(args) == 2 and args[0].kind == "int" \
                    and args[1].kind == "int":
                value = _int_literal(args[0].text)
                width = _int_literal(args[1].text)
                if value is not None and width is not None and width >= 1:
                    return BVLit(value, width, span=node.span)
            return None
        return None


def prune_to_child(ast: ParentAst) -> tuple[ChildProgram, PruneReport]:
    """Prune a surface AST to the maximal module-language subtree."""
    pruner = _Pruner(ast)
    return pruner.run(), pruner.report


# ---------------------------------------------------------------------------
# Surface printer (inverse of parse + prune; used for prompts and reports)
# ---------------------------------------------------------------------------

# `//` comes after `/` in _BINOPS, so `div` prints as `//`
_EXPR_BINOP_SURFACE = {op: surf for surf, (op, _) in _BINOPS.items()}


def print_expr(e: Expr) -> str:
    if isinstance(e, BoolLit):
        return "True" if e.value else "False"
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, RealLit):
        return format_real(e.value)
    if isinstance(e, BVLit):
        return f"BV({e.value}, {e.width})"
    if isinstance(e, EnumLit):
        return f'"{e.tag}"'
    if isinstance(e, VarRef):
        return f"self.{e.name}"
    if isinstance(e, Unary):
        op = "not" if e.op == "not" else "-"
        return f"({op} {print_expr(e.operand)})"
    if isinstance(e, Binary):
        spine = left_spine(e)
        text = print_expr(spine[-1].left)
        for n in reversed(spine):
            surf = _EXPR_BINOP_SURFACE.get(n.op)
            if surf is None:
                raise ValueError(f"operator {n.op!r} has no surface form")
            text = f"({text} {surf} {print_expr(n.right)})"
        return text
    if isinstance(e, Ite):
        return f"({print_expr(e.then)} if {print_expr(e.cond)} else {print_expr(e.other)})"
    if isinstance(e, ArraySelect):
        return f"{print_expr(e.array)}[{print_expr(e.index)}]"
    if isinstance(e, HoleExpr):
        return "??"
    raise TypeError(f"unknown expression {e!r}")


def _print_stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    if isinstance(s, Assign):
        out.append(f"{pad}{print_expr(s.lhs)} = {print_expr(s.rhs)}")
    elif isinstance(s, If):
        for k, (cond, body) in enumerate(s.arms):
            out.append(f"{pad}{'elif' if k else 'if'} {print_expr(cond)}:")
            _print_body(body, indent + 1, out)
        if s.orelse:
            out.append(f"{pad}else:")
            _print_body(s.orelse, indent + 1, out)
    elif isinstance(s, Havoc):
        out.append(f"{pad}havoc(self.{s.name})")
    elif isinstance(s, Assume):
        out.append(f"{pad}assume({print_expr(s.cond)})")
    elif isinstance(s, Assert):
        out.append(f"{pad}assert {print_expr(s.cond)}")
    elif isinstance(s, HoleStmt):
        out.append(f"{pad}??")
    else:
        raise TypeError(f"unknown statement {s!r}")


def _print_body(body: tuple[Stmt, ...], indent: int, out: list[str]) -> None:
    if not body:
        out.append("    " * indent + "pass")
    for s in body:
        _print_stmt(s, indent, out)


def _print_decl(d, out: list[str]) -> None:
    pad = "        "
    if isinstance(d, HoleDecl):
        out.append(f"{pad}??")
        return
    if isinstance(d.annot, TypeAnnot):
        rhs = format_type(d.annot.ty)
    elif isinstance(d.annot, HoleType):
        rhs = "??"
    else:
        rhs = print_expr(d.annot.expr)
    out.append(f"{pad}self.{d.name} = {rhs}")


def print_child(p: ChildProgram) -> str:
    """Deterministic surface rendering of a module-language program.

    parse_tolerant + prune_to_child on this text reproduces the program
    (holes get fresh ids); empty sections are omitted.
    """
    if p.module_hole is not None:
        return "??\n"
    out: list[str] = [f"class {p.module_name}(Module):"]
    sections = (
        ("types", p.type_defs),
        ("locals", p.locals),
        ("inputs", p.inputs),
        ("outputs", p.outputs),
    )
    emitted = False
    for name, decls in sections:
        if not decls:
            continue
        out.append(f"    def {name}(self):")
        for d in decls:
            _print_decl(d, out)
        emitted = True
    for name, body in (("init", p.init_body), ("next", p.next_body)):
        if not body:
            continue
        out.append(f"    def {name}(self):")
        _print_body(body, 2, out)
        emitted = True
    if p.invariants_spec:
        out.append("    def specification(self):")
        for _, e in p.invariants_spec:
            out.append(f"        return {print_expr(e)}")
        emitted = True
    if not emitted:
        out.append("    pass")
    return "\n".join(out) + "\n"
