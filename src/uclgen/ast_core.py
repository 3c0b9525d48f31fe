"""Shared tree representations.

Defines the surface-language AST produced by the tolerant parser, the
restricted module-language AST (with holes), type terms and source spans.
All trees are immutable after construction; every transformation elsewhere
in the package returns a new tree, sharing the subtrees it leaves alone.
"""

from __future__ import annotations

import dataclasses
import re
import typing
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional, Union


@dataclass(frozen=True)
class Span:
    """Source range [start, end) in characters; lines are derived from the
    source where a report needs them."""

    start: int = 0
    end: int = 0


NO_SPAN = Span()


# ---------------------------------------------------------------------------
# Identifiers
# ---------------------------------------------------------------------------

#: An identifier, alike in the frontend lexer, an enum tag and the
#: validator: a letter (`str.isalpha`, which is UCLID5's `isLetter`) or
#: `_`, then letters, digits and `_`. The pattern also takes a leading
#: non-decimal digit such as `²`; a lexer that matches it rejects such a
#: token with `identifier_head`.
IDENTIFIER_PATTERN = r"[^\W\d]\w*"
_IDENTIFIER_RE = re.compile(IDENTIFIER_PATTERN)


def identifier_head(c: str) -> bool:
    """Whether the character `c` may start an identifier."""
    return c.isalpha() or c == "_"


def is_identifier(text: str) -> bool:
    return (_IDENTIFIER_RE.fullmatch(text) is not None
            and identifier_head(text[0]))


# ---------------------------------------------------------------------------
# Type terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeTerm:
    """Base class for the type vocabulary used by constraints and decls."""


@dataclass(frozen=True)
class BoolType(TypeTerm):
    pass


@dataclass(frozen=True)
class IntType(TypeTerm):
    pass


@dataclass(frozen=True)
class RealType(TypeTerm):
    pass


@dataclass(frozen=True)
class BVType(TypeTerm):
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"bitvector width must be >= 1, got {self.width}")


@dataclass(frozen=True)
class EnumType(TypeTerm):
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tags:
            raise ValueError("enum needs at least one tag")
        if len(set(self.tags)) != len(self.tags):
            raise ValueError(f"duplicate enum tags: {self.tags}")
        object.__setattr__(self, "tags", tuple(sorted(self.tags)))


@dataclass(frozen=True)
class ArrayType(TypeTerm):
    index: TypeTerm
    elem: TypeTerm


@dataclass(frozen=True)
class SynonymType(TypeTerm):
    name: str


@dataclass(frozen=True)
class TVar(TypeTerm):
    tid: int


BOOL = BoolType()
INT = IntType()
REAL = RealType()


# ---------------------------------------------------------------------------
# Surface-language AST (output of the tolerant parser)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PNode:
    """Generic surface AST node: kind tag, children, token text, span."""

    kind: str
    children: tuple["PNode", ...] = ()
    text: str = ""
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass
class ParentAst:
    root: PNode
    error_nodes: list[int]
    source: str


# ---------------------------------------------------------------------------
# Module-language AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


# -- expressions --

@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class RealLit(Expr):
    value: float


@dataclass(frozen=True)
class BVLit(Expr):
    value: int
    width: int


@dataclass(frozen=True)
class EnumLit(Expr):
    tag: str


@dataclass(frozen=True)
class VarRef(Expr):
    name: str


UNARY_OPS = ("not", "neg")
BINARY_OPS = (
    "and", "or", "xor", "implies",
    "==", "!=", "<", "<=", ">", ">=",
    "+", "-", "*", "div", "mod",
    "bvand", "bvor", "shl", "lshr", "concat",
)


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"bad unary op {self.op!r}")


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"bad binary op {self.op!r}")


def left_spine(e: Binary) -> list[Binary]:
    """`e` and the Binary nodes down its left children, top first, so a
    walker follows a left-nested chain in a loop, not a frame per link."""
    spine = [e]
    while isinstance(spine[-1].left, Binary):
        spine.append(spine[-1].left)
    return spine


@dataclass(frozen=True)
class Ite(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(frozen=True)
class ArraySelect(Expr):
    array: Expr
    index: Expr


@dataclass(frozen=True)
class HoleExpr(Expr):
    hid: int


# -- statements --

@dataclass(frozen=True)
class Stmt(Node):
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    lhs: Expr  # VarRef or ArraySelect chain rooted at a state variable
    rhs: Expr


@dataclass(frozen=True)
class If(Stmt):
    """`if`/`elif`/`else`: the first arm `(cond, body)` whose condition
    holds runs, `orelse` when none does. The `if` and each `elif` are one
    arm, so a ladder is one node whose arms every stage walks in a loop."""

    arms: tuple[tuple[Expr, tuple[Stmt, ...]], ...]
    orelse: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class Havoc(Stmt):
    name: str


@dataclass(frozen=True)
class Assume(Stmt):
    cond: Expr


@dataclass(frozen=True)
class Assert(Stmt):
    cond: Expr


@dataclass(frozen=True)
class HoleStmt(Stmt):
    hid: int


# -- declarations --

@dataclass(frozen=True)
class TypeAnnot(Node):
    """A type expression in declaration position."""

    ty: TypeTerm


@dataclass(frozen=True)
class HoleType(Node):
    hid: int


@dataclass(frozen=True)
class DeclValue(Node):
    """A value where a type was expected; the constraint phase infers the
    declared type from it instead of deleting the declaration."""

    expr: Expr


Annot = Union[TypeAnnot, HoleType, DeclValue]


@dataclass(frozen=True)
class Decl(Node):
    name: str
    annot: Annot


@dataclass(frozen=True)
class HoleDecl(Node):
    hid: int


DeclEntry = Union[Decl, HoleDecl]


@dataclass(frozen=True)
class ChildProgram(Node):
    module_name: str = "M"
    type_defs: tuple[DeclEntry, ...] = ()
    locals: tuple[DeclEntry, ...] = ()
    inputs: tuple[DeclEntry, ...] = ()
    outputs: tuple[DeclEntry, ...] = ()
    init_body: tuple[Stmt, ...] = ()
    next_body: tuple[Stmt, ...] = ()
    invariants_spec: tuple[tuple[str, Expr], ...] = ()
    module_hole: Optional[int] = None


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def _can_hold_node(t) -> bool:
    # arguments first: before Python 3.11 `tuple[Stmt, ...]` passes
    # `isinstance(t, type)` and then fails `issubclass`
    args = typing.get_args(t)
    if args:
        return any(_can_hold_node(a) for a in args)
    return isinstance(t, type) and issubclass(t, Node)


class _FieldTable(dict):
    """Node class -> the names of its fields whose declared type can hold
    a `Node`, in field order. `str`, `int`, `bool`, type-term and span
    fields are left out, so no walk or rewrite looks into them. Filled on
    first use of a class."""

    def __missing__(self, cls: type) -> tuple[str, ...]:
        hints = typing.get_type_hints(cls)
        names = tuple(f.name for f in dataclasses.fields(cls)
                      if _can_hold_node(hints[f.name]))
        self[cls] = names
        return names


_NODE_FIELDS = _FieldTable()


def _map_value(v, fn):
    # a loop rather than a comprehension: one stack frame less per level
    if isinstance(v, Node):
        return fn(v)
    if isinstance(v, tuple):
        out = []
        for x in v:
            out.append(_map_value(x, fn))
        return v if all(a is b for a, b in zip(out, v)) else tuple(out)
    return v


def map_children(node: Node, fn) -> Node:
    """A copy of `node` in which every child node `c`, including those in
    nested tuples such as `If.arms` or `invariants_spec`, is `fn(c)`;
    `node` itself when every `fn(c)` is `c`."""
    changes = {}
    for name in _NODE_FIELDS[type(node)]:
        old = getattr(node, name)
        new = _map_value(old, fn)
        if new is not old:
            changes[name] = new
    return dataclasses.replace(node, **changes) if changes else node


def _preorder(root) -> list[tuple[object, int]]:
    # One loop over an explicit stack, so the depth of a tree costs no
    # Python frames. The stack holds (value, depth). A surface node pushes
    # its `children`, a module-language node the values of its
    # `_NODE_FIELDS`; a tuple is spread when it is popped, so nested
    # tuples such as `If.arms` need no helper, and anything else (the
    # `str` naming an invariant, a `None`) is passed over.
    fields = _NODE_FIELDS
    out: list[tuple[object, int]] = []
    append = out.append
    stack = [(root, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        v, d = pop()
        cls = type(v)
        if cls is PNode:
            append((v, d))
            d += 1
            for c in reversed(v.children):
                push((c, d))
        elif cls is tuple:
            for x in reversed(v):
                push((x, d))
        elif isinstance(v, Node):
            append((v, d))
            d += 1
            for name in reversed(fields[cls]):
                push((getattr(v, name), d))
    return out


def iter_nodes(tree: Node) -> list[tuple[Node, int]]:
    """Every node of `tree` with its depth, in pre-order, as a list. The
    walk visits only the fields that can hold a node (see `_FieldTable`),
    including nodes in nested tuples such as `If.arms`."""
    return _preorder(tree)


def iter_pnodes(root: PNode) -> list[tuple[PNode, int]]:
    """Every node of a surface tree with its depth, in pre-order, as a
    list; a surface node's children are its `children`."""
    return _preorder(root)


def walk_index(walk: list[tuple[object, int]]) -> dict[int, int]:
    """Map `id(node)` of every node of a pre-order walk to its position.
    A node object may occur only once in a tree; ValueError otherwise."""
    index = {id(n): pos for pos, (n, _) in enumerate(walk)}
    if len(index) != len(walk):
        seen: set[int] = set()
        for n, _ in walk:
            if id(n) in seen:
                raise ValueError(f"a {type(n).__name__} node object "
                                 "occurs twice in the tree")
            seen.add(id(n))
    return index


def node_index(tree: Union[Node, PNode]) -> dict[int, int]:
    """Map `id(node)` of every node in the tree to its pre-order position,
    which is how clause origins and reports name a node. A node object
    may occur only once in a tree; ValueError otherwise."""
    return walk_index(_preorder(tree))


def _hole_ids(tree: Node) -> list[int]:
    """The id of every hole in `tree`, a program's module hole included."""
    ids = [n.hid for n, _ in iter_nodes(tree)
           if isinstance(n, (HoleExpr, HoleStmt, HoleType, HoleDecl))]
    if isinstance(tree, ChildProgram) and tree.module_hole is not None:
        ids.append(tree.module_hole)
    return ids


def max_hole_id(tree: Node) -> int:
    return max(_hole_ids(tree), default=-1)


def undeclared_names(p: ChildProgram) -> list[str]:
    """Variables read, written or havocked but declared in no locals,
    inputs or outputs section, in first-use order."""
    declared = {d.name for section in (p.locals, p.inputs, p.outputs)
                for d in section if isinstance(d, Decl)}
    out: dict[str, None] = {}
    for node, _ in iter_nodes(p):
        if isinstance(node, (VarRef, Havoc)) and node.name not in declared:
            out[node.name] = None
    return list(out)


def count_holes(p: ChildProgram) -> int:
    return len(_hole_ids(p))


# ---------------------------------------------------------------------------
# Type formatting
# ---------------------------------------------------------------------------

def format_type(t: TypeTerm) -> str:
    """Surface spelling of a type, used by printers and diagnostics."""
    if isinstance(t, BoolType):
        return "bool"
    if isinstance(t, IntType):
        return "int"
    if isinstance(t, RealType):
        return "real"
    if isinstance(t, BVType):
        return f"BitVector({t.width})"
    if isinstance(t, EnumType):
        return "Enum(" + ", ".join(f'"{tag}"' for tag in t.tags) + ")"
    if isinstance(t, ArrayType):
        return f"Array({format_type(t.index)}, {format_type(t.elem)})"
    if isinstance(t, SynonymType):
        return f"self.{t.name}"
    if isinstance(t, TVar):
        return f"?t{t.tid}"
    raise TypeError(f"unknown type term {t!r}")


def format_real(value: float) -> str:
    """Positional decimal spelling of a real literal, always with a `.`:
    the shortest digits that read back as `value`, never an exponent."""
    text = format(Decimal(repr(value)), "f")
    return text if "." in text else text + ".0"
