"""Core AST utilities: traversal, node positions, and type terms."""

import dataclasses
import gc
import re

import pytest

from corpus import INVALID_PROGRAMS, VALID_PROGRAMS
from uclgen.ast_core import (
    BOOL,
    INT,
    ArraySelect,
    ArrayType,
    Assert,
    Assign,
    Assume,
    Binary,
    BoolLit,
    BVLit,
    BVType,
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
    IntLit,
    Ite,
    Node,
    PNode,
    RealLit,
    Stmt,
    Span,
    SynonymType,
    TypeAnnot,
    Unary,
    VarRef,
    format_real,
    format_type,
    iter_nodes,
    map_children,
    walk_index,
)
from uclgen.ast_core import _NODE_FIELDS
from uclgen.frontend import parse_tolerant, prune_to_child


def program_of(src: str) -> ChildProgram:
    p, _ = prune_to_child(parse_tolerant(src))
    return p


SAMPLE = '''
class M(Module):
    def locals(self):
        self.x = int
        self.y = bool
    def init(self):
        self.x = 0
        self.y = False
    def next(self):
        if self.y:
            self.x = self.x + 1
'''


def test_walk_index_numbers_nodes_in_preorder():
    p = program_of(SAMPLE)
    walk = [n for n, _ in iter_nodes(p)]
    index = walk_index(iter_nodes(p))
    assert [index[id(n)] for n in walk] == list(range(len(walk)))
    assert index[id(p)] == 0
    assert all(id(d.annot) in index for d in p.locals)


def test_walk_index_numbers_surface_nodes_in_preorder():
    root = parse_tolerant(SAMPLE).root
    walk = [n for n, _ in iter_nodes(root)]
    index = walk_index(iter_nodes(root))
    assert [index[id(n)] for n in walk] == list(range(len(walk)))


def test_walk_index_rejects_a_shared_node_object():
    x = VarRef("x")
    with pytest.raises(ValueError, match="VarRef"):
        walk_index(iter_nodes(Assign(x, Binary("+", x, IntLit(1)))))
    # equal but distinct objects are two nodes
    assert len(walk_index(iter_nodes(Assign(VarRef("x"), VarRef("x"))))) == 3


def test_iter_nodes_walks_a_deep_tree_in_preorder():
    e = VarRef("a")
    for i in range(5000):
        e = Binary("+", e, IntLit(i))
    walk = list(iter_nodes(e))
    assert len(walk) == 10001
    assert walk[0] == (e, 0)
    assert walk[5000][0] == VarRef("a") and walk[5000][1] == 5000
    assert [n.value for n, d in walk[5001:]] == list(range(5000))


CORPUS = {**VALID_PROGRAMS, **INVALID_PROGRAMS}


def _reference_walk(v, depth: int, out: list) -> list:
    """Pre-order by plain recursion through every dataclass field and
    tuple, the node-field table not consulted."""
    if isinstance(v, (Node, PNode)):
        out.append((v, depth))
        for f in dataclasses.fields(v):
            _reference_walk(getattr(v, f.name), depth + 1, out)
    elif isinstance(v, tuple):
        for x in v:
            _reference_walk(x, depth, out)
    return out


def _holds_a_node(v) -> bool:
    if isinstance(v, Node):
        return True
    if isinstance(v, tuple):
        return any(_holds_a_node(x) for x in v)
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return any(_holds_a_node(getattr(v, f.name))
                   for f in dataclasses.fields(v))
    return False


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_walks_equal_a_recursive_reference_walk(name):
    ast = parse_tolerant(CORPUS[name])
    p = program_of(CORPUS[name])
    assert iter_nodes(ast.root) == _reference_walk(ast.root, 0, [])
    assert iter_nodes(p) == _reference_walk(p, 0, [])
    assert len(iter_nodes(p)) > 5


def test_no_field_outside_the_node_field_table_holds_a_node():
    seen: set[type] = set()
    for source in CORPUS.values():
        for n, _ in iter_nodes(program_of(source)):
            seen.add(type(n))
            for f in dataclasses.fields(n):
                if f.name not in _NODE_FIELDS[type(n)]:
                    assert not _holds_a_node(getattr(n, f.name)), \
                        (type(n).__name__, f.name)
    assert len(seen) >= 15
    assert _NODE_FIELDS[If] == ("arms", "orelse")
    assert _NODE_FIELDS[VarRef] == ()
    assert _NODE_FIELDS[TypeAnnot] == ()


def test_enum_type_sorts_tags_and_rejects_duplicates():
    e = EnumType(("B", "A"))
    assert e.tags == ("A", "B")
    with pytest.raises(ValueError):
        EnumType(("A", "A"))


def test_bv_width_must_be_positive():
    with pytest.raises(ValueError):
        BVType(0)


@pytest.mark.parametrize("value", [
    0.5, 1e-05, 12345678901234567.0, 1e16, 100.0, 0.0, 0.1 + 0.2,
    5e-324, 1.7976931348623157e308,
])
def test_format_real_is_positional_and_reads_back(value):
    text = format_real(value)
    assert re.fullmatch(r"\d+\.\d+", text), text
    assert float(text) == value


def test_format_type_surface_spellings():
    assert format_type(BOOL) == "bool"
    assert format_type(INT) == "int"
    assert format_type(BVType(6)) == "BitVector(6)"
    assert format_type(EnumType(("B", "A"))) == 'Enum("A", "B")'
    assert format_type(ArrayType(INT, BOOL)) == "Array(int, bool)"
    assert format_type(SynonymType("word_t")) == "self.word_t"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


_A, _B, _C, _D = VarRef("a"), IntLit(1), BoolLit(True), VarRef("d")
_S1, _S2, _S3 = Havoc("a"), Assume(_C), HoleStmt(0)
_DECLS = tuple(Decl(n, TypeAnnot(INT)) for n in "wxyz")

# one node of every class, with its children in field order
NODES_AND_CHILDREN = [
    (Node(), ()),
    (Expr(), ()),
    (BoolLit(False), ()),
    (IntLit(2), ()),
    (RealLit(0.5), ()),
    (BVLit(3, 4), ()),
    (EnumLit("GO"), ()),
    (VarRef("v"), ()),
    (Unary("not", _C), (_C,)),
    (Binary("+", _A, _B), (_A, _B)),
    (Ite(_C, _A, _B), (_C, _A, _B)),
    (ArraySelect(_A, _B), (_A, _B)),
    (HoleExpr(0), ()),
    (Stmt(), ()),
    (Assign(_A, _B), (_A, _B)),
    (If(((_C, (_S1,)), (_A, (_S2,)), (_D, ())), (_S3,)),
     (_C, _S1, _A, _S2, _D, _S3)),
    (Havoc("v"), ()),
    (Assume(_C), (_C,)),
    (Assert(_C), (_C,)),
    (HoleStmt(0), ()),
    (TypeAnnot(INT), ()),
    (HoleType(0), ()),
    (DeclValue(_B), (_B,)),
    (Decl("v", _DECLS[0].annot), (_DECLS[0].annot,)),
    (HoleDecl(0), ()),
    (ChildProgram("M", _DECLS[:1], _DECLS[1:2], _DECLS[2:3], _DECLS[3:],
                  (_S1,), (_S2,), (("inv", _C), ("other", _A)), 4),
     (*_DECLS, _S1, _S2, _C, _A)),
]


def test_examples_cover_every_node_class():
    # a slotted dataclass replaces the class it decorates, and the class
    # replaced stays among its base's subclasses until a collection
    gc.collect()
    covered = {type(n) for n, _ in NODES_AND_CHILDREN}
    assert covered == {Node, *_subclasses(Node)}


@pytest.mark.parametrize(
    "node,children", NODES_AND_CHILDREN,
    ids=[type(n).__name__ for n, _ in NODES_AND_CHILDREN],
)
def test_node_children_and_map_children_follow_field_order(node, children):
    def node_children(n):
        return tuple(c for c, depth in iter_nodes(n) if depth == 1)

    assert node_children(node) == children
    assert map_children(node, lambda c: c) is node
    fresh = iter(range(100, 200))
    mapped = map_children(node, lambda c: IntLit(next(fresh)))
    assert type(mapped) is type(node)
    assert node_children(mapped) == tuple(
        IntLit(i) for i in range(100, 100 + len(children))
    )


@pytest.mark.parametrize(
    "node", [n for n, _ in NODES_AND_CHILDREN] + [PNode("k", (PNode("c"),))],
    ids=[type(n).__name__ for n, _ in NODES_AND_CHILDREN] + ["PNode"],
)
def test_equal_copies_hash_alike_and_the_span_is_not_compared(node):
    copy = dataclasses.replace(node)
    assert copy is not node and copy == node and hash(copy) == hash(node)
    moved = dataclasses.replace(node, span=Span(3, 7))
    assert moved.span != node.span
    assert moved == node and hash(moved) == hash(node)
