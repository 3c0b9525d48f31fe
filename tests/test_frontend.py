"""Extraction, error-tolerant parsing, pruning, and the surface printer."""

import random
import sys
from pathlib import Path

import pytest

from corpus import (
    INVALID_PROGRAMS,
    VALID_PROGRAMS,
    fuzz_inputs,
    transcript_replies,
)
from uclgen.ast_core import (
    Assign,
    BVLit,
    Binary,
    EnumLit,
    HoleDecl,
    HoleExpr,
    HoleStmt,
    HoleType,
    If,
    RealLit,
    Span,
    count_holes,
    iter_nodes,
)
from uclgen.frontend import (
    BASE_CLASS,
    MAX_BLOCK_NESTING,
    MAX_NESTING,
    ExtractError,
    extract_code,
    parse_tolerant,
    print_child,
    prune_to_child,
    _logical_lines,
)

ROOT = Path(__file__).resolve().parents[1]
SUITE_DIR = ROOT / "tests" / "data" / "suite"
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402


def error_nodes(ast) -> list:
    """The pre-order positions of the `error` nodes in a surface tree."""
    return [pos for pos, (n, _) in enumerate(iter_nodes(ast.root))
            if n.kind == "error"]


def pruned(src: str):
    return prune_to_child(parse_tolerant(src))


# ---------------------------------------------------------------------------
# extract_code
# ---------------------------------------------------------------------------

def test_extract_between_fence_pair():
    got = extract_code("Sure!\n```python\nclass A(Module):\n    pass\n```\ntail")
    assert got.strip() == "class A(Module):\n    pass"


def test_extract_single_fence_primed_reply():
    # primed replies start mid-code-block, so the code precedes the fence
    got = extract_code("class A(Module):\n    pass\n```\nSome commentary.")
    assert got.strip() == "class A(Module):\n    pass"


def test_extract_single_fence_opening_block():
    got = extract_code("Here you go:\n```\nclass A(Module):\n    pass")
    assert got.strip() == "class A(Module):\n    pass"


def test_extract_no_fence_finds_class_line():
    got = extract_code("Certainly.\nclass A(Module):\n    pass\n")
    assert got.startswith("class A(Module):")


def test_extract_empty_raises():
    with pytest.raises(ExtractError):
        extract_code("   \n  ")


# ---------------------------------------------------------------------------
# parse_tolerant totality and recovery
# ---------------------------------------------------------------------------

def test_parse_records_error_regions_but_keeps_going():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "    def init(self):\n"
        "        return ) ( garbage\n"
        "        self.x = 0\n"
    )
    ast = parse_tolerant(src)
    assert error_nodes(ast)
    p, _ = prune_to_child(ast)
    assert [d.name for d in p.locals] == ["x"]
    # the unparseable line leaves a statement hole in its place
    assert [type(s) for s in p.init_body] == [HoleStmt, Assign]


def test_parse_handles_docstrings_and_comments():
    src = (
        'class M(Module):\n'
        '    """A documented module.\n'
        '    Spanning lines.\n'
        '    """\n'
        '    def locals(self):\n'
        '        # a comment\n'
        '        self.x = int  # trailing\n'
    )
    p, rep = pruned(src)
    assert [d.name for d in p.locals] == ["x"]
    assert not rep.dropped


def test_parse_joins_bracket_continuations():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.mode = Enum(\n"
        '            "A",\n'
        '            "B",\n'
        "        )\n"
    )
    p, _ = pruned(src)
    assert len(p.locals) == 1


LEXER_CASES = {
    "triple-quoted string across lines": ('x = """a\nb"""\ny', [
        (0, [("NAME", "x", 0), ("OP", "=", 2), ("STR", "a\nb", 4)],
         Span(0, 13), False),
        (0, [("NAME", "y", 14)], Span(14, 15), False),
    ]),
    "unterminated triple-quoted string": ('x = 1\ny = """abc\nz = 2', [
        (0, [("NAME", "x", 0), ("OP", "=", 2), ("INT", "1", 4)],
         Span(0, 5), False),
        (0, [], Span(6, 22), True),
    ]),
    "backslash before a newline in a string": ("x = 'a\\\ny", [
        (0, [], Span(0, 7), True),
        (0, [("NAME", "y", 8)], Span(8, 9), False),
    ]),
    "bracket across a comment line": ("f(1,\n# note\n2)\ny", [
        (0, [("NAME", "f", 0), ("OP", "(", 1), ("INT", "1", 2), ("OP", ",", 3),
             ("INT", "2", 12), ("OP", ")", 13)],
         Span(0, 14), False),
        (0, [("NAME", "y", 15)], Span(15, 16), False),
    ]),
    "stray closing bracket": ("x = )\ny", [
        (0, [("NAME", "x", 0), ("OP", "=", 2), ("OP", ")", 4)],
         Span(0, 5), False),
        (0, [("NAME", "y", 6)], Span(6, 7), False),
    ]),
    "number forms": ("1.2.3 12. .5", [
        (0, [("FLOAT", "1.2", 0), ("FLOAT", ".3", 3), ("INT", "12", 6),
             ("OP", ".", 8), ("FLOAT", ".5", 10)],
         Span(0, 12), False),
    ]),
    "operators and holes": ("x **= y <<= ??\n?", [
        (0, [("NAME", "x", 0), ("OP", "**=", 2), ("NAME", "y", 6),
             ("OP", "<<", 8), ("OP", "=", 10), ("HOLE", "??", 12)],
         Span(0, 14), False),
        (0, [], Span(15, 16), True),
    ]),
    "non-ASCII letters": ("é世 = 1", [
        (0, [("NAME", "é世", 0), ("OP", "=", 3), ("INT", "1", 5)],
         Span(0, 6), False),
    ]),
    "emoji": ("x = \U0001f600\ny", [
        (0, [], Span(0, 5), True),
        (0, [("NAME", "y", 6)], Span(6, 7), False),
    ]),
    "form feed line": ("\x0c\nx", [
        (0, [("NAME", "x", 2)], Span(2, 3), False),
    ]),
    "tab indent": ("\tx = 1", [
        (4, [("NAME", "x", 1), ("OP", "=", 3), ("INT", "1", 5)],
         Span(0, 6), False),
    ]),
    "decimal digits beyond ASCII": ("x = ١٢", [
        (0, [("NAME", "x", 0), ("OP", "=", 2), ("INT", "١٢", 4)],
         Span(0, 6), False),
    ]),
    "non-decimal digit": ("x = ²\ny", [
        (0, [], Span(0, 5), True),
        (0, [("NAME", "y", 6)], Span(6, 7), False),
    ]),
}


@pytest.mark.parametrize("source,lines", LEXER_CASES.values(), ids=LEXER_CASES)
def test_lexer_edge_cases(source, lines):
    got = [(line.indent, [(t.kind, t.value, t.pos) for t in line.toks],
            line.span, line.bad) for line in _logical_lines(source)]
    assert got == lines


def test_no_module_class_reports_module_hole():
    p, _ = pruned("print('hello')\n")
    assert p.module_hole is not None


# ---------------------------------------------------------------------------
# prune_to_child
# ---------------------------------------------------------------------------

def test_prune_drops_unknown_methods_and_keeps_sections():
    src = (
        "class M(Module):\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def locals(self):\n"
        "        self.x = int\n"
    )
    p, rep = pruned(src)
    assert [d.name for d in p.locals] == ["x"]
    assert any("method" in reason for _, reason in rep.dropped)


def test_prune_drops_a_duplicate_method_and_holes_bitwise_not():
    # the first `next` is kept; `~` is outside the module language
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "    def next(self):\n"
        "        self.x = ~self.x\n"
        "    def next(self):\n"
        "        self.x = 1\n"
    )
    p, rep = pruned(src)
    [stmt] = p.next_body
    assert isinstance(stmt, Assign) and isinstance(stmt.rhs, HoleExpr)
    assert rep.to_dict() == {
        "dropped": [
            {"line": 6, "reason": "duplicate method"},
            {"line": 5, "reason": "expression outside the module language"}],
        "holes_inserted": [
            {"hole": stmt.rhs.hid, "category": "expression", "line": 5}]}


def test_prune_unparseable_type_becomes_hole_type():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = Banana()\n"
    )
    p, rep = pruned(src)
    assert isinstance(p.locals[0].annot, HoleType)
    assert rep.holes_inserted


def test_prune_unparseable_lines_become_recorded_holes():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "        self.y = int $\n"
        "    def next(self):\n"
        "        self.x = self.x +\n"
        "    def specification(self):\n"
        "        return $$\n"
    )
    p, rep = pruned(src)
    assert isinstance(p.locals[1], HoleDecl)
    assert [type(s) for s in p.next_body] == [HoleStmt]
    [(name, inv)] = p.invariants_spec
    assert name == "spec0" and isinstance(inv, HoleExpr)
    assert [(h["category"], h["line"])
            for h in rep.to_dict()["holes_inserted"]] == [
        ("declaration", 4), ("statement", 6), ("invariant", 8)]
    assert [hid for hid, _, _ in rep.holes_inserted] == [
        p.locals[1].hid, p.next_body[0].hid, inv.hid]
    assert count_holes(p) == 3


def test_prune_report_lines_are_one_based():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "        self.y = foo(1)\n"
        "    def next(self):\n"
        "        self.x = bar(2)\n"
        "        print(3)\n"
    )
    _, rep = pruned(src)
    got = rep.to_dict()
    assert [d["line"] for d in got["dropped"]] == [4, 6, 7]
    assert [h["line"] for h in got["holes_inserted"]] == [4, 6]


def test_prune_value_declaration_is_kept_as_decl_value():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = 0\n"
    )
    p, _ = pruned(src)
    annot = p.locals[0].annot
    assert type(annot).__name__ == "DeclValue"


def test_prune_explicit_hole_forms():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = ??\n"
        "        ??\n"
        "    def next(self):\n"
        "        ??\n"
        "        self.x = ??\n"
    )
    p, _ = pruned(src)
    assert isinstance(p.locals[0].annot, HoleType)
    assert isinstance(p.locals[1], HoleDecl)
    assert isinstance(p.next_body[0], HoleStmt)
    assert isinstance(p.next_body[1].rhs, HoleExpr)
    assert count_holes(p) == 4


def test_prune_desugars_augmented_assignment():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "    def next(self):\n"
        "        self.x += 2\n"
    )
    p, _ = pruned(src)
    stmt = p.next_body[0]
    assert isinstance(stmt, Assign)
    assert isinstance(stmt.rhs, Binary) and stmt.rhs.op == "+"
    # the target occurs twice, as two node objects
    assert stmt.rhs.left == stmt.lhs
    assert stmt.rhs.left is not stmt.lhs


def test_prune_surface_calls():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = BitVector(4)\n"
        "    def next(self):\n"
        "        havoc(self.x)\n"
        "        assume(self.x == BV(3, 4))\n"
    )
    p, _ = pruned(src)
    assert type(p.next_body[0]).__name__ == "Havoc"
    assume = p.next_body[1]
    assert isinstance(assume.cond.right, BVLit)
    assert (assume.cond.right.value, assume.cond.right.width) == (3, 4)


def test_prune_quoted_tag_is_enum_literal():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        '        self.mode = Enum("A", "B")\n'
        "    def init(self):\n"
        '        self.mode = "A"\n'
    )
    p, _ = pruned(src)
    assert isinstance(p.init_body[0].rhs, EnumLit)


def test_prune_specification_collects_invariants():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "    def specification(self):\n"
        "        return self.x >= 0\n"
        "        return self.x < 100\n"
    )
    p, _ = pruned(src)
    assert [name for name, _ in p.invariants_spec] == ["spec0", "spec1"]


def test_prune_specification_statement_becomes_invariant_hole():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.y = int\n"
        "    def specification(self):\n"
        "        self.y = 1\n"
    )
    p, rep = pruned(src)
    assert [type(e) for _, e in p.invariants_spec] == [HoleExpr]
    assert [(d["line"], d["reason"]) for d in rep.to_dict()["dropped"]] == [
        (5, "specification must return or assert a property")]
    assert [h["category"] for h in rep.to_dict()["holes_inserted"]] == [
        "invariant"]


@pytest.mark.parametrize("rhs", [
    "9" * 5000, "BV(" + "9" * 5000 + ", 8)", "BV(1, " + "9" * 5000 + ")",
], ids=["int", "bv-value", "bv-width"])
def test_prune_overlong_literal_is_a_hole(rhs):
    src = (
        "class M(Module):\n"
        "    def init(self):\n"
        f"        self.x = {rhs}\n"
    )
    p, rep = pruned(src)
    assert isinstance(p.init_body[0].rhs, HoleExpr)
    assert [h["category"] for h in rep.to_dict()["holes_inserted"]] == [
        "expression"]
    assert len(rep.dropped) == 1


@pytest.mark.parametrize("rhs", ["9" * 400 + ".5", "0." + "0" * 400 + "1"],
                         ids=["overflow", "underflow"])
def test_prune_real_literal_no_float_holds_is_a_hole(rhs):
    src = (
        "class M(Module):\n"
        "    def init(self):\n"
        f"        self.x = {rhs}\n"
        "        self.y = 0.000\n"
    )
    p, rep = pruned(src)
    assert isinstance(p.init_body[0].rhs, HoleExpr)
    assert p.init_body[1].rhs == RealLit(0.0)
    assert [h["category"] for h in rep.to_dict()["holes_inserted"]] == [
        "expression"]
    assert len(rep.dropped) == 1


def test_prune_overlong_bitvector_width_is_a_type_hole():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        f"        self.x = BitVector({'9' * 5000})\n"
    )
    p, rep = pruned(src)
    assert isinstance(p.locals[0].annot, HoleType)
    assert [h["category"] for h in rep.to_dict()["holes_inserted"]] == ["type"]
    assert len(rep.dropped) == 1


def test_prune_synonym_requires_prior_typedef():
    src = (
        "class M(Module):\n"
        "    def types(self):\n"
        "        self.word_t = BitVector(8)\n"
        "    def locals(self):\n"
        "        self.a = self.word_t\n"
        "        self.b = self.missing_t\n"
    )
    p, _ = pruned(src)
    assert type(p.locals[0].annot).__name__ == "TypeAnnot"
    assert not isinstance(p.locals[1].annot, type(p.locals[0].annot))


# ---------------------------------------------------------------------------
# print_child round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(VALID_PROGRAMS))
def test_print_child_is_prune_fixpoint_on_corpus(name):
    p, _ = pruned(VALID_PROGRAMS[name])
    text = print_child(p)
    p2, rep2 = prune_to_child(parse_tolerant(text))
    assert print_child(p2) == text
    assert not rep2.dropped


@pytest.mark.parametrize("literal", [
    "0.00001", "12345678901234567.0", ".5", "100.0", "0." + "0" * 300 + "1",
])
def test_print_child_real_literal_round_trips(literal):
    src = f"class M(Module):\n    def init(self):\n        self.x = {literal}\n"
    p, _ = pruned(src)
    text = print_child(p)
    p2, rep2 = pruned(text)
    assert p2.init_body[0].rhs == p.init_body[0].rhs == RealLit(float(literal))
    assert print_child(p2) == text
    assert not rep2.dropped


def test_print_child_renders_holes_as_question_marks():
    src = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = ??\n"
        "    def next(self):\n"
        "        ??\n"
    )
    p, _ = pruned(src)
    text = print_child(p)
    assert text.count("??") == 2
    p2, _ = prune_to_child(parse_tolerant(text))
    assert count_holes(p2) == count_holes(p)


def test_mutated_corpus_never_raises():
    rng = random.Random(20240817)
    sources = [VALID_PROGRAMS[k] for k in sorted(VALID_PROGRAMS)]
    alphabet = "abcdef.:()=?\"'\n\t 0123456789"
    for _ in range(300):
        src = list(rng.choice(sources))
        for _ in range(rng.randint(1, 8)):
            pos = rng.randrange(len(src))
            choice = rng.random()
            if choice < 0.4:
                src[pos] = rng.choice(alphabet)
            elif choice < 0.7:
                src.insert(pos, rng.choice(alphabet))
            else:
                del src[pos]
        p, _ = prune_to_child(parse_tolerant("".join(src)))
        for node, _ in iter_nodes(p):
            assert node is not None


# ---------------------------------------------------------------------------
# No silent loss: each statement of a section is kept, a hole, or a
# reported drop
# ---------------------------------------------------------------------------

# the section methods and the program field each one fills
SECTION_FIELDS = {
    "types": "type_defs", "locals": "locals", "inputs": "inputs",
    "outputs": "outputs", "init": "init_body", "next": "next_body",
    "specification": "invariants_spec",
}


def _statements(block, nested: bool):
    """The statements of a surface block, `pass` and docstrings aside; with
    `nested`, those in the blocks of each `if`, `elif` and `else` too."""
    for stmt in block.children:
        if stmt.kind in ("pass", "docstring"):
            continue
        yield stmt
        if nested and stmt.kind == "if":
            for arm in (stmt.children[1], *stmt.children[2:]):
                yield from _statements(arm if arm.kind == "block"
                                       else arm.children[-1], nested)


def _entries(entries):
    """Program entries, with the statements in each `If`'s arms."""
    for e in entries:
        yield e
        if isinstance(e, If):
            for _, body in e.arms:
                yield from _entries(body)
            yield from _entries(e.orelse)


def section_accounts(source: str) -> dict[str, tuple[int, int, int, int]]:
    """For each section the pruner reads: its statement count, and how many
    of them it kept, made holes and reported as dropped with no hole in
    their place. Statements of `init` and `next` are counted at every `if`
    depth; elsewhere an `if` is one statement, dropped whole."""
    ast = parse_tolerant(source)
    program, report = prune_to_child(ast)
    cls = next((n for n in ast.root.children if n.kind == "class"
                and BASE_CLASS in [b.text for b in n.children[0].children]),
               None)
    if cls is None:
        return {}
    dropped = {id(node) for node, _ in report.dropped}
    replaced = {span for _, category, span in report.holes_inserted
                if category in ("declaration", "statement", "invariant")}
    out: dict[str, tuple[int, int, int, int]] = {}
    for method in cls.children[1].children:
        if method.kind != "def" or method.text not in SECTION_FIELDS \
                or method.text in out:
            continue
        stmts = list(_statements(method.children[1],
                                 method.text in ("init", "next")))
        entries = getattr(program, SECTION_FIELDS[method.text])
        if method.text == "specification":
            entries = [prop for _, prop in entries]
        entries = list(_entries(entries))
        holes = sum(isinstance(e, (HoleDecl, HoleStmt, HoleExpr))
                    for e in entries)
        drops = sum(id(s) in dropped and s.span not in replaced
                    for s in stmts)
        out[method.text] = (len(stmts), len(entries) - holes, holes, drops)
    return out


def _workload_replies():
    for workload in workloads.WORKLOADS:
        for seed in (0, 1, 2):
            for item in workloads.pool(workload, seed, SUITE_DIR / "suite.json"):
                for i, reply in enumerate(item.replies):
                    yield f"{workload}/{seed}/{item.key}/{i}", extract_code(reply)


LOSS_FAMILIES = {
    "corpus": lambda: [*VALID_PROGRAMS.items(), *INVALID_PROGRAMS.items()],
    "transcripts": transcript_replies,
    "workloads": _workload_replies,
    "criterion8": lambda: (
        (f"fuzz/{i}", text) for i, text in enumerate(fuzz_inputs())),
}


@pytest.mark.parametrize("family", LOSS_FAMILIES)
def test_no_statement_is_lost_silently(family):
    sections = 0
    lost = []
    for name, source in LOSS_FAMILIES[family]():
        for section, (count, kept, holes, drops) in \
                section_accounts(source).items():
            sections += 1
            if count != kept + holes + drops:
                lost.append((name, section, count, kept, holes, drops))
    assert sections > 0
    assert not lost, lost


def test_an_else_closes_its_if():
    # a second `else`, or an `elif` after the `else`, is no arm of the
    # `if`: each is an unparseable line and a hole, never a lost `else`
    # block or an arm moved ahead of it
    src = (
        "class M(Module):\n"
        "    def next(self):\n"
        "        if self.x > 0:\n"
        "            self.x = 1\n"
        "        else:\n"
        "            self.x = 2\n"
        "        else:\n"
        "            self.x = 3\n"
        "        elif self.x < 0:\n"
        "            self.x = 4\n"
    )
    p, rep = pruned(src)
    (stmt, *rest) = p.next_body
    assert isinstance(stmt, If) and len(stmt.arms) == 1
    assert [s.rhs.value for s in stmt.orelse] == [2]
    assert [type(s) for s in rest] == [HoleStmt, HoleStmt]
    assert [d["line"] for d in rep.to_dict()["dropped"]] == [7, 9]
    assert section_accounts(src) == {"next": (5, 3, 2, 0)}


# ---------------------------------------------------------------------------
# Expression precedence
# ---------------------------------------------------------------------------

# Binary operator levels, loosest first; prefix `not` sits between `and`
# and the comparisons, as in Python.
SURFACE_LEVELS = [
    ("or",),
    ("and",),
    ("==", "!=", "<", "<=", ">", ">="),
    ("|",),
    ("^",),
    ("&",),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "//", "%"),
]


def sexp(n) -> str:
    if n.kind in ("binop", "unop", "ifexp"):
        head = n.text if n.kind != "ifexp" else "ifexp"
        return "(" + " ".join([head, *map(sexp, n.children)]) + ")"
    return n.text


def parse_expr(text: str):
    """The parse of `text` as an s-expression, or None for an error node."""
    (stmt,) = parse_tolerant(f"x = {text}\n").root.children
    return None if stmt.kind == "error" else sexp(stmt.children[1])


@pytest.mark.parametrize(
    "low,high", list(zip(SURFACE_LEVELS, SURFACE_LEVELS[1:])),
    ids=[f"{lo[0]}<{hi[0]}" for lo, hi in zip(SURFACE_LEVELS, SURFACE_LEVELS[1:])],
)
def test_adjacent_levels_bind_in_python_order(low, high):
    for lo in low:
        for hi in high:
            assert parse_expr(f"a {lo} b {hi} c") == f"({lo} a ({hi} b c))"
            assert parse_expr(f"a {hi} b {lo} c") == f"({lo} ({hi} a b) c)"


@pytest.mark.parametrize("level", SURFACE_LEVELS, ids=lambda lv: lv[0])
def test_same_level_chains_are_left_associative(level):
    for op1 in level:
        for op2 in level:
            assert parse_expr(f"a {op1} b {op2} c") == f"({op2} ({op1} a b) c)"


@pytest.mark.parametrize("text,tree", [
    ("not a == b", "(not (== a b))"),
    ("a and not b", "(and a (not b))"),
    ("not a and b", "(and (not a) b)"),
    ("not not a or b", "(or (not (not a)) b)"),
    ("a == not b", None),
    ("a + not b", None),
    ("-a * b", "(* (- a) b)"),
    ("~a & b", "(& (~ a) b)"),
    ("+a - b", "(- a b)"),
    ("a or b if c and d else e", "(ifexp (or a b) (and c d) e)"),
    ("a if b else c if d else e", "(ifexp a b (ifexp c d e))"),
    ("(a + b) * c", "(* (+ a b) c)"),
])
def test_prefix_and_ternary_precedence(text, tree):
    assert parse_expr(text) == tree


@pytest.mark.parametrize("nest", [
    lambda d: "(" * d + "a" + ")" * d,
    lambda d: "-" * d + "a",
    lambda d: "not " * d + "a",
    lambda d: "f(" * d + "a" + ")" * d,
    lambda d: "x[" * d + "a" + "]" * d,
    lambda d: "a if b else " * d + "c",
], ids=["paren", "minus", "not", "call", "subscript", "ternary"])
def test_nesting_past_the_bound_is_an_error_node(nest):
    def errors(depth: int) -> list:
        src = f"class M(Module):\n    def next(self):\n        self.x = {nest(depth)}\n"
        return error_nodes(parse_tolerant(src))

    assert not errors(MAX_NESTING)
    assert len(errors(MAX_NESTING + 1)) == 1
    assert len(errors(1000)) == 1


def nested_ifs(levels: int, innermost: str = "self.x = 1") -> str:
    """A module whose innermost line sits `levels` blocks deep (the class
    and method bodies included), one space of indentation per level."""
    lines = ["class M(Module):", " def next(self):"]
    lines += [" " * k + "if self.b:" for k in range(2, levels)]
    return "\n".join(lines + [" " * levels + innermost]) + "\n"


def test_block_nesting_past_the_bound_is_an_error_node():
    ast = parse_tolerant(nested_ifs(1000))
    assert len(error_nodes(ast)) == 1
    assert not error_nodes(parse_tolerant(nested_ifs(MAX_BLOCK_NESTING)))
    # 60 nested `if`s in a method, the deepest `scaled_clean` benchmark item
    assert not error_nodes(parse_tolerant(nested_ifs(62)))
    assert len(error_nodes(parse_tolerant(
        nested_ifs(MAX_BLOCK_NESTING + 1)))) == 1


def test_deepest_blocks_hold_the_deepest_expression():
    expr = "(" * MAX_NESTING + "self.b" + ")" * MAX_NESTING
    src = nested_ifs(MAX_BLOCK_NESTING, f"self.x = {expr}")
    assert not error_nodes(parse_tolerant(src))


def test_long_chain_parses_without_recursion():
    terms = " + ".join(["self.a"] * 3000)
    src = f"class M(Module):\n    def next(self):\n        self.x = {terms}\n"
    ast = parse_tolerant(src)
    assert not error_nodes(ast)
    depth = max(d for _, d in iter_nodes(ast.root))
    assert depth > 3000
    p, report = prune_to_child(ast)
    assert not report.dropped and count_holes(p) == 0
    assert sum(isinstance(n, Binary) for n, _ in iter_nodes(p)) == 2999
