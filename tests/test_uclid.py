"""Compilation of hole-free programs and verifier-text printing."""

import random
import sys

import pytest

from corpus import INVALID_PROGRAMS, VALID_PROGRAMS, mutate
from uclgen import constraints, uclid
from uclgen.ast_core import (
    Binary,
    ChildProgram,
    Decl,
    Havoc,
    HoleDecl,
    HoleExpr,
    HoleStmt,
    HoleType,
    IntType,
    VarRef,
    iter_nodes,
    max_hole_id,
)
from uclgen.constraints import generate_clauses
from uclgen.frontend import parse_tolerant, prune_to_child
from uclgen.maxsmt import Untypeable, check_sat
from uclgen.repair import repair_round
from uclgen.uclid import (
    UCLID_KEYWORDS,
    CompileError,
    HoleRemaining,
    compile_program,
    lower,
    print_expr,
    print_uclid,
    uclid_name,
)
from uclgen.uclid_check import parse_uclid, validate_uclid


def program_of(src: str):
    p, _ = prune_to_child(parse_tolerant(src))
    return p


def compiled(src: str) -> str:
    return print_uclid(compile_program(program_of(src)))


def test_simple_module_text():
    text = compiled(VALID_PROGRAMS["counter"])
    assert text.startswith("module main {")
    assert "var count : integer;" in text
    assert "procedure step()" in text
    assert "modifies count;" in text
    assert "next {\n    call step();\n  }" in text
    assert "invariant spec0: (count >= 0);" in text


def test_programs_with_holes_are_rejected():
    p = program_of(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = ??\n"
    )
    with pytest.raises(HoleRemaining):
        compile_program(p)


def test_type_conflicts_are_rejected():
    p = program_of(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = bool\n"
        "    def init(self):\n"
        "        self.x = 1\n"
    )
    with pytest.raises(Untypeable):
        compile_program(p)


def test_undeclared_variables_are_rejected():
    p = program_of(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "    def next(self):\n"
        "        self.x = self.ghost\n"
    )
    with pytest.raises(CompileError):
        compile_program(p)


def test_havoc_of_an_undeclared_variable_is_rejected():
    p = program_of(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "    def next(self):\n"
        "        havoc(self.ghost)\n"
    )
    with pytest.raises(CompileError, match="ghost"):
        compile_program(p)


def test_value_declarations_are_materialized():
    text = compiled(VALID_PROGRAMS["value_decls"])
    assert "var count : integer;" in text
    assert "var armed : boolean;" in text


def test_keyword_names_get_renamed_with_note():
    module = compile_program(program_of(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.next = int\n"
        "    def init(self):\n"
        "        self.next = 0\n"
    ))
    assert module.vars == [("next", IntType())]  # spelled by the printer
    text = print_uclid(module)
    assert "var next_v : integer;" in text
    assert "next_v = 0;" in text
    assert module.notes == ["renamed 'next' to 'next_v' (reserved word)"]


def test_name_respelled_clear_of_a_reserved_spelling_says_so():
    module = compile_program(program_of(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.next = int\n"
        "        self.next_v = bool\n"
        "    def init(self):\n"
        "        self.next = 0\n"
        "        self.next_v = True\n"
    ))
    assert module.notes == [
        "renamed 'next' to 'next_v' (reserved word)",
        "renamed 'next_v' to 'next_v_v' (keeps clear of a reserved word's "
        "spelling)",
    ]


def test_a_name_spelled_like_the_step_procedure_is_respelled():
    # `print_uclid` declares `procedure step()` in the module's one scope
    module = compile_program(program_of(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.step = int\n"
        "        self.step_v = bool\n"
        "    def init(self):\n"
        "        self.step = 0\n"
        "        self.step_v = False\n"
        "    def next(self):\n"
        "        self.step = self.step + 1\n"
    ))
    assert module.notes == [
        "renamed 'step' to 'step_v' (procedure name)",
        "renamed 'step_v' to 'step_v_v' (keeps clear of a procedure name's "
        "spelling)",
    ]
    text = print_uclid(module)
    assert "var step_v : integer;" in text
    assert "var step_v_v : boolean;" in text
    assert "modifies step_v;" in text
    assert validate_uclid(text) == []
    # an enum tag too
    text = compiled(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.mode = Enum(\"step\", \"run\")\n"
        "    def init(self):\n"
        "        self.mode = \"step\"\n"
    )
    assert "var mode : enum { run, step_v };" in text
    assert "mode = step_v;" in text
    assert validate_uclid(text) == []


def test_uclid_name_is_injective_and_never_reserved():
    assert [uclid_name(n) for n in ("next", "next_v", "next_v_v", "x_v")] \
        == ["next_v", "next_v_v", "next_v_v_v", "x_v"]
    names = [n + suffix for n in [*UCLID_KEYWORDS, "x", "", "v", "nextv"]
             for suffix in ("", "_v", "_v_v")]
    spelled = [uclid_name(n) for n in names]
    assert len(set(spelled)) == len(names)
    assert not UCLID_KEYWORDS & set(spelled)


def test_modifies_in_first_write_order():
    text = compiled(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.b = int\n"
        "        self.a = int\n"
        "    def init(self):\n"
        "        self.a = 0\n"
        "        self.b = 0\n"
        "    def next(self):\n"
        "        self.b = self.a\n"
        "        self.a = self.b\n"
        "        self.b = 1\n"
    )
    assert text.index("modifies b;") < text.index("modifies a;")
    assert text.count("modifies b;") == 1


def test_elif_prints_as_nested_else_if():
    text = compiled(VALID_PROGRAMS["ladder"])
    assert "} else {\n      if ((phase == 1)) {" in text


def test_bv_literals_and_enum_tags():
    text = compiled(VALID_PROGRAMS["enum_and_bv"])
    assert "0bv2" in text and "1bv2" in text
    assert "enum { A, B }" in text
    assert "lane = A;" in text


def test_havoc_assume_and_assert_forms():
    text = compiled(VALID_PROGRAMS["timer"])
    assert "havoc remaining;" in text
    assert "assume((remaining >= 0));" in text
    text = compiled(VALID_PROGRAMS["checked"])
    assert "assert((level < 5));" in text


def test_ite_expression():
    text = compiled(VALID_PROGRAMS["ite_pick"])
    assert "ite(" in text


@pytest.mark.parametrize("line", ["self.x = ??", "??"],
                         ids=["type-hole", "decl-hole"])
def test_lower_rejects_a_hole_that_compile_would_count(line):
    # `lower` called directly, without `compile_program`'s hole count
    p = program_of(f"class M(Module):\n    def locals(self):\n        {line}\n")
    with pytest.raises(HoleRemaining) as exc:
        lower(p, {})
    assert exc.value.count == 1


@pytest.mark.parametrize("name", sorted(VALID_PROGRAMS))
def test_round_trip_corpus_compiles_and_validates(name):
    text = compiled(VALID_PROGRAMS[name])
    assert validate_uclid(text) == []


def test_real_literals_print_positional():
    text = compiled(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = real\n"
        "    def init(self):\n"
        "        self.x = 0.00001\n"
        "    def next(self):\n"
        "        self.x = 12345678901234567.0\n"
    )
    assert "x = 0.00001;" in text
    assert "x = 12345678901234568.0;" in text
    assert validate_uclid(text) == []


@pytest.mark.parametrize("op,sym", [
    ("+", "+"), ("-", "-"), ("*", "*"), ("and", "&&"), ("or", "||"),
    ("bvand", "&"), ("bvor", "|"), ("concat", "++"),
])
def test_left_chains_print_flat(op, sym):
    a, b, c, d = (VarRef(n) for n in "abcd")
    left = Binary(op, Binary(op, Binary(op, a, b), c), d)
    flat = print_expr(left)
    assert flat == f"(a {sym} b {sym} c {sym} d)"
    assert print_expr(Binary(op, a, Binary(op, b, c))) == f"(a {sym} (b {sym} c))"

    def parsed(e: str):
        return parse_uclid("module main {\n  invariant p: " + e + ";\n}\n")

    assert parsed(flat) == parsed(f"(((a {sym} b) {sym} c) {sym} d)")


@pytest.mark.parametrize("op,sym", [("==", "=="), ("<", "<"), ("implies", "==>"),
                                    ("xor", "^"), ("div", "/")])
def test_other_chains_keep_their_parentheses(op, sym):
    a, b, c = (VarRef(n) for n in "abc")
    assert print_expr(Binary(op, Binary(op, a, b), c)) == f"((a {sym} b) {sym} c)"


# ---------------------------------------------------------------------------
# Holes and undeclared names come from the clause set, not from more walks
# ---------------------------------------------------------------------------

def _walk_hole_ids(p: ChildProgram) -> list[int]:
    """Every hole id of a program by a tree walk, its module hole last."""
    ids = [n.hid for n, _ in iter_nodes(p)
           if isinstance(n, (HoleExpr, HoleStmt, HoleType, HoleDecl))]
    return ids + ([p.module_hole] if p.module_hole is not None else [])


def _walk_undeclared(p: ChildProgram) -> list[str]:
    """Variables used but not declared, in first-use order, by a walk."""
    declared = {d.name for section in (p.locals, p.inputs, p.outputs)
                for d in section if isinstance(d, Decl)}
    out: dict[str, None] = {}
    for n, _ in iter_nodes(p):
        if isinstance(n, (VarRef, Havoc)) and n.name not in declared:
            out[n.name] = None
    return list(out)


def _compile_by_walks(program: ChildProgram):
    """`compile_program` as it was before the clause set recorded these
    facts: two walks first, then every variable of the clauses grounded."""
    holes = _walk_hole_ids(program)
    if holes:
        raise HoleRemaining(len(holes))
    missing = _walk_undeclared(program)
    if missing:
        raise CompileError(f"use of undeclared variable {missing[0]!r}")
    cs = generate_clauses(program)
    res = check_sat(cs.clauses)
    return lower(program, {key[1]: res.model[tv.tid]
                           for key, tv in cs.tvar_table.items()
                           if key[0] == "var" and tv.tid in res.model})


def _outcome(compile_fn, program):
    try:
        m = compile_fn(program)
    except (CompileError, Untypeable) as e:
        return type(e).__name__, str(e)
    return print_uclid(m), m.notes


def _seeded_drafts():
    """Each corpus program, pruned as written and after a repair round,
    and three seeded mutations of each, likewise."""
    rng = random.Random(0)
    for name in sorted(VALID_PROGRAMS) + sorted(INVALID_PROGRAMS):
        src = VALID_PROGRAMS.get(name) or INVALID_PROGRAMS[name]
        for text in [src] + [mutate(rng, src) for _ in range(3)]:
            p = program_of(text)
            yield p
            yield repair_round(p).program


def test_clause_set_facts_equal_those_of_a_tree_walk():
    kinds = set()
    for p in _seeded_drafts():
        cs = generate_clauses(p)
        assert list(cs.undeclared) == _walk_undeclared(p)
        assert list(cs.hole_ids) == _walk_hole_ids(p)
        assert cs.next_hole_id == max_hole_id(p) + 1
        kinds.add((bool(cs.undeclared), bool(cs.hole_ids),
                   p.module_hole is not None))
    # drafts with and without each fact, and one with no Module class
    assert {(True, True, False), (False, True, False), (False, False, False),
            (False, True, True)} <= kinds, kinds


def test_compile_fails_and_lowers_as_the_walks_did():
    # same exception and message, or the same text and `lower` notes
    seen = set()
    for p in _seeded_drafts():
        got = _outcome(compile_program, p)
        assert got == _outcome(_compile_by_walks, p)
        seen.add(got[0] if got[0] in ("HoleRemaining", "CompileError",
                                      "Untypeable") else "compiled")
    assert seen == {"HoleRemaining", "CompileError", "Untypeable",
                    "compiled"}


# a clean draft that reads a name it never declares: the round declares
# it after its one generation
READS_UNDECLARED = (
    "class M(Module):\n"
    "    def locals(self):\n"
    "        self.x = int\n"
    "    def init(self):\n"
    "        self.x = self.ghost + 1\n"
)


@pytest.mark.parametrize("name", [*sorted(VALID_PROGRAMS), "reads_undeclared"])
def test_a_clean_round_and_its_compile_walk_once_per_generation(
        monkeypatch, name):
    # the round and compile read holes and undeclared names from the
    # clause sets, so the only whole-program walks are the generations'
    walks, generations = [], []

    def counted(fn, log):
        def wrapper(tree, *args):
            if isinstance(tree, ChildProgram):
                log.append(tree)
            return fn(tree, *args)
        return wrapper

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("uclgen.") and hasattr(mod, "iter_nodes"):
            monkeypatch.setattr(mod, "iter_nodes",
                                counted(mod.iter_nodes, walks))
    for mod in (constraints.__name__, "uclgen.repair", uclid.__name__):
        mod = sys.modules[mod]
        monkeypatch.setattr(mod, "generate_clauses",
                            counted(mod.generate_clauses, generations))
    source = VALID_PROGRAMS.get(name, READS_UNDECLARED)
    out = repair_round(program_of(source))
    compile_program(out.program)
    assert len(generations) == 2
    assert walks == generations
