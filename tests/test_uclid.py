"""Compilation of hole-free programs and verifier-text printing."""

import pytest

from corpus import VALID_PROGRAMS
from uclgen.ast_core import Binary, IntType, VarRef
from uclgen.frontend import parse_tolerant, prune_to_child
from uclgen.maxsmt import Untypeable
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


def test_lower_without_types_defaults_to_integer():
    p = program_of(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = 0\n"
    )
    module = lower(p, {})
    assert print_uclid(module).count("var x : integer;") == 1
    assert module.notes


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
