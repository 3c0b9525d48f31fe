"""The independent verifier-text parser and type checker."""

import sys

import pytest

from corpus import INVALID_PROGRAMS, VALID_PROGRAMS
from test_pipeline import _frames_in_use
from uclgen.ast_core import Assign, Binary, If, IntLit, Unary, VarRef
from uclgen.frontend import parse_tolerant, prune_to_child
from uclgen.uclid import UCLID_KEYWORDS, compile_program, lower, print_uclid
from uclgen.uclid_check import (
    _RESERVED,
    MAX_IF_NESTING,
    MAX_NESTING,
    UclidParseError,
    parse_uclid,
    validate_uclid,
)


def program_of(src: str):
    p, _ = prune_to_child(parse_tolerant(src))
    return p


GOOD = """
module main {
  var count : integer;
  input cap : integer;
  init {
    count = 0;
  }
  next {
    if (count < cap) {
      count = count + 1;
    }
  }
  invariant keep: count >= 0;
}
"""


def codes(text: str) -> set[str]:
    return {d.code for d in validate_uclid(text)}


def test_accepts_well_typed_module():
    assert validate_uclid(GOOD) == []


def test_accepts_flexible_layout():
    # comma declaration lists, multi-name modifies, call-based next
    text = """
module main {
  var a, b : integer;
  var go : boolean;
  init { a = 0; b = 0; go = false; }
  procedure step()
    modifies a, b;
  {
    a = b;
    b = a + 1;
  }
  next { call step(); }
}
"""
    assert validate_uclid(text) == []


def test_parse_error_is_a_diagnostic():
    assert codes("module main { var }")  # no exception


def test_parse_uclid_raises_on_garbage():
    with pytest.raises(UclidParseError):
        parse_uclid("this is not a module")


@pytest.mark.parametrize("before", [
    "  // a comment\n  ",
    "\t/* a block\n comment */ ",
    "  /* one */ // two\n\n   ",
], ids=["line-comment", "block-comment", "both"])
def test_tokenize_error_names_the_offset_after_whitespace_and_comments(before):
    text = "module main {\n" + before + "$ }"
    offset = text.index("$")
    with pytest.raises(UclidParseError,
                       match=rf"^cannot tokenize at offset {offset}: '\$ }}'$"):
        parse_uclid(text)


@pytest.mark.parametrize("name", ["ärger", "Ä", "_x", "世界", "é2"])
def test_a_name_starts_with_any_letter_or_underscore(name):
    text = f"module main {{ var {name} : integer; init {{ {name} = 0; }} }}"
    assert validate_uclid(text) == []


def test_a_name_cannot_start_with_a_non_decimal_digit():
    text = "module main { var ²x : integer; }"
    offset = text.index("²")
    with pytest.raises(UclidParseError,
                       match=f"^cannot tokenize at offset {offset}: "):
        parse_uclid(text)


@pytest.mark.parametrize("literal", [
    "9" * 5000, "9" * 5000 + "bv8", "1bv" + "9" * 5000,
], ids=["int", "bv-value", "bv-width"])
def test_overlong_integer_literal_is_a_parse_error(literal):
    text = f"module main {{ var x : integer; init {{ x = {literal}; }} }}"
    assert codes(text) == {"parse-error"}


def test_overlong_bitvector_type_width_is_a_parse_error():
    assert codes(f"module main {{ var x : bv{'9' * 5000}; }}") == {"parse-error"}


@pytest.mark.parametrize("decl", [
    "var x : enum { a, b, a };", "var x : bv0;",
], ids=["duplicate-tag", "zero-width"])
def test_unrepresentable_type_is_a_parse_error(decl):
    assert codes(f"module main {{ {decl} }}") == {"parse-error"}


@pytest.mark.parametrize("decl", [
    "var next : integer;", "type input = integer;",
    "var x : enum { go, init };", "output assume : boolean;",
], ids=["var", "type", "enum-tag", "output"])
def test_reserved_word_as_a_name(decl):
    assert codes(f"module main {{ {decl} }}") == {"reserved-word"}


def test_long_chain_is_typed_without_recursion():
    chain = " + ".join(["x"] * 3000)
    text = f"module main {{ var x : integer; init {{ x = {chain}; }} }}"
    assert validate_uclid(text) == []
    assert codes(text.replace(" + x;", " + true;")) == {"arith-mismatch"}


def test_reserved_words_match_the_compiler():
    assert _RESERVED == UCLID_KEYWORDS


def test_duplicate_declaration():
    text = GOOD.replace(
        "var count : integer;",
        "var count : integer;\n  var count : boolean;",
    )
    assert "duplicate-declaration" in codes(text)


def test_input_write_detected():
    text = GOOD.replace("count = count + 1;", "cap = 0;")
    assert any("input" in c for c in codes(text))


def test_assignment_type_mismatch():
    text = GOOD.replace("count = 0;", "count = false;")
    assert codes(text)


def test_condition_must_be_boolean():
    text = GOOD.replace("count < cap", "count + cap")
    assert codes(text)


def test_undeclared_variable():
    text = GOOD.replace("count = 0;", "count = ghost;")
    assert any("undeclared" in c for c in codes(text))


def test_modifies_must_be_exact():
    missing = """
module main {
  var a : integer;
  var b : integer;
  init { a = 0; b = 0; }
  procedure step()
    modifies a;
  {
    a = 1;
    b = 2;
  }
  next { call step(); }
}
"""
    assert codes(missing)
    stale = missing.replace("modifies a;", "modifies a;\n    modifies b;")
    stale = stale.replace("b = 2;", "")
    assert codes(stale)


def test_invariant_must_be_boolean():
    text = GOOD.replace("count >= 0", "count + 1")
    assert codes(text)


def test_enum_tags_resolve():
    text = """
module main {
  var mode : enum { OFF, ON };
  init { mode = OFF; }
  next { mode = ON; }
}
"""
    assert validate_uclid(text) == []
    assert codes(text.replace("mode = ON;", "mode = MAYBE;"))


def test_bitvector_widths_checked():
    text = """
module main {
  var w : bv4;
  init { w = 0bv4; }
  next { w = w + 1bv8; }
}
"""
    assert codes(text)
    assert validate_uclid(text.replace("1bv8", "1bv4")) == []


# One module per fault, each with every other line well typed: `go` is a
# boolean, `n` an integer, `w` a 4-bit vector and `cap` an input.
CODE_BASE = """
module main {{
  var go : boolean;
  var n : integer;
  var w : bv4;
  input cap : integer;
  {decls}
  init {{ go = false; n = 0; w = 0bv4; }}
  {next}
  {spec}
}}
"""


def code_case(decls="", stmt="n = n;", spec="", next_=None):
    return CODE_BASE.format(
        decls=decls, spec=spec,
        next=next_ if next_ is not None else f"next {{ {stmt} }}")


STEP = """
  procedure step()
    modifies {};
  {{ n = 1; {} }}
  next {{ call step(); }}"""

# case -> (module text, the one diagnostic code it must get)
CODE_TABLE = {
    "undefined-type": (code_case(decls="var t : thing;"), "undefined-type"),
    "duplicate-type": (
        code_case(decls="type t = integer;\n  type t = boolean;"),
        "duplicate-type"),
    "duplicate-declaration": (
        code_case(decls="var n : boolean;"), "duplicate-declaration"),
    "undeclared": (code_case(stmt="n = ghost;"), "undeclared"),
    "undeclared-havoc": (code_case(stmt="havoc ghost;"), "undeclared"),
    "undeclared-tag": (
        code_case(decls="var mode : enum { OFF, ON };", stmt="mode = MAYBE;"),
        "undeclared"),
    "input-write": (code_case(stmt="cap = 0;"), "input-write"),
    "input-havoc": (code_case(stmt="havoc cap;"), "input-write"),
    "assign-mismatch": (code_case(stmt="n = false;"), "assign-mismatch"),
    "if-condition": (
        code_case(stmt="if (n + 1) { n = 1; }"), "condition-not-boolean"),
    "assume-condition": (
        code_case(stmt="assume (n);"), "condition-not-boolean"),
    "ite-condition": (
        code_case(stmt="n = ite(n, 1, 2);"), "condition-not-boolean"),
    "ite-mismatch": (code_case(stmt="n = ite(go, 1, true);"), "ite-mismatch"),
    "invariant-not-boolean": (
        code_case(spec="invariant keep: n + 1;"), "invariant-not-boolean"),
    "index-type": (
        code_case(decls="var a : [integer]boolean;", stmt="go = a[true];"),
        "index-type"),
    "index-non-array": (code_case(stmt="go = n[0];"), "operand-type"),
    "missing-modifies": (
        code_case(next_=STEP.format("n", "go = true;")), "missing-modifies"),
    "stale-modifies": (
        code_case(next_=STEP.format("n, go", "")), "stale-modifies"),
    "not-int": (code_case(stmt="go = !n;"), "operand-type"),
    "neg-bool": (code_case(stmt="n = -go;"), "operand-type"),
    "less-bool": (code_case(stmt="go = go < go;"), "operand-type"),
    "less-mixed": (code_case(stmt="go = n < w;"), "compare-mismatch"),
    "xor-int": (code_case(stmt="n = n ^ n;"), "operand-type"),
    "xor-mixed": (code_case(stmt="go = go ^ w;"), "arith-mismatch"),
    "and-int": (code_case(stmt="n = n & n;"), "operand-type"),
    "and-width": (code_case(stmt="w = w & 1bv8;"), "arith-mismatch"),
    "plus-width": (code_case(stmt="w = w + 1bv8;"), "arith-mismatch"),
    "plus-mixed": (code_case(stmt="n = n + true;"), "arith-mismatch"),
    # w ++ w is 8 bits wide: the widths add up
    "concat-width": (code_case(stmt="w = w ++ w;"), "assign-mismatch"),
    "concat-int": (code_case(stmt="w = n ++ w;"), "operand-type"),
}


def test_the_code_table_base_is_well_typed():
    assert validate_uclid(code_case()) == []
    assert validate_uclid(code_case(next_=STEP.format("n", ""))) == []
    assert validate_uclid(code_case(decls="var v : bv8;",
                                    stmt="v = w ++ w;")) == []


@pytest.mark.parametrize("case", CODE_TABLE)
def test_a_fault_gets_exactly_its_code(case):
    text, code = CODE_TABLE[case]
    assert [d.code for d in validate_uclid(text)] == [code]


def test_parse_print_is_stable():
    module = parse_uclid(GOOD)
    printed = print_uclid(module)
    assert print_uclid(parse_uclid(printed)) == printed


@pytest.mark.parametrize("name", sorted(VALID_PROGRAMS))
def test_differential_accepts_valid_corpus(name):
    text = print_uclid(compile_program(program_of(VALID_PROGRAMS[name])))
    assert validate_uclid(text) == []


@pytest.mark.parametrize("name", sorted(INVALID_PROGRAMS))
def test_differential_rejects_invalid_corpus(name):
    # render without compile-time checking so the validator sees the
    # same ill-typed program the compiler rejected
    text = print_uclid(lower(program_of(INVALID_PROGRAMS[name]), {}))
    assert validate_uclid(text)


# ---------------------------------------------------------------------------
# If chains
# ---------------------------------------------------------------------------

def chain_module(body: str) -> str:
    return ("module main {\n  var x : integer;\n  init { x = 0; }\n"
            "  next { " + body + " }\n}\n")


def chain_next(body: str) -> list:
    return parse_uclid(chain_module(body)).next_body


def arm(i: int) -> tuple:
    """`if (x == i) { x = i + 1; }` as an arm."""
    return (Binary("==", VarRef("x"), IntLit(i)),
            (Assign(VarRef("x"), IntLit(i + 1)),))


RESET = (Assign(VarRef("x"), IntLit(0)),)


@pytest.mark.parametrize("chain", [
    "if (x == 0) { x = 1; } else if (x == 1) { x = 2; } "
    "else if (x == 2) { x = 3; } else { x = 0; }",
    # an `else` block holding only an `if` adds an arm too
    "if (x == 0) { x = 1; } else { if (x == 1) { x = 2; } "
    "else { if (x == 2) { x = 3; } else { x = 0; } } }",
], ids=["else-if", "else-block"])
def test_if_chain_is_one_if(chain):
    assert chain_next(chain) == [If((arm(0), arm(1), arm(2)), RESET)]


def test_statements_after_an_if_in_an_else_block_follow_it():
    assert chain_next(
        "if (x == 0) { x = 1; } else { if (x == 1) { x = 2; } x = 0; }"
    ) == [If((arm(0),), (If((arm(1),)), *RESET))]
    # only the block with trailing statements splits off its arms
    assert chain_next(
        "if (x == 0) { x = 1; } else { if (x == 1) { x = 2; } "
        "else { if (x == 2) { x = 3; } x = 0; } }"
    ) == [If((arm(0), arm(1)), (If((arm(2),)), *RESET))]


@pytest.mark.parametrize("chain", [
    "if (x == 0) { x = 1; } else if (x + 1) { x = 2; }",
    "if (x == 0) { x = 1; } else { if (x == 1) { x = 2; } "
    "else { if (x + 1) { x = 3; } } }",
])
def test_later_arm_condition_must_be_boolean(chain):
    assert codes(chain_module(chain)) == {"condition-not-boolean"}


def test_printed_ladder_reads_back_as_the_compiled_if():
    m = compile_program(program_of(VALID_PROGRAMS["ladder"]))
    assert parse_uclid(print_uclid(m)).next_body == m.next_body


# ---------------------------------------------------------------------------
# Expression precedence
# ---------------------------------------------------------------------------

# Binary operator levels, loosest first, as token -> module operator;
# `==>` is looser than all of them and right-associative.
UCLID_LEVELS = [
    {"||": "or"},
    {"&&": "and"},
    {"==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="},
    {"|": "bvor"},
    {"^": "xor"},
    {"&": "bvand"},
    {"<<": "shl", ">>": "lshr"},
    {"++": "concat"},
    {"+": "+", "-": "-"},
    {"*": "*", "/": "div", "%": "mod"},
]


def sexp(e) -> str:
    if isinstance(e, Binary):
        return f"({e.op} {sexp(e.left)} {sexp(e.right)})"
    if isinstance(e, Unary):
        return f"({e.op} {sexp(e.operand)})"
    return e.name


def parse_expr(text: str) -> str:
    m = parse_uclid("module main {\n  invariant p: " + text + ";\n}\n")
    return sexp(m.invariants[0][1])


@pytest.mark.parametrize(
    "low,high", list(zip(UCLID_LEVELS, UCLID_LEVELS[1:])),
    ids=[f"{min(lo)}<{min(hi)}" for lo, hi in zip(UCLID_LEVELS, UCLID_LEVELS[1:])],
)
def test_adjacent_levels_bind_in_order(low, high):
    for lo, lop in low.items():
        for hi, hop in high.items():
            assert parse_expr(f"a {lo} b {hi} c") == f"({lop} a ({hop} b c))"
            assert parse_expr(f"a {hi} b {lo} c") == f"({lop} ({hop} a b) c)"


@pytest.mark.parametrize("level", UCLID_LEVELS, ids=min)
def test_same_level_chains_are_left_associative(level):
    for op1, name1 in level.items():
        for op2, name2 in level.items():
            assert parse_expr(f"a {op1} b {op2} c") == \
                f"({name2} ({name1} a b) c)"


@pytest.mark.parametrize("text,tree", [
    ("a ==> b ==> c", "(implies a (implies b c))"),
    ("a ==> b || c", "(implies a (or b c))"),
    ("a || b ==> c", "(implies (or a b) c)"),
    ("!a && b", "(and (not a) b)"),
    ("!a == b", "(== (not a) b)"),
    ("-a * b", "(* (neg a) b)"),
    ("(a + b) * c", "(* (+ a b) c)"),
])
def test_implies_and_prefix_precedence(text, tree):
    assert parse_expr(text) == tree


def nested_module(depth: int, nest) -> str:
    return ("module main {\n  var b : boolean;\n  init { b = true; }\n"
            f"  invariant deep: {nest(depth)};\n}}\n")


NESTINGS = {
    "paren": lambda d: "(" * d + "b" + ")" * d,
    "not": lambda d: "!" * d + "b",
    "minus": lambda d: "-" * d + "b",
    "subscript": lambda d: "b[" * d + "b" + "]" * d,
    "ite": lambda d: "ite(b, " * d + "b" + ", b)" * d,
    "implies": lambda d: "b ==> " * d + "b",
}


@pytest.mark.parametrize("nest", NESTINGS.values(), ids=NESTINGS.keys())
def test_nesting_past_the_bound_is_a_parse_error(nest):
    assert "parse-error" not in codes(nested_module(MAX_NESTING, nest))
    for depth in (MAX_NESTING + 1, 1000):
        (diag,) = validate_uclid(nested_module(depth, nest))
        assert diag.code == "parse-error"
        assert f"nested deeper than {MAX_NESTING}" in diag.message


def nested_if_module(depth: int, nest: int = 0) -> str:
    # `depth` nested `if` bodies around one assignment whose right side is
    # `nest` parentheses deep
    return ("module main {\n  var x : integer;\n  init { x = 0; }\n"
            "  next {\n" + "if (x < 1) {\n" * depth
            + f"x = {'(' * nest}x + 1{')' * nest};\n" + "}\n" * depth
            + "  }\n}\n")


def test_if_nesting_past_the_bound_is_a_parse_error():
    assert validate_uclid(nested_if_module(MAX_IF_NESTING)) == []
    for depth in (MAX_IF_NESTING + 1, 600):
        (diag,) = validate_uclid(nested_if_module(depth))
        assert diag.code == "parse-error"
        assert f"nested deeper than {MAX_IF_NESTING}" in diag.message


@pytest.mark.parametrize("opens, closes", [
    ("} else if (x < 1) { x = x + 1; ", ""),
    ("} else { if (x < 1) { x = x + 1; ", "}"),
], ids=["else-if", "else-block-if"])
def test_a_chain_of_arms_counts_no_if_nesting(opens, closes):
    # a chain of 2 * MAX_IF_NESTING arms inside the deepest `if` body the
    # bound allows
    arms = 2 * MAX_IF_NESTING
    chain = ("if (x < 1) { x = x + 1; " + opens * arms + "}" + closes * arms
             + "\n")
    module = nested_if_module(MAX_IF_NESTING - 1).replace("x = x + 1;\n",
                                                          chain)
    assert validate_uclid(module) == []


def test_both_nesting_bounds_fit_a_frame_budget():
    # the parser and the checker take about 2 frames per `if` level, the
    # expression parser about 6 per level, plus a few to reach them
    budget = 2 * MAX_IF_NESTING + 6 * MAX_NESTING + 30
    text = nested_if_module(MAX_IF_NESTING, MAX_NESTING)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames_in_use() + budget)
    try:
        diags = validate_uclid(text)
    finally:
        sys.setrecursionlimit(limit)
    assert diags == []
