"""Compilation of hole-free module-language programs to UCLID5 text.

`compile_program` rejects programs with holes or typing conflicts, then
lowers to a `UclidModule` and prints it. Lowering and printing are
separate so tests can compare against independently parsed modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast_core import (
    ArraySelect,
    ArrayType,
    Assert,
    Assign,
    Assume,
    BVLit,
    BVType,
    Binary,
    BoolLit,
    BoolType,
    ChildProgram,
    Decl,
    DeclValue,
    EnumLit,
    EnumType,
    Expr,
    Havoc,
    HoleDecl,
    If,
    IntLit,
    IntType,
    Ite,
    RealLit,
    RealType,
    Stmt,
    SynonymType,
    TypeAnnot,
    TypeTerm,
    Unary,
    VarRef,
    format_real,
    iter_nodes,
    left_spine,
)
from .constraints import generate_clauses
from .maxsmt import check_sat


class CompileError(ValueError):
    pass


class HoleRemaining(CompileError):
    """The program still contains holes and cannot be compiled."""

    def __init__(self, count: int):
        super().__init__(f"program still has {count} hole(s)")
        self.count = count


# UCLID5 reserved words that cannot be used as identifiers
UCLID_KEYWORDS = frozenset(
    """module init next var input output type const function define
    procedure returns modifies requires ensures call havoc assume assert
    invariant property axiom control if else case esac for while skip
    forall exists boolean integer real true false enum record instance
    sharedvar synthesis grammar parameter group""".split()
)


# the procedure `print_uclid` puts the next block in; UCLID5 declares a
# module's procedures, types, variables and enum tags in one scope
STEP_PROCEDURE = "step"
_TAKEN = UCLID_KEYWORDS | {STEP_PROCEDURE}


def _unsuffixed(name: str) -> str:
    while name.endswith("_v"):
        name = name[:-2]
    return name


def uclid_name(name: str) -> str:
    """How a module-language name is spelled in UCLID5: one more `_v` if
    the name is a reserved word or the step procedure's once its trailing
    `_v`s are stripped, so no spelling is taken and no two names share
    one."""
    base = _unsuffixed(name) if name.endswith("_v") else name
    return name + "_v" if base in _TAKEN else name


@dataclass
class UclidModule:
    """A module in module-language names; `print_uclid` spells them."""

    name: str
    type_defs: list[tuple[str, TypeTerm]] = field(default_factory=list)
    vars: list[tuple[str, TypeTerm]] = field(default_factory=list)
    inputs: list[tuple[str, TypeTerm]] = field(default_factory=list)
    outputs: list[tuple[str, TypeTerm]] = field(default_factory=list)
    init_body: list[Stmt] = field(default_factory=list)
    next_body: list[Stmt] = field(default_factory=list)
    invariants: list[tuple[str, Expr]] = field(default_factory=list)
    modifies: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def _assigned_names(body) -> list[str]:
    """State variables written in a statement list, in appearance order."""
    out: dict[str, None] = {}
    for s in body:
        for n, _ in iter_nodes(s):
            if isinstance(n, Havoc):
                out[n.name] = None
            elif isinstance(n, Assign):
                e = n.lhs
                while isinstance(e, ArraySelect):
                    e = e.array
                if isinstance(e, VarRef):
                    out[e.name] = None
    return list(out)


def lower(
    program: ChildProgram, var_types: dict[str, TypeTerm]
) -> UclidModule:
    """Lower a hole-free program given the resolved type of every
    variable that was declared by value rather than by type."""
    notes: list[str] = []
    renamed: set[str] = set()

    def decl_type(d: Decl) -> TypeTerm:
        if isinstance(d.annot, TypeAnnot):
            return d.annot.ty
        if isinstance(d.annot, DeclValue):
            return var_types[d.name]
        raise HoleRemaining(1)

    def decls(section) -> list[tuple[str, TypeTerm]]:
        out = []
        for d in section:
            if isinstance(d, HoleDecl):
                raise HoleRemaining(1)
            spelled = uclid_name(d.name)
            if spelled != d.name and d.name not in renamed:
                renamed.add(d.name)
                base = _unsuffixed(d.name)
                taken = ("reserved word" if base in UCLID_KEYWORDS
                         else "procedure name")
                why = (taken if base == d.name
                       else f"keeps clear of a {taken}'s spelling")
                notes.append(f"renamed {d.name!r} to {spelled!r} ({why})")
            out.append((d.name, decl_type(d)))
        return out

    m = UclidModule(name="main", notes=notes)
    m.type_defs = decls(program.type_defs)
    m.vars = decls(program.locals)
    m.inputs = decls(program.inputs)
    m.outputs = decls(program.outputs)
    m.init_body = list(program.init_body)
    m.next_body = list(program.next_body)
    m.invariants = list(program.invariants_spec)
    m.modifies = _assigned_names(m.next_body)
    return m


def compile_program(program: ChildProgram) -> UclidModule:
    """Typecheck and lower. Generating the clauses records the program's
    holes and undeclared names, so no other walk looks for them. Raises
    HoleRemaining if holes are left (a module hole counts), CompileError
    for a variable used but never declared, and Untypeable (with an
    unsat core) if the clauses cannot all hold. The solve grounds only
    the variables declared by value, the ones `lower` reads."""
    # typed here, not taken from the repair round: model repair may have
    # changed the program after the round's solve
    cs = generate_clauses(program)
    if cs.hole_ids:
        raise HoleRemaining(len(cs.hole_ids))
    if cs.undeclared:
        raise CompileError(f"use of undeclared variable {cs.undeclared[0]!r}")
    by_value = {d.name: cs.tvar_table[("var", d.name)].tid
                for section in (program.locals, program.inputs,
                                program.outputs)
                for d in section if isinstance(d.annot, DeclValue)}
    res = check_sat(cs.clauses, by_value.values())
    return lower(program, {name: res.model[tid]
                           for name, tid in by_value.items()})


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_type(t: TypeTerm) -> str:
    if isinstance(t, BoolType):
        return "boolean"
    if isinstance(t, IntType):
        return "integer"
    if isinstance(t, RealType):
        return "real"
    if isinstance(t, BVType):
        return f"bv{t.width}"
    if isinstance(t, EnumType):
        return "enum { " + ", ".join(map(uclid_name, t.tags)) + " }"
    if isinstance(t, ArrayType):
        return f"[{print_type(t.index)}]{print_type(t.elem)}"
    if isinstance(t, SynonymType):
        return uclid_name(t.name)
    raise CompileError(f"cannot print type {t!r}")


_UCLID_BINOP = {
    "and": "&&",
    "or": "||",
    "implies": "==>",
    "xor": "^",
    "==": "==",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
    "div": "/",
    "mod": "%",
    "bvand": "&",
    "bvor": "|",
    "shl": "<<",
    "lshr": ">>",
    "concat": "++",
}

# operators UCLID5 reads left to right within one precedence level, so a
# chain of one of them needs no inner parentheses (not comparisons, `==>`)
_FLAT_LEFT = frozenset(("+", "-", "*", "and", "or", "bvand", "bvor", "concat"))


def print_expr(e: Expr) -> str:
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, RealLit):
        return format_real(e.value)
    if isinstance(e, BVLit):
        return f"{e.value}bv{e.width}"
    if isinstance(e, EnumLit):
        return uclid_name(e.tag)
    if isinstance(e, VarRef):
        return uclid_name(e.name)
    if isinstance(e, Unary):
        op = "!" if e.op == "not" else "-"
        return f"{op}({print_expr(e.operand)})"
    if isinstance(e, Binary):
        spine = left_spine(e)
        text = print_expr(spine[-1].left)
        for n in reversed(spine):
            if n is not spine[-1] and n.left.op == n.op and n.op in _FLAT_LEFT:
                text = text[1:-1]  # `(a + b) + c` prints as `(a + b + c)`
            text = f"({text} {_UCLID_BINOP[n.op]} {print_expr(n.right)})"
        return text
    if isinstance(e, Ite):
        return (
            f"ite({print_expr(e.cond)}, {print_expr(e.then)}, "
            f"{print_expr(e.other)})"
        )
    if isinstance(e, ArraySelect):
        return f"{print_expr(e.array)}[{print_expr(e.index)}]"
    raise CompileError(f"cannot print expression {e!r}")


def _print_stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(s, Assign):
        out.append(f"{pad}{print_expr(s.lhs)} = {print_expr(s.rhs)};")
    elif isinstance(s, Havoc):
        out.append(f"{pad}havoc {uclid_name(s.name)};")
    elif isinstance(s, Assume):
        out.append(f"{pad}assume({print_expr(s.cond)});")
    elif isinstance(s, Assert):
        out.append(f"{pad}assert({print_expr(s.cond)});")
    elif isinstance(s, If):
        _print_if(s, indent, out)
    else:
        raise CompileError(f"cannot print statement {s!r}")


def _print_if(s: If, indent: int, out: list[str]) -> None:
    # arm k prints as an `if` alone in the `else` block of arm k - 1
    for k, (cond, body) in enumerate(s.arms, indent):
        if k > indent:
            out.append(f"{'  ' * (k - 1)}}} else {{")
        out.append(f"{'  ' * k}if ({print_expr(cond)}) {{")
        for sub in body:
            _print_stmt(sub, k + 1, out)
    if s.orelse:
        out.append(f"{'  ' * k}}} else {{")
        for sub in s.orelse:
            _print_stmt(sub, k + 1, out)
    for level in range(k, indent - 1, -1):
        out.append(f"{'  ' * level}}}")


def print_uclid(m: UclidModule) -> str:
    out: list[str] = [f"module {m.name} {{"]
    for name, ty in m.type_defs:
        out.append(f"  type {uclid_name(name)} = {print_type(ty)};")
    for kw, section in (
        ("var", m.vars), ("input", m.inputs), ("output", m.outputs)
    ):
        for name, ty in section:
            out.append(f"  {kw} {uclid_name(name)} : {print_type(ty)};")
    out.append("")
    out.append("  init {")
    for s in m.init_body:
        _print_stmt(s, 2, out)
    out.append("  }")
    out.append("")
    out.append(f"  procedure {STEP_PROCEDURE}()")
    for name in m.modifies:
        out.append(f"    modifies {uclid_name(name)};")
    out.append("  {")
    for s in m.next_body:
        _print_stmt(s, 2, out)
    out.append("  }")
    out.append("")
    out.append("  next {")
    out.append(f"    call {STEP_PROCEDURE}();")
    out.append("  }")
    for name, e in m.invariants:
        out.append(f"  invariant {name}: {print_expr(e)};")
    out.append("}")
    return "\n".join(out) + "\n"
