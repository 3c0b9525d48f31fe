"""Output check: every successful item's UCLID5 text must pass the
independent validator and declare exactly what the workload's reference
says, no more and no less.
"""

from __future__ import annotations

from workloads import Decls

SECTIONS = ("type_defs", "vars", "inputs", "outputs")


def type_text(t) -> str:
    """UCLID5 spelling of a type parsed by `uclid_check.parse_uclid`,
    written out here rather than taken from the compiler's printer."""
    kind = type(t).__name__
    if kind == "BoolType":
        return "boolean"
    if kind == "IntType":
        return "integer"
    if kind == "RealType":
        return "real"
    if kind == "BVType":
        return f"bv{t.width}"
    if kind == "EnumType":
        return "enum { " + ", ".join(sorted(t.tags)) + " }"
    if kind == "ArrayType":
        return f"[{type_text(t.index)}]{type_text(t.elem)}"
    if kind == "SynonymType":
        return t.name
    raise ValueError(f"unexpected parsed type {t!r}")


def declared(text: str, parse_uclid) -> Decls:
    module = parse_uclid(text)
    return tuple(sorted(
        (section, name, type_text(ty))
        for section in SECTIONS
        for name, ty in getattr(module, section)
    ))


def check_output(text: str, expected: Decls, validate_uclid,
                 parse_uclid) -> list[str]:
    """Problems with one output; empty means it is correct."""
    diags = validate_uclid(text)
    if diags:
        return [f"validator: {d}" for d in diags]
    got = declared(text, parse_uclid)
    if got == expected:
        return []
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    return [f"declarations differ: missing {missing}, unexpected {extra}"]
