"""Brute-force oracle for minimal-edit repair under uniform weights, and
a reference repair round.

``random_conflict_program`` builds small, flat programs where each soft
clause has its own origin node, so the minimal number of falsified
clauses coincides with the minimal number of holes. ``min_hole_count``
finds that minimum by trying every origin subset in increasing size,
independent of the solver's branch-and-bound search.

``reference_round`` is the repair round with declaration synthesis
first: it declares the missing names, generates the clauses again and
only then solves. `repair_round` synthesizes last and must repair every
program the same way.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from uclgen.ast_core import (
    BOOL,
    INT,
    REAL,
    Assign,
    BoolLit,
    ChildProgram,
    Decl,
    HoleType,
    IntLit,
    RealLit,
    TypeAnnot,
    VarRef,
    iter_nodes,
)
from uclgen.constraints import generate_clauses
from uclgen.maxsmt import _solve, solve_maxsmt
from uclgen.repair import (
    RepairOutcome,
    _type_holes,
    holeify,
    model_repair,
)

_TYPES = (INT, BOOL, REAL)


def _literal(rng: random.Random, ty):
    if ty == INT:
        return IntLit(rng.randint(0, 9))
    if ty == BOOL:
        return BoolLit(rng.random() < 0.5)
    return RealLit(round(rng.random() * 10, 2))


def random_conflict_program(
    rng: random.Random, max_nodes: int = 20
) -> ChildProgram:
    """A small typed program whose assignments may disagree with the
    declared types."""
    while True:
        n_vars = rng.randint(1, 3)
        names = [f"v{i}" for i in range(n_vars)]
        declared = {n: rng.choice(_TYPES) for n in names}
        decls = tuple(Decl(n, TypeAnnot(declared[n])) for n in names)
        stmts = []
        for _ in range(rng.randint(1, 3)):
            lhs = rng.choice(names)
            if n_vars > 1 and rng.random() < 0.4:
                rhs = VarRef(rng.choice([n for n in names if n != lhs]))
            else:
                # sometimes assign a literal of the wrong type
                ty = (
                    declared[lhs]
                    if rng.random() < 0.6
                    else rng.choice(_TYPES)
                )
                rhs = _literal(rng, ty)
            stmts.append(Assign(VarRef(lhs), rhs))
        p = ChildProgram(
            module_name="M", locals=decls, next_body=tuple(stmts)
        )
        if sum(1 for _ in iter_nodes(p)) <= max_nodes:
            return p


def min_hole_count(program: ChildProgram, max_holes: int = 5) -> int:
    """Smallest number of origin nodes whose replacement with holes makes
    every remaining check satisfiable."""
    cs = generate_clauses(program, "uniform")
    if _solve(cs.clauses) is not None:
        return 0
    origin_clause: dict[int, int] = {}
    for c in cs.soft:
        origin_clause.setdefault(c.origin, c.index)
    origins = sorted(origin_clause)
    for k in range(1, max_holes + 1):
        for combo in itertools.combinations(origins, k):
            holed = holeify(
                program, cs, tuple(origin_clause[o] for o in combo)
            )
            if _solve(generate_clauses(holed, "uniform").clauses) is not None:
                return k
    raise AssertionError("no hole set within budget repairs the program")


def holes_introduced(program: ChildProgram, falsified) -> int:
    """Number of distinct origin nodes holed for a falsified clause set."""
    cs = generate_clauses(program, "uniform")
    return len(
        {
            cs.clauses[i].origin
            for i in falsified
            if cs.clauses[i].origin is not None
        }
    )


def reference_round(program: ChildProgram,
                    weight_mode: str = "depth") -> RepairOutcome:
    """A repair round that declares every missing name first, as
    ``self.x = ??`` with hole ids from the program's first free one,
    generates the clauses of the extended program, and solves those;
    holeify's holes come after the declarations'. Its `falsified`
    indexes the extended program's clauses."""
    cs = generate_clauses(program, weight_mode)
    synthesized = cs.undeclared
    if synthesized:
        program = dataclasses.replace(program, locals=program.locals + tuple(
            Decl(name, HoleType(hid))
            for hid, name in enumerate(synthesized, cs.next_hole_id)))
        cs = generate_clauses(program, weight_mode)
    res = solve_maxsmt(cs)
    holed = holeify(program, cs, res.falsified)
    cs2, res2 = cs, res
    if holed is not program:
        cs2 = generate_clauses(holed, weight_mode)
        res2 = solve_maxsmt(cs2)
    repaired, filled = model_repair(holed, cs2, res2)
    holes = len(cs2.hole_ids) - (_type_holes(holed) - _type_holes(repaired))
    return RepairOutcome(program=repaired, falsified=res.falsified,
                         synthesized=synthesized, filled=filled,
                         holes_remaining=holes, cost=res.cost)
