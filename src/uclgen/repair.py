"""Program repair: hole insertion and model-based hole filling.

One repair round is:
  1. generate the program's clauses, which record the variables used
     but never declared, and synthesize a declaration for each
     (``self.x = ??`` appended to the locals section; the clauses are
     generated again only then),
  2. solve the typing MAX-SMT problem and replace the subtree at each
     falsified clause's origin with a hole of the right category,
  3. re-solve the holed program (if step 2 made holes) and fill every
     type hole whose type variable is forced (ground by equations or
     pinned to a singleton scalar constructor by testers).

Everything still holey after that is handed back to the LLM.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass

from .ast_core import (
    Binary,
    ChildProgram,
    Decl,
    DeclValue,
    Expr,
    HoleDecl,
    HoleExpr,
    HoleStmt,
    HoleType,
    Node,
    Stmt,
    TypeAnnot,
    iter_nodes,
    map_children,
)
from .constraints import ClauseSet, generate_clauses
from .maxsmt import MaxSmtResult, solve_maxsmt


def _check_generated_from(program: ChildProgram, cs: ClauseSet) -> None:
    if not cs.walk or cs.walk[0][0] is not program:
        raise ValueError("the clause set was not generated from this program")


# ---------------------------------------------------------------------------
# Hole insertion at falsified-clause origins
# ---------------------------------------------------------------------------

def holeify(
    program: ChildProgram, cs: ClauseSet, falsified: tuple[int, ...]
) -> ChildProgram:
    """Replace the maximal subtree at each falsified clause's origin with
    a hole. Origins nested inside other origins are absorbed by the
    outermost replacement. A declaration whose annotation holds an origin
    gets a type hole. Origins are pre-order positions in `program`, read
    through `cs.walk`, so `cs` must be generated from `program`
    (ValueError otherwise); new hole ids start at `cs.next_hole_id`. The
    result shares every subtree that holds no origin, and with no origin
    it is the program itself."""
    _check_generated_from(program, cs)
    origins = {
        id(cs.walk[cs.clauses[i].origin][0])
        for i in falsified
        if cs.clauses[i].origin is not None
    }
    if not origins:
        return program
    ids = itertools.count(cs.next_hole_id)

    def rewrite(n: Node) -> Node:
        if isinstance(n, Decl):
            if id(n) in origins:
                return HoleDecl(next(ids), span=n.span)
            if any(id(a) in origins for a, _ in iter_nodes(n.annot)):
                return dataclasses.replace(
                    n, annot=HoleType(next(ids), span=n.annot.span)
                )
            return n
        if id(n) in origins:
            if isinstance(n, Stmt):
                return HoleStmt(next(ids), span=n.span)
            if isinstance(n, Expr):
                return HoleExpr(next(ids), span=n.span)
        if isinstance(n, Binary):
            # a left-nested chain in a loop, not a frame per link: down
            # to the first origin or leaf, then up; pre-order all the same
            spine = [n]
            while (isinstance(spine[-1].left, Binary)
                   and id(spine[-1].left) not in origins):
                spine.append(spine[-1].left)
            e = rewrite(spine[-1].left)
            for b in reversed(spine):
                right = rewrite(b.right)
                if e is not b.left or right is not b.right:
                    b = dataclasses.replace(b, left=e, right=right)
                e = b
            return e
        return map_children(n, rewrite)

    return rewrite(program)


# ---------------------------------------------------------------------------
# Declaration synthesis
# ---------------------------------------------------------------------------

def synthesize_decls(
    p: ChildProgram, cs: ClauseSet
) -> tuple[ChildProgram, tuple[str, ...]]:
    """Append ``self.x = ??`` to locals for every variable that is used
    but never declared, in first-use order. The names and the first free
    hole id come from `cs`, which must be generated from `p` (ValueError
    otherwise), so synthesis follows the first generation and walks
    nothing; the new declarations' clauses need a second one. With
    nothing missing the program itself is returned."""
    _check_generated_from(p, cs)
    missing = cs.undeclared
    if not missing:
        return p, ()
    extra = tuple(
        Decl(name, HoleType(hid))
        for hid, name in enumerate(missing, cs.next_hole_id)
    )
    return dataclasses.replace(p, locals=p.locals + extra), missing


# ---------------------------------------------------------------------------
# Model repair
# ---------------------------------------------------------------------------

def model_repair(
    program: ChildProgram, cs: ClauseSet, result: MaxSmtResult
) -> tuple[ChildProgram, tuple[str, ...]]:
    """Fill type holes and value declarations whose type variable is
    forced by the solution. The search branches only on declaration
    guards, whose first choice drops a declaration and pins no type, so a
    fill is forced by the kept clauses. Returns the program and the names
    filled; with nothing filled the program itself is returned."""
    filled: list[str] = []

    def fill(n: Node) -> Node:
        if isinstance(n, Decl) and isinstance(n.annot, (HoleType, DeclValue)):
            # a DeclValue is a variable's: `_elaborate_annot` builds none
            # for a type definition
            tv = cs.tvar_table.get(("hole", n.annot.hid)
                                   if isinstance(n.annot, HoleType)
                                   else ("var", n.name))
            if tv is not None and tv.tid in result.forced:
                filled.append(n.name)
                return dataclasses.replace(n, annot=TypeAnnot(
                    result.forced[tv.tid], span=n.annot.span))
        return n

    return map_children(program, fill), tuple(filled)


def _type_holes(p: ChildProgram) -> int:
    """The type holes of a program's declarations, the only holes that
    `model_repair` fills."""
    return sum(isinstance(d, Decl) and isinstance(d.annot, HoleType)
               for section in (p.type_defs, p.locals, p.inputs, p.outputs)
               for d in section)


# ---------------------------------------------------------------------------
# One full repair round
# ---------------------------------------------------------------------------

@dataclass
class RepairOutcome:
    program: ChildProgram
    falsified: tuple[int, ...]
    synthesized: tuple[str, ...] = ()
    filled: tuple[str, ...] = ()
    holes_remaining: int = 0
    cost: int = 0
    ms: float = 0.0


def repair_round(
    program: ChildProgram,
    weight_mode: str = "depth",
    solver=solve_maxsmt,
) -> RepairOutcome:
    """Run a complete repair round and return the repaired program. The
    clauses are generated once, again after synthesis when names were
    missing, and again after holeify when it made holes; the holes left
    are those of the last clause set less the type holes filled."""
    t0 = time.monotonic()
    cs = generate_clauses(program, weight_mode)
    program, synthesized = synthesize_decls(program, cs)
    if synthesized:
        cs = generate_clauses(program, weight_mode)
    res = solver(cs)
    holed = holeify(program, cs, res.falsified)
    if holed is program:
        cs2, res2 = cs, res
    else:
        cs2 = generate_clauses(holed, weight_mode)
        res2 = solver(cs2)
    repaired, filled = model_repair(holed, cs2, res2)
    holes = len(cs2.hole_ids)
    if filled:
        holes -= _type_holes(holed) - _type_holes(repaired)
    return RepairOutcome(
        program=repaired,
        falsified=res.falsified,
        synthesized=synthesized,
        filled=filled,
        holes_remaining=holes,
        cost=res.cost,
        ms=(time.monotonic() - t0) * 1000.0,
    )
