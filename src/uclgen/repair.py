"""Program repair: hole insertion and model-based hole filling.

One repair round is:
  1. generate the program's clauses (a name used but never declared is
     typed by its own variable) and solve the typing MAX-SMT problem,
  2. replace the subtree at each falsified clause's origin with a hole
     of the right category, and re-solve if that made holes,
  3. declare each name the program left undeclared (``self.x = ??`` in
     locals) and fill every type hole whose type variable is forced
     (ground by equations or pinned to a singleton scalar constructor by
     testers).

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
    p: ChildProgram, cs: ClauseSet, names: tuple[str, ...]
) -> ChildProgram:
    """Append ``self.x = ??`` to locals for each of `names`. The hole ids
    start at `cs.next_hole_id`, so `cs` must be generated from `p`
    (ValueError otherwise) and synthesis walks nothing; `model_repair`
    types a synthesized hole by its name's variable. With no names the
    program itself is returned."""
    _check_generated_from(p, cs)
    if not names:
        return p
    extra = tuple(
        Decl(name, HoleType(hid))
        for hid, name in enumerate(names, cs.next_hole_id)
    )
    return dataclasses.replace(p, locals=p.locals + extra)


# ---------------------------------------------------------------------------
# Model repair
# ---------------------------------------------------------------------------

def model_repair(
    program: ChildProgram, cs: ClauseSet, result: MaxSmtResult
) -> tuple[ChildProgram, tuple[str, ...]]:
    """Fill type holes and value declarations whose type variable is
    forced by the solution; a type hole `cs` does not know, a synthesized
    one, goes by its name's variable. The search branches only on
    declaration guards, whose first choice drops a declaration and pins
    no type, so a fill is forced by the kept clauses. Returns the program
    and the names filled; with nothing filled, the program itself."""
    filled: list[str] = []

    def fill(n: Node) -> Node:
        if isinstance(n, Decl) and isinstance(n.annot, (HoleType, DeclValue)):
            # a DeclValue is a variable's: `_elaborate_annot` builds none
            # for a type definition
            hole = (("hole", n.annot.hid) if isinstance(n.annot, HoleType)
                    else None)
            tv = cs.tvar_table.get(hole) or cs.tvar_table.get(("var", n.name))
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
    clauses are generated once, and again after holeify when it made
    holes; `falsified` indexes the first set. Declarations come last, for
    the names `program` left undeclared, so the holes left are the last
    set's and theirs, less the type holes filled."""
    t0 = time.monotonic()
    cs = generate_clauses(program, weight_mode)
    res = solver(cs)
    holed = holeify(program, cs, res.falsified)
    if holed is program:
        cs2, res2 = cs, res
    else:
        cs2 = generate_clauses(holed, weight_mode)
        res2 = solver(cs2)
    holed = synthesize_decls(holed, cs2, cs.undeclared)
    repaired, filled = model_repair(holed, cs2, res2)
    holes = len(cs2.hole_ids) + len(cs.undeclared)
    if filled:
        holes -= _type_holes(holed) - _type_holes(repaired)
    return RepairOutcome(
        program=repaired,
        falsified=res.falsified,
        synthesized=cs.undeclared,
        filled=filled,
        holes_remaining=holes,
        cost=res.cost,
        ms=(time.monotonic() - t0) * 1000.0,
    )
