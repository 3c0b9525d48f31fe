"""Brute-force oracle for the weighted partial MAX-SMT solver.

The oracle scores every total ground assignment over a fixed finite
universe of type terms and reports the cheapest falsification pattern
directly, without unification, cores, or branch and bound. The random
clause generator below only emits constraint shapes for which the finite
universe is as expressive as the unbounded term algebra, so the oracle
optimum equals the true optimum. The generator writes only the ground
terms in ``GROUND`` and the tags in ``TAGS``, over at most ``MAX_TVARS``
variables, and its only negative literals are testers and disequalities
with ``bool``, ``int`` or ``real``, the solver's literal language. Take
any assignment over the whole term algebra. A variable whose value is in
``GROUND`` keeps it. Any other takes a witness with the same constructor
and, for an enum, the same tags from ``TAGS``: ``BVType(5)``,
``ArrayType(INT, INT)``, or the enum of its tags plus ``D``; variables of
equal value take the same witness. No witness is in ``GROUND``, and no
literal names ``D``. Every literal the assignment satisfies then still
holds: testers and tags are kept exactly, an equality with a ground term
held only for a value in ``GROUND``, equal variables stay equal, and a
variable apart from a scalar stays apart from it, since a witness is no
scalar. The universe holds a second witness of each kind, which this
argument does not use.

The oracle is exhaustive but works on sets of assignments: for each
literal, the assignments in which it holds are one bit mask, and the
assignments are split by which soft clauses they falsify.

``deletion_core`` is the reference for the solver's core shrinking: the
plain deletion-based shrink, over the solver's own satisfiability check,
one solve per candidate.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Optional, Sequence

from uclgen.ast_core import (
    BOOL, INT, REAL, ArrayType, BVType, EnumType, TVar, TypeTerm,
)
from uclgen.constraints import (
    Clause, ClauseSet, Eq, HasTag, Lit, Tester, eval_atom,
)
from uclgen.maxsmt import _solve

TAGS = ("A", "B", "C")

#: the ground terms literals are built from
GROUND: tuple[TypeTerm, ...] = (
    BOOL,
    INT,
    REAL,
    BVType(2),
    BVType(3),
    BVType(4),
    EnumType(("A",)),
    EnumType(("B",)),
    EnumType(("C",)),
    EnumType(("A", "B")),
    EnumType(("A", "C")),
    EnumType(("B", "C")),
    EnumType(("A", "B", "C")),
)

#: GROUND and two witnesses outside it for each constructor and tag set
UNIVERSE: tuple[TypeTerm, ...] = GROUND + (
    BVType(5),
    BVType(6),
    ArrayType(INT, INT),
    ArrayType(INT, BOOL),
) + tuple(
    EnumType(tags + (fresh,))
    for fresh in ("D", "E")
    for n in range(len(TAGS) + 1)
    for tags in itertools.combinations(TAGS, n)
)

MAX_TVARS = 3

#: the ground terms a generated disequality may name
_SCALARS = (BOOL, INT, REAL)

#: generated tester constructors
_CTORS = ("bool", "int", "real", "bv", "enum")


def random_clause_set(rng: random.Random, max_soft: int = 14) -> ClauseSet:
    """A random clause set within the oracle-safe fragment and the
    solver's literal language. A literal drawn negative that the solver
    rejects, a disequality with anything but a scalar or a negative tag,
    is made positive; that draws no random number, so a set with none is
    the one the unrestricted generator gave."""
    cs = ClauseSet()
    n_tvars = rng.randint(1, MAX_TVARS)
    tvars = [cs.tvar(("var", f"v{i}")) for i in range(n_tvars)]
    neg_ground_eq = 2  # disequalities with a scalar left to draw

    def literal() -> Optional[Lit]:
        nonlocal neg_ground_eq
        kind = rng.choice(("eq_ground", "eq_tvar", "tester", "tag"))
        negative = rng.random() < 0.3
        if kind == "eq_ground":
            ground = rng.choice(GROUND)
            if negative:
                if neg_ground_eq == 0 or ground not in _SCALARS:
                    negative = False
                else:
                    neg_ground_eq -= 1
            return Lit(Eq(rng.choice(tvars), ground), not negative)
        if kind == "eq_tvar":
            if n_tvars < 2:
                return None
            return Lit(Eq(*rng.sample(tvars, 2)))
        if kind == "tester":
            return Lit(Tester((rng.choice(_CTORS),), rng.choice(tvars)),
                       not negative)
        return Lit(HasTag(rng.choice(TAGS), rng.choice(tvars)))

    def lits() -> list[Lit]:
        got = []
        for _ in range(rng.randint(1, 3)):
            lit = literal()
            if lit is not None:
                got.append(lit)
        return got or [Lit(Eq(tvars[0], INT))]

    for _ in range(rng.randint(0, 2)):
        cs.add_hard(lits(), "rnd:hard")
    for i in range(rng.randint(1, max_soft)):
        cs.add_soft(lits(), rng.randint(1, 8), origin=i, label="rnd:soft")
    return cs


# Assignments to n variables are numbered in `itertools.product` order over
# UNIVERSE; bit k of a mask stands for assignment k.

@functools.cache
def _where(n: int, pos: int, value: int) -> int:
    """The assignments in which variable `pos` of `n` takes UNIVERSE[value]."""
    size = len(UNIVERSE)
    run = size ** (n - 1 - pos)  # consecutive assignments sharing the value
    period = run * size
    repeats = size ** pos
    block = ((1 << run) - 1) << (value * run)
    return block * (((1 << period * repeats) - 1) // ((1 << period) - 1))


@functools.cache
def _holds(tids: tuple[int, ...], lit: Lit) -> int:
    """The assignments to `tids` in which `lit` holds."""
    atom = lit.atom
    terms = (atom.left, atom.right) if isinstance(atom, Eq) else (atom.term,)
    used = [i for i, tid in enumerate(tids) if TVar(tid) in terms]
    mask = 0
    for values in itertools.product(range(len(UNIVERSE)), repeat=len(used)):
        assignment = {tids[i]: UNIVERSE[v] for i, v in zip(used, values)}
        if eval_atom(lit.atom, assignment) == lit.positive:
            where = (1 << len(UNIVERSE) ** len(tids)) - 1
            for i, v in zip(used, values):
                where &= _where(len(tids), i, v)
            mask |= where
    return mask


def oracle_optimum(cs: ClauseSet) -> Optional[tuple[int, tuple[int, ...]]]:
    """(cost, lexicographically smallest falsified index tuple) over every
    universe assignment, or None when no assignment satisfies the hard
    clauses."""
    tids = tuple(sorted(tv.tid for tv in cs.tvar_table.values()))

    def satisfying(c: Clause) -> int:
        return functools.reduce(int.__or__, (_holds(tids, l) for l in c.lits), 0)

    allowed = (1 << len(UNIVERSE) ** len(tids)) - 1
    for c in cs.hard:
        allowed &= satisfying(c)
    if not allowed:
        return None
    # the allowed assignments, split by the soft clauses they falsify
    cells = [(allowed, ())]
    for c in cs.soft:
        sat = satisfying(c)
        cells = [(part, falsified) for mask, fals in cells
                 for part, falsified in ((mask & sat, fals),
                                         (mask & ~sat, fals + (c.index,)))
                 if part]
    weight = {c.index: c.weight for c in cs.soft}
    return min((sum(weight[i] for i in f), f) for _, f in cells)


def deletion_core(candidates: Sequence[Clause],
                  fixed: Sequence[Clause] = ()) -> list[Clause]:
    """The minimal core that deletion from the front keeps: each candidate
    in turn is left out when the rest, with `fixed`, stay unsatisfiable.
    Assumes `candidates` and `fixed` together are unsatisfiable."""
    core = list(candidates)
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1:]
        if _solve([*fixed, *trial]) is None:
            core = trial
        else:
            i += 1
    return core
