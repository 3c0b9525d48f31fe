"""Weighted partial MAX-SMT over the type-term algebra.

The theory is unification over type terms extended with constructor
testers and enum-tag membership. Each unbound union-find root keeps one
record of what it may still be: the constructors left to it, the tags its
enum must hold and the tags its enum must not hold. Testers, tag literals
and unification all narrow a record in one place, `_Theory._narrow`, and
the model reads it back. Satisfiability is a depth-first search from a
base, a theory with the unit clauses asserted, in which each step copies
a theory and asserts one literal of the next clause, skipping each clause
the theory already entails (a positive equality whose sides resolve to
one term, or a disequality stored as it stands). A step re-checks only
the disequalities it can break: those it added, those whose roots it
merged, bound or narrowed, and those that reach an array. The model and
the values the theory forces come from one grounding walk per variable.
Searches that share clauses extend one base rather than each asserting
them again: a component's hard clauses are asserted once, and each
QuickXplain call extends its parent's base. Over the searches, a branch
and bound search picks the soft clauses to falsify. It branches on
minimal unsatisfiable cores, which QuickXplain extracts in a few solves,
and keeps them: a node that has relaxed no clause of a known core
branches on it without a solve.
`emit_smtlib` renders a clause set as SMT-LIB 2 with
`assert-soft` weights, for inspection or for another MAX-SMT solver.

Optimum selection: minimal total weight of falsified soft clauses;
ties go to the lexicographically smallest set of falsified clause
indices. The whole clause set is searched once first, and when it holds
the optimum is cost 0 with nothing falsified. Otherwise the hard clauses
are searched once, and only when they hold is the clause graph split
into connected components (clauses sharing a type variable), each
component's hitting-set search picking what to falsify, which preserves
both the optimum and the tie-break. The model comes from the leaf of one
search of the kept clauses, so it follows from the falsified set alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .ast_core import (
    ArrayType,
    BOOL,
    BVType,
    BoolType,
    EnumType,
    INT,
    IntType,
    REAL,
    RealType,
    TVar,
    TypeTerm,
)
from .constraints import (
    _TESTER_CLASSES,
    Clause,
    ClauseSet,
    Eq,
    HasTag,
    Lit,
    Tester,
    clause_tvars,
    eval_clause,
)

_SINGLETONS = {"bool": BOOL, "int": INT, "real": REAL}
_CTOR_OF = {cls: name for name, cls in _TESTER_CLASSES.items()}
_CTOR_ORDER = ("int", "bool", "real", "bv", "enum", "arr")  # model's order
_NONE: frozenset[str] = frozenset()
_ALL = frozenset(_CTOR_ORDER)
_ENUM = frozenset({"enum"})
_FREE = (_ALL, _NONE, _NONE)  # the record of a root nothing narrowed
# the value of a root whose record leaves one singleton constructor
_PINNED = {frozenset({c}): t for c, t in _SINGLETONS.items()}


class _Conflict(Exception):
    pass


class _Theory:
    """A conjunction of theory literals, decided by unification.

    A union-find root is bound to a term (`binding`) or unbound; an
    unbound root may hold one record (`record`), a triple (ctors, tags,
    bad): the constructors it may still take, the tags its enum must hold
    and the tags it must not hold. Negative equalities wait in `diseqs`,
    each with the roots its sides resolved to when it was last checked;
    `changed` holds the roots merged, bound or narrowed since then, so
    `check_diseqs` re-checks only what a step can break. `ground` is the
    one walk that grounds a term: `determined`, `solution` and the
    model's disequality scan differ only in the root values.
    """

    __slots__ = ("parent", "binding", "record", "diseqs", "changed")

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}
        self.binding: dict[int, TypeTerm] = {}
        self.record: dict[int, tuple[frozenset, frozenset, frozenset]] = {}
        # each stored disequality, with the roots its sides resolved to
        # when it was last checked; None if it is new or reaches an array
        self.diseqs: dict[tuple[TypeTerm, TypeTerm],
                          Optional[tuple[int, ...]]] = {}
        self.changed: set[int] = set()  # roots merged, bound or narrowed

    def copy(self) -> _Theory:
        th = _Theory.__new__(_Theory)
        th.parent, th.binding = self.parent.copy(), self.binding.copy()
        th.record, th.diseqs = self.record.copy(), self.diseqs.copy()
        th.changed = self.changed.copy()
        return th

    # -- union-find ---------------------------------------------------------

    def find(self, tid: int) -> int:
        root = tid
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(tid, tid) != root:
            self.parent[tid], tid = root, self.parent[tid]
        return root

    def resolve(self, t: TypeTerm) -> TypeTerm:
        """Follow variable bindings one level (result is a root TVar,
        a scalar, or an array whose parts are unresolved)."""
        while isinstance(t, TVar):
            root = self.find(t.tid)
            bound = self.binding.get(root)
            if bound is None:
                return t if t.tid == root else TVar(root)
            t = bound
        return t

    def resolve_deep(self, t: TypeTerm) -> TypeTerm:
        t = self.resolve(t)
        if isinstance(t, ArrayType):
            return ArrayType(self.resolve_deep(t.index), self.resolve_deep(t.elem))
        return t

    def _occurs(self, root: int, t: TypeTerm) -> bool:
        t = self.resolve(t)
        if isinstance(t, TVar):
            return t.tid == root
        if isinstance(t, ArrayType):
            return self._occurs(root, t.index) or self._occurs(root, t.elem)
        return False

    # -- assertion ----------------------------------------------------------

    def _narrow(self, t: TypeTerm, ctors: frozenset[str],
                tags: frozenset[str], bad: frozenset[str]) -> None:
        """Assert that `t` takes one of `ctors`, holds every tag in `tags`
        and no tag in `bad`; only an enum holds tags. A ground term is
        checked; a root's record is intersected with the new facts, which
        conflicts when no constructor is left or a tag is both required
        and forbidden."""
        t = self.resolve(t)
        if isinstance(t, TVar):
            old = self.record.get(t.tid)
            if old is not None:
                ctors = ctors & old[0]
                tags = tags | old[1]
                bad = bad | old[2]
            if tags:
                ctors = ctors & _ENUM
            if not ctors or tags & bad:
                raise _Conflict
            new = (ctors, tags, bad)
            if new != old:
                self.record[t.tid] = new
                self.changed.add(t.tid)
            return
        if _CTOR_OF[type(t)] not in ctors:
            raise _Conflict
        if tags or bad:
            have = frozenset(t.tags) if isinstance(t, EnumType) else _NONE
            if not tags <= have or bad & have:
                raise _Conflict

    def unify(self, a: TypeTerm, b: TypeTerm) -> None:
        a = self.resolve(a)
        b = self.resolve(b)
        if a == b:
            return
        if isinstance(a, ArrayType) and isinstance(b, ArrayType):
            self.unify(a.index, b.index)
            self.unify(a.elem, b.elem)
            return
        if isinstance(b, TVar):
            a, b = b, a
        elif not isinstance(a, TVar):
            raise _Conflict
        # a is a root; bind it to b, or merge it into b if b is a root
        root = a.tid
        self.changed.add(root)
        if isinstance(b, TVar):
            self.parent[root] = b.tid
        elif self._occurs(root, b):
            raise _Conflict
        else:
            self.binding[root] = b
        rec = self.record.pop(root, None)
        if rec is not None:
            self._narrow(b, *rec)

    def assert_lit(self, lit: Lit) -> None:
        a = lit.atom
        if isinstance(a, Eq):
            if lit.positive:
                self.unify(a.left, a.right)
            else:
                self.diseqs.setdefault((a.left, a.right), None)
        elif isinstance(a, Tester):
            ctors = frozenset(a.ctors)
            self._narrow(a.term, ctors if lit.positive else _ALL - ctors,
                         _NONE, _NONE)
        elif lit.positive:
            self._narrow(a.term, _ALL, frozenset((a.tag,)), _NONE)
        else:
            self._narrow(a.term, _ALL, _NONE, frozenset((a.tag,)))

    def entails(self, lit: Lit) -> bool:
        """Whether `lit` holds in every extension of this theory: a
        positive `Eq` whose sides resolve to one term, or a negative `Eq`
        stored as it stands. Testers and tag literals are never entailed."""
        a = lit.atom
        if not isinstance(a, Eq):
            return False
        if lit.positive:
            return self.resolve_deep(a.left) == self.resolve_deep(a.right)
        return (a.left, a.right) in self.diseqs

    # -- final consistency ---------------------------------------------------

    def ground(self, t: TypeTerm, value) -> Optional[TypeTerm]:
        """`t` with each unbound root `r` replaced by `value(r)`; None if
        any `value(r)` is None."""
        t = self.resolve(t)
        if isinstance(t, TVar):
            return value(t.tid)
        if isinstance(t, ArrayType):
            i = self.ground(t.index, value)
            e = self.ground(t.elem, value)
            return ArrayType(i, e) if i is not None and e is not None else None
        return t

    def pinned(self, root: int) -> Optional[TypeTerm]:
        """The singleton value the root's record pins it to, else None."""
        return _PINNED.get(self.record.get(root, _FREE)[0])

    def determined(self, t: TypeTerm) -> Optional[TypeTerm]:
        """The unique value of a term if it has one, else None."""
        return self.ground(t, self.pinned)

    def check_diseqs(self) -> None:
        """Raise `_Conflict` if a stored disequality fails: its sides
        resolve to one term, or both have the same determined value.
        Only a disequality that is new, reaches an array, or resolved to
        a root changed since the last check is checked again; the others
        resolve as they did then."""
        changed = self.changed
        for pair, roots in self.diseqs.items():
            if roots is None or not changed.isdisjoint(roots):
                self.diseqs[pair] = self._check_diseq(*pair)
        changed.clear()

    def _check_diseq(self, a: TypeTerm,
                     b: TypeTerm) -> Optional[tuple[int, ...]]:
        """Check one disequality; the roots its sides resolve to, or None
        when a side resolves to an array."""
        ra = self.resolve(a)
        rb = self.resolve(b)
        if isinstance(ra, ArrayType) or isinstance(rb, ArrayType):
            if self.resolve_deep(a) == self.resolve_deep(b):
                raise _Conflict
            da = self.determined(a)
            if da is not None and da == self.determined(b):
                raise _Conflict
            return None
        if ra == rb:
            raise _Conflict
        da = self.pinned(ra.tid) if isinstance(ra, TVar) else ra
        if da is not None and da == (
                self.pinned(rb.tid) if isinstance(rb, TVar) else rb):
            raise _Conflict
        return tuple(r.tid for r in (ra, rb) if isinstance(r, TVar))

    # -- models ---------------------------------------------------------------

    def solution(self, tids) -> tuple[dict[int, TypeTerm],
                                      dict[int, TypeTerm]]:
        """A total ground assignment consistent with the asserted literals,
        and the part of it the theory determines, from one grounding walk
        per variable: a value is determined when every root it grounds
        through is pinned."""
        values: dict[int, TypeTerm] = {}  # chosen for unbound roots
        free: set[int] = set()  # the valued roots no record pins
        fresh = [1000]

        def candidates(root: int):
            ctors, tags, bad = self.record.get(root, _FREE)
            tags = tuple(sorted(tags))
            for ctor in _CTOR_ORDER:
                if ctor not in ctors:
                    continue
                if ctor in _SINGLETONS:
                    yield _SINGLETONS[ctor]
                elif ctor == "bv":
                    for w in range(1, 64):
                        yield BVType(w)
                    while True:
                        fresh[0] += 1
                        yield BVType(fresh[0])
                elif ctor == "enum":
                    if tags:
                        yield EnumType(tags)
                    while True:
                        fresh[0] += 1
                        extra = f"TAG{fresh[0]}"
                        if extra not in bad:
                            yield EnumType(tags + (extra,))
                elif ctor == "arr":
                    yield ArrayType(INT, INT)
                    while True:
                        fresh[0] += 1
                        yield ArrayType(INT, BVType(fresh[0]))

        def violates(root: int, val: TypeTerm) -> bool:
            # a root pinned to a singleton constructor is known before its turn
            def value(r: int) -> Optional[TypeTerm]:
                if r == root:
                    return val
                return values[r] if r in values else self.pinned(r)

            for a, b in self.diseqs:
                ga = self.ground(a, value)
                if ga is not None and ga == self.ground(b, value):
                    return True
            return False

        walked_free = False

        def value_of(root: int) -> TypeTerm:
            nonlocal walked_free
            val = values.get(root)
            if val is None:
                # a pinned value never violates a disequality that
                # `check_diseqs` passed, as the unpinned roots see it first
                val = self.pinned(root)
                if val is None:
                    free.add(root)
                    val = next((c for c in candidates(root)
                                if not violates(root, c)), None)
                    if val is None:
                        # reached, and escapes both entry points, when the
                        # record leaves only scalars (say bool and int) and
                        # the disequalities rule out each one
                        raise _Conflict
                values[root] = val
            walked_free = walked_free or root in free
            return val

        model: dict[int, TypeTerm] = {}
        forced: dict[int, TypeTerm] = {}
        for tid in sorted(tids):
            walked_free = False
            model[tid] = self.ground(TVar(tid), value_of)
            if not walked_free:
                forced[tid] = model[tid]
        return model, forced


# ---------------------------------------------------------------------------
# Satisfiability of a clause set (depth-first search over non-unit clauses)
# ---------------------------------------------------------------------------

class _Base:
    """Where searches start: `theory` has the unit clauses of `clauses`
    asserted in order and passes `check_diseqs`, or is None when they
    conflict, and a search from it branches on the other clauses.
    `extend` asserts only the added units, on a copy, so a fact that many
    searches share is asserted once; a base's theory is never asserted
    to again."""

    __slots__ = ("theory", "clauses")

    def __init__(self, theory: Optional[_Theory], clauses: tuple[Clause, ...]):
        self.theory = theory
        self.clauses = clauses

    @staticmethod
    def of(clauses: Sequence[Clause]) -> _Base:
        return _Base(_Theory(), ()).extend(clauses)

    def extend(self, clauses: Sequence[Clause]) -> _Base:
        th = self.theory
        units = [c.lits[0] for c in clauses if len(c.lits) == 1]
        if th is not None and units:
            th = th.copy()
            try:
                for lit in units:
                    th.assert_lit(lit)
                th.check_diseqs()
            except _Conflict:
                th = None
        return _Base(th, self.clauses + tuple(clauses))

    def search(self) -> Optional[_Theory]:
        """A theory in which every clause holds, or None if there is none:
        a depth-first search from the base's theory, in which each step
        copies the theory it extends and asserts one literal of the next
        non-unit clause. A step first passes over each next clause with a
        literal the theory entails; that clause holds at every leaf below,
        since a branch only adds merges and disequalities, and never takes
        one back. The base's theory is the one that asserting the units
        of `clauses` in order on a fresh theory gives, so how a base was
        built does not change what its search finds."""
        if self.theory is None:
            return None
        rest = [c for c in self.clauses if len(c.lits) != 1]
        # (theory, literal to add to a copy of it, rest[:i] holds)
        stack: list[tuple[_Theory, Optional[Lit], int]] = [(self.theory, None, 0)]
        while stack:
            th, lit, i = stack.pop()
            if lit is not None:
                th = th.copy()
                try:
                    th.assert_lit(lit)
                    th.check_diseqs()
                except _Conflict:
                    continue
            while i < len(rest) and any(th.entails(l) for l in rest[i].lits):
                i += 1
            if i == len(rest):
                return th
            stack.extend((th, l, i + 1) for l in reversed(rest[i].lits))
        return None


def _solve(clauses: Sequence[Clause]) -> Optional[_Theory]:
    """A theory in which every clause holds, or None if there is none."""
    return _Base.of(clauses).search()


def _shrink_core(
    candidates: Sequence[Clause], fixed: Sequence[Clause] | _Base = ()
) -> list[Clause]:
    """A minimal subset of `candidates` that is unsatisfiable together
    with `fixed`, in candidate order; `fixed` must hold and all of them
    together must not. `fixed` may be a `_Base` that already asserts it.

    QuickXplain (Junker, AAAI 2004) over the candidates in reverse order.
    Its core keeps a candidate exactly when `fixed`, the kept candidates
    before it and all candidates after it are satisfiable: the core that
    deletion from the front keeps. A core of k out of n candidates costs
    at most about 2k log2(n/k) + 2k solves, not n. Each call extends its
    parent's base, so a clause is asserted once on a path down the
    recursion, not once per solve. Recursion depth is ceil(log2 n) + 1.
    """

    def qx(base: _Base, grew: bool, order: list[int]) -> list[int]:
        # the positions of a minimal subset of `order` that is
        # unsatisfiable with `base`, preferring earlier positions; `base`
        # is searched first only if it `grew` since a search found it
        # satisfiable (the top call's base is `fixed`, which holds)
        if grew and base.search() is None:
            return []
        if len(order) == 1:
            return order
        first, second = order[: len(order) // 2], order[len(order) // 2 :]
        kept2 = qx(base.extend([candidates[i] for i in first]), True, second)
        kept1 = qx(base.extend([candidates[i] for i in kept2]), bool(kept2),
                   first)
        return kept1 + kept2

    if not candidates:
        return []
    base = fixed if isinstance(fixed, _Base) else _Base.of(fixed)
    kept = qx(base, False, list(reversed(range(len(candidates)))))
    return [candidates[i] for i in sorted(kept)]


@dataclass
class MaxSmtResult:
    """`model` and `forced` come from the leaf of one search of the kept
    clauses: `forced` is what the theory there determines. A kept clause
    of several literals, which the search branches on, can make it
    depend on the search order."""

    falsified: tuple[int, ...]
    cost: int
    model: dict[int, TypeTerm]
    forced: dict[int, TypeTerm]


class Untypeable(Exception):
    """Clauses that must all hold cannot: `solve_maxsmt`'s hard clauses,
    or the clauses given to `check_sat`. `core` holds the indices of a
    minimal unsatisfiable subset of them."""

    def __init__(self, core: tuple[int, ...]):
        super().__init__(f"the clauses cannot all hold; core: {core}")
        self.core = core


def _holding(clauses: Sequence[Clause]) -> _Theory:
    """A theory in which every clause holds. Raises `Untypeable`, with
    the core QuickXplain keeps among the clauses, when there is none."""
    th = _solve(clauses)
    if th is None:
        raise Untypeable(tuple(c.index for c in _shrink_core(clauses)))
    return th


def check_sat(clauses: Sequence[Clause]) -> MaxSmtResult:
    """Every listed clause held at once: nothing falsified, at cost 0,
    with the model and forced values over the clauses' type variables.
    Raises `Untypeable` when they cannot all hold."""
    th = _holding(clauses)
    tids = set()
    for c in clauses:
        tids |= clause_tvars(c)
    model, forced = th.solution(tids)
    return MaxSmtResult((), 0, model, forced)


# ---------------------------------------------------------------------------
# MAX-SMT branch and bound
# ---------------------------------------------------------------------------

def _components(cs: ClauseSet) -> list[list[Clause]]:
    """Clauses grouped by shared type variables, in the order of each
    group's first clause."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    clause_vars = [(c, clause_tvars(c)) for c in cs.clauses]
    for _, tvs in clause_vars:
        if tvs:
            it = iter(tvs)
            root = find(next(it))
            for t in it:
                r = find(t)
                if r != root:
                    parent[r] = root
    groups: dict[int, list[Clause]] = {}
    for c, tvs in clause_vars:
        groups.setdefault(find(next(iter(tvs))) if tvs else -1, []).append(c)
    return list(groups.values())


def _solve_component(clauses: list[Clause]) -> tuple[tuple[int, ...], int]:
    """The falsified soft clauses and their cost, from a core-guided
    hitting-set search. Assumes the hard clauses hold, so a best set
    always exists.

    A falsified soft clause is simply dropped (not negated): the reported
    set is the cheapest set of soft clauses whose removal leaves the rest
    satisfiable, tie-broken by the lexicographically smallest sorted index
    tuple. Whenever the active clauses are unsatisfiable, the search
    branches on dropping each soft clause of a minimal unsatisfiable core;
    every minimal relaxation set hits every core, so the search is
    complete. Cores are kept: a node whose excluded set misses a known
    core branches on that core without solving, since the core lies
    wholly among the active clauses. Only a node that hits every known
    core is solved, and shrunk to a new core when unsatisfiable.

    The hard clauses are asserted once, in `hard_base`, which each
    node's search and each core's QuickXplain extend.
    """
    softs = [c for c in clauses if not c.hard]
    hard_base = _Base.of([c for c in clauses if c.hard])
    best: Optional[tuple[int, tuple[int, ...]]] = None
    seen: set[frozenset[int]] = set()
    cores: list[list[Clause]] = []
    stack: list[tuple[frozenset[int], int]] = [(frozenset(), 0)]
    while stack:  # depth first, a core's clauses in order
        excluded, cost = stack.pop()
        if excluded in seen:
            continue
        seen.add(excluded)
        if best is not None and cost > best[0]:
            continue
        core = next((k for k in cores
                     if excluded.isdisjoint(c.index for c in k)), None)
        if core is None:
            active = [c for c in softs if c.index not in excluded]
            if hard_base.extend(active).search() is not None:
                cand = (cost, tuple(sorted(excluded)))
                if best is None or cand < best:
                    best = cand
                continue
            core = _shrink_core(active, hard_base)
            cores.append(core)
        stack.extend((excluded | {c.index}, cost + c.weight)
                     for c in reversed(core))
    return best[1], best[0]


def solve_maxsmt(cs: ClauseSet) -> MaxSmtResult:
    """Optimal soft-clause falsification for the whole clause set.

    The whole set is searched once first; when it holds, nothing is
    falsified. Only when it fails is the set split into components, and
    each component's hitting-set search decides which of its soft clauses
    to falsify. Either way the model and forced values come from the leaf
    of one search of the kept clauses, walked over every type variable; a
    variable in no clause is a free `int`.

    Raises `Untypeable` when the hard clauses alone are unsatisfiable,
    with the core QuickXplain keeps among them. They are searched once,
    only when the whole set fails, and before it is split, so every
    component's search starts from hard clauses that hold. The hard
    clauses `generate_clauses` emits all hold when every type variable
    is `int`, which is why a repair round never raises it.
    """
    falsified: list[int] = []
    cost = 0
    th = _solve(cs.clauses)
    if th is None:
        _holding(cs.hard)
        for comp in _components(cs):
            comp_falsified, comp_cost = _solve_component(comp)
            falsified.extend(comp_falsified)
            cost += comp_cost
        dropped = set(falsified)
        th = _solve([c for c in cs.clauses if c.index not in dropped])
    model, forced = th.solution([tv.tid for tv in cs.tvar_table.values()])
    return MaxSmtResult(tuple(sorted(falsified)), cost, model, forced)


# ---------------------------------------------------------------------------
# SMT-LIB export
# ---------------------------------------------------------------------------

SMT_PRELUDE = """\
(set-option :produce-models true)
(declare-datatypes ((Ty 0)) ((
  (ty-bool)
  (ty-int)
  (ty-real)
  (ty-bv (bv-width Int))
  (ty-enum (enum-id Int))
  (ty-arr (arr-index Ty) (arr-elem Ty)))))
"""


class _SmtEmitter:
    def __init__(self, cs: ClauseSet):
        self.cs = cs
        self.enum_ids: dict[tuple[str, ...], int] = {}
        # register every enum type and every singleton tag set that
        # appears, so tag membership can be a finite disjunction
        for c in cs.clauses:
            for lit in c.lits:
                a = lit.atom
                terms = (a.left, a.right) if isinstance(a, Eq) else (a.term,)
                for t in terms:
                    self._register(t)
                if isinstance(a, HasTag):
                    self._enum_id((a.tag,))

    def _register(self, t: TypeTerm) -> None:
        if isinstance(t, EnumType):
            self._enum_id(t.tags)
        elif isinstance(t, ArrayType):
            self._register(t.index)
            self._register(t.elem)

    def _enum_id(self, tags: tuple[str, ...]) -> int:
        tags = tuple(sorted(tags))
        return self.enum_ids.setdefault(tags, len(self.enum_ids))

    def term(self, t: TypeTerm) -> str:
        if isinstance(t, TVar):
            return f"t{t.tid}"
        if isinstance(t, BoolType):
            return "ty-bool"
        if isinstance(t, IntType):
            return "ty-int"
        if isinstance(t, RealType):
            return "ty-real"
        if isinstance(t, BVType):
            return f"(ty-bv {t.width})"
        if isinstance(t, EnumType):
            return f"(ty-enum {self._enum_id(t.tags)})"
        if isinstance(t, ArrayType):
            return f"(ty-arr {self.term(t.index)} {self.term(t.elem)})"
        raise TypeError(f"cannot emit {t!r}")

    def atom(self, a) -> str:
        if isinstance(a, Eq):
            return f"(= {self.term(a.left)} {self.term(a.right)})"
        if isinstance(a, Tester):
            t = self.term(a.term)
            alts = [f"((_ is ty-{c}) {t})" for c in a.ctors]
            return alts[0] if len(alts) == 1 else f"(or {' '.join(alts)})"
        # HasTag: membership in any known enum id whose tag set has the tag
        ids = sorted(
            i for tags, i in self.enum_ids.items() if a.tag in tags
        )
        t = self.term(a.term)
        alts = " ".join(f"(= (enum-id {t}) {i})" for i in ids)
        return f"(and ((_ is ty-enum) {t}) (or {alts}))"

    def lit(self, l: Lit) -> str:
        body = self.atom(l.atom)
        return body if l.positive else f"(not {body})"

    def clause(self, c: Clause) -> str:
        if len(c.lits) == 1:
            return self.lit(c.lits[0])
        return "(or " + " ".join(self.lit(l) for l in c.lits) + ")"


def emit_smtlib(cs: ClauseSet) -> str:
    """SMT-LIB 2 rendering of the clause set with assert-soft weights.

    Indicator b<i> implies soft clause i; the optimum's falsified set is
    exactly the indicators assigned false.
    """
    em = _SmtEmitter(cs)
    lines = [SMT_PRELUDE.rstrip()]
    for tv in sorted(cs.tvar_table.values(), key=lambda t: t.tid):
        lines.append(f"(declare-const t{tv.tid} Ty)")
    soft = []
    for c in cs.clauses:
        if c.hard:
            lines.append(f"(assert {em.clause(c)})")
        else:
            lines.append(f"(declare-const b{c.index} Bool)")
            lines.append(f"(assert (=> b{c.index} {em.clause(c)}))")
            lines.append(f"(assert-soft b{c.index} :weight {c.weight})")
            soft.append(c.index)
    lines.append("(check-sat)")
    if soft:
        names = " ".join(f"b{i}" for i in soft)
        lines.append(f"(get-value ({names}))")
    return "\n".join(lines) + "\n"


def verify_solution(cs: ClauseSet, result: MaxSmtResult) -> bool:
    """True iff the model satisfies every clause outside the falsified set
    (falsified clauses are relaxed, so the model owes them nothing)."""
    bad = set(result.falsified)
    return all(
        eval_clause(c, result.model)
        for c in cs.clauses
        if c.index not in bad
    )
