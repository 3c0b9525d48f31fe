"""Weighted partial MAX-SMT over the type-term algebra.

The theory is unification over type terms extended with constructor
testers and enum-tag membership. Its literals are every positive one,
negative testers, and a type variable apart from `bool`, `int` or `real`:
the disequalities `generate_clauses` emits are all `act != bool`.
`solve_maxsmt` and `check_sat` raise `ValueError` for any other negative
literal before they search; `emit_smtlib` renders every literal. Each
unbound union-find root keeps one record of what it may still be: the
constructors left to it and the tags its enum must hold. A scalar takes
no arguments, so `t != int` says no more than that `t` is not built with
`int`, and testers, tag literals, disequalities and unification all
narrow a record in one place, `_Theory._narrow`; the model reads it back.
Satisfiability is a depth-first search from a base, the theory the unit
clauses leave or the clauses that refute them, in which each step copies
a theory and asserts one literal of the next clause, skipping each clause
the theory already entails (a positive equality whose sides ground to one
term, or a disequality whose constructor the theory already excludes).
Entailment, the model and the values the theory forces all come from one
grounding walk. Searches that share clauses extend one base rather than
each asserting them again: a component's hard clauses are asserted once,
and each QuickXplain call extends its parent's base. Every fact the
theory stores sits beside its reason, which leads to the clauses that
asserted it, so a failed search names clauses that cannot all hold, and
a child whose refutation leaves out its branch's clause refutes its
parent. Over the searches, a best-first hitting-set search takes the
cheapest relaxation next and stops at the first whose search holds. It
branches on the cores that failed searches name, each at the cost of the
search that failed, and keeps them: a node that has relaxed no clause of
a known core branches on it without a search. QuickXplain shrinks a core
to a minimal one only for `Untypeable`. `emit_smtlib` renders a clause
set as SMT-LIB 2 with `assert-soft` weights, for inspection or for
another MAX-SMT solver.

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

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

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
_FREE = (_ALL, _NONE, {})  # the record of a root nothing narrowed
# the value of a root whose record leaves one singleton constructor
_PINNED = {frozenset({c}): t for c, t in _SINGLETONS.items()}
# the model's value for a root whose first constructor left is not `enum`
_FIRST = {**_SINGLETONS, "bv": BVType(1), "arr": ArrayType(INT, INT)}
# the constructors left to a term apart from a scalar, by its type
_APART = {type(t): _ALL - {c} for c, t in _SINGLETONS.items()}


#: the label of a fact that no clause asserted, as in a theory built by hand
_UNLABELLED = -1


class _Conflict(Exception):
    """The asserted facts cannot all hold. `why` holds the labels of the
    facts a refutation used: indices of clauses that cannot all hold."""

    def __init__(self, why: frozenset[int]):
        super().__init__(why)
        self.why = why


class _Path:
    """A reason: the proof-forest path between the variables `x` and `y`.
    Linking two trees adds no path inside either, so the path between two
    variables of one tree, and what it explains, never changes."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x, self.y = x, y


# A reason explains a fact: a clause index (the label of the literal that
# asserted it), a `_Path`, a term (a variable stands for why it resolves
# as it does: its path to its root and the root's binding; any other term
# needs no reason), or a tuple or list of reasons. Each fact keeps its
# reason beside it, stored in O(1) and read only to explain a conflict. A
# variable a binding's or a proof edge's reason names resolves through
# bound roots, each bound to one term for one reason for good, so the
# reason means the same whenever it is read.


class _Theory:
    """A conjunction of theory literals, decided by unification.

    A union-find root is bound to a term (`binding`) or unbound; an
    unbound root may hold one record (`record`): the constructors it may
    still take, the tags its enum must hold, and `by`, which maps each lost
    constructor and each ("+", required tag) to the (term, reason) of the
    literal that did it. A disequality with a scalar takes that scalar's
    constructor from the record, so a conflict shows when a literal is
    asserted and every leaf of a search has a model. `ground` is the one
    walk that grounds a term, for `entails`, the model and forced values.

    Every fact is labelled with the index of the clause whose literal
    asserted it, so a conflict names clauses that cannot all hold (Nieuwenhuis
    and Oliveras, "Proof-producing congruence closure", RTA 2005). A merge
    is an edge of the proof forest `proof` between the two variables the
    equality named, apart from the path-compressed `parent`. Each fact
    sits beside its reason, so a search node copies four maps.
    """

    __slots__ = ("parent", "binding", "record", "proof")

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}
        # bound root -> (its term, the reason it equals that term)
        self.binding: dict[int, tuple[TypeTerm, object]] = {}
        # unbound root -> (ctors, tags, by)
        self.record: dict[int, tuple[frozenset, frozenset, dict]] = {}
        # variable -> (its parent in the proof forest, the edge's reason)
        self.proof: dict[int, tuple[int, object]] = {}

    def copy(self) -> _Theory:
        th = _Theory.__new__(_Theory)
        th.parent, th.binding = self.parent.copy(), self.binding.copy()
        th.record, th.proof = self.record.copy(), self.proof.copy()
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
            t = bound[0]
        return t

    def _occurs(self, root: int, t: TypeTerm) -> bool:
        t = self.resolve(t)
        if isinstance(t, TVar):
            return t.tid == root
        if isinstance(t, ArrayType):
            return self._occurs(root, t.index) or self._occurs(root, t.elem)
        return False

    # -- explanations ---------------------------------------------------------

    def _link(self, x: int, y: int, reason) -> None:
        """Add the proof-forest edge x - y: re-root x's tree at x, then
        hang x under y."""
        proof = self.proof
        up, why = y, reason
        while True:
            edge = proof.get(x)
            proof[x] = (up, why)
            if edge is None:
                return
            up, why, x = x, edge[1], edge[0]

    def _path(self, x: int, y: int) -> list:
        """The reasons of the proof-forest edges between x and y."""
        proof = self.proof
        rank = {x: 0}
        chain = [x]  # x and its ancestors
        while chain[-1] in proof:
            rank[proof[chain[-1]][0]] = len(chain)
            chain.append(proof[chain[-1]][0])
        out = []
        while y not in rank:
            y, reason = proof[y]
            out.append(reason)
        out.extend(proof[v][1] for v in chain[:rank[y]])
        return out

    def _res(self, t: TVar) -> tuple:
        """Why the variable `t` resolves one level as it does now: its path
        to its root and the root's binding."""
        root = self.find(t.tid)
        bound = self.binding.get(root, (None, ()))[1]
        return (bound,) if root == t.tid else (_Path(t.tid, root), bound)

    def _deep(self, t: TypeTerm) -> list:
        """The reasons `t` resolves deep as it does now."""
        out = [t]
        t = self.resolve(t)
        if isinstance(t, ArrayType):
            out += self._deep(t.index) + self._deep(t.elem)
        return out

    def _explain(self, *reasons) -> frozenset[int]:
        """Every label the reasons reach, walked with an explicit stack.
        Each path, variable, tuple and list is expanded once; `done` keeps
        each tuple and list alive, so no later object takes its id."""
        why: set[int] = set()
        paths: set[tuple[int, int]] = set()
        variables: set[int] = set()
        seen: set[int] = set()
        done = []
        stack = list(reasons)
        while stack:
            r = stack.pop()
            if type(r) is int:
                why.add(r)
            elif type(r) is _Path:
                if (r.x, r.y) not in paths:
                    paths.add((r.x, r.y))
                    stack.extend(self._path(r.x, r.y))
            elif type(r) is TVar:
                if r.tid not in variables:
                    variables.add(r.tid)
                    stack.extend(self._res(r))
            elif isinstance(r, (tuple, list)) and id(r) not in seen:
                seen.add(id(r))
                done.append(r)
                stack.extend(r)
        return frozenset(why)

    def _conflict(self, *reasons) -> _Conflict:
        return _Conflict(self._explain(*reasons))

    # -- assertion ----------------------------------------------------------

    def _narrow(self, t: TypeTerm, ctors: frozenset[str],
                tags: frozenset[str],
                source=lambda key: (None, _UNLABELLED)) -> None:
        """Assert that `t` takes one of `ctors` and holds every tag in
        `tags`; only an enum holds tags. A ground term is checked; a root's
        record is intersected with the new facts, which conflicts when no
        constructor is left. `source(key)` is the (term, reason) of the
        literal that takes the constructor `key` or sets the tag of
        `("+", tag)`: the one literal, or an entry of a record moving here."""
        r = self.resolve(t)
        if isinstance(r, TVar):
            root = r.tid
            have_ctors, have_tags, have_by = self.record.get(root, _FREE)
            new_tags = tags | have_tags
            new_ctors = ctors & have_ctors
            if new_tags:
                new_ctors = new_ctors & _ENUM
            if new_ctors == have_ctors and new_tags == have_tags:
                return
            by = dict(have_by)
            for key in chain(have_ctors - new_ctors,
                             (("+", g) for g in new_tags - have_tags)):
                by[key] = source(key)
            if not new_ctors:
                raise self._conflict(*(by[c] for c in _ALL))
            self.record[root] = (new_ctors, new_tags, by)
            return
        ctor = _CTOR_OF[type(r)]
        if ctor not in ctors:
            key = ctor
        elif tags:
            have = frozenset(r.tags) if isinstance(r, EnumType) else _NONE
            missing = sorted(tags - have)
            if not missing:
                return
            key = ("+", missing[0])
        else:
            return
        raise self._conflict(source(key))

    def unify(self, a: TypeTerm, b: TypeTerm, why=_UNLABELLED) -> None:
        """Assert a = b for the reason `why`."""
        ra = self.resolve(a)
        rb = self.resolve(b)
        if ra == rb:
            return
        if isinstance(ra, ArrayType) and isinstance(rb, ArrayType):
            # the parts are equal because the arrays are
            why = (why, a, b)
            self.unify(ra.index, rb.index, why)
            self.unify(ra.elem, rb.elem, why)
            return
        if isinstance(rb, TVar):
            a, b, ra, rb = b, a, rb, ra
        elif not isinstance(ra, TVar):
            raise self._conflict(why, a, b)
        # ra is a root; bind it to rb, or merge it into rb if rb is a root
        root = ra.tid
        if isinstance(rb, TVar):
            self.parent[root] = rb.tid
            self._link(a.tid, b.tid, why)
        elif self._occurs(root, rb):
            raise self._conflict(why, self._deep(a), self._deep(b))
        else:
            self.binding[root] = (rb, (why, b) if a.tid == root
                                  else (why, _Path(a.tid, root), b))
        rec = self.record.pop(root, None)
        if rec is not None:
            ctors, tags, by = rec
            self._narrow(TVar(root), ctors, tags, by.__getitem__)

    def assert_lit(self, lit: Lit, label: int = _UNLABELLED) -> None:
        """Assert `lit`, a literal of the solver's language
        (`_check_literals`), labelling each fact it adds with `label`."""
        a = lit.atom
        if isinstance(a, Eq):
            if lit.positive:
                self.unify(a.left, a.right, label)
                return
            t, ctors, tags = a.left, _APART[type(a.right)], _NONE
        elif isinstance(a, Tester):
            t, ctors, tags = a.term, frozenset(a.ctors), _NONE
            if not lit.positive:
                ctors = _ALL - ctors
        else:
            t, ctors, tags = a.term, _ALL, frozenset((a.tag,))
        by = (t, label)
        self._narrow(t, ctors, tags, lambda key: by)

    def entails(self, lit: Lit) -> bool:
        """Whether `lit` holds in every extension of this theory: a
        positive `Eq` whose sides ground to one term, unbound roots kept,
        or a disequality with a scalar whose constructor the theory
        already excludes. Testers and tag literals are never entailed."""
        a = lit.atom
        if not isinstance(a, Eq):
            return False
        if lit.positive:
            return self.ground(a.left, TVar) == self.ground(a.right, TVar)
        r = self.resolve(a.left)
        ctors = (self.record.get(r.tid, _FREE)[0] if isinstance(r, TVar)
                 else (_CTOR_OF[type(r)],))
        return _CTOR_OF[type(a.right)] not in ctors

    # -- models ---------------------------------------------------------------

    def ground(self, t: TypeTerm, value) -> TypeTerm:
        """`t` with each unbound root `r` replaced by `value(r)`."""
        t = self.resolve(t)
        if isinstance(t, TVar):
            return value(t.tid)
        if isinstance(t, ArrayType):
            return ArrayType(self.ground(t.index, value),
                             self.ground(t.elem, value))
        return t

    def pinned(self, root: int) -> Optional[TypeTerm]:
        """The singleton value the root's record pins it to, else None."""
        return _PINNED.get(self.record.get(root, _FREE)[0])

    def solution(self, tids) -> tuple[dict[int, TypeTerm],
                                      dict[int, TypeTerm]]:
        """A total ground assignment consistent with the asserted literals,
        and the part of it the theory determines, from one grounding walk
        per variable: a value is determined when every root it grounds
        through is pinned. An unpinned root takes the first value its
        record allows, in the model's constructor order; a tagless enum
        takes a fresh tag, numbered along the walk."""
        values: dict[int, TypeTerm] = {}  # chosen for unbound roots
        free: set[int] = set()  # the valued roots no record pins
        fresh = 1000

        def first(root: int) -> TypeTerm:
            nonlocal fresh
            ctors, tags, _ = self.record.get(root, _FREE)
            ctor = next(c for c in _CTOR_ORDER if c in ctors)
            if ctor != "enum":
                return _FIRST[ctor]
            if tags:
                return EnumType(tuple(sorted(tags)))
            fresh += 1
            return EnumType((f"TAG{fresh}",))

        walked_free = False

        def value_of(root: int) -> TypeTerm:
            nonlocal walked_free
            if root not in values:
                values[root] = first(root)
                if self.pinned(root) is None:
                    free.add(root)
            walked_free = walked_free or root in free
            return values[root]

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

class _Branch:
    """An open branch point of a search: the children of `theory` each
    assert one of `lits`, the literals of the clause `label`, in order, and
    `pos` is the next. `why` gathers the labels of the children that
    failed. A child resumes the search at clause `rest`."""

    __slots__ = ("theory", "label", "lits", "pos", "rest", "why")

    def __init__(self, theory: _Theory, label: int, lits: Sequence[Lit],
                 rest: int):
        self.theory, self.label, self.lits = theory, label, lits
        self.pos, self.rest, self.why = 0, rest, set()


class _Base:
    """Where searches start. `found` is what asserting the unit clauses of
    `clauses` in order leaves: the theory, or the indices of clauses that
    cannot all hold, the shape `search` returns. A search from a theory
    branches on the other clauses. `extend` asserts only the added units,
    on a copy, so a fact that many searches share is asserted once; a
    base's theory is never asserted to again."""

    __slots__ = ("found", "clauses")

    def __init__(self, found: _Theory | frozenset[int],
                 clauses: tuple[Clause, ...]):
        self.found, self.clauses = found, clauses

    @staticmethod
    def of(clauses: Sequence[Clause]) -> _Base:
        return _Base(_Theory(), ()).extend(clauses)

    def extend(self, clauses: Sequence[Clause]) -> _Base:
        found = self.found
        units = [c for c in clauses if len(c.lits) == 1]
        if isinstance(found, _Theory) and units:
            found = found.copy()
            try:
                for c in units:
                    found.assert_lit(c.lits[0], c.index)
            except _Conflict as conflict:
                found = conflict.why
        return _Base(found, self.clauses + tuple(clauses))

    def search(self) -> _Theory | frozenset[int]:
        """A theory in which every clause holds, or, if there is none, the
        indices of clauses that cannot all hold: a depth-first search from
        the base's theory, in which each step copies the theory it extends
        and asserts one literal of the next non-unit clause. A step first
        passes over each next clause with a literal the theory entails;
        that clause holds at every leaf below, since a branch only merges,
        binds and narrows, and never takes a fact back, and it adds nothing
        to an explanation. Every leaf has a model (`_Theory.solution`). The
        base's theory is the one that asserting the units of `clauses` in
        order on a fresh theory gives, so how a base was built does not
        change what its search finds.

        A failed child names the clauses that refute it. If its branch's
        clause is not among them, they refute the branch's node too, and
        the node's other children are not tried; otherwise the node fails
        for the union of its children's clauses. Only subtrees without a
        satisfiable leaf are cut, so the first satisfiable leaf is the one
        a full search finds.
        """
        th, i = self.found, 0
        if not isinstance(th, _Theory):
            return th
        rest = [c for c in self.clauses if len(c.lits) != 1]
        branches: list[_Branch] = []
        while True:
            # th holds: branch on the next clause it does not entail, or
            # return it as the leaf
            while i < len(rest) and any(th.entails(l) for l in rest[i].lits):
                i += 1
            if i == len(rest):
                return th
            branches.append(_Branch(th, rest[i].index, rest[i].lits, i + 1))
            why: Optional[frozenset[int] | set[int]] = None
            while True:  # the top branch's next child that holds
                top = branches[-1]
                if why is not None:  # its last child failed for `why`
                    if top.label not in why:
                        branches.pop()
                        if not branches:
                            return frozenset(why)
                        continue
                    top.why |= why
                if top.pos == len(top.lits):
                    branches.pop()
                    why = top.why
                    if not branches:
                        return frozenset(why)
                    continue
                lit = top.lits[top.pos]
                top.pos += 1
                th = top.theory.copy()
                try:
                    th.assert_lit(lit, top.label)
                except _Conflict as conflict:
                    why = conflict.why
                    continue
                i = top.rest
                break


def _solve(clauses: Sequence[Clause]) -> Optional[_Theory]:
    """A theory in which every clause holds, or None if there is none."""
    found = _Base.of(clauses).search()
    return found if isinstance(found, _Theory) else None


def _shrink_core(candidates: Sequence[Clause],
                 fixed: Sequence[Clause] = ()) -> list[Clause]:
    """A minimal subset of `candidates` that is unsatisfiable together
    with `fixed`, in candidate order; `fixed` must hold and all of them
    together must not. `Untypeable` reports this core; the hitting-set
    search takes the core a failed search names, which need not be
    minimal.

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
        if grew and not isinstance(base.search(), _Theory):
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
    kept = qx(_Base.of(fixed), False, list(reversed(range(len(candidates)))))
    return [candidates[i] for i in sorted(kept)]


@dataclass
class MaxSmtResult:
    """`model` and `forced` come from the leaf of one search of the kept
    clauses. `forced` is what the theory there determines: each variable
    that grounds only through roots whose records leave one scalar, as
    testers and disequalities narrow them. A kept clause of several
    literals, which the search branches on, can make it depend on the
    search order."""

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


def _check_literals(clauses: Sequence[Clause]) -> None:
    """Raise `ValueError` for a literal outside the solver's language: a
    negative `Eq` other than a type variable apart from `bool`, `int` or
    `real`, or a negative `HasTag`."""
    for c in clauses:
        for lit in c.lits:
            a = lit.atom
            if not (lit.positive or type(a) is Tester
                    or (type(a) is Eq and type(a.left) is TVar
                        and type(a.right) in _APART)):
                raise ValueError(f"clause {c.index}: the solver cannot "
                                 f"assert {lit}")


def _holding(clauses: Sequence[Clause]) -> _Theory:
    """A theory in which every clause holds. Raises `Untypeable`, with
    the core QuickXplain keeps among the clauses, when there is none."""
    th = _solve(clauses)
    if th is None:
        raise Untypeable(tuple(c.index for c in _shrink_core(clauses)))
    return th


def check_sat(clauses: Sequence[Clause],
              tids: Optional[Iterable[int]] = None) -> MaxSmtResult:
    """Every listed clause held at once: nothing falsified, at cost 0,
    with the model and forced values over the type variables `tids`,
    by default every variable of the clauses. Raises `Untypeable` when
    they cannot all hold, and `ValueError` for a literal outside the
    solver's language, before any search."""
    _check_literals(clauses)
    th = _holding(clauses)
    if tids is None:
        tids = set()
        for c in clauses:
            tids |= clause_tvars(c)
    model, forced = th.solution(tids)
    return MaxSmtResult((), 0, model, forced)


# ---------------------------------------------------------------------------
# MAX-SMT: best-first hitting-set search
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
    """The falsified soft clauses and their cost, from a best-first
    hitting-set search (Reiter's hitting-set tree, popped by cost as MaxHS
    orders its hitting sets). Assumes the hard clauses hold, so a best set
    always exists, and every soft weight is at least 1, which `Clause`
    enforces.

    A falsified soft clause is simply dropped (not negated): the reported
    set is the cheapest set of soft clauses whose removal leaves the rest
    satisfiable, tie-broken by the lexicographically smallest sorted index
    tuple. Nodes, the sets of excluded soft clauses, come off a heap in
    (cost, sorted indices) order. A node that misses a known core branches
    on it without a search, since the core lies wholly among its active
    clauses; any other node is searched, and a failed search names a new
    core, the soft clauses of its explanation. The first node that holds
    is the answer: with positive weights a least-cost set is a minimal
    correction set, every node excluding a proper subset of it fails with
    a core that meets the rest of it, so it is reached, and no node before
    it in that order holds.

    The hard clauses are asserted once, in `hard_base`, which each
    node's search extends. They hold, so a core has a soft clause.
    """
    softs = [c for c in clauses if not c.hard]
    hard_base = _Base.of([c for c in clauses if c.hard])
    seen: set[tuple[int, ...]] = set()
    cores: list[list[Clause]] = []
    heap: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while True:
        cost, excluded = heapq.heappop(heap)
        if excluded in seen:
            continue
        seen.add(excluded)
        drop = frozenset(excluded)
        core = next((k for k in cores
                     if drop.isdisjoint(c.index for c in k)), None)
        if core is None:
            active = [c for c in softs if c.index not in drop]
            found = hard_base.extend(active).search()
            if isinstance(found, _Theory):
                return excluded, cost
            core = [c for c in active if c.index in found]
            cores.append(core)
        for c in core:
            heapq.heappush(heap, (cost + c.weight,
                                  tuple(sorted((*excluded, c.index)))))


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
    is `int`, which is why a repair round never raises it. Raises
    `ValueError` for a literal outside the solver's language, before any
    search.
    """
    _check_literals(cs.clauses)
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
