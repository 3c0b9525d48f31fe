"""The MAX-SMT solver, its theory core, and the SMT-LIB export."""

import random
import sys
from pathlib import Path

import pytest

from oracle_maxsmt import (
    GROUND,
    deletion_core,
    oracle_optimum,
    random_clause_set,
)
from uclgen import maxsmt, pipeline
from uclgen.ast_core import BOOL, INT, REAL, ArrayType, BVType, EnumType, TVar
from uclgen.constraints import (
    CTORS,
    ClauseSet,
    Eq,
    HasTag,
    Lit,
    clause_tvars,
    eval_clause,
    generate_clauses,
)
from uclgen.constraints import Tester as CtorTester
from uclgen.frontend import extract_code, parse_tolerant, prune_to_child
from uclgen.llm import MockBackend, ReplayBackend
from uclgen.maxsmt import (
    Untypeable,
    _Conflict,
    _Theory,
    _shrink_core,
    _solve,
    check_sat,
    emit_smtlib,
    solve_maxsmt,
    verify_solution,
)
from uclgen.pipeline import STATUS_ITERATION_LIMIT, run_pipeline
from uclgen.repair import repair_round, synthesize_decls

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
SUITE = ROOT / "tests" / "data" / "suite" / "suite.json"
sys.path.append(str(ROOT / "scripts"))
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402
from solver_curve import chain_draft  # noqa: E402


def cs_of(*clauses, hard=()):
    cs = ClauseSet()
    v = {name: cs.tvar(("var", name)) for name in "xyz"}
    for lits in hard:
        cs.add_hard([l(v) for l in lits], "t:hard")
    for i, lits in enumerate(clauses):
        cs.add_soft([l(v) for l in lits], 1, origin=i, label="t:soft")
    return cs


def eq(name, ty):
    return lambda v: Lit(Eq(v[name], ty))


def neq(name, ty):
    return lambda v: Lit(Eq(v[name], ty), positive=False)


def eqv(a, b):
    return lambda v: Lit(Eq(v[a], v[b]))


def is_ctor(ctor, name):
    return lambda v: Lit(CtorTester((ctor,), v[name]))


def tag(t, name):
    return lambda v: Lit(HasTag(t, v[name]))


# ---------------------------------------------------------------------------
# check_sat
# ---------------------------------------------------------------------------

def test_check_sat_simple_binding():
    cs = cs_of([eq("x", INT)], [eqv("x", "y")])
    res = check_sat(cs.clauses)
    assert res.sat
    assert res.model[cs.tvar(("var", "y")).tid] == INT
    assert set(res.forced) >= {cs.tvar(("var", "x")).tid}


def test_check_sat_conflict_yields_core():
    cs = cs_of([eq("x", INT)], [eq("x", BOOL)], [eq("y", REAL)])
    res = check_sat(cs.clauses)
    assert not res.sat
    assert set(res.core) == {0, 1}


def test_check_sat_occurs_check():
    cs = ClauseSet()
    x = cs.tvar(("var", "x"))
    cs.add_hard([Lit(Eq(x, ArrayType(INT, x)))], "t:occurs")
    assert not check_sat(cs.clauses).sat


def test_check_sat_tester_and_tag():
    cs = cs_of(
        [is_ctor("enum", "x")],
        [tag("GO", "x")],
        [neq("x", EnumType(("GO",)))],
    )
    res = check_sat(cs.clauses)
    assert res.sat
    model_x = res.model[cs.tvar(("var", "x")).tid]
    assert isinstance(model_x, EnumType) and "GO" in model_x.tags
    assert model_x != EnumType(("GO",))


def test_check_sat_negative_testers_leave_options():
    cs = cs_of([is_ctor("bv", "x")], [neq("x", BVType(1))], [neq("x", BVType(2))])
    res = check_sat(cs.clauses)
    assert res.sat
    got = res.model[cs.tvar(("var", "x")).tid]
    assert isinstance(got, BVType) and got.width not in (1, 2)


def test_check_sat_disjunction_splits():
    cs = ClauseSet()
    x = cs.tvar(("var", "x"))
    cs.add_hard([Lit(Eq(x, INT)), Lit(Eq(x, BOOL))], "t:or")
    cs.add_hard([Lit(Eq(x, INT), positive=False)], "t:neq")
    res = check_sat(cs.clauses)
    assert res.sat
    assert res.model[x.tid] == BOOL


# ---------------------------------------------------------------------------
# The theory's per-root record: allowed constructors, required and
# forbidden enum tags
# ---------------------------------------------------------------------------

def test_record_ground_int_with_a_required_tag_conflicts():
    th = _Theory()
    with pytest.raises(_Conflict):
        th._narrow(INT, frozenset({"int"}), frozenset({"A"}), frozenset())


def test_record_merging_disjoint_constructors_conflicts():
    th = _Theory()
    x, y = TVar(0), TVar(1)
    for ctor in ("int", "bool", "real"):
        th.assert_lit(Lit(CtorTester((ctor,), x), positive=False))
    for ctor in ("bv", "enum", "arr"):
        th.assert_lit(Lit(CtorTester((ctor,), y), positive=False))
    with pytest.raises(_Conflict):
        th.unify(x, y)


def test_record_merging_a_required_and_a_forbidden_tag_conflicts():
    th = _Theory()
    x, y = TVar(0), TVar(1)
    th.assert_lit(Lit(HasTag("A", x)))
    th.assert_lit(Lit(HasTag("A", y), positive=False))
    with pytest.raises(_Conflict):
        th.unify(x, y)


def test_record_five_negative_testers_force_the_last_scalar():
    th = _Theory()
    x = TVar(0)
    for ctor in ("bool", "real", "bv", "enum", "arr"):
        th.assert_lit(Lit(CtorTester((ctor,), x), positive=False))
    assert th.determined(x) == INT
    assert th.solution([0])[1] == {0: INT}


def test_record_binding_to_an_enum_without_a_required_tag_conflicts():
    th = _Theory()
    x = TVar(0)
    th.assert_lit(Lit(HasTag("A", x)))
    with pytest.raises(_Conflict):
        th.unify(x, EnumType(("B",)))


# ---------------------------------------------------------------------------
# Entailment: the clauses `_solve` skips
# ---------------------------------------------------------------------------

def test_entails_an_equality_through_a_union_find_chain():
    th = _Theory()
    x, y, z = TVar(0), TVar(1), TVar(2)
    assert not th.entails(Lit(Eq(x, z)))
    th.unify(x, y)
    th.unify(y, z)
    assert th.entails(Lit(Eq(x, z)))
    assert th.entails(Lit(Eq(z, x)))
    assert not th.entails(Lit(Eq(x, z), positive=False))


def test_entails_an_equality_through_an_arrays_parts():
    th = _Theory()
    a, i, e, j = TVar(0), TVar(1), TVar(2), TVar(3)
    th.unify(a, ArrayType(i, e))
    th.unify(e, BOOL)
    assert not th.entails(Lit(Eq(a, ArrayType(j, BOOL))))
    th.unify(i, j)
    assert th.entails(Lit(Eq(a, ArrayType(j, BOOL))))
    assert not th.entails(Lit(Eq(a, ArrayType(j, INT))))


def test_entails_a_stored_disequality_as_it_stands():
    th = _Theory()
    x, y = TVar(0), TVar(1)
    th.assert_lit(Lit(Eq(x, INT), positive=False))
    assert th.entails(Lit(Eq(x, INT), positive=False))
    # checked syntactically: sides swapped, a merged side, or sides that
    # are ground and differ do not match a stored disequality
    th.unify(x, y)
    assert not th.entails(Lit(Eq(INT, x), positive=False))
    assert not th.entails(Lit(Eq(y, INT), positive=False))
    th.unify(y, BOOL)
    assert not th.entails(Lit(Eq(x, REAL), positive=False))


def test_entails_no_tester_or_tag_literal():
    th = _Theory()
    x = TVar(0)
    for lit in (Lit(CtorTester(("enum",), x)), Lit(HasTag("A", x)),
                Lit(HasTag("B", x), positive=False)):
        th.assert_lit(lit)
        assert not th.entails(lit)


def test_a_skipped_clause_holds_in_the_model_of_the_leaf():
    # the units make x = y and x != int; the second literal of each
    # non-unit clause is then entailed, so `_solve` asserts neither z = bool
    # nor z = real and leaves z free
    cs = ClauseSet()
    x, y, z = (cs.tvar(("var", n)) for n in "xyz")
    cs.add_hard([Lit(Eq(x, y))], "t:unit")
    cs.add_hard([Lit(Eq(x, INT), positive=False)], "t:unit")
    cs.add_hard([Lit(Eq(z, BOOL)), Lit(Eq(y, x))], "t:skipped")
    cs.add_hard([Lit(Eq(z, REAL)), Lit(Eq(x, INT), positive=False)],
                "t:skipped")
    th = _solve(cs.clauses)
    assert th is not None
    assert th.determined(z) is None
    model = th.solution({x.tid, y.tid, z.tid})[0]
    assert model[z.tid] == INT
    assert all(eval_clause(c, model) for c in cs.clauses)


# ---------------------------------------------------------------------------
# solve_maxsmt
# ---------------------------------------------------------------------------

def test_satisfiable_set_has_empty_falsified():
    cs = cs_of([eq("x", INT)], [eqv("x", "y")], [eq("y", INT)])
    res = solve_maxsmt(cs)
    assert res.falsified == ()
    assert res.cost == 0
    assert verify_solution(cs, res)


def test_minimum_weight_wins():
    cs = ClauseSet()
    x = cs.tvar(("var", "x"))
    cs.add_soft([Lit(Eq(x, INT))], 5, origin=0, label="a")
    cs.add_soft([Lit(Eq(x, BOOL))], 2, origin=1, label="b")
    res = solve_maxsmt(cs)
    assert res.falsified == (1,)
    assert res.cost == 2


def test_equal_weight_tie_breaks_to_lex_smallest_index():
    cs = ClauseSet()
    x = cs.tvar(("var", "x"))
    cs.add_soft([Lit(Eq(x, INT))], 3, origin=0, label="a")
    cs.add_soft([Lit(Eq(x, BOOL))], 3, origin=1, label="b")
    res = solve_maxsmt(cs)
    assert res.falsified == (0,)


def test_hard_clauses_are_never_falsified():
    cs = ClauseSet()
    x = cs.tvar(("var", "x"))
    cs.add_hard([Lit(Eq(x, BOOL))], "h")
    soft = cs.add_soft([Lit(Eq(x, INT))], 1, origin=0, label="s")
    res = solve_maxsmt(cs)
    assert res.falsified == (soft.index,)


def test_unsatisfiable_hard_clauses_raise_with_core():
    cs = ClauseSet()
    x = cs.tvar(("var", "x"))
    cs.add_hard([Lit(Eq(x, BOOL))], "h1")
    cs.add_hard([Lit(Eq(x, INT))], "h2")
    cs.add_hard([Lit(Eq(cs.tvar(("var", "y")), REAL))], "h3")
    with pytest.raises(Untypeable) as exc:
        solve_maxsmt(cs)
    assert set(exc.value.core) == {0, 1}


def test_a_later_components_hard_conflict_raises_the_global_hard_core(
        monkeypatch):
    # component x needs a relaxation and is solved first; component y's
    # hard clauses conflict, which only its root node finds out
    cs = ClauseSet()
    x, y = cs.tvar(("var", "x")), cs.tvar(("var", "y"))
    cs.add_hard([Lit(Eq(x, INT)), Lit(Eq(x, REAL))], "x:hard")
    cs.add_soft([Lit(Eq(x, BOOL))], 1, origin=0, label="x:soft")
    cs.add_soft([Lit(Eq(x, INT))], 1, origin=1, label="x:soft")
    cs.add_hard([Lit(Eq(y, BOOL))], "y:hard")
    cs.add_hard([Lit(Eq(y, INT))], "y:hard")
    solved = []
    solve_component = maxsmt._solve_component

    def recording(clauses):
        got = solve_component(clauses)
        solved.append(got and got[0])
        return got

    monkeypatch.setattr(maxsmt, "_solve_component", recording)
    with pytest.raises(Untypeable) as exc:
        solve_maxsmt(cs)
    assert solved == [(1,), None]
    assert exc.value.core == tuple(c.index for c in _shrink_core(cs.hard))
    assert exc.value.core == (3, 4)


def test_unconstrained_variables_default_to_int():
    cs = ClauseSet()
    cs.tvar(("var", "loose"))
    res = solve_maxsmt(cs)
    tid = cs.tvar(("var", "loose")).tid
    assert res.model[tid] == INT


def test_forced_variables_are_reported():
    cs = cs_of([eq("x", INT)])
    res = solve_maxsmt(cs)
    x = cs.tvar(("var", "x")).tid
    assert res.forced.get(x) == INT


def test_components_solve_independently():
    # x-clauses conflict; y-clauses don't; the y component stays intact
    cs = ClauseSet()
    x, y = cs.tvar(("var", "x")), cs.tvar(("var", "y"))
    cs.add_soft([Lit(Eq(x, INT))], 1, origin=0, label="x1")
    cs.add_soft([Lit(Eq(x, BOOL))], 1, origin=1, label="x2")
    cs.add_soft([Lit(Eq(y, REAL))], 1, origin=2, label="y1")
    res = solve_maxsmt(cs)
    assert res.falsified == (0,)
    assert res.model[y.tid] == REAL


def test_solver_matches_oracle_on_random_sets():
    rng = random.Random(1131)
    for _ in range(120):
        cs = random_clause_set(rng, max_soft=10)
        expect = oracle_optimum(cs)
        try:
            res = solve_maxsmt(cs)
        except Untypeable:
            assert expect is None
            continue
        assert expect is not None
        assert (res.cost, res.falsified) == expect
        assert verify_solution(cs, res)


def _random_set_with_tester_sets(rng):
    """An oracle set plus soft clauses on its variables whose tester names
    one to three constructors, positive or negative, alone or beside an
    equality with a ground term: still inside the oracle's fragment, whose
    witnesses keep each variable's constructor."""
    cs = random_clause_set(rng, max_soft=8)
    tvars = sorted(cs.tvar_table.values(), key=lambda t: t.tid)
    for i in range(rng.randint(1, 4)):
        picked = rng.sample(CTORS, rng.randint(1, 3))
        ctors = tuple(c for c in CTORS if c in picked)
        lits = [Lit(CtorTester(ctors, rng.choice(tvars)), rng.random() >= 0.4)]
        if rng.random() < 0.4:
            lits.append(Lit(Eq(rng.choice(tvars), rng.choice(GROUND))))
        cs.add_soft(lits, rng.randint(1, 8), origin=i, label="t")
    return cs


def test_solver_matches_oracle_on_testers_of_several_constructors():
    rng = random.Random(5081)
    shapes = set()
    for _ in range(400):
        cs = _random_set_with_tester_sets(rng)
        shapes |= {(len(l.atom.ctors), l.positive) for c in cs.clauses
                   for l in c.lits if isinstance(l.atom, CtorTester)}
        expect = oracle_optimum(cs)
        try:
            res = solve_maxsmt(cs)
        except Untypeable:
            assert expect is None
            continue
        assert expect is not None
        assert (res.cost, res.falsified) == expect
        assert verify_solution(cs, res)
    assert shapes == {(n, pos) for n in (1, 2, 3) for pos in (True, False)}


def _vars(cs, n=3):
    return [cs.tvar(("var", f"v{i}")) for i in range(n)]


def _assert_optimal(cs):
    expect = oracle_optimum(cs)
    res = solve_maxsmt(cs)
    assert (res.cost, res.falsified) == expect
    assert verify_solution(cs, res)
    relaxed = set(res.falsified)
    kept = [c for c in cs.clauses if c.index not in relaxed]
    assert check_sat(kept).sat


@pytest.mark.parametrize("seed, max_soft, index", [
    (1131, 10, 483), (7, 14, 768), (1131, 14, 653), (2, 14, 389),
])
def test_solver_matches_oracle_where_an_enum_needs_a_fresh_tag(
        seed, max_soft, index):
    # the optimum gives an enum the tags of another plus one no literal
    # names; an oracle with enums over {A, B, C} only reports a dearer one
    rng = random.Random(seed)
    for _ in range(index + 1):
        cs = random_clause_set(rng, max_soft=max_soft)
    _assert_optimal(cs)


def test_oracle_has_a_width_outside_the_ground_terms():
    # v0 is a bit-vector apart from v1 = bv2, v2 = bv3 and bv4
    cs = ClauseSet()
    v0, v1, v2 = _vars(cs)
    for i, lit in enumerate([
        Lit(Eq(v1, BVType(2))), Lit(Eq(v2, BVType(3))),
        Lit(Eq(v0, BVType(4)), positive=False),
        Lit(Eq(v0, v1), positive=False), Lit(Eq(v0, v2), positive=False),
        Lit(CtorTester(("bv",), v0)),
    ]):
        cs.add_soft([lit], 1, origin=i, label="t")
    assert oracle_optimum(cs) == (0, ())
    _assert_optimal(cs)


def test_oracle_has_an_array():
    cs = ClauseSet()
    (v0,) = _vars(cs, 1)
    for i, ctor in enumerate(("bool", "int", "real", "bv", "enum")):
        cs.add_soft([Lit(CtorTester((ctor,), v0), positive=False)], 1,
                    origin=i, label="t")
    assert oracle_optimum(cs) == (0, ())
    _assert_optimal(cs)


def test_model_sees_singleton_values_before_their_turn():
    # v1 = v2 and is-int(v2) make v1 an int; v0 is valued first and must
    # not take int, or v1 != v0 leaves v1 without a value
    cs = ClauseSet()
    v0, v1, v2 = _vars(cs)
    cs.add_soft([Lit(CtorTester(("int",), v2))], 1, origin=0, label="t")
    cs.add_soft([Lit(Eq(v1, v2)), Lit(CtorTester(("bv",), v1), positive=False)],
                1, origin=1, label="t")
    cs.add_soft([Lit(Eq(v1, v0), positive=False)], 1, origin=2, label="t")
    assert oracle_optimum(cs) == (0, ())
    _assert_optimal(cs)


def test_model_with_singleton_values_on_a_random_set():
    # random_clause_set(random.Random(7), max_soft=10), set 252
    cs = ClauseSet()
    v0, v1, v2 = _vars(cs)
    bc = EnumType(("B", "C"))
    cs.add_hard([Lit(Eq(v1, v2), positive=False),
                 Lit(CtorTester(("real",), v1))], "t:hard")
    for w, lits in [
        (7, [Lit(HasTag("B", v2))]),
        (1, [Lit(HasTag("B", v0)), Lit(Eq(v2, bc))]),
        (8, [Lit(Eq(v1, v0), positive=False), Lit(HasTag("A", v0)),
             Lit(HasTag("C", v1), positive=False)]),
        (7, [Lit(Eq(v1, v2))]),
        (7, [Lit(HasTag("B", v0), positive=False), Lit(Eq(v1, v2)),
             Lit(Eq(v1, v2))]),
        (8, [Lit(Eq(v1, bc)), Lit(CtorTester(("bool",), v1), positive=False)]),
        (8, [Lit(CtorTester(("int",), v1)), Lit(Eq(v2, v0))]),
    ]:
        cs.add_soft(lits, w, origin=len(cs.clauses), label="t")
    assert oracle_optimum(cs) == (7, (4,))
    _assert_optimal(cs)


# ---------------------------------------------------------------------------
# Search effort: theory literals asserted per clause
# ---------------------------------------------------------------------------

def _chain_source(n, wrong=False):
    """`acc = a + 1 + b + ...` over integers: n terms, a third literals;
    with `wrong`, the last term is `True`."""
    terms = [("self.a", "self.b")[i % 2] for i in range(n - n // 3)]
    terms += [str(1 + i % 9) for i in range(n // 3)]
    random.Random(n).shuffle(terms)
    if wrong:
        terms[-1] = "True"
    return "\n".join([
        "class Chain(Module):",
        "    def locals(self):",
        "        self.acc = int", "        self.a = int", "        self.b = int",
        "    def init(self):",
        "        self.acc = 0", "        self.a = 0", "        self.b = 0",
        "    def next(self):",
        "        self.acc = " + " + ".join(terms),
        "        self.a = self.a + 1",
    ]) + "\n"


def _nest_source(depth):
    """`depth` nested `if`s on a counter around one assignment."""
    ops = ("<", ">", "<=", ">=", "!=")
    body = [" " * (8 + 4 * i) + f"if self.ctr {ops[i % 5]} {7 * i % 100}:"
            for i in range(depth)]
    return "\n".join([
        "class Nest(Module):",
        "    def locals(self):",
        "        self.ctr = int", "        self.hits = int",
        "    def outputs(self):",
        "        self.flag = bool",
        "    def init(self):",
        "        self.ctr = 0", "        self.hits = 0", "        self.flag = False",
        "    def next(self):",
        *body,
        " " * (8 + 4 * depth) + "self.hits = self.hits + 1",
        "        self.ctr = self.ctr + 1",
        "        self.flag = self.hits > 3",
        "    def specification(self):",
        "        return self.hits >= 0",
    ]) + "\n"


@pytest.mark.parametrize("source", [
    *(_chain_source(n) for n in (25, 50, 100, 200)),
    *(_nest_source(d) for d in (10, 30, 60)),
], ids=[*(f"chain{n}" for n in (25, 50, 100, 200)),
        *(f"nest{d}" for d in (10, 30, 60))])
def test_search_asserts_a_bounded_number_of_literals_per_clause(
        monkeypatch, source):
    program, _ = prune_to_child(parse_tolerant(source))
    cs = generate_clauses(synthesize_decls(program)[0], "depth")
    asserted = _count_asserts(monkeypatch)
    assert check_sat(cs.clauses).sat
    assert len(asserted) <= len(cs.clauses)
    asserted.clear()
    assert solve_maxsmt(cs).falsified == ()
    assert len(asserted) <= 2 * len(cs.clauses)


# ---------------------------------------------------------------------------
# Core shrinking and core reuse: solves per clause set
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [7, 1131])
def test_shrink_core_keeps_the_core_deletion_keeps(seed):
    rng = random.Random(seed)
    compared = {"check_sat": 0, "hards fixed": 0}
    for _ in range(1500):
        cs = random_clause_set(rng, max_soft=10)
        if _solve(cs.clauses) is not None:
            continue
        assert _shrink_core(cs.clauses) == deletion_core(cs.clauses)
        compared["check_sat"] += 1
        hards, softs = list(cs.hard), list(cs.soft)
        if hards and _solve(hards) is not None:
            got = _shrink_core(softs, hards)
            assert got == deletion_core(softs, hards)
            assert _solve(hards + got) is None
            compared["hards fixed"] += 1
    assert min(compared.values()) >= 100, compared


def test_shrink_core_is_empty_when_the_fixed_clauses_conflict():
    cs = cs_of([eq("y", INT)], [eq("y", BOOL)], [eq("z", REAL)],
               hard=[[eq("x", INT)], [eq("x", BOOL)]])
    hards, softs = list(cs.hard), list(cs.soft)
    assert _shrink_core(softs, hards) == []
    assert deletion_core(softs, hards) == []


def _count_solves(monkeypatch):
    """Satisfiability decisions, recorded as the indices of the clauses
    searched: each is one `_Base.search` call, whether through `_solve`
    or on a base the solver extended."""
    calls = []
    search = maxsmt._Base.search

    def counting(base):
        calls.append(tuple(c.index for c in base.clauses))
        return search(base)

    monkeypatch.setattr(maxsmt._Base, "search", counting)
    return calls


def _clauses_of(source):
    program, _ = prune_to_child(parse_tolerant(source))
    return generate_clauses(synthesize_decls(program)[0], "depth")


@pytest.mark.parametrize("n", [25, 50, 100, 200])
def test_a_wrong_literal_in_a_chain_costs_a_bounded_number_of_solves(
        monkeypatch, n):
    # the core is the few clauses at the top of the chain; deletion solved
    # the whole chain once per clause to find it: 196 / 362 / 696 / 1362
    # solves, against 30 / 35 / 35 / 37
    cs = _clauses_of(_chain_source(n, wrong=True))
    calls = _count_solves(monkeypatch)
    assert len(solve_maxsmt(cs).falsified) == 1
    assert len(calls) <= 50


_OTHER_TYPES = ("int", "real", "BitVector(4)", 'Enum("LO", "HI")',
                "BitVector(8)", "BitVector(2)", "Array(int, bool)")


def _duplicates_source(k):
    """`flag` declared k times: bool, then other types spread over the
    inputs, outputs and locals sections."""
    sections = {"locals": ["self.ctr = int", "self.flag = bool"],
                "inputs": ["self.go = bool"], "outputs": ["self.out = bool"]}
    for j, other in enumerate(_OTHER_TYPES[:k - 1]):
        sections[("inputs", "outputs", "locals")[j % 3]].append(
            f"self.flag = {other}")
    sections["init"] = ["self.ctr = 0", "self.flag = False",
                        "self.out = False"]
    sections["next"] = ["if self.go:", "    self.ctr = self.ctr + 1",
                        "self.flag = self.ctr > 5",
                        "self.out = self.flag and self.go"]
    lines = ["class Dups(Module):"]
    for name, body in sections.items():
        lines.append(f"    def {name}(self):")
        lines += ["        " + stmt for stmt in body]
    return "\n".join(lines) + "\n"


def _count_nodes(monkeypatch):
    """Search nodes, one `_Theory.copy` call each."""
    nodes = [0]
    copy = _Theory.copy

    def counting(self):
        nodes[0] += 1
        return copy(self)

    monkeypatch.setattr(_Theory, "copy", counting)
    return nodes


def _count_diseq_checks(monkeypatch):
    """Disequalities resolved, one `_Theory._check_diseq` call each."""
    checks = [0]
    check = _Theory._check_diseq

    def counting(self, a, b):
        checks[0] += 1
        return check(self, a, b)

    monkeypatch.setattr(_Theory, "_check_diseq", counting)
    return checks


def _count_asserts(monkeypatch):
    """Every literal `_Theory.assert_lit` is called with, in order."""
    asserted = []
    assert_lit = _Theory.assert_lit

    def counting(self, lit):
        asserted.append(lit)
        assert_lit(self, lit)

    monkeypatch.setattr(_Theory, "assert_lit", counting)
    return asserted


# search nodes with each clause the theory entails skipped; branching on
# every literal of every clause took 46 / 162 / 992 / 13,845 / 345,188
# nodes for 2 to 6 duplicates. A base's copy counts as a node: building a
# base copies once where every solve's root once did. The counter's `>`
# took 36 / 96 / 274 / 838 / 2,251 / 5,250 / 11,393 when its numeric
# clause was three tester literals to branch on, not one unit. The
# whole-set search that fails before the components are solved adds one:
# 34 / 94 / 272 / 836 / 2,249 / 5,248 / 11,391 without it. The search of
# the kept clauses that gives the model adds 1 / 2 / 3 / 4 / 5 / 6 / 7:
# 35 / 95 / 273 / 837 / 2,250 / 5,249 / 11,392 when each component's
# hitting-set leaf gave it
_DUPLICATE_NODES = {2: 36, 3: 97, 4: 276, 5: 841, 6: 2255, 7: 5255, 8: 11399}
# literals asserted with each search extending a base; re-asserting every
# unit clause in every solve took 209 / 358 / 728 / 1,593 / 3,411 / 6,928 /
# 13,667, and 90 / 168 / 383 / 1,008 / 2,495 / 5,596 / 11,842 without the
# whole-set search, whose base asserts the units once more. The kept-set
# search asserts its units once more again: 129 / 208 / 424 / 1,050 /
# 2,538 / 5,640 / 11,887 without it
_DUPLICATE_ASSERTS = {2: 167, 3: 247, 4: 464, 5: 1091, 6: 2580, 7: 5683,
                      8: 11931}
# disequalities resolved, each step checking only those it can break;
# re-checking every stored one after every step resolved 28 / 154 / 668 /
# 2,711 / 9,032 / 25,067 / 63,518, and 20 / 68 / 216 / 690 / 1,925 / 4,591
# / 10,129 without the whole-set search, 21 / 69 / 217 / 691 / 1,926 /
# 4,592 / 10,130 without the kept-set search
_DUPLICATE_DISEQ_CHECKS = {2: 22, 3: 71, 4: 220, 5: 695, 6: 1931, 7: 4598,
                           8: 10137}


@pytest.mark.parametrize("k, solves, falsified", [
    (2, 25, (5,)),
    (3, 36, (5, 8)),
    (4, 59, (3, 7, 10)),
    (5, 99, (3, 7, 9, 12)),
    (6, 153, (3, 7, 9, 12, 14)),
    (7, 221, (3, 5, 9, 11, 14, 16)),
    (8, 300, (3, 5, 9, 11, 13, 16, 18)),
])
def test_duplicate_declarations_cost_pinned_solves(
        monkeypatch, k, solves, falsified):
    # deletion with no core kept took 28 / 70 / 204 / 500 solves.
    # `solves` are the hitting-set search's; the whole-set search, which
    # fails, comes first, and the search of the kept clauses, which gives
    # the model, last: 27 / 38 / 61 / 101 / 155 / 223 / 302 in all
    cs = _clauses_of(_duplicates_source(k))
    calls = _count_solves(monkeypatch)
    nodes = _count_nodes(monkeypatch)
    asserted = _count_asserts(monkeypatch)
    diseq_checks = _count_diseq_checks(monkeypatch)
    assert solve_maxsmt(cs).falsified == falsified
    assert calls[0] == tuple(c.index for c in cs.clauses)
    assert calls[-1] == tuple(c.index for c in cs.clauses
                              if c.index not in falsified)
    assert len(calls) == 2 + solves
    assert nodes[0] == _DUPLICATE_NODES[k]
    assert len(asserted) == _DUPLICATE_ASSERTS[k]
    assert diseq_checks[0] == _DUPLICATE_DISEQ_CHECKS[k]


@pytest.mark.parametrize("n, searches, nodes", [
    (50, 272, 272), (100, 508, 508), (200, 999, 999),
])
def test_a_chain_whose_first_term_is_wrong_costs_pinned_nodes(
        monkeypatch, n, searches, nodes):
    # each operator's numeric clause was three tester literals, and the
    # search branched on every one: 5,709 / 18,843 / 69,282 nodes for
    # 270 / 506 / 997 searches. Now it is one unit the base asserts. The
    # whole-set search of the conflicting round adds a search and a node
    # to the 270 / 506 / 997 before it, and the search of its kept
    # clauses, which gives the model, one more; re-solving the holed
    # program, which holds, is one search either way but copies one
    # theory, where its component's hard base and that base's extension
    # copied two
    draft = chain_draft("first-term-wrong", n)
    calls = _count_solves(monkeypatch)
    copies = _count_nodes(monkeypatch)
    out = run_pipeline("Sum a chain.", MockBackend([draft]), max_llm_calls=1)
    assert out.status == STATUS_ITERATION_LIMIT
    assert (len(calls), copies[0]) == (searches, nodes)


def test_a_component_asserts_each_hard_unit_once(monkeypatch):
    # four declarations of one name: one component, relaxed three times
    # over many searches and QuickXplain calls, all on one hard base
    comp = max((comp for comp in maxsmt._components(
        _clauses_of(_duplicates_source(4)))), key=len)
    hard_units = [c.lits[0] for c in comp if c.hard and len(c.lits) == 1]
    calls = _count_solves(monkeypatch)
    asserted = _count_asserts(monkeypatch)
    assert len(maxsmt._solve_component(comp)[0]) == 3
    assert (len(calls), len(hard_units)) == (56, 3)
    assert [sum(l is u for l in asserted) for u in hard_units] == \
        [1] * len(hard_units)


def test_a_known_core_is_branched_on_without_a_solve(monkeypatch):
    # x and y conflict apart; z = array(x, y) joins them in one component
    cs = ClauseSet()
    x, y, z = (cs.tvar(("var", n)) for n in "xyz")
    cs.add_hard([Lit(Eq(z, ArrayType(x, y)))], "t:join")
    for i, lit in enumerate([Lit(Eq(x, INT)), Lit(Eq(x, BOOL)),
                             Lit(Eq(y, INT)), Lit(Eq(y, BOOL))]):
        cs.add_soft([lit], 1, origin=i, label="t")
    shrunk = []
    shrink = maxsmt._shrink_core

    def recording(candidates, fixed=()):
        core = shrink(candidates, fixed)
        shrunk.append(tuple(c.index for c in core))
        return core

    monkeypatch.setattr(maxsmt, "_shrink_core", recording)
    calls = _count_solves(monkeypatch)
    res = solve_maxsmt(cs)
    assert (res.falsified, res.cost) == ((1, 3), 2)
    # the first core is {y = int, y = bool}; dropping y = int finds the
    # second, {x = int, x = bool}; dropping y = bool then branches on the
    # second without solving x = int, x = bool, y = int
    assert shrunk == [(3, 4), (1, 2)]
    assert (0, 1, 2, 3) not in calls
    assert (0, 1, 2, 4) in calls


# ---------------------------------------------------------------------------
# Bookkeeping done once: incremental disequality checks, one-walk models
# ---------------------------------------------------------------------------

_WIDE_GROUND = (BOOL, INT, REAL, BVType(2), BVType(4), EnumType(("A",)),
                EnumType(("A", "B")), ArrayType(INT, BOOL),
                ArrayType(INT, INT))


def _random_set_with_arrays(rng):
    """Soft clauses over four variables with arrays of variables, enums,
    bit-vectors and disequalities of any shape: outside the oracle's
    fragment, for checks that need no oracle."""
    cs = ClauseSet()
    v = _vars(cs, 4)

    def term():
        r = rng.random()
        if r < 0.4:
            return rng.choice(v)
        if r < 0.6:
            return ArrayType(rng.choice(v + [INT]), rng.choice(v + [BOOL]))
        return rng.choice(_WIDE_GROUND)

    def lit():
        kind = rng.choice(("eq", "eq", "tester", "tag"))
        positive = rng.random() >= 0.35
        x = rng.choice(v)
        if kind == "eq":
            return Lit(Eq(x, term()), positive)
        if kind == "tester":
            return Lit(CtorTester((rng.choice(
                ("bool", "int", "real", "bv", "enum", "arr")),), x), positive)
        return Lit(HasTag(rng.choice("AB"), x), positive)

    for i in range(rng.randint(2, 10)):
        cs.add_soft([lit() for _ in range(rng.randint(1, 3))], 1, origin=i,
                    label="t")
    return cs


def _solver_corpus():
    """The random oracle sets, the wider sets with arrays and the duplicate
    drafts for 2 to 8 declarations."""
    rng = random.Random(29)
    sets = [random_clause_set(rng, max_soft=10) for _ in range(300)]
    sets += [_random_set_with_arrays(rng) for _ in range(300)]
    sets += [_clauses_of(_duplicates_source(k)) for k in range(2, 9)]
    return sets


def _solve_all(cs):
    try:
        solve_maxsmt(cs)
    except Untypeable:
        pass
    check_sat(cs.clauses)


def _determined_ref(th, t):
    t = th.resolve(t)
    if isinstance(t, TVar):
        ctors = th.record.get(t.tid, (frozenset(),))[0]
        return {frozenset({"int"}): INT, frozenset({"bool"}): BOOL,
                frozenset({"real"}): REAL}.get(ctors)
    if isinstance(t, ArrayType):
        i, e = _determined_ref(th, t.index), _determined_ref(th, t.elem)
        return ArrayType(i, e) if i is not None and e is not None else None
    return t


def _diseqs_hold(th):
    """Reference: every stored disequality checked from scratch."""
    for a, b in th.diseqs:
        if th.resolve_deep(a) == th.resolve_deep(b):
            return False
        da = _determined_ref(th, a)
        if da is not None and da == _determined_ref(th, b):
            return False
    return True


def test_incremental_diseq_check_raises_exactly_when_a_full_recheck_would(
        monkeypatch):
    outcomes = {True: 0, False: 0}
    check = _Theory.check_diseqs

    def compared(th):
        expect = _diseqs_hold(th)
        try:
            check(th)
        except _Conflict:
            assert not expect
            outcomes[False] += 1
            raise
        assert expect
        outcomes[True] += 1

    monkeypatch.setattr(_Theory, "check_diseqs", compared)
    for cs in _solver_corpus():
        _solve_all(cs)
    assert min(outcomes.values()) >= 5000, outcomes


def _two_walk_solution(th, tids):
    """Reference: the model as a walk that scans the disequalities for
    every root found it, and forced as a second walk through the pinned
    roots only."""
    values = {}
    fresh = [1000]

    def candidates(root):
        ctors, tags, bad = th.record.get(root, maxsmt._FREE)
        tags = tuple(sorted(tags))
        for ctor in maxsmt._CTOR_ORDER:
            if ctor not in ctors:
                continue
            if ctor in maxsmt._SINGLETONS:
                yield maxsmt._SINGLETONS[ctor]
            elif ctor == "bv":
                yield from (BVType(w) for w in range(1, 64))
                while True:
                    fresh[0] += 1
                    yield BVType(fresh[0])
            elif ctor == "enum":
                if tags:
                    yield EnumType(tags)
                while True:
                    fresh[0] += 1
                    if f"TAG{fresh[0]}" not in bad:
                        yield EnumType(tags + (f"TAG{fresh[0]}",))
            elif ctor == "arr":
                yield ArrayType(INT, INT)
                while True:
                    fresh[0] += 1
                    yield ArrayType(INT, BVType(fresh[0]))

    def violates(root, val):
        def value(r):
            if r == root:
                return val
            return values[r] if r in values else th.pinned(r)

        return any(th.ground(a, value) is not None
                   and th.ground(a, value) == th.ground(b, value)
                   for a, b in th.diseqs)

    def value_of(root):
        if root not in values:
            values[root] = next(c for c in candidates(root)
                                if not violates(root, c))
        return values[root]

    model = {tid: th.ground(TVar(tid), value_of) for tid in sorted(tids)}
    forced = {tid: th.ground(TVar(tid), th.pinned) for tid in tids}
    return model, {tid: v for tid, v in forced.items() if v is not None}


def test_one_walk_model_and_forced_equal_the_two_walk_reference(monkeypatch):
    seen = {"array": 0, "bv": 0, "enum": 0, "unpinned": 0}
    solution = _Theory.solution

    def compared(th, tids):
        got = solution(th, tids)
        assert got == _two_walk_solution(th, tids)
        model, forced = got
        for kind, cls in (("array", ArrayType), ("bv", BVType),
                          ("enum", EnumType)):
            seen[kind] += any(isinstance(v, cls) for v in model.values())
        seen["unpinned"] += len(forced) < len(model)
        return got

    monkeypatch.setattr(_Theory, "solution", compared)
    for cs in _solver_corpus():
        _solve_all(cs)
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# The whole-set search first: a satisfiable set is one search; the model is
# read from one search of the kept clauses
# ---------------------------------------------------------------------------

def _by_components(cs):
    """Reference: every set split into components, each solved by the
    hitting-set search, with its kept clauses searched and walked for its
    own variables' model; a variable in no clause is a free `int`."""
    falsified, cost, model, forced = [], 0, {}, {}
    for comp in maxsmt._components(cs):
        solved = maxsmt._solve_component(comp)
        if solved is None:
            hard = [c for c in cs.clauses if c.hard]
            raise Untypeable(tuple(c.index for c in _shrink_core(hard)))
        f, w = solved
        falsified.extend(f)
        cost += w
        th = _solve([c for c in comp if c.index not in f])
        comp_model, comp_forced = th.solution(
            set().union(*(clause_tvars(c) for c in comp)))
        model.update(comp_model)
        forced.update(comp_forced)
    for tv in cs.tvar_table.values():
        model.setdefault(tv.tid, INT)
    return maxsmt.MaxSmtResult(tuple(sorted(falsified)), cost, model, forced)


def _fields(solve, cs):
    """A result's fields, or the hard core when `solve` raises."""
    try:
        res = solve(cs)
    except Untypeable as exc:
        return exc.core
    return res.falsified, res.cost, res.model, res.forced


def test_whole_set_solve_equals_the_component_loop_on_satisfiable_sets():
    compared = 0
    for cs in _solver_corpus():
        if _solve(cs.clauses) is None:
            continue
        assert _fields(solve_maxsmt, cs) == _fields(_by_components, cs)
        compared += 1
    assert compared >= 150, compared


def test_kept_set_model_equals_the_component_loop_on_conflicting_sets():
    compared = 0
    for cs in _solver_corpus():
        if _solve(cs.clauses) is not None:
            continue
        assert _fields(solve_maxsmt, cs) == _fields(_by_components, cs)
        compared += 1
    # 271 of 607 sets conflict, 8 of them in their hard clauses, when this
    # was written
    assert compared >= 200, compared


def test_a_solve_walks_one_theory_once(monkeypatch):
    # a satisfiable set, a conflicting one, and one whose hard clauses
    # conflict, which raises before any model is read
    walked = []
    solution = _Theory.solution

    def counting(th, tids):
        walked.append(sorted(tids))
        return solution(th, tids)

    monkeypatch.setattr(_Theory, "solution", counting)
    for clauses, hard, walks in (([[eq("x", INT)]], (), 1),
                                 ([[eq("x", INT)], [eq("x", BOOL)]], (), 1),
                                 ([], [[eq("x", INT)], [eq("x", BOOL)]], 0)):
        cs = cs_of(*clauses, hard=hard)
        walked.clear()
        try:
            solve_maxsmt(cs)
        except Untypeable:
            pass
        assert walked == [sorted(tv.tid for tv in cs.tvar_table.values())
                          ] * walks


def _workload_round_sets(monkeypatch):
    """Every clause set `repair_round` solves when `run_pipeline` runs
    the three benchmark workloads' items at seeds 0-2."""
    sets = []

    def recording(cs):
        sets.append(cs)
        return solve_maxsmt(cs)

    monkeypatch.setattr(pipeline, "repair_round",
                        lambda program, weight_mode: repair_round(
                            program, weight_mode, solver=recording))
    for workload in workloads.WORKLOADS:
        for seed in (0, 1, 2):
            for item in workloads.pool(workload, seed, SUITE):
                backend = (ReplayBackend.from_file(item.transcript)
                           if item.transcript
                           else MockBackend(list(item.replies)))
                run_pipeline(item.task, backend)
    return sets


def test_whole_set_solve_equals_the_component_loop_on_workload_rounds(
        monkeypatch):
    sets = _workload_round_sets(monkeypatch)
    monkeypatch.undo()
    satisfiable = 0
    for cs in sets:
        assert _fields(solve_maxsmt, cs) == _fields(_by_components, cs)
        satisfiable += _solve(cs.clauses) is not None
    # 147 of 183 sets hold when this was written
    assert satisfiable >= 100 and len(sets) - satisfiable >= 20, \
        (satisfiable, len(sets))


def test_tagless_enum_roots_take_fresh_tags_numbered_across_one_walk():
    # the one place the two paths differ: a root that needs a fresh name
    # takes the next one of its walk, and the whole-set walk runs over
    # both variables where each component had a walk of its own.
    # Generated clauses leave no such root, and both models hold
    cs = ClauseSet()
    x, y = cs.tvar(("var", "x")), cs.tvar(("var", "y"))
    cs.add_hard([Lit(CtorTester(("enum",), x))], "t:enum")
    cs.add_hard([Lit(CtorTester(("enum",), y))], "t:enum")
    whole, split = solve_maxsmt(cs), _by_components(cs)
    assert whole.model == {x.tid: EnumType(("TAG1001",)),
                           y.tid: EnumType(("TAG1002",))}
    assert split.model == {x.tid: EnumType(("TAG1001",)),
                           y.tid: EnumType(("TAG1001",))}
    assert whole.forced == split.forced == {}
    assert verify_solution(cs, whole) and verify_solution(cs, split)


def _non_units(cs):
    return [c for c in cs.clauses if len(c.lits) > 1]


def _clean_round_sets():
    """The clean `traffic_light` replay round and the 15 `scaled_clean`
    programs at seed 0."""
    yield "traffic_light", _clauses_of(extract_code(
        workloads.traffic_light_draft(SUITE)))
    for item in workloads.pool("scaled_clean", 0, SUITE):
        yield item.key, _clauses_of(extract_code(item.replies[0]))


def test_a_satisfiable_set_is_one_search_and_never_splits(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a satisfiable set reached the component path")

    monkeypatch.setattr(maxsmt, "_components", unreachable)
    monkeypatch.setattr(maxsmt, "_solve_component", unreachable)
    calls = _count_solves(monkeypatch)
    copies = _count_nodes(monkeypatch)
    names = []
    for name, cs in _clean_round_sets():
        calls.clear()
        copies[0] = 0
        assert solve_maxsmt(cs).falsified == ()
        assert len(calls) == 1, name
        assert copies[0] <= 1 + 2 * len(_non_units(cs)), name
        if name != "traffic_light":
            # no guard to branch on: the base's one copy is the search
            assert (_non_units(cs), copies[0]) == ([], 1), name
        names.append(name)
    assert len(names) == 16


_GUARD_LABELS = {"S1:exclusive", "S2:decl-type", "S2:hole-binding",
                 "S2:decl-value"}


@pytest.mark.parametrize("source", [
    *(_duplicates_source(k) for k in range(2, 9)),
    extract_code(chain_draft("first-term-wrong", 50)),
], ids=[*(f"dup{k}" for k in range(2, 9)), "chain50"])
def test_the_whole_set_search_of_a_conflicting_draft_follows_one_path(
        monkeypatch, source):
    # every non-unit clause is a declaration guard or `S1:exclusive`, and
    # its `act != bool` literal conflicts with the `S1:active` unit the
    # base holds, so each clause costs at most two copies and the search
    # never backtracks across components. A clause kind with two viable
    # literals would make a failing whole-set search cost far more
    cs = _clauses_of(source)
    non_units = _non_units(cs)
    assert {c.label for c in non_units} <= _GUARD_LABELS
    copies = _count_nodes(monkeypatch)
    assert _solve(cs.clauses) is None
    assert copies[0] <= 2 * len(non_units) + 1


# ---------------------------------------------------------------------------
# SMT-LIB export
# ---------------------------------------------------------------------------

def test_emit_smtlib_matches_golden():
    cs = cs_of(
        [eq("x", INT)],
        [eqv("x", "y"), tag("GO", "y")],
        [is_ctor("bv", "z")],
        hard=[[neq("z", BVType(2))]],
    )
    got = emit_smtlib(cs)
    expect = (GOLDEN / "clauses.smt2").read_text(encoding="utf-8")
    assert got == expect


OPERATORS = (
    "class Ops(Module):\n"
    "    def locals(self):\n"
    "        self.x = int\n        self.w = BitVector(4)\n        self.f = bool\n"
    "    def init(self):\n"
    "        self.x = 0\n        self.w = 0\n        self.f = False\n"
    "    def next(self):\n"
    "        self.x = -(self.x + 1)\n"
    "        self.f = (self.x < 3) ^ self.f\n"
    "        self.w = self.w ^ self.w\n"
)


def test_emit_smtlib_of_operator_clauses_matches_golden():
    # `+`, `<` and unary `-` state "numeric" and `^` "bool or bit-vector"
    # as one tester of several constructors; the golden was written when
    # each was a clause of one tester per constructor, and the text is the
    # same `(or ((_ is ty-int) t) ...)`
    got = emit_smtlib(_clauses_of(OPERATORS))
    expect = (GOLDEN / "operators.smt2").read_text(encoding="utf-8")
    assert got == expect


TYPES = (
    "class Kinds(Module):\n"
    "    def locals(self):\n"
    "        self.r = real\n"
    '        self.mode = Enum("OFF", "ON")\n'
    "        self.mem = Array(int, real)\n"
    "    def init(self):\n"
    "        self.r = 0.5\n"
    '        self.mode = "OFF"\n'
    "    def next(self):\n"
    '        self.mode = "ON"\n'
    "        self.mem[1] = self.r\n"
)


def test_emit_smtlib_of_real_enum_and_array_terms_matches_golden():
    got = emit_smtlib(_clauses_of(TYPES))
    for term in ("ty-real", "(ty-enum 0)", "(ty-arr ty-int ty-real)",
                 "((_ is ty-enum) t6)"):
        assert term in got
    expect = (GOLDEN / "types.smt2").read_text(encoding="utf-8")
    assert got == expect
