"""Clause generation for the static checks (S1-S6)."""

import dataclasses
import sys
from pathlib import Path

import pytest

from corpus import INVALID_PROGRAMS, VALID_PROGRAMS
from uclgen.ast_core import (
    BOOL,
    INT,
    Assign,
    ChildProgram,
    Decl,
    Expr,
    HoleDecl,
    HoleExpr,
    HoleStmt,
    HoleType,
    VarRef,
    iter_nodes,
    max_hole_id,
)
from uclgen.constraints import (
    Eq,
    Lit,
    WEIGHT_MODES,
    eval_clause,
    generate_clauses,
)
from uclgen.constraints import Tester as CtorTester
from uclgen.frontend import extract_code, parse_tolerant, prune_to_child
from uclgen.maxsmt import solve_maxsmt

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402


def program_of(src: str):
    p, _ = prune_to_child(parse_tolerant(src))
    return p


SIMPLE = '''
class M(Module):
    def locals(self):
        self.x = int
    def init(self):
        self.x = 0
    def next(self):
        self.x = self.x + 1
'''


def labels(cs):
    return {c.label for c in cs.clauses}


def test_every_soft_clause_has_an_origin_node():
    p = program_of(SIMPLE)
    cs = generate_clauses(p)
    n_nodes = sum(1 for _ in iter_nodes(p))
    for c in cs.soft:
        assert 0 <= c.origin < n_nodes


def test_hole_ids_cover_every_hole_category():
    p = ChildProgram(
        module_name="M",
        locals=(Decl("x", HoleType(0)), HoleDecl(3)),
        init_body=(HoleStmt(1),),
        next_body=(Assign(VarRef("x"), HoleExpr(2)),),
    )
    cs = generate_clauses(p)
    assert cs.hole_ids == (0, 3, 1, 2)  # pre-order
    assert cs.next_hole_id == max_hole_id(p) + 1 == 4
    # a draft with no Module class is one hole, the module's
    empty = generate_clauses(ChildProgram(module_hole=5))
    assert (empty.hole_ids, empty.next_hole_id) == ((5,), 6)


def test_hole_ids_empty_on_complete_program():
    cs = generate_clauses(program_of(SIMPLE))
    assert (cs.hole_ids, cs.next_hole_id, cs.undeclared) == ((), 0, ())


CORPUS = {**{f"valid/{k}": v for k, v in VALID_PROGRAMS.items()},
          **{f"invalid/{k}": v for k, v in INVALID_PROGRAMS.items()}}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_origins_and_node_keys_are_preorder_positions(name):
    p = program_of(CORPUS[name])
    walk = list(iter_nodes(p))
    depth_weights = generate_clauses(p, "depth")
    for c in depth_weights.soft:
        assert c.weight == 1 + walk[c.origin][1]
    for key in depth_weights.tvar_table:
        if key[0] == "node":
            assert isinstance(walk[key[1]][0], Expr)
        elif key[0] == "act":
            assert isinstance(walk[key[1]][0], Decl)
    uniform = generate_clauses(p, "uniform")
    assert [c.origin for c in uniform.clauses] == [
        c.origin for c in depth_weights.clauses]


def test_a_variable_reference_is_typed_by_its_variable():
    # neither reference in `self.x = self.y` adds a clause or a type
    # variable: S4 equates the two variables' own
    cs = generate_clauses(program_of('''
class M(Module):
    def locals(self):
        self.x = int
        self.y = int
    def next(self):
        self.x = self.y
'''))
    x, y = cs.tvar_table[("var", "x")], cs.tvar_table[("var", "y")]
    assert list(cs.tvar_table) == [("var", "x"), ("var", "y")]
    assert [c.label for c in cs.clauses] == [
        "S2:decl-type", "S2:decl-type", "S4:assign"]
    assert cs.clauses[2].lits == (Lit(Eq(x, y)),)
    for name, source in CORPUS.items():
        cs = generate_clauses(program_of(source))
        assert all(key[0] != "aux" for key in cs.tvar_table), name
        assert not labels(cs) & {"S3:var", "S3:hole"}, name
        assert {c.label for c in cs.hard} <= {
            "S1:exclusive", "S2:hole-binding"}, name


def test_generation_is_deterministic():
    p = program_of(SIMPLE)
    a = generate_clauses(p)
    b = generate_clauses(p)
    assert a.clauses == b.clauses
    assert a.tvar_table == b.tvar_table
    assert [c.index for c in a.clauses] == list(range(len(a.clauses)))


def test_weight_modes():
    p = program_of(SIMPLE)
    for mode in WEIGHT_MODES:
        cs = generate_clauses(p, mode)
        assert all(c.weight >= 1 for c in cs.soft)
    uniform = generate_clauses(p, "uniform")
    assert {c.weight for c in uniform.soft} == {1}
    depth = generate_clauses(p, "depth")
    # deeper nodes cost more to hole under depth weighting
    weights = {c.origin: c.weight for c in depth.soft}
    assert max(weights.values()) > min(weights.values())
    with pytest.raises(ValueError):
        generate_clauses(p, "bogus")


def test_unknown_weight_mode_rejected_before_work():
    with pytest.raises(ValueError):
        generate_clauses(program_of(SIMPLE), "steepest")


def test_s1_duplicate_declarations_compete():
    p = program_of('''
class M(Module):
    def locals(self):
        self.x = int
        self.x = bool
''')
    cs = generate_clauses(p)
    acts = [c for c in cs.soft if c.label == "S1:active"]
    assert len(acts) == 2
    excl = [c for c in cs.hard if c.label == "S1:exclusive"]
    assert len(excl) == 1
    res = solve_maxsmt(cs)
    assert len(res.falsified) == 1  # exactly one declaration survives


def test_s2_declared_type_binds_variable():
    cs = generate_clauses(program_of(SIMPLE))
    decl = [c for c in cs.soft if c.label == "S2:decl-type"]
    assert len(decl) == 1
    res = solve_maxsmt(cs)
    assert res.falsified == ()
    var_tid = cs.tvar(("var", "x")).tid
    assert res.model[var_tid] == INT


def test_s3_int_literal_is_strictly_int():
    p = program_of('''
class M(Module):
    def locals(self):
        self.w = BitVector(4)
    def init(self):
        self.w = 3
''')
    cs = generate_clauses(p)
    res = solve_maxsmt(cs)
    # no implicit int/bitvector coercion: something must give
    assert res.falsified


def test_s3_arithmetic_stays_within_one_numeric_type():
    p = program_of('''
class M(Module):
    def locals(self):
        self.a = real
        self.b = real
    def next(self):
        self.a = self.a * self.b
''')
    cs = generate_clauses(p)
    res = solve_maxsmt(cs)
    assert res.falsified == ()


@pytest.mark.parametrize("ctors", [(), ("bv", "int"), ("int", "int"),
                                   ("nat",), ("int", "bool"), ["int"],
                                   ["bool", "int"]])
def test_a_tester_names_known_constructors_in_order(ctors):
    with pytest.raises(ValueError):
        CtorTester(ctors, INT)


def test_concat_has_no_typing_rule():
    # no surface spelling reaches `concat` or `implies`, so clause
    # generation has no rule for them
    program = program_of(SIMPLE)
    (step,) = program.next_body
    for op in ("concat", "implies"):
        rhs = dataclasses.replace(step.rhs, op=op)
        p = dataclasses.replace(program, next_body=type(program.next_body)(
            [dataclasses.replace(step, rhs=rhs)]))
        with pytest.raises(ValueError, match=op):
            generate_clauses(p)


def _drafts():
    """The corpus programs and every reply of the benchmark workloads'
    items at seed 0."""
    yield from CORPUS.items()
    suite = ROOT / "tests" / "data" / "suite" / "suite.json"
    for workload in workloads.WORKLOADS:
        for item in workloads.pool(workload, 0, suite):
            for i, reply in enumerate(item.replies):
                yield f"{workload}/{item.key}/{i}", extract_code(reply)


def test_no_clause_has_two_testers_on_one_term():
    # a term's shape is one tester of several constructors, which the
    # solver narrows to at once; two testers of one term would branch
    tested = 0
    for name, source in _drafts():
        for c in generate_clauses(program_of(source)).clauses:
            terms = [l.atom.term for l in c.lits
                     if isinstance(l.atom, CtorTester)]
            assert len(terms) == len(set(terms)), (name, c)
            tested += bool(terms)
    assert tested > 100


def test_s4_assignment_links_lhs_and_rhs():
    cs = generate_clauses(program_of(SIMPLE))
    assert any(c.label == "S4:assign" for c in cs.soft)


def test_s5_input_write_is_unsatisfiable_with_declaration():
    p = program_of('''
class M(Module):
    def inputs(self):
        self.sensor = int
    def next(self):
        self.sensor = 3
''')
    cs = generate_clauses(p)
    assert any(c.label == "S5:input-write" for c in cs.soft)
    res = solve_maxsmt(cs)
    assert len(res.falsified) == 1  # drop the write or the declaration


def test_s6_conditions_must_be_boolean():
    p = program_of('''
class M(Module):
    def locals(self):
        self.n = int
    def next(self):
        if self.n:
            self.n = 0
''')
    cs = generate_clauses(p)
    assert any(c.label == "S6:cond" for c in cs.soft)
    res = solve_maxsmt(cs)
    assert res.falsified


def test_eval_clause_agrees_with_solver_model():
    p = program_of(SIMPLE)
    cs = generate_clauses(p)
    res = solve_maxsmt(cs)
    for c in cs.clauses:
        assert eval_clause(c, res.model)


def test_eval_atom_ground_equality():
    from uclgen.constraints import eval_atom

    assert eval_atom(Eq(INT, INT), {})
    assert not eval_atom(Eq(INT, BOOL), {})
