"""Hole introduction, declaration synthesis, and model-based repair."""

import random

import pytest

from corpus import INVALID_PROGRAMS, VALID_PROGRAMS, transcript_replies
from oracle_repair import (
    holes_introduced,
    min_hole_count,
    random_conflict_program,
)
from uclgen.ast_core import (
    BOOL,
    INT,
    HoleDecl,
    HoleExpr,
    HoleStmt,
    HoleType,
    TypeAnnot,
    iter_nodes,
    left_spine,
    walk_index,
)
from uclgen.constraints import ClauseSet, eval_clause, generate_clauses
from uclgen.frontend import parse_tolerant, print_child, prune_to_child
from uclgen.maxsmt import solve_maxsmt
from uclgen.repair import (
    holeify,
    model_repair,
    repair_round,
    synthesize_decls,
)


def program_of(src: str):
    p, _ = prune_to_child(parse_tolerant(src))
    return p


CONFLICT = '''
class M(Module):
    def locals(self):
        self.w = BitVector(4)
    def init(self):
        self.w = 3
'''


CLEAN = '''
class M(Module):
    def locals(self):
        self.n = int
    def init(self):
        self.n = 0
    def next(self):
        if self.n < 9:
            self.n = self.n + 1
'''


def test_holeify_replaces_falsified_origins():
    p = program_of(CONFLICT)
    cs = generate_clauses(p)
    res = solve_maxsmt(cs)
    holed = holeify(p, cs, res.falsified)
    assert len(generate_clauses(holed).hole_ids) > 0


def test_holeify_on_empty_falsified_is_identity():
    p = program_of(CONFLICT)
    cs = generate_clauses(p)
    assert holeify(p, cs, ()) is p


def test_holeify_rejects_a_clause_set_of_another_program():
    p = program_of(CONFLICT)
    other = program_of(CONFLICT)
    assert other == p and other is not p
    res = solve_maxsmt(generate_clauses(p))
    for cs in (generate_clauses(other), ClauseSet()):
        with pytest.raises(ValueError, match="not generated from"):
            holeify(p, cs, res.falsified)
        with pytest.raises(ValueError, match="not generated from"):
            holeify(p, cs, ())


def test_holeify_follows_a_long_chain_in_a_loop():
    # far deeper than the stack allows at one frame per link
    terms = " + ".join(["True"] + [f"self.{'ab'[i % 2]}" for i in range(1999)])
    p = program_of(f'''
class M(Module):
    def locals(self):
        self.acc = int
        self.a = int
        self.b = int
    def next(self):
        self.acc = {terms}
''')
    leaf = left_spine(p.next_body[0].rhs)[-1].left
    origin = walk_index(iter_nodes(p))[id(leaf)]
    cs = generate_clauses(p)
    lit = [c.index for c in cs.clauses
           if c.label == "S3:lit" and c.origin == origin]
    holed = holeify(p, cs, tuple(lit))
    holes = [n for n, _ in iter_nodes(holed) if isinstance(n, HoleExpr)]
    assert len(lit) == 1 and len(holes) == 1
    assert left_spine(holed.next_body[0].rhs)[-1].left is holes[0]


def test_an_input_write_tied_with_s1_active_drops_the_declaration():
    p = program_of('''
class M(Module):
    def inputs(self):
        self.sensor = int
    def next(self):
        self.sensor = 3
''')
    cs = generate_clauses(p)
    res = solve_maxsmt(cs)
    holed = holeify(p, cs, res.falsified)
    # the write's `S5:input-write` costs the same as the declaration's
    # `S1:active` here; the tie breaks to the earlier clause, which is the
    # declaration's, so the declaration becomes a hole and the write stays
    assert isinstance(holed.inputs[0], HoleDecl)
    assert not isinstance(holed.next_body[0], HoleStmt)


def test_declared_names_and_synthesis():
    p = program_of('''
class M(Module):
    def locals(self):
        self.x = int
    def next(self):
        self.x = self.ghost + self.other
''')
    cs = generate_clauses(p)
    assert cs.undeclared == ("ghost", "other")  # first-use order
    p2, synthesized = synthesize_decls(p, cs)
    assert synthesized == ("ghost", "other")
    assert generate_clauses(p2).undeclared == ()
    # the new type holes take the ids above the program's
    assert [d.annot.hid for d in p2.locals[1:]] == [
        cs.next_hole_id, cs.next_hole_id + 1]
    assert all(
        isinstance(d.annot, HoleType)
        for d in p2.locals
        if d.name in synthesized
    )


def test_havoc_target_counts_as_a_use():
    p = program_of('''
class M(Module):
    def locals(self):
        self.x = int
    def next(self):
        havoc(self.y)
        self.x = self.z
''')
    cs = generate_clauses(p)
    assert cs.undeclared == ("y", "z")
    _, synthesized = synthesize_decls(p, cs)
    assert synthesized == ("y", "z")


def test_synthesize_decls_is_idempotent_when_complete():
    p = program_of(CONFLICT)
    p2, synthesized = synthesize_decls(p, generate_clauses(p))
    assert synthesized == ()
    assert p2 is p
    # the names come from a clause set of this very program
    with pytest.raises(ValueError, match="not generated from this program"):
        synthesize_decls(p, generate_clauses(program_of(CLEAN)))


def test_model_repair_fills_forced_type_holes():
    p = program_of('''
class M(Module):
    def locals(self):
        self.x = ??
    def init(self):
        self.x = 0
''')
    cs = generate_clauses(p)
    res = solve_maxsmt(cs)
    repaired, filled = model_repair(p, cs, res)
    assert filled == ("x",)
    annot = repaired.locals[0].annot
    assert isinstance(annot, TypeAnnot) and annot.ty == INT


def test_model_repair_leaves_unforced_holes_open():
    p = program_of('''
class M(Module):
    def locals(self):
        self.x = ??
''')
    cs = generate_clauses(p)
    res = solve_maxsmt(cs)
    repaired, filled = model_repair(p, cs, res)
    assert filled == ()
    assert repaired is p
    assert isinstance(repaired.locals[0].annot, HoleType)


@pytest.mark.parametrize("cond", [
    "self.a * self.b == self.b * self.a",
    "(self.a ^ self.b) == (self.b ^ self.a)",
])
def test_model_repair_leaves_holes_an_operator_does_not_force(cond):
    # `*` leaves int, real or bit-vector and `^` bool or bit-vector, so no
    # type is forced. When the operator's shape was a clause of testers to
    # branch on, the search's first tester filled both with int (or bool)
    p = program_of(f'''
class M(Module):
    def locals(self):
        self.a = ??
        self.b = ??
    def next(self):
        assume({cond})
''')
    cs = generate_clauses(p)
    res = solve_maxsmt(cs)
    repaired, filled = model_repair(p, cs, res)
    assert res.falsified == ()
    assert filled == ()
    assert len(generate_clauses(repaired).hole_ids) == 2


def test_rewrites_share_the_subtrees_they_leave_alone():
    p = program_of('''
class M(Module):
    def locals(self):
        self.n = int
        self.f = bool
        self.x = ??
    def init(self):
        self.n = 0
        self.f = 3
        self.x = self.n
    def next(self):
        if self.n < 9:
            self.n = self.n + self.ghost
''')
    synthesized, _ = synthesize_decls(p, generate_clauses(p))
    assert synthesized.locals[:3] == p.locals
    assert all(a is b for a, b in zip(synthesized.locals, p.locals))
    assert synthesized.init_body is p.init_body
    assert synthesized.next_body is p.next_body

    cs = generate_clauses(synthesized)
    res = solve_maxsmt(cs)
    holed = holeify(synthesized, cs, res.falsified)
    assert len(generate_clauses(holed).hole_ids) > len(generate_clauses(synthesized).hole_ids)
    assert holed.locals is synthesized.locals
    assert holed.next_body is synthesized.next_body
    # `self.f = 3` becomes a hole; its siblings stay the same objects
    first, mid, last = holed.init_body
    assert isinstance(mid, HoleStmt)
    assert first is synthesized.init_body[0]
    assert last is synthesized.init_body[2]

    cs2 = generate_clauses(holed)
    repaired, filled = model_repair(holed, cs2, solve_maxsmt(cs2))
    assert "x" in filled
    assert repaired.init_body is holed.init_body
    assert repaired.next_body is holed.next_body
    assert repaired.locals[0] is holed.locals[0]


def test_repair_round_drops_single_conflicting_assignment():
    # one shallow write conflicts with the declaration: under depth
    # weights the write is the cheapest thing to give up
    out = repair_round(program_of(CONFLICT))
    assert out.falsified
    assert out.holes_remaining == 1
    assert isinstance(out.program.init_body[0], HoleStmt)
    annot = out.program.locals[0].annot
    assert isinstance(annot, TypeAnnot)


def test_repair_round_solves_again_only_after_making_holes():
    calls = []

    def solver(cs):
        calls.append(cs)
        return solve_maxsmt(cs)

    program = program_of(CLEAN)
    clean = repair_round(program, solver=solver)
    assert (clean.falsified, clean.holes_remaining) == ((), 0)
    assert clean.program is program
    assert len(calls) == 1
    calls.clear()
    repair_round(program_of(CONFLICT), solver=solver)
    assert len(calls) == 2


def test_repair_round_keeps_later_duplicate_under_tie():
    p = program_of('''
class M(Module):
    def locals(self):
        self.x = bool
    def outputs(self):
        self.x = bool
    def init(self):
        self.x = False
''')
    out = repair_round(p)
    assert isinstance(out.program.locals[0], HoleDecl)
    assert out.program.outputs[0].name == "x"


def test_repair_round_retypes_bitvector_used_as_int():
    p = program_of('''
class M(Module):
    def locals(self):
        self.count = BitVector(6)
    def init(self):
        self.count = 0
    def next(self):
        if self.count < 60:
            self.count = self.count + 1
''')
    out = repair_round(p)
    assert out.holes_remaining == 0
    annot = out.program.locals[0].annot
    assert isinstance(annot, TypeAnnot) and annot.ty == INT


def test_repair_round_synthesizes_missing_declarations():
    p = program_of('''
class M(Module):
    def next(self):
        self.seen = True
''')
    out = repair_round(p)
    assert out.synthesized == ("seen",)
    assert out.holes_remaining == 0
    annot = out.program.locals[0].annot
    assert isinstance(annot, TypeAnnot) and annot.ty == BOOL


def test_repair_round_reports_time():
    out = repair_round(program_of(CONFLICT))
    assert out.ms >= 0.0


def test_uniform_weights_make_minimal_edits():
    rng = random.Random(52)
    for _ in range(40):
        p = random_conflict_program(rng)
        out = repair_round(p, weight_mode="uniform")
        assert holes_introduced(p, out.falsified) == min_hole_count(p)


@pytest.mark.parametrize("family", ["corpus", "transcripts"])
def test_every_hard_clause_holds_when_every_type_is_int(family):
    # so the hard clauses of a round never conflict, and `solve_maxsmt`,
    # which finds a hard conflict only when one exists, never raises
    # `Untypeable` inside `repair_round`; both of a round's solves checked.
    # The hard clauses are the duplicates' exclusions and the type holes'
    # bindings, and each family checks both
    sources = (transcript_replies() if family == "transcripts" else
               [*VALID_PROGRAMS.items(), *INVALID_PROGRAMS.items()])
    checked, violated = set(), []

    def checking(cs):
        at_int = {tv.tid: INT for tv in cs.tvar_table.values()}
        for c in cs.hard:
            checked.add(c.label)
            if not eval_clause(c, at_int):
                violated.append((name, c.index, c.label))
        return solve_maxsmt(cs)

    for name, source in sources:
        repair_round(program_of(source), solver=checking)
    assert checked == {"S1:exclusive", "S2:hole-binding"}
    assert not violated, violated



def test_a_type_synonym_defined_twice_keeps_one_definition():
    p = program_of('''
class M(Module):
    def types(self):
        self.t = int
        self.t = bool
    def locals(self):
        self.x = self.t
    def init(self):
        self.x = 0
''')
    cs = generate_clauses(p)
    assert [c.label for c in cs.clauses] == [
        "S1:active", "S2:decl-type", "S1:active", "S2:decl-type",
        "S2:decl-type", "S1:exclusive", "S3:lit", "S4:assign"]
    # the exclusion is one hard pair over the two definitions' guards
    exclusive = cs.clauses[5]
    assert exclusive.hard and len(exclusive.lits) == 2
    res = solve_maxsmt(cs)
    assert [cs.clauses[i].label for i in res.falsified] == ["S1:active"]
    assert cs.walk[cs.clauses[res.falsified[0]].origin][0] is p.type_defs[1]
    assert print_child(repair_round(p).program) == '''\
class M(Module):
    def types(self):
        self.t = int
        ??
    def locals(self):
        self.x = self.t
    def init(self):
        self.x = 0
'''


HAVOCKED_INPUT = '''
class M(Module):
    def inputs(self):
        self.i = int
    def locals(self):
        self.x = int
    def next(self):
        havoc(self.i)
        self.x = self.i
'''


def test_a_havocked_input_gets_one_input_write_clause():
    p = program_of(HAVOCKED_INPUT)
    cs = generate_clauses(p)
    assert [c.label for c in cs.clauses] == [
        "S2:decl-type", "S1:active", "S2:decl-type", "S5:input-write",
        "S4:assign"]
    write = cs.clauses[3]
    assert cs.walk[write.origin][0] is p.next_body[0]
    # dropping the declaration costs what relaxing the havoc does, and
    # the tie breaks to the declaration's earlier clause
    res = solve_maxsmt(cs)
    assert [cs.clauses[i].label for i in res.falsified] == ["S1:active"]
    assert write.weight == cs.clauses[1].weight
    # relaxing the write instead makes the havoc a statement hole
    assert print_child(holeify(p, cs, (write.index,))) == '''\
class M(Module):
    def locals(self):
        self.x = int
    def inputs(self):
        self.i = int
    def next(self):
        ??
        self.x = self.i
'''
