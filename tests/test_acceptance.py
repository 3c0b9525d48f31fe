"""Acceptance criteria for the whole package, one test per criterion.

Each test ends with a single PASS line so a `pytest -s` run reads as a
checklist; assertions above the print are the actual gate.
"""

import json
import random
import statistics
import time
from pathlib import Path

from corpus import INVALID_PROGRAMS, VALID_PROGRAMS, fuzz_inputs
from oracle_maxsmt import oracle_optimum, random_clause_set
from oracle_repair import (
    holes_introduced,
    min_hole_count,
    random_conflict_program,
)
from uclgen.ast_core import (
    BOOL,
    INT,
    Assign,
    Binary,
    BoolLit,
    If,
    IntLit,
    VarRef,
    iter_nodes,
)
from uclgen.constraints import generate_clauses
from uclgen.frontend import parse_tolerant, print_child, prune_to_child
from uclgen.llm import MockBackend, ReplayBackend
from uclgen.maxsmt import Untypeable, solve_maxsmt
from uclgen.pipeline import (
    STATUS_ITERATION_LIMIT,
    STATUS_SUCCESS,
    load_suite,
    run_bench,
    run_pipeline,
)
from uclgen.repair import repair_round
from uclgen.uclid import CompileError, compile_program, lower, print_uclid
from uclgen.uclid_check import parse_uclid, validate_uclid

SUITE_PATH = Path(__file__).parent / "data" / "suite" / "suite.json"


def program_of(src: str):
    p, _ = prune_to_child(parse_tolerant(src))
    return p


def report(criterion: int, title: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion} [{title}]: PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. Running-example replay
# ---------------------------------------------------------------------------

def _dispatch_values(stmt, acc):
    """Collect the integers the step procedure compares `state` against
    along the top-level if/else-if chain."""
    if not isinstance(stmt, If):
        return
    for cond, _ in stmt.arms:
        if (
            isinstance(cond, Binary)
            and cond.op == "=="
            and isinstance(cond.left, VarRef)
            and cond.left.name == "state"
            and isinstance(cond.right, IntLit)
        ):
            acc.add(cond.right.value)
    for inner in stmt.orelse:
        _dispatch_values(inner, acc)


def test_criterion_1_running_example_replay():
    suite = {e["id"]: e for e in load_suite(SUITE_PATH)}
    entry = suite["traffic_light"]
    t0 = time.monotonic()
    out = run_pipeline(
        entry["task"], ReplayBackend.from_file(entry["transcript"])
    )
    elapsed = time.monotonic() - t0
    assert out.status == STATUS_SUCCESS
    assert out.iterations == 2
    assert elapsed < 5.0
    assert validate_uclid(out.uclid_text) == []

    module = parse_uclid(out.uclid_text)
    decls = dict(module.vars + module.inputs + module.outputs)
    assert decls == {
        "sigG": BOOL,
        "sigY": BOOL,
        "sigR": BOOL,
        "pedestrian": BOOL,
        "count": INT,
        "state": INT,
    }
    init_values = {
        s.lhs.name: s.rhs.value
        for s in module.init_body
        if isinstance(s, Assign)
        and isinstance(s.rhs, (BoolLit, IntLit))
    }
    assert init_values == {
        "sigG": False,
        "sigY": False,
        "sigR": True,
        "state": 0,
        "count": 0,
        "pedestrian": False,
    }
    dispatch = set()
    for stmt in module.next_body:
        _dispatch_values(stmt, dispatch)
    assert dispatch == {0, 1, 2, 3}
    assert "pedestrian" not in module.modifies
    report(1, "running-example replay", f"{elapsed:.2f}s, 2 calls")


# ---------------------------------------------------------------------------
# 2. MAX-SMT optimality against a brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_2_maxsmt_optimality():
    rng = random.Random(24601)
    t0 = time.monotonic()
    checked = 0
    for _ in range(500):
        cs = random_clause_set(rng, max_soft=14)
        expect = oracle_optimum(cs)
        try:
            res = solve_maxsmt(cs)
            got = (res.cost, res.falsified)
        except Untypeable:
            got = None
        if expect is None:
            assert got is None
        else:
            assert got == expect, (got, expect)
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 500
    assert elapsed < 60.0
    report(2, "MAX-SMT optimality", f"500 sets in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Uniform-weight minimal edit
# ---------------------------------------------------------------------------

def test_criterion_3_uniform_weight_minimal_edit():
    rng = random.Random(9990)
    for _ in range(200):
        p = random_conflict_program(rng, max_nodes=20)
        assert sum(1 for _ in iter_nodes(p)) <= 20
        out = repair_round(p, weight_mode="uniform")
        assert holes_introduced(p, out.falsified) == min_hole_count(p)
    report(3, "uniform-weight minimal edit", "200 programs")


# ---------------------------------------------------------------------------
# 4. Round trip over the hand-written corpus
# ---------------------------------------------------------------------------

def test_criterion_4_round_trip():
    assert len(VALID_PROGRAMS) >= 25
    for name, src in VALID_PROGRAMS.items():
        p = program_of(src)
        assert len(generate_clauses(p).hole_ids) == 0, name
        text = print_uclid(compile_program(p))
        assert validate_uclid(text) == [], name
    report(4, "round trip", f"{len(VALID_PROGRAMS)} programs")


# ---------------------------------------------------------------------------
# 5. Differential typing
# ---------------------------------------------------------------------------

def test_criterion_5_differential_typing():
    assert len(VALID_PROGRAMS) >= 25 and len(INVALID_PROGRAMS) >= 25
    for name, src in VALID_PROGRAMS.items():
        p = program_of(src)
        text = print_uclid(compile_program(p))  # compile accepts
        assert validate_uclid(text) == [], name
    for name, src in INVALID_PROGRAMS.items():
        p = program_of(src)
        try:
            compile_program(p)
            raise AssertionError(f"compile accepted invalid {name}")
        except (Untypeable, CompileError):
            pass
        text = print_uclid(lower(p, {}))
        assert validate_uclid(text), name
    report(
        5,
        "differential typing",
        f"{len(VALID_PROGRAMS)} valid + {len(INVALID_PROGRAMS)} invalid",
    )


# ---------------------------------------------------------------------------
# 6. Repair-time bound on the bundled suite
# ---------------------------------------------------------------------------

def test_criterion_6_repair_time_bound():
    suite = load_suite(SUITE_PATH)
    report_json = run_bench(suite)
    agg = report_json["aggregate"]
    assert "mean_ms_repair" in agg and "sd_ms_repair" in agg
    assert agg["mean_ms_repair"] < 2000.0
    # the metric matches the published measurement: mean and sample SD
    # over every individual repair round in the suite
    rounds = []
    for entry in suite:
        out = run_pipeline(
            entry["task"], ReplayBackend.from_file(entry["transcript"])
        )
        rounds.extend(out.ms_repair_rounds)
    assert statistics.mean(rounds) < 2000.0
    assert len(rounds) > 1 and statistics.stdev(rounds) >= 0.0
    report(
        6,
        "repair-time bound",
        f"mean {agg['mean_ms_repair']:.1f}ms, sd {agg['sd_ms_repair']:.1f}ms",
    )


# ---------------------------------------------------------------------------
# 7. Budget enforcement
# ---------------------------------------------------------------------------

def test_criterion_7_budget_enforcement():
    rng = random.Random(77)
    for _ in range(100):
        filler = rng.randint(0, 10 ** 6)
        garbage = (
            f"# attempt {filler}\n"
            "class M(Module):\n"
            "    def next(self):\n"
            "        ??\n"
            "```\n"
        )
        backend = MockBackend([garbage] * 8)
        out = run_pipeline("Model something.", backend, max_llm_calls=5)
        assert out.status == STATUS_ITERATION_LIMIT
        assert out.iterations == 5
        assert backend.calls == 5
    report(7, "budget enforcement", "100 trials, 5 calls each")


# ---------------------------------------------------------------------------
# 8. Frontend totality fuzz
# ---------------------------------------------------------------------------

def test_criterion_8_frontend_totality_fuzz():
    for text in fuzz_inputs():
        program, _ = prune_to_child(parse_tolerant(text))  # must not raise
        printed = print_child(program)
        again, _ = prune_to_child(parse_tolerant(printed))
        assert print_child(again) == printed, text
    report(8, "frontend totality fuzz", "10000 inputs, prune fixpoint")


# ---------------------------------------------------------------------------
# 9. Replay determinism
# ---------------------------------------------------------------------------

def _strip_timing(report_json: dict) -> dict:
    timing = {"ms_llm", "ms_repair", "ms_total",
              "mean_ms_repair", "sd_ms_repair",
              "mean_ms_llm", "sd_ms_llm"}

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in timing}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return strip(report_json)


def test_criterion_9_replay_determinism():
    suite = load_suite(SUITE_PATH)
    first = json.dumps(_strip_timing(run_bench(suite)), sort_keys=True)
    second = json.dumps(_strip_timing(run_bench(suite)), sort_keys=True)
    assert first.encode("utf-8") == second.encode("utf-8")
    report(9, "replay determinism", "two runs byte-identical sans timing")
