"""The end-to-end loop and the bench harness."""

import json
import random
import signal
import sys
from pathlib import Path

import pytest

from corpus import VALID_PROGRAMS, mutate
from uclgen import pipeline
from uclgen.ast_core import count_holes
from uclgen.frontend import (
    MAX_BLOCK_NESTING,
    MAX_NESTING,
    parse_tolerant,
    prune_to_child,
)
from uclgen.llm import MockBackend, ReplayBackend
from uclgen.pipeline import (
    SCHEMA_VERSION,
    STATUS_BACKEND_ERROR,
    STATUS_INTERNAL_ERROR,
    STATUS_ITERATION_LIMIT,
    STATUS_SUCCESS,
    load_suite,
    run_bench,
    run_pipeline,
)
from uclgen.uclid_check import validate_uclid

SUITE_PATH = Path(__file__).parent / "data" / "suite" / "suite.json"

CLEAN_RESPONSE = '''\
class Counter(Module):
    def locals(self):
        self.count = int
    def init(self):
        self.count = 0
    def next(self):
        self.count = self.count + 1
```
'''

HOLEY_RESPONSE = '''\
class Counter(Module):
    def next(self):
        ??
```
'''


def test_single_call_success():
    out = run_pipeline("Model a counter.", MockBackend([CLEAN_RESPONSE]))
    assert out.status == STATUS_SUCCESS
    assert out.iterations == 1
    assert out.parse_ok
    assert "var count : integer;" in out.uclid_text
    assert len(out.ms_repair_rounds) == 1


def test_second_call_fills_holes():
    out = run_pipeline(
        "Model a counter.", MockBackend([HOLEY_RESPONSE, CLEAN_RESPONSE])
    )
    assert out.status == STATUS_SUCCESS
    assert out.iterations == 2


def test_unparseable_lines_are_sent_back_as_holes():
    broken = (
        "class Counter(Module):\n"
        "    def locals(self):\n"
        "        self.count = int\n"
        "        self.step = int $\n"
        "    def init(self):\n"
        "        self.count = 0\n"
        "    def next(self):\n"
        "        self.count = self.count +\n"
        "```\n"
    )
    fixed = CLEAN_RESPONSE.replace(
        "        self.count = int\n",
        "        self.count = int\n        self.step = int\n")
    backend = MockBackend([broken, fixed])
    out = run_pipeline("Model a counter.", backend)
    assert out.status == STATUS_SUCCESS
    assert backend.calls == 2
    assert "var step : integer;" in out.uclid_text
    assert "count = (count + 1);" in out.uclid_text


def test_undeclared_havoc_target_is_declared_through_a_hole():
    draft = (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "    def next(self):\n"
        "        havoc(self.y)\n"
        "```\n"
    )
    fixed = draft.replace("        self.x = int\n",
                          "        self.x = int\n        self.y = bool\n")
    backend = MockBackend([draft, fixed])
    out = run_pipeline("Havoc a flag.", backend)
    assert out.status == STATUS_SUCCESS
    assert backend.calls == 2
    assert "var y : boolean;" in out.uclid_text


@pytest.mark.parametrize("old,new", [
    ("self.count = 0", "self.count = ²"),
    ("self.count = int", "self.count = BitVector(²)"),
    ("self.count = 0", "self.count = BV(1, ²)"),
], ids=["statement", "bitvector-width", "bv-width"])
def test_non_decimal_digit_line_is_sent_back_as_a_hole(old, new):
    backend = MockBackend([CLEAN_RESPONSE.replace(old, new), CLEAN_RESPONSE])
    out = run_pipeline("Model a counter.", backend)
    assert out.status == STATUS_SUCCESS, out.diagnostics
    assert backend.calls == 2


ENUM_RESPONSE = '''\
class Light(Module):
    def types(self):
        self.Color = Enum("Ä", "b")
    def locals(self):
        self.c = self.Color
    def init(self):
        self.c = "Ä"
    def next(self):
        if self.c == "Ä":
            self.c = "b"
```
'''


@pytest.mark.parametrize("response, printed", [
    (CLEAN_RESPONSE.replace("count", "ärger"), "var ärger : integer;"),
    (ENUM_RESPONSE, "type Color = enum { b, Ä };"),
], ids=["state-variable", "enum-tag"])
def test_a_name_starting_with_a_non_ascii_letter_compiles(response, printed):
    backend = MockBackend([response])
    out = run_pipeline("Model it.", backend)
    assert out.status == STATUS_SUCCESS, out.diagnostics
    assert backend.calls == 1
    assert printed in out.uclid_text
    assert validate_uclid(out.uclid_text) == []


REAL_RESPONSE = CLEAN_RESPONSE.replace("int", "real").replace(
    "self.count = 0", "self.count = LITERAL").replace("+ 1", "+ 0.5")


@pytest.mark.parametrize("literal, printed, calls", [
    ("0.00001", "0.00001", 1),
    ("12345678901234567.0", "12345678901234568.0", 1),
    ("9" * 400 + ".5", "0.0", 2),
    ("0." + "0" * 400 + "1", "0.0", 2),
], ids=["small", "large", "overflow", "underflow"])
def test_real_literals_compile_or_are_sent_back_as_holes(literal, printed,
                                                          calls):
    draft = REAL_RESPONSE.replace("LITERAL", literal)
    backend = MockBackend([draft, REAL_RESPONSE.replace("LITERAL", "0.0")])
    out = run_pipeline("Model a counter.", backend)
    assert out.status == STATUS_SUCCESS, out.diagnostics
    assert backend.calls == calls
    assert f"count = {printed};" in out.uclid_text


def with_spec(response: str, *lines: str) -> str:
    spec = "".join(f"        {line}\n" for line in lines)
    return response.replace("```", "    def specification(self):\n" + spec
                            + "```")


def test_asserted_specification_is_an_invariant():
    backend = MockBackend([with_spec(CLEAN_RESPONSE, "assert self.count >= 0")])
    out = run_pipeline("Model a counter.", backend)
    assert out.status == STATUS_SUCCESS
    assert backend.calls == 1
    assert "invariant spec0: (count >= 0);" in out.uclid_text


def test_specification_statement_is_sent_back_as_a_hole():
    draft = with_spec(CLEAN_RESPONSE, "self.count = 1")
    fixed = with_spec(CLEAN_RESPONSE, "return self.count >= 0")
    backend = MockBackend([draft, fixed])
    out = run_pipeline("Model a counter.", backend)
    assert out.status == STATUS_SUCCESS
    assert backend.calls == 2
    assert "invariant spec0: (count >= 0);" in out.uclid_text


def test_iteration_limit_is_enforced():
    backend = MockBackend([HOLEY_RESPONSE] * 10)
    out = run_pipeline("Model a counter.", backend, max_llm_calls=5)
    assert out.status == STATUS_ITERATION_LIMIT
    assert out.iterations == 5
    assert backend.calls == 5
    assert out.parse_ok


def test_zero_call_budget_makes_no_backend_call():
    backend = MockBackend([CLEAN_RESPONSE])
    out = run_pipeline("Model a counter.", backend, max_llm_calls=0)
    assert backend.calls == 0
    assert out.status == STATUS_ITERATION_LIMIT
    assert out.iterations == 0
    assert out.diagnostics


def test_backend_failure_is_reported():
    out = run_pipeline("Model a counter.", MockBackend([]))
    assert out.status == STATUS_BACKEND_ERROR
    assert not out.parse_ok
    assert out.diagnostics


def test_unusable_response_is_a_backend_error():
    out = run_pipeline("Model a counter.", MockBackend(["no code here"]))
    assert out.status == STATUS_BACKEND_ERROR
    assert any("prune" in d or "extract" in d for d in out.diagnostics)


@pytest.mark.parametrize("reply", ["", "  \n"])
def test_an_empty_reply_is_an_extract_error(reply):
    out = run_pipeline("Model a counter.", MockBackend([reply]))
    assert out.status == STATUS_BACKEND_ERROR
    assert out.diagnostics == ["extract: empty LLM response"]
    assert out.iterations == 1


@pytest.mark.parametrize("replies, kind, calls", [
    ([None], "NoneType", 0),
    ([7], "int", 0),
    ([HOLEY_RESPONSE, None], "NoneType", 1),
])
def test_a_reply_that_is_not_text_is_a_backend_error(replies, kind, calls):
    out = run_pipeline("Model a counter.", MockBackend(replies))
    assert out.status == STATUS_BACKEND_ERROR
    assert out.diagnostics == [f"backend: reply is not text ({kind})"]
    assert out.iterations == calls


def test_a_null_reply_in_a_transcript_is_a_backend_error(tmp_path):
    path = tmp_path / "null.jsonl"
    path.write_text(json.dumps({"seq": 0, "prompt_sha256": "0" * 64,
                                "response": None}) + "\n", encoding="utf-8")
    out = run_pipeline("Model a counter.",
                       ReplayBackend.from_file(path, loose=True))
    assert out.status == STATUS_BACKEND_ERROR
    assert out.diagnostics == ["backend: reply is not text (NoneType)"]


def test_replay_suite_loads_with_resolved_paths():
    suite = load_suite(SUITE_PATH)
    assert len(suite) == 10
    assert all(Path(entry["transcript"]).is_file() for entry in suite)


def test_bench_report_shape_and_success():
    suite = load_suite(SUITE_PATH)
    report = run_bench(suite)
    assert report["schema_version"] == SCHEMA_VERSION
    assert len(report["tasks"]) == len(suite)
    for task in report["tasks"]:
        assert task["status"] == STATUS_SUCCESS
        assert task["parse_ok"] is True
        assert task["ms_total"] >= task["ms_repair"] >= 0
    agg = report["aggregate"]
    assert agg["parse_rate"] == 1.0
    assert agg["mean_ms_repair"] >= 0
    assert agg["sd_ms_repair"] >= 0


def test_bench_strict_replay_catches_prompt_drift():
    suite = load_suite(SUITE_PATH)
    drifted = [dict(suite[0], task=suite[0]["task"] + " (edited)")]
    report = run_bench(drifted)
    assert report["tasks"][0]["status"] == STATUS_BACKEND_ERROR


def test_traffic_light_transcript_replays_in_two_calls():
    suite = {e["id"]: e for e in load_suite(SUITE_PATH)}
    entry = suite["traffic_light"]
    backend = ReplayBackend.from_file(entry["transcript"])
    out = run_pipeline(entry["task"], backend)
    assert out.status == STATUS_SUCCESS
    assert out.iterations == 2


def chain_response(n: int, wrong: bool = False) -> str:
    """A clean module whose next block sums n terms in one `+` chain; with
    `wrong`, its last term is `True`."""
    terms = [str(i % 9 + 1) if i % 3 == 2 else f"self.{'ab'[i % 2]}"
             for i in range(n)]
    if wrong:
        terms[-1] = "True"
    return (
        "class Chain(Module):\n"
        "    def locals(self):\n"
        "        self.acc = int\n        self.a = int\n        self.b = int\n"
        "    def init(self):\n"
        "        self.acc = 0\n        self.a = 0\n        self.b = 0\n"
        "    def next(self):\n"
        f"        self.acc = {' + '.join(terms)}\n"
        "        self.a = self.a + 1\n"
        "```\n"
    )


@pytest.mark.parametrize("n", [42, 50, 80, 150, 480, 900, 2000])
def test_long_sum_chain_compiles_and_validates(n):
    out = run_pipeline("Sum a chain.", MockBackend([chain_response(n)]))
    assert out.status == STATUS_SUCCESS, out.diagnostics
    assert validate_uclid(out.uclid_text) == []


def test_long_chain_with_a_wrong_literal_repairs_in_bounded_time():
    # each core shrink costs a few solves of the chain, not one per clause
    # (31 s at 1000 terms when it did)
    draft = chain_response(1000, wrong=True)
    out = run_pipeline("Sum a chain.", MockBackend([draft]), max_llm_calls=1)
    assert out.status == STATUS_ITERATION_LIMIT
    assert count_holes(out.program) == 1
    out = run_pipeline("Sum a chain.",
                       MockBackend([draft, chain_response(1000)]))
    assert out.status == STATUS_SUCCESS, out.diagnostics
    assert out.iterations == 2
    assert validate_uclid(out.uclid_text) == []


def ladder_response(n: int) -> str:
    """A clean module whose next block is an `if` with n - 1 `elif`s."""
    arms = "".join(f"        elif self.x == {i}:\n            self.y = {i}\n"
                   for i in range(1, n))
    return (
        "class Ladder(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n        self.y = int\n"
        "    def init(self):\n"
        "        self.x = 0\n        self.y = 0\n"
        "    def next(self):\n"
        "        if self.x == 0:\n            self.y = 0\n"
        f"{arms}"
        "        else:\n            self.y = 0\n"
        "```\n"
    )


def test_long_elif_ladder_compiles_and_validates():
    # every stage walks the arms in a loop, so a ladder costs no frames
    out = run_pipeline("Step a ladder.", MockBackend([ladder_response(2000)]))
    assert out.status == STATUS_SUCCESS, out.diagnostics
    assert validate_uclid(out.uclid_text) == []


def _frames_in_use() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


#: frames any one pipeline run may take above its caller; a stage that
#: takes a frame per level of its input runs out at about 150 levels
FRAME_BUDGET = 150

@pytest.mark.parametrize("draft, status", [
    pytest.param(chain_response(50), STATUS_SUCCESS, id="chain-50"),
    pytest.param(chain_response(1000), STATUS_SUCCESS, id="chain-1000"),
    pytest.param(chain_response(150, wrong=True), STATUS_ITERATION_LIMIT,
                 id="chain-150-last-term-wrong"),
    pytest.param(chain_response(150).replace("self.acc = self.a +",
                                             "self.acc = True +"),
                 STATUS_ITERATION_LIMIT, id="chain-150-first-term-wrong"),
    pytest.param(ladder_response(150), STATUS_SUCCESS, id="elif-150"),
])
def test_deep_inputs_fit_a_frame_budget(draft, status):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames_in_use() + FRAME_BUDGET)
    try:
        out = run_pipeline("Deep input.", MockBackend([draft]),
                           max_llm_calls=1)
    finally:
        sys.setrecursionlimit(limit)
    assert out.status == status, out.diagnostics


def nest_response(d: int) -> str:
    """A module whose next block nests d `if`s around one assignment."""
    body = "".join(" " * (8 + 4 * i) + f"if self.x > {i}:\n" for i in range(d))
    return (
        "class Nest(Module):\n"
        "    def locals(self):\n        self.x = int\n"
        "    def init(self):\n        self.x = 0\n"
        "    def next(self):\n"
        f"{body}" + " " * (8 + 4 * d) + "self.x = self.x + 1\n"
        "```\n"
    )


def paren_response(d: int) -> str:
    """A module that assigns an expression nested in d parentheses."""
    return (
        "class Paren(Module):\n"
        "    def locals(self):\n        self.x = int\n"
        "    def next(self):\n"
        "        self.x = " + "(" * d + "self.x" + " + 1)" * d + "\n"
        "```\n"
    )


#: frames per level of the nestings the frontend caps, as run_pipeline
#: takes them: about 4 per nested `if` and 6 per parenthesis
BLOCK_FRAMES, EXPR_FRAMES = 4, 6
#: seconds any one fuzzed run may take; the slowest that finish take
#: about 0.2 s on a 2-core x86-64 machine
FUZZ_SECONDS = 1.0


class _OverTime(BaseException):
    """Raised by the timer; run_pipeline reports every Exception."""


def _run_bounded(replies: list[str], frames: int):
    """run_pipeline on the replies under a frame budget and FUZZ_SECONDS;
    None if the time ran out."""
    def over_time(signum, frame):
        raise _OverTime

    limit = sys.getrecursionlimit()
    handler = signal.signal(signal.SIGALRM, over_time)
    sys.setrecursionlimit(_frames_in_use() + frames)
    signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
    try:
        return run_pipeline("Fuzzed draft.", MockBackend(replies),
                            max_llm_calls=2)
    except _OverTime:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.setrecursionlimit(limit)
        signal.signal(signal.SIGALRM, handler)


def test_whole_pipeline_fuzz():
    # criterion 8's sibling: mutated corpus programs and mutated deep and
    # long drafts, two replies each, run through the whole loop; nesting
    # that the frontend caps gets its frames per level times the cap
    drafts = [(VALID_PROGRAMS[k], FRAME_BUDGET) for k in sorted(VALID_PROGRAMS)]
    drafts += [
        (chain_response(150), FRAME_BUDGET),
        (chain_response(150, wrong=True), FRAME_BUDGET),
        (chain_response(600), FRAME_BUDGET),
        (ladder_response(150), FRAME_BUDGET),
        (nest_response(MAX_BLOCK_NESTING),
         FRAME_BUDGET + BLOCK_FRAMES * MAX_BLOCK_NESTING),
        (paren_response(MAX_NESTING), FRAME_BUDGET + EXPR_FRAMES * MAX_NESTING),
    ]
    rng = random.Random(0)
    statuses, bad, over_time = {}, [], []
    for i in range(240):
        draft, frames = drafts[i % len(drafts)]
        replies = [mutate(rng, draft), mutate(rng, draft)]
        out = _run_bounded(replies, frames)
        if out is None:
            over_time.append(i)
            continue
        statuses[out.status] = statuses.get(out.status, 0) + 1
        if out.status not in (STATUS_SUCCESS, STATUS_ITERATION_LIMIT,
                              STATUS_BACKEND_ERROR):
            bad.append((i, out.status, out.diagnostics, replies))
    assert not bad, bad[:3]
    assert min(statuses.values()) >= 20, statuses
    # a known fault, kept in view: input 68 puts a `|` into the 600-term
    # chain, and the conflict that makes both halves bit-vectors costs
    # the hitting-set search about n^2 searches for n terms (11,646 and
    # 5 s at 80). When conflict analysis removes it, this list empties
    assert over_time == [68]


KEYWORD_RESPONSES = {
    "type synonym": (
        "    def types(self):\n"
        "        self.next = int\n"
        "    def locals(self):\n"
        "        self.x = self.next\n"
        "    def init(self):\n"
        "        self.x = 0\n",
        ["type next_v = integer;", "var x : next_v;"],
    ),
    "enum tag": (
        "    def locals(self):\n"
        '        self.x = Enum("init", "go")\n'
        "    def init(self):\n"
        '        self.x = "init"\n'
        "    def next(self):\n"
        '        self.x = "go"\n',
        ["var x : enum { go, init_v };", "x = init_v;"],
    ),
    "variable": (
        "    def inputs(self):\n"
        "        self.input = int\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "    def next(self):\n"
        "        self.x = self.input\n",
        ["input input_v : integer;", "x = input_v;"],
    ),
    "variable and its respelling": (
        "    def locals(self):\n"
        "        self.next = int\n"
        "        self.next_v = bool\n"
        "    def init(self):\n"
        "        self.next = 0\n"
        "        self.next_v = True\n",
        ["var next_v : integer;", "var next_v_v : boolean;"],
    ),
    "enum tag and its respelling": (
        "    def locals(self):\n"
        '        self.x = Enum("init", "init_v")\n'
        "    def init(self):\n"
        '        self.x = "init"\n'
        "    def next(self):\n"
        '        self.x = "init_v"\n',
        ["var x : enum { init_v, init_v_v };", "x = init_v_v;"],
    ),
}


@pytest.mark.parametrize("body,lines", KEYWORD_RESPONSES.values(),
                         ids=KEYWORD_RESPONSES)
def test_reserved_words_are_respelled_everywhere(body, lines):
    reply = "class M(Module):\n" + body + "```\n"
    out = run_pipeline("Use a reserved word.", MockBackend([reply]))
    assert out.status == STATUS_SUCCESS, out.diagnostics
    assert validate_uclid(out.uclid_text) == []
    for line in lines:
        assert line in out.uclid_text


def test_unmapped_exception_becomes_internal_error(monkeypatch):
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(pipeline, "repair_round", overflow)
    out = run_pipeline("Model a counter.", MockBackend([CLEAN_RESPONSE]))
    assert out.status == STATUS_INTERNAL_ERROR
    assert out.diagnostics == [
        "internal: RecursionError: maximum recursion depth exceeded"]
    assert out.iterations == 1


def test_readme_example_compiles_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    program, report = prune_to_child(parse_tolerant(block))
    assert not report.dropped and not report.holes_inserted
    assert count_holes(program) == 0
    out = run_pipeline("Model a traffic light.",
                       MockBackend([f"```python\n{block}```\n"]))
    assert out.status == STATUS_SUCCESS, out.diagnostics
    assert out.iterations == 1
    assert validate_uclid(out.uclid_text) == []
