"""The uclgen command line interface."""

import json
from pathlib import Path

import pytest

from uclgen import cli, pipeline
from uclgen.cli import EXIT_FAILED, EXIT_OK, EXIT_USAGE, main
from uclgen.constraints import generate_clauses
from uclgen.frontend import parse_tolerant, prune_to_child
from uclgen.llm import MockBackend
from uclgen.maxsmt import emit_smtlib
from uclgen.repair import synthesize_decls

SUITE_PATH = Path(__file__).parent / "data" / "suite" / "suite.json"

GOOD_UCLID = """
module main {
  var x : integer;
  init { x = 0; }
  next { x = x + 1; }
}
"""

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


def test_check_accepts_valid_file(tmp_path, capsys):
    f = tmp_path / "good.ucl"
    f.write_text(GOOD_UCLID, encoding="utf-8")
    assert main(["check", str(f)]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_check_rejects_invalid_file(tmp_path, capsys):
    f = tmp_path / "bad.ucl"
    f.write_text(GOOD_UCLID.replace("x = 0;", "x = false;"), encoding="utf-8")
    assert main(["check", str(f)]) == EXIT_FAILED
    assert capsys.readouterr().out


def test_check_reports_too_deep_nesting_as_parse_error(tmp_path, capsys):
    f = tmp_path / "deep.ucl"
    f.write_text(GOOD_UCLID.replace("x + 1", "(" * 1000 + "x + 1" + ")" * 1000),
                 encoding="utf-8")
    assert main(["check", str(f)]) == EXIT_FAILED
    assert capsys.readouterr().out.startswith("parse-error: ")


def test_check_missing_file_is_usage_error(tmp_path):
    assert main(["check", str(tmp_path / "nope.ucl")]) == EXIT_USAGE


@pytest.mark.parametrize("command", [
    ["check"], ["repair"], ["run", "--backend", "mock", "--task-file"],
], ids=["check", "repair", "run"])
@pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8\n"],
                         ids=["missing", "not-utf-8"])
def test_unreadable_file_is_usage_error(tmp_path, capsys, command, content):
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_bytes(content)
    assert main([*command, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"cannot read {path}")


@pytest.mark.parametrize("command", [
    ["run", "Model a counter.", "--record"],
    ["run", "Model a counter.", "-o"],
    ["bench", "--suite", str(SUITE_PATH), "-o"],
], ids=["run-record", "run-output", "bench-output"])
def test_unwritable_file_is_usage_error(tmp_path, capsys, monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(cli, "run_pipeline", never)
    monkeypatch.setattr(cli, "run_bench", never)
    responses = tmp_path / "responses.json"
    responses.write_text(json.dumps([CLEAN_RESPONSE]), encoding="utf-8")
    backend = ["--backend", "mock", "--responses", str(responses)]
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        argv = [*command, str(path), *(backend if command[0] == "run" else [])]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"uclgen: cannot write {path}")


def test_check_overlong_literal_is_parse_error(tmp_path, capsys):
    f = tmp_path / "long.ucl"
    f.write_text(GOOD_UCLID.replace("x = 0;", f"x = {'9' * 5000};"),
                 encoding="utf-8")
    assert main(["check", str(f)]) == EXIT_FAILED
    assert capsys.readouterr().out.startswith("parse-error: ")


def test_run_with_mock_backend(tmp_path, capsys):
    responses = tmp_path / "responses.json"
    responses.write_text(json.dumps([CLEAN_RESPONSE]), encoding="utf-8")
    out_file = tmp_path / "out.ucl"
    code = main([
        "run", "Model a counter.",
        "--backend", "mock", "--responses", str(responses),
        "-o", str(out_file),
    ])
    assert code == EXIT_OK
    assert "var count : integer;" in out_file.read_text(encoding="utf-8")


def test_run_without_output_writes_the_module_to_stdout(tmp_path, capsys):
    responses = tmp_path / "responses.json"
    responses.write_text(json.dumps([CLEAN_RESPONSE]), encoding="utf-8")
    code = main([
        "run", "Model a counter.",
        "--backend", "mock", "--responses", str(responses),
    ])
    assert code == EXIT_OK
    out, err = capsys.readouterr()
    expect = pipeline.run_pipeline("Model a counter.",
                                   MockBackend([CLEAN_RESPONSE]))
    assert (out, err) == (expect.uclid_text, "")
    assert "var count : integer;" in out


def test_run_exits_1_on_internal_error(tmp_path, monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(pipeline, "repair_round", overflow)
    responses = tmp_path / "responses.json"
    responses.write_text(json.dumps([CLEAN_RESPONSE]), encoding="utf-8")
    code = main([
        "run", "Model a counter.",
        "--backend", "mock", "--responses", str(responses),
    ])
    assert code == EXIT_FAILED
    err = capsys.readouterr().err
    assert "internal: RecursionError: maximum recursion depth" in err
    assert "status: internal_error" in err


def test_run_records_transcript(tmp_path):
    responses = tmp_path / "responses.json"
    responses.write_text(json.dumps([CLEAN_RESPONSE]), encoding="utf-8")
    record = tmp_path / "exchange.jsonl"
    code = main([
        "run", "Model a counter.",
        "--backend", "mock", "--responses", str(responses),
        "--record", str(record), "-o", str(tmp_path / "out.ucl"),
    ])
    assert code == EXIT_OK
    entries = [
        json.loads(line)
        for line in record.read_text(encoding="utf-8").splitlines()
    ]
    assert len(entries) == 1
    assert entries[0]["backend"] == "mock"


def test_run_without_task_is_usage_error(capsys):
    assert main(["run", "--backend", "mock", "--responses", "x"]) == EXIT_USAGE


def test_run_reports_failure_status(tmp_path, capsys):
    responses = tmp_path / "responses.json"
    responses.write_text(json.dumps(["not code at all"]), encoding="utf-8")
    code = main([
        "run", "Model a counter.",
        "--backend", "mock", "--responses", str(responses),
    ])
    assert code == EXIT_FAILED
    assert "status:" in capsys.readouterr().err


def test_bench_reports_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["bench", "--suite", str(SUITE_PATH), "-o", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["aggregate"]["parse_rate"] == 1.0


def test_bench_without_output_prints_the_report(capsys):
    assert main(["bench", "--suite", str(SUITE_PATH)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["aggregate"]["parse_rate"] == 1.0
    assert len(report["tasks"]) == 10


def test_bench_missing_suite_is_usage_error(tmp_path):
    code = main(["bench", "--suite", str(tmp_path / "nope.json")])
    assert code == EXIT_USAGE


def test_repair_emits_child_source(tmp_path, capsys):
    f = tmp_path / "prog.py"
    f.write_text(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.w = BitVector(6)\n"
        "    def init(self):\n"
        "        self.w = 0\n"
        "    def next(self):\n"
        "        self.w = self.w + 1\n",
        encoding="utf-8",
    )
    assert main(["repair", str(f)]) == EXIT_OK
    assert "self.w = int" in capsys.readouterr().out


def test_repair_reports_one_based_lines(tmp_path, capsys):
    f = tmp_path / "prog.py"
    f.write_text(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "        self.y = foo(1)\n"
        "    def next(self):\n"
        "        self.x = bar(2)\n"
        "        print(3)\n",
        encoding="utf-8",
    )
    assert main(["repair", str(f)]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == [
        "dropped line 4", "dropped line 6", "dropped line 7",
        "hole at line 4", "hole at line 6"]


def test_repair_non_decimal_digit_is_a_hole(tmp_path, capsys):
    f = tmp_path / "prog.py"
    f.write_text(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = BitVector(²)\n"
        "    def init(self):\n"
        "        self.x = BV(1, ²)\n",
        encoding="utf-8",
    )
    assert main(["repair", str(f)]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        "dropped line 3: unparseable", "dropped line 5: unparseable",
        "hole at line 3: declaration", "hole at line 5: statement"]


def test_repair_uclid_flag_compiles(tmp_path, capsys):
    f = tmp_path / "prog.py"
    f.write_text(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "    def init(self):\n"
        "        self.x = 0\n",
        encoding="utf-8",
    )
    assert main(["repair", str(f), "--uclid"]) == EXIT_OK
    assert "module main {" in capsys.readouterr().out


def test_repair_uclid_flag_with_holes_left_prints_the_program(tmp_path,
                                                             capsys):
    # a statement hole is left for the LLM: no UCLID5, the holey program
    f = tmp_path / "prog.py"
    f.write_text(
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "    def next(self):\n"
        "        ??\n",
        encoding="utf-8",
    )
    assert main(["repair", str(f), "--uclid"]) == EXIT_FAILED
    out, err = capsys.readouterr()
    assert err == "1 hole(s) remain; cannot emit UCLID5\n"
    assert out == (
        "class M(Module):\n"
        "    def locals(self):\n"
        "        self.x = int\n"
        "    def next(self):\n"
        "        ??\n")


def test_repair_uclid_flag_validates_its_output(tmp_path, capsys):
    # the tag "x" belongs to two enums, so the compiled text is ambiguous
    f = tmp_path / "prog.py"
    f.write_text(
        "class M(Module):\n"
        "    def locals(self):\n"
        '        self.a = Enum("x", "y")\n'
        '        self.b = Enum("x", "z")\n'
        "    def next(self):\n"
        '        self.a = "x"\n',
        encoding="utf-8",
    )
    assert main(["repair", str(f), "--uclid"]) == EXIT_FAILED
    out, err = capsys.readouterr()
    assert out == ""
    assert [line.split(":")[:2] for line in err.splitlines()] == [
        ["validate", " ambiguous-tag"], ["validate", " assign-mismatch"]]


def test_replay_backend_requires_transcript(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "task", "--backend", "replay"])
    assert exc.value.code == EXIT_USAGE
    assert "--transcript is required" in capsys.readouterr().err


@pytest.mark.parametrize("backend,flag", [
    ("mock", "--responses"), ("replay", "--transcript"),
])
@pytest.mark.parametrize("content", [None, "{not json", '"one string"'])
def test_bad_backend_file_is_usage_error(tmp_path, capsys, backend, flag,
                                         content):
    path = tmp_path / "backend.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", "task", "--backend", backend, flag, str(path)])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err


@pytest.mark.parametrize("suite,transcript", [
    ({"id": "a"}, None),
    ([1], None),
    ([{"id": "a", "transcript": "counter.jsonl"}], None),
    ([{"id": "a", "task": "t", "transcript": "missing.jsonl"}], None),
    ([{"id": "a", "task": "t", "transcript": "t.jsonl"}], "not json\n"),
], ids=["object", "not-an-entry", "no-task", "missing-transcript",
        "not-json-lines"])
def test_malformed_suite_is_usage_error(tmp_path, capsys, monkeypatch,
                                        suite, transcript):
    def never(*args, **kwargs):
        raise AssertionError("a task ran")

    monkeypatch.setattr(cli, "run_bench", never)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite), encoding="utf-8")
    (tmp_path / "counter.jsonl").write_bytes(
        (SUITE_PATH.parent / "counter.jsonl").read_bytes())
    if transcript is not None:
        (tmp_path / "t.jsonl").write_text(transcript, encoding="utf-8")
    assert main(["bench", "--suite", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"cannot load suite {path}")


SMT2_SOURCE = (
    "class M(Module):\n"
    "    def locals(self):\n"
    "        self.x = int\n"
    "    def init(self):\n"
    "        self.x = True\n"
    "        self.y = 0\n"
    "    def next(self):\n"
    "        self.x = self.x + self.y\n"
)


@pytest.mark.parametrize("weights", ["depth", "uniform"])
def test_repair_smt2_prints_the_rounds_clause_set(tmp_path, capsys, weights):
    # `y` is used but never declared: the clauses include its synthesized
    # declaration
    f = tmp_path / "prog.py"
    f.write_text(SMT2_SOURCE, encoding="utf-8")
    assert main(["repair", str(f), "--smt2", "--weights", weights]) == EXIT_OK
    program = synthesize_decls(prune_to_child(parse_tolerant(SMT2_SOURCE))[0])[0]
    expect = emit_smtlib(generate_clauses(program, weights))
    out = capsys.readouterr().out
    assert out == expect
    assert "(assert-soft " in out


def test_repair_smt2_and_uclid_together_is_usage_error(tmp_path):
    f = tmp_path / "prog.py"
    f.write_text(SMT2_SOURCE, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["repair", str(f), "--smt2", "--uclid"])
    assert exc.value.code == EXIT_USAGE


def test_repair_smt2_without_a_module_fails(tmp_path, capsys):
    f = tmp_path / "prog.py"
    f.write_text("x = 1\n", encoding="utf-8")
    assert main(["repair", str(f), "--smt2"]) == EXIT_FAILED
    assert capsys.readouterr().out == ""
