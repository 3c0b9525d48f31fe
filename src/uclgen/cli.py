"""Command line interface.

Subcommands:
  run     task text -> UCLID5 module, via an LLM backend
  check   validate an existing UCLID5 file
  bench   run a replay suite and report timing/rate aggregates
  repair  one repair round over module-language source, no LLM involved;
          with --smt2, the clause set of the program as given, the one
          the round solves first, as SMT-LIB 2 instead

Exit codes: 0 on success, 1 when the work product is bad (pipeline did
not converge, validation failed), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from .constraints import WEIGHT_MODES, generate_clauses
from .frontend import parse_tolerant, print_child, prune_to_child
from .llm import (
    HttpBackend,
    MockBackend,
    RecordingBackend,
    ReplayBackend,
    Transcript,
)
from .maxsmt import emit_smtlib
from .pipeline import (
    STATUS_SUCCESS,
    compile_checked,
    load_suite,
    run_bench,
    run_pipeline,
)
from .repair import repair_round
from .uclid_check import validate_uclid

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _usage(message: str) -> int:
    """Print `message` as a usage error; returns the exit code for one."""
    print(f"uclgen: {message}", file=sys.stderr)
    return EXIT_USAGE


def _usage_error(message: str) -> NoReturn:
    raise SystemExit(_usage(message))


def _build_backend(args: argparse.Namespace):
    if args.backend == "replay":
        if not args.transcript:
            _usage_error("--transcript is required with --backend replay")
        try:
            return ReplayBackend.from_file(args.transcript, loose=args.loose)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            _usage_error(f"cannot load --transcript {args.transcript}: {exc}")
    if args.backend == "mock":
        if not args.responses:
            _usage_error("--responses is required with --backend mock")
        try:
            raw = json.loads(Path(args.responses).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            _usage_error(f"cannot load --responses {args.responses}: {exc}")
        if not isinstance(raw, list) or not all(
            isinstance(r, str) for r in raw
        ):
            _usage_error("--responses must be a JSON list of strings")
        return MockBackend(raw)
    if not args.url or not args.model:
        _usage_error("--url and --model are required with --backend http")
    return HttpBackend(args.url, args.model, api_key_env=args.api_key_env)


def _call_budget(text: str) -> int:
    """`--max-llm-calls`: a whole number of at least 1, so a budget that
    allows no call is a usage error before any backend is built."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a whole number, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_weights_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--weights",
        choices=WEIGHT_MODES,
        default="depth",
        help="soft-clause weighting scheme (default: %(default)s)",
    )


def _add_backend_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend", choices=("http", "replay", "mock"), default="http"
    )
    p.add_argument("--url", help="chat-completions endpoint URL")
    p.add_argument("--model", help="model name for the http backend")
    p.add_argument(
        "--api-key-env",
        default="UCLGEN_API_KEY",
        help="environment variable holding the API key (default: %(default)s)",
    )
    p.add_argument("--transcript", help="JSONL transcript for the replay backend")
    p.add_argument(
        "--loose",
        action="store_true",
        help="replay by sequence without verifying prompt hashes",
    )
    p.add_argument("--responses", help="JSON list of responses for the mock backend")
    p.add_argument("--record", help="record all LLM exchanges to this JSONL file")
    p.add_argument("--max-llm-calls", type=_call_budget, default=5)
    _add_weights_arg(p)


def _read_file(path: str, encoding: str = "utf-8") -> str | None:
    """The file's text, or None after printing why it cannot be read.
    With `utf-8-sig`, a leading byte-order mark is dropped, as Python's
    own reader drops it from source."""
    try:
        return Path(path).read_text(encoding=encoding)
    except (OSError, UnicodeDecodeError) as exc:
        _usage(f"cannot read {path}: {exc}")
        return None


def _writable(path: str | None) -> bool:
    """False after printing why `path` cannot be written: its directory
    is missing or not writable, or it is a directory or an unwritable
    file. Checked before any work, so a mistyped path costs no LLM call."""
    if not path:
        return True
    target = Path(path)
    folder = target.parent
    if not folder.is_dir():
        reason = f"no directory {str(folder)!r}"
    elif not os.access(folder, os.W_OK):
        reason = f"directory {str(folder)!r} is not writable"
    elif target.is_dir():
        reason = "it is a directory"
    elif target.exists() and not os.access(target, os.W_OK):
        reason = "the file is not writable"
    else:
        return True
    _usage(f"cannot write {path}: {reason}")
    return False


def _write_file(path: str, write) -> bool:
    """Run `write(path)`; False after printing why the file cannot be
    written."""
    try:
        write(path)
    except OSError as exc:
        _usage(f"cannot write {path}: {exc}")
        return False
    return True


def _write_text(path: str, text: str) -> bool:
    return _write_file(path, lambda p: Path(p).write_text(text, encoding="utf-8"))


def _cmd_run(args: argparse.Namespace) -> int:
    if args.task_file:
        task = _read_file(args.task_file, "utf-8-sig")
        if task is None:
            return EXIT_USAGE
    elif args.task:
        task = args.task
    else:
        return _usage("a task string or --task-file is required")
    if not (_writable(args.record) and _writable(args.output)):
        return EXIT_USAGE
    backend = _build_backend(args)
    transcript = None
    if args.record:
        transcript = Transcript()
        backend = RecordingBackend(backend, transcript)
    outcome = run_pipeline(
        task, backend, max_llm_calls=args.max_llm_calls,
        weight_mode=args.weights,
    )
    if transcript is not None and not _write_file(args.record, transcript.save):
        return EXIT_USAGE
    for d in outcome.diagnostics:
        print(d, file=sys.stderr)
    if outcome.status != STATUS_SUCCESS:
        print(f"status: {outcome.status}", file=sys.stderr)
        return EXIT_FAILED
    if args.output:
        if not _write_text(args.output, outcome.uclid_text):
            return EXIT_USAGE
    else:
        sys.stdout.write(outcome.uclid_text)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    # the text as it is: UCLID5's reader is not known to skip a BOM
    text = _read_file(args.file)
    if text is None:
        return EXIT_USAGE
    diags = validate_uclid(text)
    for d in diags:
        print(d)
    return EXIT_OK if not diags else EXIT_FAILED


def _cmd_bench(args: argparse.Namespace) -> int:
    if not _writable(args.output):
        return EXIT_USAGE
    try:
        suite = load_suite(args.suite)
    except (OSError, ValueError) as exc:
        return _usage(f"cannot load suite {args.suite}: {exc}")
    report = run_bench(
        suite, max_llm_calls=args.max_llm_calls,
        weight_mode=args.weights, loose=args.loose,
    )
    text = json.dumps(report, indent=2)
    if args.output:
        if not _write_text(args.output, text + "\n"):
            return EXIT_USAGE
    else:
        print(text)
    ok = all(t["status"] == STATUS_SUCCESS for t in report["tasks"])
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_repair(args: argparse.Namespace) -> int:
    source = _read_file(args.file, "utf-8-sig")
    if source is None:
        return EXIT_USAGE
    program, report = prune_to_child(parse_tolerant(source))
    if program.module_hole is not None:
        print("input contains no Module class", file=sys.stderr)
        return EXIT_FAILED
    pruned = report.to_dict()
    for item in pruned["dropped"]:
        print(f"dropped line {item['line']}: {item['reason']}", file=sys.stderr)
    for item in pruned["holes_inserted"]:
        print(f"hole at line {item['line']}: {item['category']}",
              file=sys.stderr)
    if args.smt2:
        # the clause set the round solves first, for an external solver
        sys.stdout.write(emit_smtlib(generate_clauses(program, args.weights)))
        return EXIT_OK
    outcome = repair_round(program, args.weights)
    if args.uclid:
        if outcome.holes_remaining:
            print(
                f"{outcome.holes_remaining} hole(s) remain; cannot emit UCLID5",
                file=sys.stderr,
            )
            sys.stdout.write(print_child(outcome.program))
            return EXIT_FAILED
        text, diags = compile_checked(outcome.program)
        for d in diags:
            print(d, file=sys.stderr)
        if text is None:
            return EXIT_FAILED
        sys.stdout.write(text)
    else:
        sys.stdout.write(print_child(outcome.program))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uclgen",
        description="Generate and repair UCLID5 models from task text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="turn a task into a UCLID5 module")
    p_run.add_argument("task", nargs="?", help="task description text")
    p_run.add_argument("--task-file", help="read the task from a file")
    p_run.add_argument("-o", "--output", help="write the module here")
    _add_backend_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="validate a UCLID5 file")
    p_check.add_argument("file")
    p_check.set_defaults(func=_cmd_check)

    p_bench = sub.add_parser("bench", help="run a replay suite")
    p_bench.add_argument("--suite", required=True, help="suite JSON file")
    p_bench.add_argument("-o", "--output", help="write the report here")
    p_bench.add_argument("--max-llm-calls", type=_call_budget, default=5)
    _add_weights_arg(p_bench)
    p_bench.add_argument("--loose", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    p_rep = sub.add_parser(
        "repair", help="repair module-language source without an LLM"
    )
    p_rep.add_argument("file")
    emit = p_rep.add_mutually_exclusive_group()
    emit.add_argument(
        "--uclid", action="store_true",
        help="compile to UCLID5 when no holes remain",
    )
    emit.add_argument(
        "--smt2", action="store_true",
        help="print the round's MAX-SMT problem, the clause set of the "
        "program as given, as SMT-LIB 2 with assert-soft weights",
    )
    _add_weights_arg(p_rep)
    p_rep.set_defaults(func=_cmd_repair)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
