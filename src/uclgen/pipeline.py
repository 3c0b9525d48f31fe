"""End-to-end orchestration: task text in, UCLID5 text out.

The loop asks the backend for code, prunes it to the module language,
runs a repair round, and either compiles (when no holes are left) or
sends the holey program back to the backend. The backend is consulted at
most `max_llm_calls` times in total, including the initial request.

Compiled output must also pass the independent validator; a validation
failure is reported like a backend failure, since it means the pipeline
produced text it cannot stand behind. `run_pipeline` never raises: an
exception no stage turns into a status ends the run as `internal_error`.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .ast_core import ChildProgram
from .frontend import (
    ExtractError,
    extract_code,
    parse_tolerant,
    print_child,
    prune_to_child,
)
from .llm import (
    Backend,
    BackendError,
    ReplayBackend,
    Transcript,
    holefill_prompt,
    initial_prompt,
)
from .maxsmt import Untypeable
from .repair import repair_round
from .uclid import CompileError, compile_program, print_uclid
from .uclid_check import validate_uclid

SCHEMA_VERSION = 1

STATUS_SUCCESS = "success"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_BACKEND_ERROR = "backend_error"
STATUS_INTERNAL_ERROR = "internal_error"


@dataclass
class PipelineOutcome:
    status: str
    uclid_text: Optional[str] = None
    program: Optional[ChildProgram] = None
    iterations: int = 0
    ms_llm: float = 0.0
    ms_repair_rounds: list[float] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    @property
    def parse_ok(self) -> bool:
        return self.status != STATUS_BACKEND_ERROR

    @property
    def ms_repair(self) -> float:
        return sum(self.ms_repair_rounds)


def run_pipeline(
    task: str,
    backend: Backend,
    max_llm_calls: int = 5,
    weight_mode: str = "depth",
) -> PipelineOutcome:
    out = PipelineOutcome(status=STATUS_BACKEND_ERROR)
    try:
        return _run(out, task, backend, max_llm_calls, weight_mode)
    except Exception as exc:  # a defect, not an input: report, never raise
        out.status = STATUS_INTERNAL_ERROR
        out.diagnostics.append(f"internal: {type(exc).__name__}: {exc}")
    return out


def _run(out: PipelineOutcome, task: str, backend: Backend,
         max_llm_calls: int, weight_mode: str) -> PipelineOutcome:
    def ask(prompt: str) -> Optional[str]:
        t0 = time.monotonic()
        try:
            response = backend.complete(prompt)
            if not isinstance(response, str):
                raise BackendError(
                    f"reply is not text ({type(response).__name__})")
        except BackendError as exc:
            out.diagnostics.append(f"backend: {exc}")
            return None
        finally:
            out.ms_llm += (time.monotonic() - t0) * 1000.0
        out.iterations += 1
        return response

    if max_llm_calls < 1:
        out.status = STATUS_ITERATION_LIMIT
        out.diagnostics.append(
            f"max_llm_calls is {max_llm_calls}; no backend call made"
        )
        return out
    response = ask(initial_prompt(task))
    if response is None:
        return out

    while True:
        try:
            code = extract_code(response)
        except ExtractError as exc:
            out.diagnostics.append(f"extract: {exc}")
            return out
        program, report = prune_to_child(parse_tolerant(code))
        if program.module_hole is not None:
            out.diagnostics.append("prune: response contains no Module class")
            return out
        repaired = repair_round(program, weight_mode)
        out.ms_repair_rounds.append(repaired.ms)
        out.program = repaired.program

        if repaired.holes_remaining == 0:
            text, diags = compile_checked(repaired.program)
            out.diagnostics.extend(diags)
            if text is not None:
                out.status = STATUS_SUCCESS
                out.uclid_text = text
            return out

        if out.iterations >= max_llm_calls:
            out.status = STATUS_ITERATION_LIMIT
            out.diagnostics.append(
                f"{repaired.holes_remaining} hole(s) left after "
                f"{out.iterations} backend call(s)"
            )
            return out
        response = ask(holefill_prompt(task, print_child(repaired.program)))
        if response is None:
            return out


def compile_checked(program: ChildProgram) -> tuple[Optional[str], list[str]]:
    """Compile a hole-free program, print it and validate the text: the
    UCLID5 text and no diagnostics, or None and the reasons it failed."""
    try:
        module = compile_program(program)
    except (CompileError, Untypeable) as exc:
        return None, [f"compile: {exc}"]
    text = print_uclid(module)
    diags = validate_uclid(text)
    if diags:
        return None, [f"validate: {d}" for d in diags]
    return text, []


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

def load_suite(path: str | Path) -> list[dict]:
    """A suite file is JSON: [{"id": ..., "task": ..., "transcript": ...}]
    with string values. Transcript paths are relative to the suite file;
    each entry comes back with its path resolved and the loaded transcript
    under "replay". Raises OSError if the suite file cannot be read and
    ValueError if it or a transcript is malformed, or it has no entry."""
    path = Path(path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(raw, list) or not raw:
        raise ValueError("a suite is a non-empty JSON list of entries")
    tasks = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or not all(
                isinstance(entry.get(k), str)
                for k in ("id", "task", "transcript")):
            raise ValueError(
                f"entry {i} is not an object with string id, task and "
                "transcript")
        entry = dict(entry)
        entry["transcript"] = str((path.parent / entry["transcript"]).resolve())
        try:
            entry["replay"] = Transcript.load(entry["transcript"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"entry {i}: cannot load transcript: "
                             f"{type(exc).__name__}: {exc}") from exc
        tasks.append(entry)
    return tasks


def run_bench(
    suite: list[dict],
    max_llm_calls: int = 5,
    weight_mode: str = "depth",
    loose: bool = False,
) -> dict:
    """Run every `load_suite` task against its recorded transcript and
    aggregate."""
    results = []
    repair_rounds: list[float] = []
    llm_times: list[float] = []
    for entry in suite:
        backend = ReplayBackend(entry["replay"], loose=loose)
        t0 = time.monotonic()
        outcome = run_pipeline(
            entry["task"], backend, max_llm_calls, weight_mode
        )
        ms_total = (time.monotonic() - t0) * 1000.0
        results.append(
            {
                "id": entry["id"],
                "status": outcome.status,
                "parse_ok": outcome.parse_ok,
                "iterations": outcome.iterations,
                "ms_llm": round(outcome.ms_llm, 3),
                "ms_repair": round(outcome.ms_repair, 3),
                "ms_total": round(ms_total, 3),
            }
        )
        repair_rounds.extend(outcome.ms_repair_rounds)
        llm_times.append(outcome.ms_llm)

    def mean(xs: list[float]) -> float:
        return round(statistics.mean(xs), 3) if xs else 0.0

    def sd(xs: list[float]) -> float:
        return round(statistics.stdev(xs), 3) if len(xs) > 1 else 0.0

    parse_ok = sum(1 for r in results if r["parse_ok"])
    return {
        "schema_version": SCHEMA_VERSION,
        "tasks": results,
        "aggregate": {
            "parse_rate": round(parse_ok / len(results), 3) if results else 0.0,
            "mean_ms_repair": mean(repair_rounds),
            "sd_ms_repair": sd(repair_rounds),
            "mean_ms_llm": mean(llm_times),
            "sd_ms_llm": sd(llm_times),
        },
    }
