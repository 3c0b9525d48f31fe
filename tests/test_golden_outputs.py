"""Pinned outputs: a change that should keep every output byte-identical
must leave `golden/outputs.json` matching.

The file holds, for every replay-suite task, the pipeline status, the
number of LLM calls and the sha256 of the UCLID5 text; and for every
corpus program, under each weight mode, the sha256 of the surface text of
the repaired program and of the UCLID5 it compiles to (or the name of the
error compiling it raises). Regenerate it, after a change that is meant
to move an output, with

    python3 tests/test_golden_outputs.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "outputs.json"
SUITE_PATH = HERE / "data" / "suite" / "suite.json"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from corpus import INVALID_PROGRAMS, VALID_PROGRAMS  # noqa: E402
from uclgen.constraints import WEIGHT_MODES  # noqa: E402
from uclgen.frontend import parse_tolerant, print_child, prune_to_child  # noqa: E402
from uclgen.llm import ReplayBackend  # noqa: E402
from uclgen.maxsmt import Untypeable  # noqa: E402
from uclgen.pipeline import load_suite, run_pipeline  # noqa: E402
from uclgen.repair import repair_round  # noqa: E402
from uclgen.uclid import CompileError, compile_program, print_uclid  # noqa: E402


def _sha(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def current_outputs() -> dict[str, object]:
    out: dict[str, object] = {}
    for entry in load_suite(SUITE_PATH):
        backend = ReplayBackend(entry["replay"])
        outcome = run_pipeline(entry["task"], backend)
        key = f"replay/{entry['id']}"
        out[f"{key}/status"] = outcome.status
        out[f"{key}/llm_calls"] = backend.calls
        out[f"{key}/uclid_sha256"] = _sha(outcome.uclid_text)
    corpus = [("valid", VALID_PROGRAMS), ("invalid", INVALID_PROGRAMS)]
    for kind, programs in corpus:
        for name, source in programs.items():
            program, _ = prune_to_child(parse_tolerant(source))
            for mode in WEIGHT_MODES:
                key = f"{kind}/{name}/{mode}"
                repaired = repair_round(program, mode).program
                out[f"{key}/child_sha256"] = _sha(print_child(repaired))
                try:
                    text = print_uclid(compile_program(repaired))
                except (CompileError, Untypeable) as exc:
                    out[f"{key}/uclid"] = type(exc).__name__
                else:
                    out[f"{key}/uclid"] = _sha(text)
    return out


def test_outputs_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = current_outputs()
    differ = sorted(k for k in golden.keys() | now.keys()
                    if golden.get(k, "<missing>") != now.get(k, "<missing>"))
    assert not differ, f"outputs differ from {GOLDEN.name} at: {differ}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_outputs(), indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
