"""Pinned validator outputs: a change that should leave the UCLID5
tokenizer, parser and checker as they are must leave
`golden/validator.json` matching.

The texts are the compiled UCLID5 of every `corpus.VALID_PROGRAMS` entry
and every replay-suite output, each as it is, then 2,000 seeded
`corpus.mutate` variants of them. For each text the file holds one short
hash of the `(code, message)` of every diagnostic `validate_uclid`
returns, in order. A mismatch names the texts that differ. Regenerate the
file, after a change that is meant to move a diagnostic, with

    python3 tests/test_validator_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "validator.json"
SUITE_PATH = HERE / "data" / "suite" / "suite.json"
MUTANTS = 2000
SEED = 0x0C1D

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))

from corpus import VALID_PROGRAMS, mutate  # noqa: E402
from uclgen.frontend import parse_tolerant, prune_to_child  # noqa: E402
from uclgen.llm import ReplayBackend  # noqa: E402
from uclgen.pipeline import load_suite, run_pipeline  # noqa: E402
from uclgen.uclid import compile_program, print_uclid  # noqa: E402
from uclgen.uclid_check import validate_uclid  # noqa: E402


def texts() -> dict[str, str]:
    """The validated texts by key: `valid/<name>`, `replay/<id>`, then
    `mutant/<i>`."""
    out: dict[str, str] = {}
    for name in sorted(VALID_PROGRAMS):
        program, _ = prune_to_child(parse_tolerant(VALID_PROGRAMS[name]))
        out[f"valid/{name}"] = print_uclid(compile_program(program))
    for entry in load_suite(SUITE_PATH):
        outcome = run_pipeline(entry["task"], ReplayBackend(entry["replay"]))
        if outcome.uclid_text is not None:
            out[f"replay/{entry['id']}"] = outcome.uclid_text
    bases = list(out.values())
    rng = random.Random(SEED)
    for i in range(MUTANTS):
        out[f"mutant/{i}"] = mutate(rng, rng.choice(bases))
    return out


def current_hashes() -> dict[str, str]:
    out = {}
    for key, text in texts().items():
        diags = [(d.code, d.message) for d in validate_uclid(text)]
        out[key] = hashlib.sha256(repr(diags).encode()).hexdigest()[:12]
    return out


def test_validator_outputs_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = current_hashes()
    differ = sorted(k for k in golden.keys() | now.keys()
                    if golden.get(k, "<missing>") != now.get(k, "<missing>"))
    assert not differ, f"validator outputs differ from {GOLDEN.name} at: {differ}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_hashes(), indent=0) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
