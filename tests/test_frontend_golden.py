"""Pinned tolerant-parser outputs: a change that should leave the lexer,
the parser and the pruner as they are must leave `golden/frontend.json`
matching.

For each of the first 2,000 `corpus.fuzz_inputs()` the file holds one
short hash of the `_logical_lines` output (each line's indent, span, bad
flag and assignment index, and each token's kind, value and position)
and of `print_child` of the pruned program. A mismatch names the inputs
that differ, so a change that is meant to move a token, a span or a
printed program lists what it moved. Regenerate the file, after such a
change, with

    python3 tests/test_frontend_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "frontend.json"
COUNT = 2000

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))

from corpus import fuzz_inputs  # noqa: E402
from uclgen.frontend import (  # noqa: E402
    _logical_lines,
    parse_tolerant,
    print_child,
    prune_to_child,
)


def _summary(source: str) -> tuple:
    lines = tuple(
        (line.indent, line.span.start, line.span.end, line.bad, line.assign,
         tuple((t.kind, t.value, t.pos) for t in line.toks))
        for line in _logical_lines(source))
    return lines, print_child(prune_to_child(parse_tolerant(source))[0])


def current_hashes() -> dict[str, str]:
    out = {}
    for i, source in enumerate(fuzz_inputs(COUNT)):
        digest = hashlib.sha256(repr(_summary(source)).encode()).hexdigest()
        out[str(i)] = digest[:12]
    return out


def test_frontend_outputs_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = current_hashes()
    differ = sorted((k for k in golden.keys() | now.keys()
                     if golden.get(k, "<missing>") != now.get(k, "<missing>")),
                    key=int)
    assert not differ, f"frontend outputs differ from {GOLDEN.name} at: {differ}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_hashes(), indent=0) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
