#!/usr/bin/env python3
"""Print a fingerprint of the outputs of every benchmark item.

For each item of the three `perfbench` workloads at seeds 0-2 this runs
`run_pipeline` once, as the benchmark does, and records the status, the
sha256 of the UCLID5 text, the number of LLM calls and the diagnostics.
The output is one JSON document, so two checkouts compare with `cmp`:

    python3 scripts/fingerprint.py > a.json   # in each checkout
    cmp a.json b.json

It reads `perfbench/run.py` and `perfbench/workloads.py` and writes
nothing. `tests/golden/fingerprint.json` holds its output for the current
code, and CI compares the two; overwrite it only with a change meant to
move outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2)


def fingerprint() -> dict[str, dict]:
    out = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            setup = run.set_up(workload, seed)
            for i, item in enumerate(setup.items):
                backend = run.make_backend(setup, item)
                outcome = setup.uclgen.pipeline.run_pipeline(item.task,
                                                             backend)
                text = outcome.uclid_text
                out[f"{workload}/{seed}/{i}/{item.key}"] = {
                    "status": outcome.status,
                    "uclid_sha256": None if text is None
                    else hashlib.sha256(text.encode()).hexdigest(),
                    "llm_calls": backend.calls,
                    "diagnostics": outcome.diagnostics,
                }
    return out


if __name__ == "__main__":
    print(json.dumps(fingerprint(), indent=1))
