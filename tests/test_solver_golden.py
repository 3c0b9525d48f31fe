"""Pinned solver outputs: a change that should leave every `solve_maxsmt`
and `check_sat` result as it is must leave `golden/solver.json` matching.

For each of about 2,000 `random_clause_set` sets the file holds one short
hash of the `solve_maxsmt` result (falsified set, cost, model, forced; or
the core it reports as `Untypeable`) and of the `check_sat` result, as
the tuple (sat, core, model, forced). A mismatch names the sets that
differ, so a change that is meant to move a model or a forced value lists
what it moved.
Regenerate the file, after such a change, with

    python3 tests/test_solver_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "solver.json"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))

from oracle_maxsmt import random_clause_set  # noqa: E402
from uclgen.maxsmt import Untypeable, check_sat, solve_maxsmt  # noqa: E402

#: (seed, max_soft, number of sets)
SETS = ((7, 10, 500), (1131, 10, 500), (1, 14, 500), (2, 14, 500))


def _results(cs) -> tuple:
    try:
        res = solve_maxsmt(cs)
    except Untypeable as exc:
        solved: tuple = ("untypeable", exc.core)
    else:
        solved = (res.falsified, res.cost, sorted(res.model.items()),
                  sorted(res.forced.items()))
    try:
        sat = check_sat(cs.clauses)
    except Untypeable as exc:
        return solved, (False, exc.core, [], [])
    return solved, (True, (), sorted(sat.model.items()),
                    sorted(sat.forced.items()))


def current_hashes() -> dict[str, str]:
    out = {}
    for seed, max_soft, count in SETS:
        rng = random.Random(seed)
        for i in range(count):
            cs = random_clause_set(rng, max_soft=max_soft)
            digest = hashlib.sha256(repr(_results(cs)).encode()).hexdigest()
            out[f"{seed}/{max_soft}/{i}"] = digest[:12]
    return out


def test_solver_results_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = current_hashes()
    differ = sorted(k for k in golden.keys() | now.keys()
                    if golden.get(k, "<missing>") != now.get(k, "<missing>"))
    assert not differ, f"solver results differ from {GOLDEN.name} at: {differ}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_hashes(), indent=0) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
