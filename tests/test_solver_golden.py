"""Pinned solver outputs: a change that should leave every `solve_maxsmt`
and `check_sat` result as it is must leave `golden/solver.json` matching.

For each of about 2,000 `random_clause_set` sets the file holds two short
hashes. The first pins the optimum: `solve_maxsmt`'s falsified set and
cost, or the core it reports as `Untypeable`, and `check_sat`'s verdict
and core. The second pins the model and forced values of both. A mismatch
names the sets that differ, each hash apart, so a change that should move
no optimum shows it in the first list, and a change that is meant to move
a model or a forced value lists what it moved in the second.
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


def _results(cs) -> tuple[tuple, tuple]:
    """(optimum, values): the falsified set and cost or `Untypeable` core
    of `solve_maxsmt` and the verdict and core of `check_sat`; then the
    model and forced values of both."""
    try:
        res = solve_maxsmt(cs)
    except Untypeable as exc:
        optimum: list = [("untypeable", exc.core)]
        values: list = [[], []]
    else:
        optimum = [(res.falsified, res.cost)]
        values = [sorted(res.model.items()), sorted(res.forced.items())]
    try:
        sat = check_sat(cs.clauses)
    except Untypeable as exc:
        optimum.append((False, exc.core))
        values += [[], []]
    else:
        optimum.append((True, ()))
        values += [sorted(sat.model.items()), sorted(sat.forced.items())]
    return tuple(optimum), tuple(values)


def _short(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def current_hashes() -> dict[str, list[str]]:
    out = {}
    for seed, max_soft, count in SETS:
        rng = random.Random(seed)
        for i in range(count):
            cs = random_clause_set(rng, max_soft=max_soft)
            out[f"{seed}/{max_soft}/{i}"] = [_short(r) for r in _results(cs)]
    return out


def test_solver_results_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = current_hashes()
    assert golden.keys() == now.keys()
    differ = {part: sorted(k for k in now if golden[k][i] != now[k][i])
              for i, part in enumerate(("optimum", "model or forced"))}
    assert not any(differ.values()), \
        f"solver results differ from {GOLDEN.name}: {differ}"


if __name__ == "__main__":
    # one set a line, so a diff of the file lists the sets that moved
    lines = [f"{json.dumps(k)}: {json.dumps(v)}"
             for k, v in current_hashes().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
