#!/usr/bin/env python3
"""Print the solver's scaling curves.

The first table is drafts that declare one name k times: the benchmark's
`typing_conflicts` item (`conflict_item` in `perfbench/workloads.py`) with
k = 2 to 8 declarations of its flag; past the four other types the
benchmark draws from, it takes `BitVector(8)`, `BitVector(2)` and
`Array(int, bool)`. For each k it prints one line:

    k  solves  nodes  asserts  cores  core_size  solve_ms  pipeline_ms

`solves` counts satisfiability searches (`_Base.search` calls, as
`tests/test_maxsmt.py` counts them), `nodes` counts search nodes
(`_Theory` copies) and `asserts` counts `_Theory.assert_lit` calls, all
inside one `solve_maxsmt` of the draft's clauses, which `solve_ms` times.
`cores` counts the cores the hitting-set search branches on, one per
search inside `_solve_component` that fails, and `core_size` is their
mean number of soft clauses: those the failed search's explanation
names. `pipeline_ms` times `run_pipeline` on the item, whose second reply
is the corrected module.

The second table is two families of long `+` chains over integers: one
whose first term is `True` (50, 100, 200 and 300 terms), and one whose
second `+` is a `|` (10, 20, 40 and 80 terms), which makes both halves
bit-vectors against their `int` terms. For each it prints one line:

    family  terms  searches  nodes  cores  core_size  ms

counting as above over one `run_pipeline` call with one reply and no
second round, which `ms` times.

The third table is well-typed drafts of the benchmark's `scaled_clean`
workload: a 50-term `+` chain, 60 nested `if`s and 4 traffic-light
copies (`chain_item`, `nest_item` and `copies_item` in
`perfbench/workloads.py`). For each it prints one line:

    clean  size  searches  nodes  solve_ms

counting searches and nodes as above inside one `solve_maxsmt` of the
draft's clauses, which `solve_ms` times. A satisfiable clause set is
one search of the whole set, so `searches` is 1 on each line. Run it
with no arguments:

    python3 scripts/solver_curve.py
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from uclgen import maxsmt  # noqa: E402
from uclgen.constraints import generate_clauses  # noqa: E402
from uclgen.frontend import extract_code, parse_tolerant, prune_to_child  # noqa: E402
from uclgen.llm import MockBackend  # noqa: E402
from uclgen.pipeline import (  # noqa: E402
    STATUS_INTERNAL_ERROR,
    STATUS_SUCCESS,
    run_pipeline,
)

DUPLICATES = range(2, 9)
EXTRA_TYPES = ("BitVector(8)", "BitVector(2)", "Array(int, bool)")
CHAINS = (("first-term-wrong", (50, 100, 200, 300)),
          ("one-bar", (10, 20, 40, 80)))
SUITE = ROOT / "tests" / "data" / "suite" / "suite.json"
CLEAN = (
    ("chain", 50, workloads.chain_item),
    ("nest", 60, workloads.nest_item),
    ("copies", 4, lambda rng, k: workloads.copies_item(
        rng, k, workloads.traffic_light_draft(SUITE))),
)


def clauses_of(reply: str):
    return generate_clauses(
        prune_to_child(parse_tolerant(extract_code(reply)))[0])


def chain_draft(family: str, n: int) -> str:
    """A module whose next block sums n terms in one `+` chain, with the
    fault of `family`."""
    terms = [str(i % 9 + 1) if i % 3 == 2 else f"self.{'ab'[i % 2]}"
             for i in range(n)]
    ops = [" + "] * (n - 1)
    if family == "first-term-wrong":
        terms[0] = "True"
    else:
        ops[1] = " | "
    chain = terms[0] + "".join(op + t for op, t in zip(ops, terms[1:]))
    return (
        "class Chain(Module):\n"
        "    def locals(self):\n"
        "        self.acc = int\n        self.a = int\n        self.b = int\n"
        "    def init(self):\n"
        "        self.acc = 0\n        self.a = 0\n        self.b = 0\n"
        "    def next(self):\n"
        f"        self.acc = {chain}\n"
        "        self.a = self.a + 1\n"
        "```\n"
    )


def counting(counter: list[int], fn):
    def counted(*args):
        counter[0] += 1
        return fn(*args)
    return counted


def recording_cores(sizes: list[int]) -> None:
    """Append to `sizes` the soft clauses of each core the hitting-set
    search branches on: the explanation of each search inside
    `_solve_component` that fails."""
    solve_component, search = maxsmt._solve_component, maxsmt._Base.search
    inside = [False]

    def component(clauses):
        inside[0] = True
        try:
            return solve_component(clauses)
        finally:
            inside[0] = False

    def searched(base):
        found = search(base)
        if inside[0] and not isinstance(found, maxsmt._Theory):
            sizes.append(sum(not c.hard and c.index in found
                             for c in base.clauses))
        return found

    maxsmt._solve_component = component
    maxsmt._Base.search = searched


def core_columns(sizes: list[int]) -> str:
    mean = sum(sizes) / len(sizes) if sizes else 0.0
    return f"{len(sizes)}  {mean:.1f}"


def main() -> int:
    workloads._OTHER_TYPES += EXTRA_TYPES
    solves, nodes, asserts, sizes = [0], [0], [0], []
    recording_cores(sizes)
    maxsmt._Base.search = counting(solves, maxsmt._Base.search)
    maxsmt._Theory.copy = counting(nodes, maxsmt._Theory.copy)
    maxsmt._Theory.assert_lit = counting(asserts, maxsmt._Theory.assert_lit)
    print("k  solves  nodes  asserts  cores  core_size  solve_ms  pipeline_ms")
    for k in DUPLICATES:
        item = workloads.conflict_item(random.Random(k), (f"dup{k}",), "int")
        cs = clauses_of(item.replies[0])
        solves[0] = nodes[0] = asserts[0] = 0
        sizes.clear()
        t0 = time.perf_counter()
        maxsmt.solve_maxsmt(cs)
        solve_ms = (time.perf_counter() - t0) * 1000
        counts = solves[0], nodes[0], asserts[0], core_columns(sizes)
        t0 = time.perf_counter()
        outcome = run_pipeline(item.task, MockBackend(list(item.replies)))
        pipeline_ms = (time.perf_counter() - t0) * 1000
        if outcome.status != STATUS_SUCCESS:
            print(f"k={k}: run_pipeline ended as {outcome.status}",
                  file=sys.stderr)
            return 1
        print(f"{k}  {counts[0]}  {counts[1]}  {counts[2]}  {counts[3]}  "
              f"{solve_ms:.0f}  {pipeline_ms:.0f}")
    print()
    print("family  terms  searches  nodes  cores  core_size  ms")
    for family, terms in CHAINS:
        for n in terms:
            solves[0] = nodes[0] = 0
            sizes.clear()
            t0 = time.perf_counter()
            outcome = run_pipeline("Sum a chain.",
                                   MockBackend([chain_draft(family, n)]),
                                   max_llm_calls=1)
            ms = (time.perf_counter() - t0) * 1000
            if outcome.status == STATUS_INTERNAL_ERROR:
                print(f"{family} {n}: {outcome.diagnostics}", file=sys.stderr)
                return 1
            print(f"{family}  {n}  {solves[0]}  {nodes[0]}  "
                  f"{core_columns(sizes)}  {ms:.0f}")
    print()
    print("clean  size  searches  nodes  solve_ms")
    for name, size, make in CLEAN:
        cs = clauses_of(make(random.Random(0), size).replies[0])
        solves[0] = nodes[0] = 0
        t0 = time.perf_counter()
        res = maxsmt.solve_maxsmt(cs)
        solve_ms = (time.perf_counter() - t0) * 1000
        if res.falsified:
            print(f"{name} {size}: relaxed {res.falsified}", file=sys.stderr)
            return 1
        print(f"{name}  {size}  {solves[0]}  {nodes[0]}  {solve_ms:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
