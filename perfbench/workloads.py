"""Seeded inputs for the benchmark workloads and the reference each output
is checked against.

Every workload is a *pool* of items, built from the seed, that the
benchmark replays in blocks: each block is a seeded permutation of the
whole pool. A run therefore sees the same mix of sizes and faults on
every seed, and only names, literals, types and order change; that keeps
the share of slow items, and with it every throughput and percentile
figure, steady from one seed to the next.

The reference for an item is the set of declarations (section, name,
UCLID5 type) that a correct compile must emit. For the replay suite it is
a hand-written table read off the transcripts' final drafts; for the
generated workloads it is what the generator meant to declare. Nothing
here imports `uclgen`, so the reference cannot drift with the compiler.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

WORKLOADS = ("replay_suite", "scaled_clean", "typing_conflicts")

#: sizes of the scaled_clean families. Chains of 40 or more terms exhaust
#: the interpreter stack at the parent commit; 42 and 50 stay in the pool
#: so that defect shows up as failed items.
CHAIN_TERMS = (10, 18, 26, 34, 42, 50)
IF_DEPTHS = (10, 20, 30, 40, 50, 60)
TRAFFIC_COPIES = (1, 2, 4)

#: fault mixes of typing_conflicts, one item each per block. "dupN" declares
#: one name N times across sections with different types. N stops at 4 for
#: run length, not to hide the cliff: solving is already over ten times
#: slower at 4 than at 2, and at 5 one item takes seconds.
FAULT_MIXES = (
    ("literal",),
    ("undeclared",),
    ("dup2",),
    ("dup3",),
    ("dup4",),
    ("literal", "undeclared"),
    ("dup2", "literal"),
    ("dup3", "undeclared"),
    ("dup2", "literal", "undeclared"),
    ("literal", "literal", "undeclared"),
    ("dup4", "literal", "undeclared"),
    ("dup3", "literal", "undeclared", "literal"),
)

#: declarations of each replay task's final draft, as UCLID5 types
REPLAY_EXPECTED: dict[str, dict[str, dict[str, str]]] = {
    "traffic_light": {
        "vars": {"state": "integer", "count": "integer",
                 "pedestrian": "boolean"},
        "outputs": {"sigG": "boolean", "sigY": "boolean", "sigR": "boolean"},
    },
    "counter": {"vars": {"count": "integer"}},
    "toggle": {"vars": {"on": "boolean"}},
    "thermostat": {"vars": {"heating": "boolean"},
                   "inputs": {"temperature": "real"}},
    "saturating_counter": {"vars": {"count": "bv4"}},
    "mode_switch": {"vars": {"mode": "enum { AUTO, OFF, ON }"},
                    "inputs": {"button": "boolean"}},
    "memory": {"vars": {"cells": "[integer]integer", "addr": "integer"},
               "inputs": {"data": "integer"}},
    "parity": {"vars": {"odd": "boolean"}, "inputs": {"bit": "boolean"}},
    "timer": {"vars": {"remaining": "integer"}},
    "divider": {"vars": {"divisor": "integer", "quotient": "integer",
                         "remainder": "integer"}},
}

Decls = tuple[tuple[str, str, str], ...]  # sorted (section, name, type)


@dataclass(frozen=True)
class Item:
    """One benchmark input.

    The pipeline sees `task` and, through its backend, either the recorded
    transcript at `transcript` (strict replay) or `replies` in order.
    `key` is "family/size", the item's place on a scaling curve, or
    "replay/<task id>".
    """

    key: str
    task: str
    expected: Decls
    replies: tuple[str, ...] = ()
    transcript: str = ""


def _decls(table: dict[str, dict[str, str]]) -> Decls:
    return tuple(sorted(
        (section, name, ty)
        for section, names in table.items()
        for name, ty in names.items()
    ))


def _fence(code: str) -> str:
    return code.rstrip("\n") + "\n```\n"


# ---------------------------------------------------------------------------
# Module text helpers
# ---------------------------------------------------------------------------

#: module-language spelling, UCLID5 spelling, zero, one step
NUMERIC = {
    "int": ("int", "integer", "0", "1"),
    "real": ("real", "real", "0.0", "0.5"),
    "bv8": ("BitVector(8)", "bv8", "BV(0, 8)", "BV(1, 8)"),
}

WORDS = (
    "acc", "level", "tick", "phase", "load", "mark", "gauge", "total",
    "delta", "span", "depth", "pulse", "stock", "heat", "flow", "rate",
    "score", "stage", "slot", "limit",
)


def _module(name: str, sections: dict[str, list[str]]) -> str:
    out = [f"class {name}(Module):"]
    for method in ("types", "locals", "inputs", "outputs", "init", "next",
                   "specification"):
        lines = sections.get(method)
        if lines:
            out.append(f"    def {method}(self):")
            out.extend("        " + line for line in lines)
    return "\n".join(out) + "\n"


def _names(rng: random.Random, k: int) -> list[str]:
    return rng.sample(WORDS, k)


# ---------------------------------------------------------------------------
# replay_suite
# ---------------------------------------------------------------------------

def replay_pool(suite_file: Path) -> list[Item]:
    entries = json.loads(suite_file.read_text(encoding="utf-8"))
    ids = {e["id"] for e in entries}
    if ids != set(REPLAY_EXPECTED):
        raise ValueError(
            f"suite tasks {sorted(ids)} differ from the reference table "
            f"{sorted(REPLAY_EXPECTED)}"
        )
    return [
        Item(
            key=f"replay/{e['id']}",
            task=e["task"],
            expected=_decls(REPLAY_EXPECTED[e["id"]]),
            transcript=str(suite_file.parent / e["transcript"]),
        )
        for e in entries
    ]


# ---------------------------------------------------------------------------
# scaled_clean
# ---------------------------------------------------------------------------

def chain_item(rng: random.Random, n: int) -> Item:
    """`acc = a + 1 + b + ...` over integers: n terms, a third of them
    literals, in seeded order."""
    acc, a, b = _names(rng, 3)
    terms = [f"self.{(a, b)[i % 2]}" for i in range(n - n // 3)]
    terms += [str(rng.randrange(1, 10)) for _ in range(n // 3)]
    rng.shuffle(terms)
    code = _module("Chain", {
        "locals": [f"self.{v} = int" for v in (acc, a, b)],
        "init": [f"self.{v} = 0" for v in (acc, a, b)],
        "next": [f"self.{acc} = " + " + ".join(terms),
                 f"self.{a} = self.{a} + 1"],
    })
    return Item(
        key=f"chain/{n}", task=f"Sum a chain of {n} terms.",
        expected=_decls({"vars": {v: "integer" for v in (acc, a, b)}}),
        replies=(_fence(code),),
    )


def nest_item(rng: random.Random, d: int) -> Item:
    """d nested `if`s on an integer counter around one assignment."""
    ctr, hits, flag = _names(rng, 3)
    body = []
    for i in range(d):
        op = rng.choice(("<", ">", "<=", ">=", "!="))
        body.append("    " * i + f"if self.{ctr} {op} {rng.randrange(100)}:")
    body.append("    " * d + f"self.{hits} = self.{hits} + 1")
    body.append(f"self.{ctr} = self.{ctr} + 1")
    body.append(f"self.{flag} = self.{hits} > {rng.randrange(1, 10)}")
    code = _module("Nest", {
        "locals": [f"self.{ctr} = int", f"self.{hits} = int"],
        "outputs": [f"self.{flag} = bool"],
        "init": [f"self.{ctr} = 0", f"self.{hits} = 0",
                 f"self.{flag} = False"],
        "next": body,
        "specification": [f"return self.{hits} >= 0"],
    })
    return Item(
        key=f"depth/{d}", task=f"Count under {d} nested guards.",
        expected=_decls({
            "vars": {ctr: "integer", hits: "integer"},
            "outputs": {flag: "boolean"},
        }),
        replies=(_fence(code),),
    )


def _split_methods(code: str) -> dict[str, list[str]]:
    """Method name -> body lines (without the 8-space indent)."""
    out: dict[str, list[str]] = {}
    current = None
    for line in code.splitlines():
        head = re.match(r"    def (\w+)\(self\):$", line)
        if head:
            current = out.setdefault(head.group(1), [])
        elif current is not None and line.startswith("        "):
            current.append(line[8:])
    return out


def copies_item(rng: random.Random, k: int, draft: str) -> Item:
    """k renamed copies of a traffic-light draft merged into one module;
    each copy gets its own time limits."""
    base = REPLAY_EXPECTED["traffic_light"]
    methods = _split_methods(draft.split("```")[0])
    merged: dict[str, list[str]] = {}
    expected: dict[str, dict[str, str]] = {}
    for i in range(1, k + 1):
        limits = {"60": str(rng.randrange(20, 90)),
                  "5": str(rng.randrange(2, 9))}
        for method, lines in methods.items():
            for line in lines:
                line = re.sub(r"self\.(\w+)", rf"self.\1_{i}", line)
                line = re.sub(r"(?<=[<>=] )(60|5)\b",
                              lambda m: limits[m.group(1)], line)
                merged.setdefault(method, []).append(line)
        for section, names in base.items():
            expected.setdefault(section, {}).update(
                {f"{name}_{i}": ty for name, ty in names.items()}
            )
    code = _module("TrafficLights", merged)
    return Item(
        key=f"copies/{k}",
        task=f"Model {k} independent pedestrian-crossing traffic lights.",
        expected=_decls(expected), replies=(_fence(code),),
    )


def scaled_clean_pool(rng: random.Random, traffic_draft: str) -> list[Item]:
    return (
        [chain_item(rng, n) for n in CHAIN_TERMS]
        + [nest_item(rng, d) for d in IF_DEPTHS]
        + [copies_item(rng, k, traffic_draft) for k in TRAFFIC_COPIES]
    )


def traffic_light_draft(suite_file: Path) -> str:
    """The traffic-light transcript's second (well-typed) reply."""
    path = suite_file.parent / "traffic_light.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[1])["response"]


# ---------------------------------------------------------------------------
# typing_conflicts
# ---------------------------------------------------------------------------

_WRONG_LITERAL = {"integer": "True", "boolean": "3", "real": "False",
                  "bv8": "True"}
_OTHER_TYPES = ("int", "real", "BitVector(4)", "Enum(\"LO\", \"HI\")")


def conflict_item(rng: random.Random, faults: tuple[str, ...],
                  ty: str) -> Item:
    """A small well-typed module, and a draft of it with `faults` injected.

    The corrected module is the second reply, so whatever the first
    repair round leaves as holes, the final output must declare exactly
    what the corrected module declares. `ty` is the numeric type of one
    of its variables.
    """
    decl, uclid_ty, zero, step = NUMERIC[ty]
    ctr, val, flag, go, out_ = _names(rng, 5)
    extras = [f"{w}_x" for w in _names(rng, faults.count("undeclared"))]
    limit = rng.randrange(3, 40)

    def build(faulty: bool) -> str:
        locals_ = [f"self.{ctr} = int", f"self.{val} = {decl}",
                   f"self.{flag} = bool"]
        inputs = [f"self.{go} = bool"]
        outputs = [f"self.{out_} = bool"]
        init = [f"self.{ctr} = 0", f"self.{val} = {zero}",
                f"self.{flag} = False", f"self.{out_} = False"]
        nxt = [
            f"if self.{go}:",
            f"    self.{ctr} = self.{ctr} + 1",
            f"    self.{val} = self.{val} + {step}",
            f"self.{flag} = self.{ctr} > {limit}",
            f"self.{out_} = self.{flag} and self.{go}",
        ]
        for x in extras:
            if faulty:
                nxt.append(f"self.{ctr} = self.{ctr} + self.{x}")
            else:
                locals_.append(f"self.{x} = int")
                init.append(f"self.{x} = 1")
                nxt.append(f"self.{ctr} = self.{ctr} + self.{x}")
        if faulty:
            # wrong literals go into init, one variable each, in order
            targets = [(ctr, "integer"), (val, uclid_ty), (flag, "boolean")]
            for n_lit in range(faults.count("literal")):
                name, want = targets[n_lit]
                idx = next(i for i, s in enumerate(init)
                           if s.startswith(f"self.{name} ="))
                init[idx] = f"self.{name} = {_WRONG_LITERAL[want]}"
            for fault in faults:
                if fault.startswith("dup"):
                    others = _OTHER_TYPES[:int(fault[3:]) - 1]
                    homes = [inputs, outputs, locals_]
                    for j, other in enumerate(others):
                        homes[j % 3].append(f"self.{flag} = {other}")
        return _module("Draft" if faulty else "Fixed", {
            "locals": locals_, "inputs": inputs, "outputs": outputs,
            "init": init, "next": nxt,
            "specification": [f"return self.{ctr} >= 0"],
        })

    fixed = build(False)
    draft = build(True)
    expected = {
        "vars": {ctr: "integer", val: uclid_ty, flag: "boolean",
                 **{x: "integer" for x in extras}},
        "inputs": {go: "boolean"},
        "outputs": {out_: "boolean"},
    }
    dups = max([int(f[3:]) for f in faults if f.startswith("dup")] or [1])
    return Item(
        key=f"dups/{dups}",
        task="Count steps while enabled and raise a flag past a limit.",
        expected=_decls(expected),
        replies=(_fence(draft), _fence(fixed)),
    )


def typing_conflicts_pool(rng: random.Random) -> list[Item]:
    types = sorted(NUMERIC)
    return [conflict_item(rng, mix, types[i % len(types)])
            for i, mix in enumerate(FAULT_MIXES)]


# ---------------------------------------------------------------------------
# Pools and schedules
# ---------------------------------------------------------------------------

def pool(workload: str, seed: int, suite_file: Path) -> list[Item]:
    """The items of one block of `workload`, built from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "replay_suite":
        return replay_pool(suite_file)
    if workload == "scaled_clean":
        return scaled_clean_pool(rng, traffic_light_draft(suite_file))
    if workload == "typing_conflicts":
        return typing_conflicts_pool(rng)
    raise ValueError(f"unknown workload {workload!r}")


def blocks(workload: str, seed: int, n_items: int) -> Iterator[list[int]]:
    """Endless seeded permutations of range(n_items), one per block."""
    b = 0
    while True:
        order = list(range(n_items))
        random.Random(f"{workload}:{seed}:block{b}").shuffle(order)
        yield order
        b += 1
