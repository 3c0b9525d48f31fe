"""No stage changes a value object after building it.

The trees, spans, type terms, literals, clauses and diagnostics of
`ast_core`, `constraints` and `uclid_check` are plain slotted dataclasses,
not frozen ones, because a frozen dataclass's `__init__` writes each field
through `object.__setattr__` and that doubles the cost of building one.
Stages share subtrees and use these objects as dict and set keys, so a
write to a built one would change other trees and stored hashes. Here each
class's `__setattr__` refuses to set a field that is already set, and the
whole pipeline runs over recorded, hand-written and mutated drafts with
the same outputs as an unguarded run.
"""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

import uclgen
from corpus import INVALID_PROGRAMS, VALID_PROGRAMS, mutate
from uclgen import ast_core, constraints, uclid_check
from uclgen.ast_core import EnumType, VarRef
from uclgen.llm import MockBackend, ReplayBackend
from uclgen.pipeline import STATUS_SUCCESS, load_suite, run_pipeline

SUITE_PATH = Path(__file__).parent / "data" / "suite" / "suite.json"

#: every hashable dataclass these modules define; the mutable ones,
#: `ParentAst` and `ClauseSet`, have no hash
VALUE_CLASSES = [
    cls for mod in (ast_core, constraints, uclid_check)
    for cls in vars(mod).values()
    if isinstance(cls, type) and cls.__module__ == mod.__name__
    and dataclasses.is_dataclass(cls) and cls.__hash__ is not None
]

#: the one write to a field already set: `EnumType` sorts its tags
_SORT_TAGS = EnumType.__post_init__.__code__

MUTATED_DRAFTS = 300


def _guard(writes: list[str]):
    def __setattr__(self, name, value):
        try:
            getattr(self, name)
        except AttributeError:  # an empty slot: the constructor fills it
            pass
        else:
            if sys._getframe(1).f_code is not _SORT_TAGS:
                writes.append(f"{type(self).__name__}.{name}")
                raise AttributeError(f"{type(self).__name__}.{name} is set")
        object.__setattr__(self, name, value)

    return __setattr__


def _runs() -> list[tuple[str, object]]:
    """(task, backend factory) for every replay-suite task, every corpus
    program as the one reply, and mutated corpus programs as two."""
    runs = [(e["task"], lambda e=e: ReplayBackend(e["replay"]))
            for e in load_suite(SUITE_PATH)]
    sources = [*VALID_PROGRAMS.values(), *INVALID_PROGRAMS.values()]
    runs += [("Model it.", lambda s=s: MockBackend([s])) for s in sources]
    rng = random.Random(0)
    for i in range(MUTATED_DRAFTS):
        source = sources[i % len(sources)]
        replies = [mutate(rng, source), mutate(rng, source)]
        runs.append(("Model it.", lambda r=replies: MockBackend(r)))
    return runs


def _outcomes(runs) -> list[tuple]:
    out = []
    for task, backend in runs:
        o = run_pipeline(task, backend())
        out.append((o.status, o.uclid_text, o.program, o.iterations,
                    o.diagnostics))
    return out


def test_value_classes_are_slotted():
    names = {cls.__name__ for cls in VALUE_CLASSES}
    assert {"Span", "PNode", "Node", "TVar", "EnumType", "Lit", "Clause",
            "Diagnostic"} <= names
    # no instance dict: a field is the only thing a write can reach
    assert [c.__name__ for c in VALUE_CLASSES if c.__dictoffset__] == []


def test_no_stage_changes_a_built_node(monkeypatch):
    runs = _runs()
    expected = _outcomes(runs)
    assert sum(o[0] == STATUS_SUCCESS for o in expected) > len(runs) // 4
    writes: list[str] = []
    guard = _guard(writes)
    for cls in VALUE_CLASSES:
        monkeypatch.setattr(cls, "__setattr__", guard)
    got = _outcomes(runs)
    assert writes == []
    assert got == expected
    # the guard lets `EnumType` sort and refuses any other write
    assert EnumType(("b", "a")).tags == ("a", "b")
    v = VarRef("x")
    with pytest.raises(AttributeError):
        v.name = "y"
    assert writes == ["VarRef.name"] and v.name == "x"


def test_no_stage_writes_past_the_guard():
    # `object.__setattr__` would write a field without the class's
    # `__setattr__`, so no module of the package calls it
    for path in sorted(Path(uclgen.__file__).parent.glob("*.py")):
        assert "object.__setattr__(" not in path.read_text(encoding="utf-8"), \
            path.name
