"""Hand-written module-language corpus shared by several test suites.

``VALID_PROGRAMS`` are hole-free sources that should compile and print to
verifier text the independent checker accepts.  ``INVALID_PROGRAMS`` contain
type errors that both the compiler and the checker must reject.
``fuzz_inputs`` yields the frontend fuzz inputs of acceptance criterion 8,
and ``mutate`` makes the character edits its mutated inputs carry.
``transcript_replies`` yields the code of every recorded LLM reply.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Iterator

from uclgen.frontend import ExtractError, extract_code

SUITE_DIR = Path(__file__).parent / "data" / "suite"

VALID_PROGRAMS: dict[str, str] = {
    "counter": '''
class Counter(Module):
    def locals(self):
        self.count = int
    def init(self):
        self.count = 0
    def next(self):
        self.count = self.count + 1
    def specification(self):
        return self.count >= 0
''',
    "toggle": '''
class Toggle(Module):
    def locals(self):
        self.on = bool
    def init(self):
        self.on = False
    def next(self):
        self.on = not self.on
''',
    "accumulator": '''
class Accumulator(Module):
    def locals(self):
        self.total = real
        self.rate = real
    def init(self):
        self.total = 0.0
        self.rate = 0.5
    def next(self):
        self.total = self.total + self.rate
''',
    "bv_counter": '''
class BvCounter(Module):
    def locals(self):
        self.count = BitVector(4)
    def init(self):
        self.count = BV(0, 4)
    def next(self):
        self.count = self.count + BV(1, 4)
    def specification(self):
        return self.count != BV(15, 4)
''',
    "bv_mask": '''
class BvMask(Module):
    def locals(self):
        self.value = BitVector(8)
        self.mask = BitVector(8)
    def init(self):
        self.value = BV(255, 8)
        self.mask = BV(15, 8)
    def next(self):
        self.value = self.value & self.mask
''',
    "mode_machine": '''
class ModeMachine(Module):
    def locals(self):
        self.mode = Enum("OFF", "ON")
    def init(self):
        self.mode = "OFF"
    def next(self):
        if self.mode == "OFF":
            self.mode = "ON"
        else:
            self.mode = "OFF"
''',
    "synonym": '''
class Synonym(Module):
    def types(self):
        self.word_t = BitVector(8)
    def locals(self):
        self.word = self.word_t
    def init(self):
        self.word = BV(0, 8)
    def next(self):
        self.word = self.word | BV(1, 8)
''',
    "gated_counter": '''
class GatedCounter(Module):
    def inputs(self):
        self.enable = bool
    def locals(self):
        self.count = int
    def init(self):
        self.count = 0
    def next(self):
        if self.enable:
            self.count = self.count + 1
''',
    "timer": '''
class Timer(Module):
    def locals(self):
        self.remaining = int
    def init(self):
        self.remaining = 10
    def next(self):
        havoc(self.remaining)
        assume(self.remaining >= 0)
''',
    "checked": '''
class Checked(Module):
    def locals(self):
        self.level = int
    def init(self):
        self.level = 5
    def next(self):
        self.level = self.level - 1
        assert self.level < 5
''',
    "ite_pick": '''
class ItePick(Module):
    def locals(self):
        self.best = int
        self.a = int
        self.b = int
    def init(self):
        self.a = 1
        self.b = 2
        self.best = 0
    def next(self):
        self.best = self.a if self.a > self.b else self.b
''',
    "ladder": '''
class Ladder(Module):
    def locals(self):
        self.phase = int
    def init(self):
        self.phase = 0
    def next(self):
        if self.phase == 0:
            self.phase = 1
        elif self.phase == 1:
            self.phase = 2
        elif self.phase == 2:
            self.phase = 3
        else:
            self.phase = 0
''',
    "parity": '''
class Parity(Module):
    def inputs(self):
        self.bit = bool
    def locals(self):
        self.odd = bool
    def init(self):
        self.odd = False
    def next(self):
        self.odd = self.odd ^ self.bit
''',
    "shifter": '''
class Shifter(Module):
    def locals(self):
        self.word = BitVector(8)
    def init(self):
        self.word = BV(1, 8)
    def next(self):
        self.word = (self.word << BV(1, 8)) | (self.word >> BV(7, 8))
''',
    "divider": '''
class Divider(Module):
    def locals(self):
        self.quotient = int
        self.remainder = int
        self.value = int
    def init(self):
        self.value = 17
        self.quotient = 0
        self.remainder = 0
    def next(self):
        self.quotient = self.value // 5
        self.remainder = self.value % 5
''',
    "two_invariants": '''
class TwoInvariants(Module):
    def locals(self):
        self.x = int
        self.y = int
    def init(self):
        self.x = 0
        self.y = 0
    def next(self):
        self.x = self.x + 1
        self.y = self.y + self.x
    def specification(self):
        return self.x >= 0
        return self.y >= self.x or self.x == 0
''',
    "no_init": '''
class NoInit(Module):
    def locals(self):
        self.x = int
    def next(self):
        self.x = self.x * 2
''',
    "output_only": '''
class OutputOnly(Module):
    def outputs(self):
        self.beat = bool
    def init(self):
        self.beat = False
    def next(self):
        self.beat = not self.beat
''',
    "value_decls": '''
class ValueDecls(Module):
    def locals(self):
        self.count = 0
        self.armed = False
    def init(self):
        self.count = 0
        self.armed = True
    def next(self):
        self.count = self.count + 1
        self.armed = self.armed and self.count < 100
''',
    "negate": '''
class Negate(Module):
    def locals(self):
        self.x = int
    def init(self):
        self.x = -3
    def next(self):
        self.x = -self.x
''',
    "thermostat": '''
class Thermostat(Module):
    def inputs(self):
        self.ambient = real
    def locals(self):
        self.heater = bool
    def init(self):
        self.heater = False
    def next(self):
        self.heater = True if self.ambient < 18.5 else False
''',
    "three_way": '''
class ThreeWay(Module):
    def locals(self):
        self.gear = Enum("LOW", "MID", "HIGH")
        self.speed = int
    def init(self):
        self.gear = "LOW"
        self.speed = 0
    def next(self):
        if self.speed < 10:
            self.gear = "LOW"
        elif self.speed < 30:
            self.gear = "MID"
        else:
            self.gear = "HIGH"
        self.speed = self.speed + 1
''',
    "flag_array": '''
class FlagArray(Module):
    def locals(self):
        self.flags = Array(int, bool)
        self.cursor = int
    def init(self):
        self.cursor = 0
    def next(self):
        self.flags[self.cursor] = True
        self.cursor = self.cursor + 1
''',
    "memory": '''
class Memory(Module):
    def inputs(self):
        self.data = int
    def locals(self):
        self.cells = Array(int, int)
        self.head = int
    def init(self):
        self.head = 0
    def next(self):
        self.cells[self.head] = self.data
        self.head = self.head + 1
    def specification(self):
        return self.head >= 0
''',
    "enum_and_bv": '''
class EnumAndBv(Module):
    def locals(self):
        self.lane = Enum("A", "B")
        self.tag = BitVector(2)
    def init(self):
        self.lane = "A"
        self.tag = BV(0, 2)
    def next(self):
        if self.lane == "A" and self.tag == BV(0, 2):
            self.lane = "B"
            self.tag = BV(1, 2)
''',
    "augmented": '''
class Augmented(Module):
    def locals(self):
        self.total = int
    def init(self):
        self.total = 0
    def next(self):
        self.total += 2
''',
    "implication": '''
class Implication(Module):
    def locals(self):
        self.req = bool
        self.ack = bool
    def init(self):
        self.req = False
        self.ack = False
    def next(self):
        self.ack = self.req
        self.req = not self.req
    def specification(self):
        return not self.ack or self.req or not self.req
''',
    "idle": '''
class Idle(Module):
    def locals(self):
        self.seed = int
    def init(self):
        self.seed = 42
    def next(self):
        pass
''',
    "copy_array": '''
class CopyArray(Module):
    def locals(self):
        self.src = Array(int, int)
        self.dst = Array(int, int)
        self.i = int
    def init(self):
        self.i = 0
    def next(self):
        self.dst[self.i] = self.src[self.i]
        self.i = self.i + 1
''',
    "mixed_io": '''
class MixedIo(Module):
    def types(self):
        self.addr_t = BitVector(4)
    def inputs(self):
        self.request = int
    def outputs(self):
        self.granted = bool
    def locals(self):
        self.slot = self.addr_t
    def init(self):
        self.granted = False
        self.slot = BV(0, 4)
    def next(self):
        self.granted = self.request > 0
        self.slot = self.slot + BV(1, 4)
''',
}


INVALID_PROGRAMS: dict[str, str] = {
    "int_to_bool": '''
class M(Module):
    def locals(self):
        self.flag = bool
    def init(self):
        self.flag = 1
''',
    "bool_to_int": '''
class M(Module):
    def locals(self):
        self.count = int
    def init(self):
        self.count = True
''',
    "int_condition": '''
class M(Module):
    def locals(self):
        self.n = int
    def init(self):
        self.n = 0
    def next(self):
        if self.n:
            self.n = 0
''',
    "and_on_ints": '''
class M(Module):
    def locals(self):
        self.a = int
        self.b = bool
    def init(self):
        self.a = 1
    def next(self):
        self.b = self.a and self.a
''',
    "plus_on_bools": '''
class M(Module):
    def locals(self):
        self.p = bool
        self.q = bool
    def init(self):
        self.p = True
    def next(self):
        self.q = self.p + self.p
''',
    "div_on_bool": '''
class M(Module):
    def locals(self):
        self.p = bool
    def init(self):
        self.p = True
    def next(self):
        self.p = self.p // self.p
''',
    "mod_on_real": '''
class M(Module):
    def locals(self):
        self.r = real
    def init(self):
        self.r = 1.5
    def next(self):
        self.r = self.r % 2.0
''',
    "bv_width_mismatch": '''
class M(Module):
    def locals(self):
        self.narrow = BitVector(4)
        self.wide = BitVector(8)
    def init(self):
        self.narrow = BV(0, 4)
        self.wide = BV(0, 8)
    def next(self):
        self.narrow = self.wide
''',
    "int_literal_to_bv": '''
class M(Module):
    def locals(self):
        self.word = BitVector(4)
    def init(self):
        self.word = 5
''',
    "bv_plus_int": '''
class M(Module):
    def locals(self):
        self.word = BitVector(4)
    def init(self):
        self.word = BV(0, 4)
    def next(self):
        self.word = self.word + 1
''',
    "mixed_comparison": '''
class M(Module):
    def locals(self):
        self.n = int
        self.p = bool
    def init(self):
        self.n = 0
        self.p = False
    def next(self):
        self.p = self.n < self.p
''',
    "duplicate_decl": '''
class M(Module):
    def locals(self):
        self.x = int
        self.x = bool
    def init(self):
        self.x = 0
''',
    "input_write": '''
class M(Module):
    def inputs(self):
        self.sensor = int
    def locals(self):
        self.shadow = int
    def init(self):
        self.shadow = 0
    def next(self):
        self.sensor = self.shadow
''',
    "undeclared_use": '''
class M(Module):
    def locals(self):
        self.x = int
    def init(self):
        self.x = 0
    def next(self):
        self.x = self.ghost
''',
    "unknown_tag": '''
class M(Module):
    def locals(self):
        self.mode = Enum("A", "B")
    def init(self):
        self.mode = "C"
''',
    "tag_to_int": '''
class M(Module):
    def locals(self):
        self.n = int
    def init(self):
        self.n = "GREEN"
''',
    "select_on_int": '''
class M(Module):
    def locals(self):
        self.n = int
        self.out = int
    def init(self):
        self.n = 0
        self.out = 0
    def next(self):
        self.out = self.n[0]
''',
    "bad_index": '''
class M(Module):
    def locals(self):
        self.table = Array(int, int)
        self.out = int
    def init(self):
        self.out = 0
    def next(self):
        self.out = self.table[True]
''',
    "bad_element": '''
class M(Module):
    def locals(self):
        self.table = Array(int, bool)
        self.out = int
    def init(self):
        self.out = 0
    def next(self):
        self.out = self.table[0]
''',
    "assert_non_bool": '''
class M(Module):
    def locals(self):
        self.n = int
    def init(self):
        self.n = 0
    def next(self):
        assert self.n + 1
''',
    "assume_non_bool": '''
class M(Module):
    def locals(self):
        self.n = int
    def init(self):
        self.n = 0
    def next(self):
        havoc(self.n)
        assume(self.n + 2)
''',
    "int_invariant": '''
class M(Module):
    def locals(self):
        self.n = int
    def init(self):
        self.n = 0
    def specification(self):
        return self.n
''',
    "ite_branch_mismatch": '''
class M(Module):
    def locals(self):
        self.n = int
        self.p = bool
    def init(self):
        self.n = 0
        self.p = True
    def next(self):
        self.n = 1 if self.p else True
''',
    "ite_int_condition": '''
class M(Module):
    def locals(self):
        self.n = int
    def init(self):
        self.n = 0
    def next(self):
        self.n = 1 if self.n else 2
''',
    "xor_on_ints": '''
class M(Module):
    def locals(self):
        self.n = int
    def init(self):
        self.n = 0
    def next(self):
        self.n = self.n ^ self.n
''',
    "shift_on_int": '''
class M(Module):
    def locals(self):
        self.n = int
    def init(self):
        self.n = 1
    def next(self):
        self.n = self.n << self.n
''',
    "real_to_int": '''
class M(Module):
    def locals(self):
        self.n = int
    def init(self):
        self.n = 2.5
''',
    "synonym_mismatch": '''
class M(Module):
    def types(self):
        self.flag_t = bool
    def locals(self):
        self.f = self.flag_t
    def init(self):
        self.f = 5
''',
}


FUZZ_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789"
    " \t\n\"'#().:=<>+-*/%&|^?!,[]{}@\\é世\U0001f600"
)


def fuzz_inputs(count: int = 10_000, seed: int = 0xF00D) -> Iterator[str]:
    """Seeded fuzz inputs, in turn random text over `FUZZ_ALPHABET` and a
    valid program with 1-10 characters replaced, inserted or deleted."""
    rng = random.Random(seed)
    sources = [VALID_PROGRAMS[k] for k in sorted(VALID_PROGRAMS)]

    def random_text() -> str:
        return "".join(
            rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(0, 300))
        )

    for i in range(count):
        yield random_text() if i % 2 == 0 else mutate(rng, rng.choice(sources))


def mutate(rng: random.Random, text: str) -> str:
    """`text` with 1-10 characters replaced, inserted or deleted."""
    src = list(text)
    for _ in range(rng.randint(1, 10)):
        pos = rng.randrange(max(1, len(src)))
        roll = rng.random()
        if roll < 0.4 and src:
            src[pos % len(src)] = rng.choice(FUZZ_ALPHABET)
        elif roll < 0.7:
            src.insert(pos, rng.choice(FUZZ_ALPHABET))
        elif src:
            del src[pos % len(src)]
    return "".join(src)


def transcript_replies() -> Iterator[tuple[str, str]]:
    """(name, code) for each recorded reply whose code can be extracted."""
    for path in sorted(SUITE_DIR.glob("*.jsonl")):
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            try:
                yield f"{path.stem}/{i}", extract_code(json.loads(line)["response"])
            except ExtractError:
                continue
