"""Deterministic template-based mutational fuzzing of seed inputs.

Command strings contain typed holes (``{{ascii:1..8}}``, ``{{bytes:0..16}}``,
``{{int:0..255}}``, ``{{dict:a|b|c}}``); mutation operators are applied only
inside hole regions, so the literal skeleton of every command survives
fuzzing. All randomness flows from splitmix64 streams keyed by
(global seed, feature name, command index), which makes generation
bit-identical across runs and platforms and independent across commands.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice
from typing import TYPE_CHECKING

from .digest import sha256

if TYPE_CHECKING:  # spec_model parses templates with this module at import time
    from .spec_model import TestCommand

_U64 = (1 << 64) - 1

ASCII_LO = 0x20
ASCII_HI = 0x7E
MAX_HOLE_LEN = 1 << 20  # AFL's MAX_FILE; the most an ascii or bytes hole may hold

_ECHO_CHARS = 40  # the most of a hole's body that an error repeats
_MAX_OPS_PER_MUTANT = 3
_ARITH_STEPS = (1, 2, 4, 8, 16)


class TemplateSyntaxError(Exception):
    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"offset {offset}: {message}")


class BoundsError(Exception):
    """A seed value does not satisfy its hole's bounds."""


class HoleKind(enum.Enum):
    ASCII = "ascii"
    BYTES = "bytes"
    INT = "int"
    DICT = "dict"


@dataclass(frozen=True)
class Hole:
    kind: HoleKind
    min_len: int = 0  # value bounds for INT holes, length bounds otherwise
    max_len: int = 0
    words: tuple[str, ...] = ()


@dataclass(frozen=True)
class Literal:
    data: bytes


Token = Literal | Hole


@dataclass(frozen=True)
class Template:
    tokens: tuple[Token, ...]

    @property
    def holes(self) -> tuple[Hole, ...]:
        return tuple(t for t in self.tokens if isinstance(t, Hole))


class SplitMix64:
    """Portable 64-bit PRNG (splitmix64); deterministic across platforms."""

    def __init__(self, seed: int):
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]


def stream_seed(global_seed: int, feature_name: str, command_index: int) -> int:
    """Key an independent RNG stream; adding commands never perturbs others."""
    key = f"{global_seed & _U64}:{feature_name}:{command_index}".encode("utf-8")
    return int.from_bytes(sha256(key).digest()[:8], "little")


@dataclass(frozen=True)
class MutationPlan:
    seed: int = 0
    count: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")


# --- Template parsing --------------------------------------------------

def parse_template(s: str) -> Template:
    """Parse hole syntax; `{{{{`/`}}}}` produce literal double braces."""
    tokens: list[Token] = []
    literal: list[str] = []
    i = 0
    n = len(s)
    while i < n:
        if s.startswith("{{{{", i):
            literal.append("{{")
            i += 4
        elif s.startswith("}}}}", i):
            literal.append("}}")
            i += 4
        elif s.startswith("{{", i):
            end = s.find("}}", i + 2)
            if end < 0:
                raise TemplateSyntaxError(i, "unterminated hole (missing '}}')")
            if literal:
                tokens.append(Literal("".join(literal).encode("utf-8")))
                literal = []
            tokens.append(_parse_hole(s[i + 2 : end], i))
            i = end + 2
        else:
            literal.append(s[i])
            i += 1
    if literal:
        tokens.append(Literal("".join(literal).encode("utf-8")))
    if not tokens:
        tokens.append(Literal(b""))
    return Template(tuple(tokens))


def _clip(text: str) -> str:
    """text, cut to the most of a hole's body that an error repeats."""
    return text if len(text) <= _ECHO_CHARS else text[: _ECHO_CHARS - 3] + "..."


def _parse_hole(body: str, offset: int) -> Hole:
    kind_name, sep, rest = body.partition(":")
    try:
        kind = HoleKind(kind_name)
    except ValueError:
        raise TemplateSyntaxError(offset, f"unknown hole kind {_clip(kind_name)!r}") from None
    if not sep:
        raise TemplateSyntaxError(offset, "hole needs a ':' and a body")
    if kind is HoleKind.DICT:
        words = tuple(rest.split("|"))
        if not words or any(w == "" for w in words):
            raise TemplateSyntaxError(offset, "dict hole needs nonempty words")
        return Hole(kind, words=words)
    lo_s, sep, hi_s = rest.partition("..")
    if not sep or not lo_s or not hi_s:
        raise TemplateSyntaxError(offset, "expected 'min..max' bounds")
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        if all(bound.removeprefix("-").isdecimal() for bound in (lo_s, hi_s)):  # past int's digit limit
            raise TemplateSyntaxError(offset, f"a bound is too long ({max(len(lo_s), len(hi_s))} characters)") from None
        raise TemplateSyntaxError(offset, f"bounds must be integers, got {_clip(rest)!r}") from None
    if kind is not HoleKind.INT and (lo < 0 or hi > MAX_HOLE_LEN):
        raise TemplateSyntaxError(offset, f"length bounds must lie in 0..{MAX_HOLE_LEN}")
    if lo > hi:
        raise TemplateSyntaxError(offset, "min bound exceeds max bound")
    return Hole(kind, lo, hi)


# --- Seed values and rendering -----------------------------------------

def default_seed_values(template: Template) -> list[bytes]:
    """A canonical in-bounds instantiation for every hole."""
    values = []
    for hole in template.holes:
        if hole.kind is HoleKind.DICT:
            values.append(hole.words[0].encode("utf-8"))
        elif hole.kind is HoleKind.INT:
            values.append(str(hole.min_len).encode("ascii"))
        elif hole.kind is HoleKind.ASCII:
            values.append(b"a" * hole.min_len)
        else:
            values.append(b"\x00" * hole.min_len)
    return values


def check_bounds(template: Template, values: list[bytes]) -> None:
    holes = template.holes
    if len(values) != len(holes):
        raise BoundsError(f"expected {len(holes)} hole values, got {len(values)}")
    for idx, (hole, value) in enumerate(zip(holes, values)):
        if re.fullmatch(_hole_pattern(hole), value) is None:
            raise BoundsError(f"hole {idx}: {value[:40]!r} is not a text its {hole.kind.value} hole may hold")
        if hole.kind is HoleKind.INT and not hole.min_len <= int(value) <= hole.max_len:
            raise BoundsError(f"hole {idx}: {int(value)} outside {hole.min_len}..{hole.max_len}")


def _hole_pattern(hole: Hole) -> bytes:
    """The one statement of the text a hole may hold: a dict hole one of its
    words, an int hole ASCII digits, no more than its bounds have, signed only
    if its minimum is negative, and an ascii or bytes hole min..max printable
    or arbitrary bytes. An int hole's range is checked on its number."""
    if hole.kind is HoleKind.DICT:
        return b"(?:" + b"|".join(re.escape(w.encode("utf-8")) for w in hole.words) + b")"
    if hole.kind is HoleKind.INT:
        digits = max(len(str(abs(hole.min_len))), len(str(abs(hole.max_len))))
        return (b"-?" if hole.min_len < 0 else b"") + b"[0-9]{1,%d}" % digits
    byte = b"[\\x%02x-\\x%02x]" % (ASCII_LO, ASCII_HI) if hole.kind is HoleKind.ASCII else b"(?s:.)"
    return byte + b"{%d,%d}" % (hole.min_len, hole.max_len)


def render(template: Template, values: Iterable[bytes]) -> bytes:
    out = []
    it = iter(values)
    for token in template.tokens:
        out.append(token.data if isinstance(token, Literal) else next(it))
    return b"".join(out)


# --- Mutation ----------------------------------------------------------

def _mutable_ops(hole: Hole) -> tuple[str, ...]:
    if hole.kind is HoleKind.DICT:
        return ("dict_substitute",) if len(hole.words) > 1 else ()
    if hole.kind is HoleKind.INT:
        return ("arith_step",)
    return ("bitflip", "byteflip", "insert", "delete")


def _rand_byte(rng: SplitMix64, hole: Hole) -> int:
    if hole.kind is HoleKind.ASCII:
        return ASCII_LO + rng.below(ASCII_HI - ASCII_LO + 1)
    return rng.below(256)


def _mutate_value(rng: SplitMix64, hole: Hole, value: bytes, op: str) -> bytes:
    if op == "dict_substitute":
        others = [w for w in hole.words if w.encode("utf-8") != value]
        return rng.choice(others).encode("utf-8") if others else value
    if op == "arith_step":
        number = int(value)
        step = rng.choice(_ARITH_STEPS)
        if rng.below(2):
            step = -step
        number = min(max(number + step, hole.min_len), hole.max_len)
        return str(number).encode("ascii")
    if op == "bitflip":
        if not value:
            return value
        pos = rng.below(len(value))
        flipped = value[pos] ^ (1 << rng.below(8))
        if hole.kind is HoleKind.ASCII:
            flipped = ASCII_LO + (flipped % (ASCII_HI - ASCII_LO + 1))
        return value[:pos] + bytes([flipped]) + value[pos + 1 :]
    if op == "byteflip":
        if not value:
            return value
        pos = rng.below(len(value))
        return value[:pos] + bytes([_rand_byte(rng, hole)]) + value[pos + 1 :]
    if op == "insert":
        if len(value) >= hole.max_len:
            return value
        pos = rng.below(len(value) + 1)
        return value[:pos] + bytes([_rand_byte(rng, hole)]) + value[pos:]
    if op == "delete":
        if len(value) <= hole.min_len or not value:
            return value
        pos = rng.below(len(value))
        return value[:pos] + value[pos + 1 :]
    raise ValueError(f"unknown operator {op!r}")


def _mutants(seed: int, holes: tuple[Hole, ...], seed_values: list[bytes]) -> Iterator[list[bytes]]:
    """Each mutant's hole values, without end: the seed values with 1-3 operators, each
    on a mutable hole picked uniformly, with one of its operators picked uniformly."""
    rng = SplitMix64(seed)
    ops = [_mutable_ops(h) for h in holes]
    candidates = [i for i, hole_ops in enumerate(ops) if hole_ops]
    while True:
        values = list(seed_values)
        for _ in range(1 + rng.below(_MAX_OPS_PER_MUTANT) if candidates else 0):
            idx = rng.choice(candidates)
            values[idx] = _mutate_value(rng, holes[idx], values[idx], rng.choice(ops[idx]))
        yield values


def generate(template: Template, seed_values: list[bytes], plan: MutationPlan) -> list[bytes]:
    """Produce exactly plan.count mutants of the instantiated template.

    A pure function of (template, seed_values, plan.seed): calling twice
    returns identical lists. Literal regions are never touched.
    """
    check_bounds(template, seed_values)
    stream = _mutants(plan.seed, template.holes, seed_values)
    return [render(template, values) for values in islice(stream, plan.count)]


def matches_skeleton(template: Template, data: bytes) -> bool:
    """True iff data re-parses against the template's literal skeleton."""
    parts = (re.escape(t.data) if isinstance(t, Literal) else _hole_pattern(t) for t in template.tokens)
    return re.fullmatch(b"".join(parts), data) is not None


# --- Command derivation ------------------------------------------------

@dataclass(frozen=True)
class DerivedInput:
    argv: tuple[str, ...]
    stdin: bytes
    is_fuzzed: bool
    mutant_index: int  # 0 is the seed input


def derive_commands(
    cmd: TestCommand,
    plan: MutationPlan,
    feature_name: str = "",
    command_index: int = 0,
    limit: int | None = None,
) -> list[DerivedInput]:
    """Seed input first, then cmd.fuzz_count mutated inputs.

    Holes may appear in any argv element and in stdin; each mutant mutates
    the command as a whole so cross-argument holes share one RNG stream.
    limit, if given, builds only the first limit inputs (the seed counts);
    the stream is sequential, so they are the same whatever the limit.
    """
    argv_count = len(cmd.argv_template)
    templates = [parse_template(a) for a in cmd.argv_template]
    if cmd.stdin is not None:
        templates.append(parse_template(cmd.stdin))
    # Every hole of the command in one flat list: argv holes, then stdin's.
    holes = tuple(h for t in templates for h in t.holes)
    seed_values = [v for t in templates for v in default_seed_values(t)]

    def materialize(values: list[bytes], index: int) -> DerivedInput:
        it = iter(values)  # each render takes one value per hole of its template
        rendered = [render(t, it) for t in templates]
        argv = tuple(r.decode("utf-8", "surrogateescape") for r in rendered[:argv_count])
        stdin = rendered[-1] if cmd.stdin is not None else b""
        return DerivedInput(argv, stdin, index > 0, index)

    count = cmd.fuzz_count + 1 if limit is None else min(limit, cmd.fuzz_count + 1)
    seed = stream_seed(plan.seed, feature_name, command_index)
    inputs = chain([seed_values], _mutants(seed, holes, seed_values))
    return [materialize(values, index) for index, values in enumerate(islice(inputs, count))]
