"""Code-reuse gadget discovery and the four derived security metrics.

A gadget is a contiguous instruction sequence of bounded length ending in a
control-transfer (ret, indirect jmp/call, syscall/int 0x80). From a set of
gadgets we derive: expressivity (how many of 11 functionality classes the
set covers), mean quality (side-constraint penalty per gadget, lower is
better for the attacker), special-purpose type availability (10 scaffolding
gadget types), and locality (fraction of a variant's gadgets unchanged in
address and bytes relative to the original).

The scan computes each gadget's classes, quality and special types once, as
it finds the gadget, and stores them in the gadget's record; the set-level
metrics only combine those facts.

The expressivity class table, special-purpose patterns, and constraint
taxonomy are this implementation's own; deltas are comparable only between
reports produced by it.
"""

from __future__ import annotations

import bisect
import enum
import functools
import re
import statistics
from dataclasses import dataclass
from typing import NamedTuple

from . import elf
from .spec_model import BinaryRef
from .x86 import CALL_INDIRECT, JMP_INDIRECT, RET, SYSCALL, DecodedInstruction, decode

MAX_GADGET_LEN = 10  # instructions, terminator included
_MAX_INSTR_BYTES = 15

MINOR_CONSTRAINT = 0.5
MAJOR_CONSTRAINT = 3.0

EXPRESSIVITY_CLASSES = (
    "load_reg_const",
    "move_reg_reg",
    "arithmetic_add",
    "arithmetic_sub",
    "logic",
    "memory_read",
    "memory_write",
    "compare_flags",
    "conditional_control",
    "stack_lift",
    "syscall_invoke",
)

SPECIAL_TYPES = (
    "syscall",
    "jop_dispatcher",
    "jop_dataloader",
    "jop_initializer",
    "jop_trampoline",
    "cop_dispatcher",
    "cop_dataloader",
    "cop_initializer",
    "cop_trampoline",
    "stack_pivot",
)

_CLASS_BIT = {name: 1 << i for i, name in enumerate(EXPRESSIVITY_CLASSES)}
_SPECIAL_BIT = {name: 1 << i for i, name in enumerate(SPECIAL_TYPES)}


def _mask(names: set[str], bits: dict[str, int]) -> int:
    mask = 0
    for name in names:
        mask |= bits[name]
    return mask


def _names(mask: int, table: tuple[str, ...]) -> set[str]:
    return {name for i, name in enumerate(table) if mask >> i & 1}


class SyscallEvent(enum.Enum):
    NONE = "none"
    ELIMINATED = "eliminated"
    INTRODUCED = "introduced"


@dataclass(frozen=True)
class CodeRegion:
    base_address: int
    data: bytes
    source_label: str

    def __post_init__(self):
        if not self.data:
            raise ValueError("code region must be nonempty")


class Gadget(NamedTuple):
    """One gadget and the facts the metrics need, computed by the scan.

    Two gadgets are equal only if address, bytes and region-relative start
    are equal; the other fields follow from the bytes. The instructions are
    decoded again from ``raw_bytes`` when asked for.
    """

    address: int
    raw_bytes: bytes
    start: int           # offset of the first byte within its code region
    terminator: str
    class_mask: int      # bit i set: satisfies EXPRESSIVITY_CLASSES[i]
    quality: float       # side-constraint penalty, see score_quality
    special_mask: int    # bit i set: is of type SPECIAL_TYPES[i]

    @property
    def instructions(self) -> tuple[DecodedInstruction, ...]:
        """The decoded instructions, offsets relative to the code region."""
        out = []
        off = 0
        while off < len(self.raw_bytes):
            ins = decode(self.raw_bytes, off)
            out.append(ins._replace(offset=self.start + off))
            off += ins.length
        return tuple(out)

    def text(self) -> str:
        return "; ".join(ins.text for ins in self.instructions)


@dataclass(frozen=True)
class ExpressivityProfile:
    satisfied: frozenset[str]
    count: int

    def __post_init__(self):
        if self.count != len(self.satisfied):
            raise ValueError("count must equal |satisfied|")


@dataclass(frozen=True)
class GadgetSetReport:
    gadgets: frozenset[Gadget]
    expressivity: ExpressivityProfile
    mean_quality: float
    special_types: frozenset[str]
    syscall_gadget_count: int


@dataclass(frozen=True)
class SecurityDelta:
    expressivity_delta: int
    quality_delta: float
    sp_types_delta: int
    syscall_event: SyscallEvent
    quality_significant: bool


# --- Per-instruction facts ---------------------------------------------
#
# These helpers are the one definition of classes, constraints and special
# types; the scan folds them over each gadget's instructions.

def _instruction_classes(ins: DecodedInstruction, is_terminator: bool) -> set[str]:
    classes: set[str] = set()
    if is_terminator:
        if ins.terminator == SYSCALL:
            classes.add("syscall_invoke")
        if ins.terminator == RET and ins.imm:
            classes.add("stack_lift")
        return classes
    if ins.is_cond_branch:
        classes.add("conditional_control")
    if ins.mnemonic == "pop" and ins.dest is not None:
        classes.add("load_reg_const")
    if ins.mnemonic == "mov" and ins.dest is not None and ins.imm is not None:
        classes.add("load_reg_const")
    if ins.mnemonic in ("mov", "xchg") and ins.dest is not None and ins.src is not None:
        classes.add("move_reg_reg")
    if ins.mnemonic in ("add", "inc"):
        if ins.dest == "rsp" and ins.imm is not None:
            classes.add("stack_lift")
        else:
            classes.add("arithmetic_add")
    if ins.mnemonic in ("sub", "dec"):
        classes.add("arithmetic_sub")
    if ins.mnemonic in ("and", "or", "xor"):
        classes.add("logic")
    if ins.reads_mem and ins.dest is not None:
        classes.add("memory_read")
    if ins.writes_mem:
        classes.add("memory_write")
    if ins.mnemonic in ("cmp", "test"):
        classes.add("compare_flags")
    return classes


def _is_major(ins: DecodedInstruction) -> bool:
    # Stack-pointer modification, memory writes, and mid-gadget conditional
    # branches impose hard side constraints on chaining.
    if ins.dest == "rsp":
        return True
    if ins.mnemonic == "pop" and ins.dest == "rsp":
        return True
    if ins.writes_mem:
        return True
    if ins.is_cond_branch:
        return True
    return False


def _terminator_special_types(term: DecodedInstruction, bare: bool) -> set[str]:
    """Types a gadget has by its terminator; bare: nothing precedes it."""
    types: set[str] = set()
    if term.terminator == SYSCALL:
        types.add("syscall")
    if term.terminator in (JMP_INDIRECT, CALL_INDIRECT) and term.branch_mem and bare:
        types.add("jop_trampoline" if term.terminator == JMP_INDIRECT else "cop_trampoline")
    return types


def _body_special_types(ins: DecodedInstruction, term: DecodedInstruction) -> set[str]:
    """Types one body instruction gives a gadget that ends in term."""
    types: set[str] = set()
    if term.terminator == RET:
        pivots_sp = ins.dest == "rsp" and ins.mnemonic in ("mov", "xchg", "pop", "leave")
        if pivots_sp or (ins.mnemonic == "xchg" and ins.src == "rsp"):
            types.add("stack_pivot")
    elif term.terminator in (JMP_INDIRECT, CALL_INDIRECT):
        prefix = "jop" if term.terminator == JMP_INDIRECT else "cop"
        target = term.branch_reg or term.mem_base
        if ins.mnemonic in ("add", "sub", "inc", "dec") and ins.dest == target:
            types.add(f"{prefix}_dispatcher")
        if ins.mnemonic == "pop":
            types.add(f"{prefix}_dataloader")
        if ins.mnemonic in ("mov", "movzx", "movsx", "lea") and ins.dest == target:
            types.add(f"{prefix}_initializer")
    return types


# --- Discovery ---------------------------------------------------------

def scan_gadgets(region: CodeRegion) -> frozenset[Gadget]:
    """All gadgets in the region, one per start address.

    A start address yields the gadget that ends at the first terminator
    its decode chain reaches within MAX_GADGET_LEN instructions. The scan
    is one downward sweep over the region that decodes each offset at most
    once; each gadget's facts are folded in as it is found. The result is
    cached per (base address, bytes), so a library shared by the original
    and its variants is scanned once per process.
    """
    return _scan(region.base_address, region.data)


# The opcodes of every terminator the decoder knows: ret, ret imm16,
# int 0x80, syscall, and FF /2 (call) or FF /4 (jmp) by the ModRM reg field.
# The lookahead is zero-width, so no match hides the next.
_TERMINATOR = re.compile(
    rb"(?=[\xc2\xc3]|\xcd\x80|\x0f\x05"
    rb"|\xff[\x10-\x17\x20-\x27\x50-\x57\x60-\x67\x90-\x97\xa0-\xa7\xd0-\xd7\xe0-\xe7])"
)


class _Chain(NamedTuple):
    """The facts of a found gadget that an instruction before it extends."""

    depth: int                  # instructions, terminator included
    end: int                    # region offset just past the terminator
    term: DecodedInstruction
    class_mask: int
    quality: float
    special_mask: int
    extended_special_mask: int  # what a gadget that extends this one inherits
    head_cost: float            # what the first instruction costs once it is not first


def _terminator_chain(term: DecodedInstruction) -> _Chain:
    return _Chain(
        depth=1,
        end=term.offset + term.length,
        term=term,
        class_mask=_mask(_instruction_classes(term, True), _CLASS_BIT),
        quality=0.0,
        special_mask=_mask(_terminator_special_types(term, bare=True), _SPECIAL_BIT),
        extended_special_mask=_mask(_terminator_special_types(term, bare=False), _SPECIAL_BIT),
        head_cost=0.0,
    )


def _prepend(ins: DecodedInstruction, tail: _Chain) -> _Chain:
    """The chain of ins followed by the gadget tail.

    The first body instruction is free unless it is a major constraint;
    every later one costs MINOR_CONSTRAINT (nop: nothing) or
    MAJOR_CONSTRAINT. So ins pays only if major, and the old first
    instruction now pays its head_cost.
    """
    major = _is_major(ins)
    special = tail.extended_special_mask | _mask(_body_special_types(ins, tail.term), _SPECIAL_BIT)
    return _Chain(
        depth=tail.depth + 1,
        end=tail.end,
        term=tail.term,
        class_mask=tail.class_mask | _mask(_instruction_classes(ins, False), _CLASS_BIT),
        quality=tail.quality + tail.head_cost + (MAJOR_CONSTRAINT if major else 0.0),
        special_mask=special,
        extended_special_mask=special,
        head_cost=0.0 if major or ins.mnemonic == "nop" else MINOR_CONSTRAINT,
    )


@functools.lru_cache(maxsize=32)  # bounded: a run over many variants keeps only recent sets
def _scan(base_address: int, data: bytes) -> frozenset[Gadget]:
    # Terminator candidates, ascending. A REX byte before a terminator needs
    # no entry of its own: the terminator's gadget can grow, so the sweep
    # decodes the byte before it anyway.
    candidates = [match.start() for match in _TERMINATOR.finditer(data)]

    # Sweep down from the highest candidate. Decoding at an offset is a
    # function, so an offset starts a gadget iff it decodes to a terminator
    # or to an instruction that ends at a start whose gadget can still grow.
    # Every start above p is known when p is decoded, and each offset is
    # decoded once. Below the reach of the lowest growable start, the sweep
    # jumps to the next candidate.
    gadgets = []
    growable: dict[int, _Chain] = {}  # start -> chain shorter than MAX_GADGET_LEN
    lowest = len(data) + _MAX_INSTR_BYTES  # lowest growable start
    p = candidates[-1] if candidates else -1
    while p >= 0:
        ins = decode(data, p)
        if ins is None:
            chain = None
        elif ins.terminator is not None:
            chain = _terminator_chain(ins)
        else:
            tail = growable.get(p + ins.length)
            chain = None if tail is None else _prepend(ins, tail)
        if chain is not None:
            gadgets.append(Gadget(
                address=base_address + p,
                raw_bytes=data[p : chain.end],
                start=p,
                terminator=chain.term.terminator,
                class_mask=chain.class_mask,
                quality=chain.quality,
                special_mask=chain.special_mask,
            ))
            if chain.depth < MAX_GADGET_LEN:
                growable[p] = chain
                lowest = p
        p -= 1
        if p + _MAX_INSTR_BYTES < lowest:
            p = candidates[bisect.bisect_right(candidates, p) - 1] if p >= candidates[0] else -1
    return frozenset(gadgets)


def scan_regions(regions: list[CodeRegion]) -> frozenset[Gadget]:
    found: set[Gadget] = set()
    for region in regions:
        found |= scan_gadgets(region)
    return frozenset(found)


def extract_code_regions(binary: BinaryRef, aggregate_libs: bool = False) -> list[CodeRegion]:
    """Executable segments of the binary, plus its libraries on request."""
    regions = []
    paths = [(binary.exe_path, binary.label)]
    if aggregate_libs:
        paths += [(lib, f"{binary.label}:{lib.name}") for lib in binary.lib_paths]
    for path, label in paths:
        for vaddr, data in elf.executable_segments(path):
            regions.append(CodeRegion(vaddr, data, label))
    return regions


# --- Expressivity ------------------------------------------------------

def gadget_classes(g: Gadget) -> set[str]:
    return _names(g.class_mask, EXPRESSIVITY_CLASSES)


def classify_expressivity(gadgets: set[Gadget] | frozenset[Gadget]) -> ExpressivityProfile:
    mask = 0
    for g in gadgets:
        mask |= g.class_mask
    satisfied = frozenset(_names(mask, EXPRESSIVITY_CLASSES))
    return ExpressivityProfile(satisfied, len(satisfied))


# --- Quality -----------------------------------------------------------

def score_quality(g: Gadget) -> float:
    """Side-constraint penalty: 0.0 is maximally chainable.

    The first instruction is the gadget's payload operation and is free
    unless it is itself a major constraint; every later non-terminator
    instruction adds 0.5 (minor) or 3.0 (major).
    """
    return g.quality


def mean_quality(gadgets: set[Gadget] | frozenset[Gadget]) -> float:
    if not gadgets:
        return 0.0
    return statistics.fmean(g.quality for g in gadgets)


# --- Special-purpose types ---------------------------------------------

def gadget_special_types(g: Gadget) -> set[str]:
    return _names(g.special_mask, SPECIAL_TYPES)


def special_types(gadgets: set[Gadget] | frozenset[Gadget]) -> tuple[frozenset[str], int]:
    mask = 0
    syscall_count = 0
    for g in gadgets:
        mask |= g.special_mask
        if g.terminator == SYSCALL:
            syscall_count += 1
    return frozenset(_names(mask, SPECIAL_TYPES)), syscall_count


# --- Set-level reports and deltas --------------------------------------

def build_report(gadgets: set[Gadget] | frozenset[Gadget]) -> GadgetSetReport:
    types, syscall_count = special_types(gadgets)
    return GadgetSetReport(
        gadgets=frozenset(gadgets),
        expressivity=classify_expressivity(gadgets),
        mean_quality=mean_quality(gadgets),
        special_types=types,
        syscall_gadget_count=syscall_count,
    )


def locality(original: set[Gadget] | frozenset[Gadget], variant: set[Gadget] | frozenset[Gadget]) -> float:
    """Percent of variant gadgets identical (address and bytes) in the original."""
    if not variant:
        return 0.0
    index = {(g.address, g.raw_bytes) for g in original}
    local = sum(1 for g in variant if (g.address, g.raw_bytes) in index)
    return 100.0 * local / len(variant)


def compare_sets(original: GadgetSetReport, variant: GadgetSetReport) -> SecurityDelta:
    """Signed deltas, original minus variant.

    Positive expressivity delta: the variant satisfies fewer classes (good).
    Positive quality delta: the variant's gadgets carry fewer side
    constraints on average, i.e. chain more easily (bad). Quality deltas
    below one minor constraint are flagged as not significant.
    """
    if original.syscall_gadget_count > 0 and variant.syscall_gadget_count == 0:
        event = SyscallEvent.ELIMINATED
    elif original.syscall_gadget_count == 0 and variant.syscall_gadget_count > 0:
        event = SyscallEvent.INTRODUCED
    else:
        event = SyscallEvent.NONE
    quality_delta = original.mean_quality - variant.mean_quality
    return SecurityDelta(
        expressivity_delta=original.expressivity.count - variant.expressivity.count,
        quality_delta=quality_delta,
        sp_types_delta=len(original.special_types) - len(variant.special_types),
        syscall_event=event,
        quality_significant=abs(quality_delta) >= MINOR_CONSTRAINT,
    )
