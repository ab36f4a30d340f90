"""Code-reuse gadget discovery and the four derived security metrics.

A gadget is a contiguous instruction sequence of bounded length ending in a
control-transfer (ret, indirect jmp/call, syscall/int 0x80). From a set of
gadgets we derive: expressivity (how many of 11 functionality classes the
set covers), mean quality (side-constraint penalty per gadget, lower is
better for the attacker), special-purpose type availability (10 scaffolding
gadget types), and locality (fraction of a variant's gadgets unchanged in
address and bytes relative to the original).

The expressivity class table, special-purpose patterns, and constraint
taxonomy are this implementation's own; deltas are comparable only between
reports produced by it.
"""

from __future__ import annotations

import enum
import functools
import re
import statistics
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Gadget:
    address: int
    raw_bytes: bytes
    instructions: tuple[DecodedInstruction, ...]
    terminator: str

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


# --- Discovery ---------------------------------------------------------

def scan_gadgets(region: CodeRegion) -> frozenset[Gadget]:
    """All gadgets in the region, one per start address.

    A start address yields the gadget that ends at the first terminator
    its decode chain reaches within MAX_GADGET_LEN instructions. The scan
    searches backward from terminators, as Shacham's Galileo algorithm
    does: one regex pass finds the terminator opcode bytes, and only the
    offsets that can precede a live chain head are decoded, each at most
    once. The result is cached per (base address, bytes), so a library
    shared by the original and its variants is scanned once per process.
    """
    return _scan(region.base_address, region.data)


_TERMINATOR_OPCODE = re.compile(rb"[\xc2\xc3\xcd\xff\x0f]")  # ret, ret imm16, int, FF, 0F 05


class _DecodeMemo(dict):
    """Offset -> decode(data, offset), computed on first lookup."""

    def __init__(self, data: bytes):
        self.data = data

    def __missing__(self, off: int) -> DecodedInstruction | None:
        ins = self[off] = decode(self.data, off)
        return ins


@functools.lru_cache(maxsize=32)  # bounded: a run over many variants keeps only recent sets
def _scan(base_address: int, data: bytes) -> frozenset[Gadget]:
    n = len(data)
    decoded = _DecodeMemo(data)

    # Breadth-first backward chaining from each terminator through
    # non-terminator instructions; the chain from any start is unique
    # because decoding at an offset is a function, so each start maps to
    # exactly one gadget. `order` grows while it is iterated.
    chains: dict[int, tuple[DecodedInstruction, ...]] = {}
    order: list[int] = []
    for match in _TERMINATOR_OPCODE.finditer(data):
        p = match.start()
        for t in (p - 1, p) if p and 0x40 <= data[p - 1] <= 0x4F else (p,):  # REX prefix
            ins = decoded[t]
            if ins is not None and ins.terminator is not None and t + ins.length <= n:
                chains[t] = (ins,)
                order.append(t)
    for s in order:
        chain = chains[s]
        if len(chain) >= MAX_GADGET_LEN:
            continue
        for prev in range(max(0, s - _MAX_INSTR_BYTES), s):
            if prev in chains:
                continue
            ins = decoded[prev]
            if ins is not None and ins.terminator is None and prev + ins.length == s:
                chains[prev] = (ins, *chain)
                order.append(prev)

    return frozenset(
        Gadget(
            address=base_address + start,
            raw_bytes=data[start : chain[-1].offset + chain[-1].length],
            instructions=chain,
            terminator=chain[-1].terminator,
        )
        for start, chain in chains.items()
    )


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


def gadget_classes(g: Gadget) -> set[str]:
    classes: set[str] = set()
    for idx, ins in enumerate(g.instructions):
        classes |= _instruction_classes(ins, idx == len(g.instructions) - 1)
    return classes


def classify_expressivity(gadgets: set[Gadget] | frozenset[Gadget]) -> ExpressivityProfile:
    satisfied: set[str] = set()
    for g in gadgets:
        satisfied |= gadget_classes(g)
        if len(satisfied) == len(EXPRESSIVITY_CLASSES):
            break
    return ExpressivityProfile(frozenset(satisfied), len(satisfied))


# --- Quality -----------------------------------------------------------

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


def score_quality(g: Gadget) -> float:
    """Side-constraint penalty: 0.0 is maximally chainable.

    The first instruction is the gadget's payload operation and is free
    unless it is itself a major constraint; every later non-terminator
    instruction adds 0.5 (minor) or 3.0 (major).
    """
    score = 0.0
    body = g.instructions[:-1]
    for idx, ins in enumerate(body):
        if _is_major(ins):
            score += MAJOR_CONSTRAINT
        elif idx > 0 and ins.mnemonic != "nop":
            score += MINOR_CONSTRAINT
    return score


def mean_quality(gadgets: set[Gadget] | frozenset[Gadget]) -> float:
    if not gadgets:
        return 0.0
    return statistics.fmean(score_quality(g) for g in gadgets)


# --- Special-purpose types ---------------------------------------------

def _branch_register(g: Gadget) -> str | None:
    term = g.instructions[-1]
    return term.branch_reg or term.mem_base


def gadget_special_types(g: Gadget) -> set[str]:
    types: set[str] = set()
    term = g.instructions[-1]
    body = g.instructions[:-1]

    if g.terminator == SYSCALL:
        types.add("syscall")

    if g.terminator == RET:
        for ins in body:
            pivots_sp = ins.dest == "rsp" and ins.mnemonic in ("mov", "xchg", "pop", "leave")
            if pivots_sp or (ins.mnemonic == "xchg" and ins.src == "rsp"):
                types.add("stack_pivot")
                break

    if g.terminator in (JMP_INDIRECT, CALL_INDIRECT):
        prefix = "jop" if g.terminator == JMP_INDIRECT else "cop"
        target = _branch_register(g)
        if term.branch_mem and not body:
            types.add(f"{prefix}_trampoline")
        if any(ins.mnemonic in ("add", "sub", "inc", "dec") and ins.dest == target for ins in body):
            types.add(f"{prefix}_dispatcher")
        if any(ins.mnemonic == "pop" for ins in body):
            types.add(f"{prefix}_dataloader")
        if any(
            ins.mnemonic in ("mov", "movzx", "movsx", "lea") and ins.dest == target
            for ins in body
        ):
            types.add(f"{prefix}_initializer")
    return types


def special_types(gadgets: set[Gadget] | frozenset[Gadget]) -> tuple[frozenset[str], int]:
    present: set[str] = set()
    syscall_count = 0
    for g in gadgets:
        present |= gadget_special_types(g)
        if g.terminator == SYSCALL:
            syscall_count += 1
    return frozenset(present), syscall_count


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
