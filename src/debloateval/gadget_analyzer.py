"""Code-reuse gadget discovery and the four derived security metrics.

A gadget is a contiguous instruction sequence of bounded length ending in a
control-transfer (ret, indirect jmp/call, syscall/int 0x80). From a set of
gadgets we derive: expressivity (how many of 11 functionality classes the
set covers), mean quality (side-constraint penalty per gadget, lower is
better for the attacker), special-purpose type availability (10 scaffolding
gadget types), and locality (fraction of a variant's gadgets unchanged in
address and bytes relative to the original).

The scan computes each gadget's classes, quality and special types once, as
it finds the gadget. Every set-level metric but locality is a fold over those
facts, so a region can carry a small summary in place of its gadgets, and a
side's metrics combine the summaries of its regions. Records are built only
where gadgets must be told apart: regions that share a base address, and a
variant's regions with code the original lacks. Each gadget of those is
local iff some original region holds its bytes at its address, so the
original side is never made into records for locality. compare_regions
plans all this first and keeps each region's records or summary until it
returns, so each distinct region is swept once per call.

A sweep can be bounded to the gadgets that start in [lo, hi): no gadget
spans more than MAX_GADGET_LEN * _MAX_INSTR_BYTES = 150 bytes, so the bytes
below hi + 150 decide them all. A large region that is only summarised is
cut into such chunks, one per CPU the process may run on and none under
_CHUNK_MIN; each chunk after the first is swept in a forked child that
writes its summary to a pipe. Records are always built by one sweep in
this process.

The expressivity class table, special-purpose patterns, and constraint
taxonomy are this implementation's own; deltas are comparable only between
reports produced by it.
"""

from __future__ import annotations

import bisect
import contextlib
import enum
import os
import re
import signal
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import BinaryIO, NamedTuple

from . import elf
from .spec_model import BinaryRef
from .x86 import CALL_INDIRECT, JMP_INDIRECT, RET, SYSCALL, DecodedInstruction, decode, instruction_bounds

MAX_GADGET_LEN = 10  # instructions, terminator included
_MAX_INSTR_BYTES = 15
# No gadget spans more bytes: one that starts below hi ends before hi + _REACH.
_REACH = MAX_GADGET_LEN * _MAX_INSTR_BYTES

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


class GadgetSummary(NamedTuple):
    """What every set-level metric but locality needs from a set of gadgets.

    Each quality is a multiple of MINOR_CONSTRAINT, so quality_sum is exact
    in any order of addition.
    """

    count: int
    class_mask: int
    quality_sum: float
    special_mask: int
    syscall_count: int


@dataclass(frozen=True)
class GadgetSetReport:
    gadget_count: int
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

# The opcodes of every terminator the decoder knows: ret, ret imm16,
# int 0x80, syscall, and FF /2 (call) or FF /4 (jmp) by the ModRM reg field.
# The lookahead is zero-width, so no match hides the next.
_TERMINATOR = re.compile(
    rb"(?=[\xc2\xc3]|\xcd\x80|\x0f\x05"
    rb"|\xff[\x10-\x17\x20-\x27\x50-\x57\x60-\x67\x90-\x97\xa0-\xa7\xd0-\xd7\xe0-\xe7])"
)


def _terminator_offsets(data: bytes, lo: int, hi: int) -> list[int]:
    """The offsets in [lo, hi + _REACH) that hold a terminator's bytes, ascending.

    These are the pattern's matches and each REX byte just before one. An
    optional REX byte in the pattern would make the regex scan twice as
    slow, so the byte before each match is checked here. Every gadget that
    starts in [lo, hi) ends at one of these offsets.
    """
    offsets = []
    for match in _TERMINATOR.finditer(data, lo, hi + _REACH):
        start = match.start()
        if start > lo and 0x40 <= data[start - 1] <= 0x4F:
            offsets.append(start - 1)
        offsets.append(start)
    return offsets

# What one body instruction adds to a gadget: class bits, its own cost,
# the cost it carries once it is no longer first, and special-type bits.
_BodyFacts = tuple[int, float, float, int]


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
    body_facts: dict[bytes, _BodyFacts]  # by instruction header, for this terminator kind and target

    @property
    def terminator(self) -> str:
        return self.term.terminator


def _terminator_chain(term: DecodedInstruction, body_facts: dict[bytes, _BodyFacts]) -> _Chain:
    return _Chain(
        depth=1,
        end=term.offset + term.length,
        term=term,
        class_mask=_mask(_instruction_classes(term, True), _CLASS_BIT),
        quality=0.0,
        special_mask=_mask(_terminator_special_types(term, bare=True), _SPECIAL_BIT),
        extended_special_mask=_mask(_terminator_special_types(term, bare=False), _SPECIAL_BIT),
        head_cost=0.0,
        body_facts=body_facts,
    )


def _body_facts(ins: DecodedInstruction, term: DecodedInstruction) -> _BodyFacts:
    """The facts ins gives a gadget that ends in term.

    The first body instruction is free unless it is a major constraint;
    every later one costs MINOR_CONSTRAINT (nop: nothing) or
    MAJOR_CONSTRAINT. So ins pays only if major, and the old first
    instruction pays its head cost once ins is put before it.
    """
    major = _is_major(ins)
    return (
        _mask(_instruction_classes(ins, False), _CLASS_BIT),
        MAJOR_CONSTRAINT if major else 0.0,
        0.0 if major or ins.mnemonic == "nop" else MINOR_CONSTRAINT,
        _mask(_body_special_types(ins, term), _SPECIAL_BIT),
    )


def _sweep(data: bytes, lo: int, hi: int) -> Iterator[tuple[int, _Chain]]:
    """Each gadget that starts in [lo, hi), as its start offset and chain, top down."""
    terminators = _terminator_offsets(data, lo, hi)

    # Sweep down from the highest terminator. Decoding at an offset is a
    # function, so an offset starts a gadget iff it holds a terminator or
    # an instruction that ends at a start whose gadget can still grow.
    # Every start above p is known when p is reached. Only terminators are
    # decoded; elsewhere the length pass finds where the instruction ends.
    # A terminator's chain follows from its bytes but for where it ends, so
    # each distinct terminator is decoded once. A body instruction's facts
    # follow from its header and the gadget's terminator kind and target,
    # so each header is decoded once per kind and target. Below the reach
    # of the lowest growable start, the sweep jumps to the next terminator.
    body_facts: dict[tuple[str, str | None], dict[bytes, _BodyFacts]] = {}
    # By the terminator's bytes; the term of each is decoded at the first
    # offset that holds them, and only its offset-free fields are read.
    terminator_chains: dict[bytes, _Chain] = {}
    # The chains shorter than MAX_GADGET_LEN that start in reach of p, in a
    # ring by start: slot s & 15 holds the one at s, for p < s <= p + 15,
    # or None. An offset overwrites its slot when the sweep leaves it.
    growable: list[_Chain | None] = [None] * 16
    lowest = len(data) + _MAX_INSTR_BYTES  # lowest growable start
    k = len(terminators) - 1  # terminators[k]: the highest at or below p
    next_term = p = terminators[k] if k >= 0 else -1
    while p >= lo:
        chain = None
        bounds = instruction_bounds(data, p)
        if p == next_term:
            k -= 1
            next_term = terminators[k] if k >= 0 else -1
            if bounds is not None:
                end = p + bounds[0]
                raw = data[p:end]
                chain = terminator_chains.get(raw)
                if chain is None:
                    term = decode(data, p)
                    key = (term.terminator, term.branch_reg or term.mem_base)
                    chain = terminator_chains[raw] = _terminator_chain(term, body_facts.setdefault(key, {}))
                else:  # the same chain, ending past this offset's terminator
                    chain = _Chain(1, end, *chain[2:])
        else:
            tail = None if bounds is None else growable[(p + bounds[0]) & 15]
            if tail is not None:
                header = data[p : p + bounds[1]]
                facts = tail.body_facts.get(header)
                if facts is None:
                    facts = tail.body_facts[header] = _body_facts(decode(data, p), tail.term)
                class_bits, cost, head_cost, special = facts
                special |= tail.extended_special_mask
                chain = _Chain(
                    tail.depth + 1,
                    tail.end,
                    tail.term,
                    tail.class_mask | class_bits,
                    tail.quality + tail.head_cost + cost,
                    special,
                    special,
                    head_cost,
                    tail.body_facts,
                )
        if chain is not None:
            if p < hi:
                yield p, chain
            if chain.depth < MAX_GADGET_LEN:
                lowest = p
            else:
                chain = None  # full length: nothing extends it
        growable[p & 15] = chain
        p -= 1
        if p + _MAX_INSTR_BYTES < lowest:
            growable = [None] * 16
            k = bisect.bisect_right(terminators, p) - 1
            next_term = p = terminators[k] if k >= 0 else -1


def scan_gadgets(region: CodeRegion) -> frozenset[Gadget]:
    """All gadgets in the region, one per start address.

    A start address yields the gadget that ends at the first terminator
    its decode chain reaches within MAX_GADGET_LEN instructions. The scan
    is one downward sweep over the region that measures each offset once
    with the length pass and fully decodes only each distinct terminator
    and the first body instruction of each header; each gadget's facts
    are folded in as it is found.
    """
    data = region.data
    return frozenset(
        Gadget(
            address=region.base_address + p,
            raw_bytes=data[p : chain.end],
            start=p,
            terminator=chain.terminator,
            class_mask=chain.class_mask,
            quality=chain.quality,
            special_mask=chain.special_mask,
        )
        for p, chain in _sweep(data, 0, len(data))
    )


# A chunk this large sweeps in 50-80 ms, against 1-3 ms to fork, run and reap a child.
_CHUNK_MIN = 256 * 1024
# A GadgetSummary as a child writes it to its pipe: 40 bytes, below PIPE_BUF.
_RECORD = struct.Struct("<qqdqq")


def _chunk_summary(data: bytes, lo: int, hi: int) -> GadgetSummary:
    """The summary of the gadgets that start in [lo, hi)."""
    return _fold(chain for _, chain in _sweep(data, lo, hi))


@contextlib.contextmanager
def _forked_chunk_summary(data: bytes, lo: int, hi: int) -> Iterator[BinaryIO]:
    """A child process that writes _chunk_summary(data, lo, hi) to the yielded pipe.

    The child leaves by os._exit, so it flushes no stdio buffer and runs no
    atexit handler of the parent's. A child that fails, or cannot be
    forked, leaves the pipe empty. On leaving the context the child is
    reaped, and killed first if an exception leaves it.
    """
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as pipe:
        try:
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:
            status = 1
            try:
                os.write(write_fd, _RECORD.pack(*_chunk_summary(data, lo, hi)))
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)  # so the pipe ends when the child does
        try:
            yield pipe
        except BaseException:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            if pid is not None:
                os.waitpid(pid, 0)


def _region_summary(data: bytes) -> GadgetSummary:
    """The summary of the region's gadgets, built without their records.

    The region is cut into one chunk per CPU this process may run on, but
    no chunk smaller than _CHUNK_MIN. The chunks after the first are swept
    in forked children while this process sweeps the first, so a region of
    one chunk forks nothing. A chunk whose child wrote no summary is swept
    here. Each quality is a multiple of MINOR_CONSTRAINT, so the combined
    sum equals the serial one exactly. The only threads this program
    starts are differ's workers, which have ended before any region is
    summarised, so a child inherits no lock that another thread holds.

    A gadget's facts follow from its bytes alone, so the base address plays
    no part.
    """
    chunks = max(1, min(len(os.sched_getaffinity(0)), len(data) // _CHUNK_MIN))
    cuts = [len(data) * i // chunks for i in range(chunks + 1)]
    spans = list(zip(cuts, cuts[1:]))
    with contextlib.ExitStack() as children:
        pipes = [children.enter_context(_forked_chunk_summary(data, lo, hi)) for lo, hi in spans[1:]]
        summaries = [_chunk_summary(data, *spans[0])]
        records = [pipe.read() for pipe in pipes]
    for (lo, hi), record in zip(spans[1:], records):
        ok = len(record) == _RECORD.size
        summaries.append(GadgetSummary(*_RECORD.unpack(record)) if ok else _chunk_summary(data, lo, hi))
    return _combine(summaries)


def _union(sets: list[frozenset[Gadget]]) -> frozenset[Gadget]:
    return sets[0] if len(sets) == 1 else frozenset().union(*sets)


def scan_regions(regions: list[CodeRegion]) -> frozenset[Gadget]:
    return _union([scan_gadgets(region) for region in regions])


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


# --- Per-gadget facts --------------------------------------------------

def score_quality(g: Gadget) -> float:
    """Side-constraint penalty: 0.0 is maximally chainable.

    The first instruction is the gadget's payload operation and is free
    unless it is itself a major constraint; every later non-terminator
    instruction adds 0.5 (minor) or 3.0 (major).
    """
    return g.quality


# --- Set-level reports ---------------------------------------------------

def _fold(gadgets: Iterable[Gadget] | Iterable[_Chain]) -> GadgetSummary:
    """The summary of a set of gadgets; sweep chains carry the same facts."""
    count = class_mask = special_mask = syscall_count = 0
    quality_sum = 0.0
    for g in gadgets:
        count += 1
        class_mask |= g.class_mask
        quality_sum += g.quality
        special_mask |= g.special_mask
        syscall_count += g.terminator == SYSCALL
    return GadgetSummary(count, class_mask, quality_sum, special_mask, syscall_count)


def _combine(summaries: Iterable[GadgetSummary]) -> GadgetSummary:
    """The summary of the union of disjoint gadget sets."""
    count = class_mask = special_mask = syscall_count = 0
    quality_sum = 0.0
    for s in summaries:
        count += s.count
        class_mask |= s.class_mask
        quality_sum += s.quality_sum
        special_mask |= s.special_mask
        syscall_count += s.syscall_count
    return GadgetSummary(count, class_mask, quality_sum, special_mask, syscall_count)


def _report(summary: GadgetSummary) -> GadgetSetReport:
    satisfied = frozenset(_names(summary.class_mask, EXPRESSIVITY_CLASSES))
    return GadgetSetReport(
        gadget_count=summary.count,
        expressivity=ExpressivityProfile(satisfied, len(satisfied)),
        mean_quality=summary.quality_sum / summary.count if summary.count else 0.0,
        special_types=frozenset(_names(summary.special_mask, SPECIAL_TYPES)),
        syscall_gadget_count=summary.syscall_count,
    )


def build_report(gadgets: set[Gadget] | frozenset[Gadget]) -> GadgetSetReport:
    return _report(_fold(gadgets))


def _percent(local: int, total: int) -> float:
    return 100.0 * local / total if total else 0.0


def locality(original: set[Gadget] | frozenset[Gadget], variant: set[Gadget] | frozenset[Gadget]) -> float:
    """Percent of variant gadgets identical (address and bytes) in the original."""
    index = {(g.address, g.raw_bytes) for g in original}
    return _percent(sum((g.address, g.raw_bytes) in index for g in variant), len(variant))


# --- Sides composed from region summaries --------------------------------

def _key(region: CodeRegion) -> tuple[int, bytes]:
    return region.base_address, region.data


def _base_groups(regions: list[CodeRegion]) -> list[list[CodeRegion]]:
    """The distinct regions of one side, grouped by base address.

    Equal records need equal addresses and region-relative starts, so only
    regions that share a base address can share a gadget.
    """
    groups: dict[int, dict[bytes, CodeRegion]] = {}
    for region in regions:
        groups.setdefault(region.base_address, {}).setdefault(region.data, region)
    return [list(group.values()) for group in groups.values()]


def _holds(r: CodeRegion, g: Gadget) -> bool:
    """Whether the region holds g's bytes at g's address."""
    return r.base_address <= g.address and r.data.startswith(g.raw_bytes, g.address - r.base_address)


def compare_regions(
    original: list[CodeRegion], variants: list[list[CodeRegion]]
) -> tuple[GadgetSetReport, list[tuple[GadgetSetReport, float]]]:
    """The original's report, and each variant's report and locality.

    Each report equals build_report(scan_regions(side)) and each locality
    equals locality() of the two sides' sets. A side is composed from its
    base groups: a group of one region adds that region's summary, and a
    group of several adds the summary of the union of their records. A
    variant group made only of original regions is all local. In any
    other, a gadget is local iff some original region holds its bytes at
    its address: decoding is a function of the bytes, so that region
    yields the same gadget there. The plan comes first: only the groups of
    several and the variant groups with foreign code become records. The
    call keeps each record set by (base, bytes) and each other summary by
    bytes, so every distinct region is swept once, however many sides list it.
    """
    sides = [_base_groups(original)] + [_base_groups(regions) for regions in variants]
    original_keys = {_key(r) for r in original}
    foreign = [[any(_key(r) not in original_keys for r in group) for group in groups] for groups in sides]
    # A region that is made into records for one group is summarised from
    # them everywhere, so no region is swept twice.
    record_groups = [g for groups, flags in zip(sides, foreign) for g, f in zip(groups, flags) if f or len(g) > 1]
    with_records = {_key(r) for g in record_groups for r in g}
    record_sets: dict[tuple[int, bytes], frozenset[Gadget]] = {}
    region_summaries: dict[bytes, GadgetSummary] = {}
    results = []
    for groups, flags in zip(sides, foreign):
        summaries = []
        local = 0
        for group, is_foreign in zip(groups, flags):
            if len(group) == 1 and _key(group[0]) not in with_records:
                if (summary := region_summaries.get(group[0].data)) is None:
                    summary = region_summaries[group[0].data] = _region_summary(group[0].data)
                local += summary.count
            else:
                record_sets.update((_key(r), scan_regions([r])) for r in group if _key(r) not in record_sets)
                gadgets = _union([record_sets[_key(r)] for r in group])
                summary = _fold(gadgets)
                local += sum(any(_holds(o, g) for o in original) for g in gadgets) if is_foreign else summary.count
            summaries.append(summary)
        report = _report(_combine(summaries))
        results.append((report, _percent(local, report.gadget_count)))
    (original_report, _), *variant_results = results
    return original_report, variant_results


# --- Deltas --------------------------------------------------------------

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
