"""Code-reuse gadget discovery and the four derived security metrics.

A gadget is a contiguous instruction sequence of bounded length ending in a
control-transfer (ret, indirect jmp/call, syscall/int 0x80). From a set of
gadgets we derive: expressivity (how many of 11 functionality classes the
set covers), mean quality (side-constraint penalty per gadget, lower is
better for the attacker), special-purpose type availability (10 scaffolding
gadget types), and locality (fraction of a variant's gadgets unchanged in
address and bytes relative to the original).

The scan computes each gadget's classes, quality and special types as it
finds the gadget, so every set-level metric but locality is a fold over
those facts into a GadgetSummary, and a set's metrics are read from its
summary; a side's summary combines small summaries of its regions.
compare_regions builds no gadget record: it sweeps each distinct region
once and keys the summaries of its gadgets by a mask of the regions that
hold each gadget's bytes at its address. The mask decides both whether a
side's union already counts a gadget and whether the gadget is local.

The sweep reads where gadgets may end from x86.terminator_starts, whose
patterns x86 derives from its decoding rows: this module holds no opcode
byte. A sweep can be bounded to the gadgets that start in [lo, hi): no
gadget spans more than MAX_GADGET_LEN * x86.MAX_INSTRUCTION_BYTES = 150
bytes, so the bytes below hi + 150 decide them all. So the regions are
swept end to end, cut into one span per CPU the process may run on, each
but the first in a child.

The expressivity class table, special-purpose patterns, and constraint
taxonomy are this implementation's own; deltas are comparable only between
reports produced by it.
"""

from __future__ import annotations

import bisect
import contextlib
import enum
import itertools
import marshal
import operator
import os
import signal
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import BinaryIO, NamedTuple

from . import elf
from .spec_model import BinaryRef
from .x86 import (CALL_INDIRECT, FIRST_BYTES, JMP_INDIRECT, MAX_INSTRUCTION_BYTES, RET, SYSCALL,
                  DecodedInstruction, decode, instruction_bounds, terminator_starts)

MAX_GADGET_LEN = 10  # instructions, terminator included
# No gadget spans more bytes: one that starts below hi ends before hi + _REACH.
_REACH = MAX_GADGET_LEN * MAX_INSTRUCTION_BYTES
# The slots of _sweep's ring of growable chains: a power of two above MAX_INSTRUCTION_BYTES.
_SLOTS = 1 << MAX_INSTRUCTION_BYTES.bit_length()

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
    "syscall",  # bit 0, by which _fold counts syscall gadgets
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


def _names(mask: int, table: tuple[str, ...]) -> frozenset[str]:
    return frozenset(name for i, name in enumerate(table) if mask >> i & 1)


class SyscallEvent(enum.Enum):
    NONE = "none"
    ELIMINATED = "eliminated"
    INTRODUCED = "introduced"


@dataclass(frozen=True)
class CodeRegion:
    base_address: int
    data: bytes
    source_label: str


class Gadget(NamedTuple):
    """One gadget and the facts the metrics need, computed by the scan.

    Two gadgets are equal only if address, bytes and region-relative start
    are equal; the other fields follow from the bytes.
    """

    address: int
    raw_bytes: bytes
    start: int           # offset of the first byte within its code region
    terminator: str
    class_mask: int      # bit i set: satisfies EXPRESSIVITY_CLASSES[i]
    quality: float       # side-constraint penalty, see score_quality
    special_mask: int    # bit i set: is of type SPECIAL_TYPES[i]


class GadgetSummary(NamedTuple):
    """A set of gadgets as every set-level metric but locality reads it.

    A set's expressivity, mean quality, special-purpose types and syscall
    gadget count are all read from its summary. Each quality is a multiple
    of MINOR_CONSTRAINT, so quality_sum is exact in any order of addition.
    """

    count: int
    class_mask: int
    quality_sum: float
    special_mask: int
    syscall_count: int

    @property
    def expressivity(self) -> frozenset[str]:
        return _names(self.class_mask, EXPRESSIVITY_CLASSES)

    @property
    def mean_quality(self) -> float:
        return self.quality_sum / self.count if self.count else 0.0

    @property
    def special_types(self) -> frozenset[str]:
        return _names(self.special_mask, SPECIAL_TYPES)


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
    # Every gadget that starts in [lo, hi) ends at one of these offsets.
    terminators = terminator_starts(data, lo, hi + _REACH)

    # Sweep down from the highest terminator. Decoding at an offset is a
    # function, so an offset starts a gadget iff it holds a terminator or
    # an instruction that ends at a start whose gadget can still grow.
    # Every start above p is known when p is reached. Only terminators are
    # decoded; elsewhere the length pass finds where the instruction ends,
    # unless no instruction starts with the byte at p.
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
    # ring by start: slot s & mask holds the one at s, for
    # p < s <= p + MAX_INSTRUCTION_BYTES, or None. An offset overwrites its
    # slot when the sweep leaves it.
    growable: list[_Chain | None] = [None] * _SLOTS
    mask = _SLOTS - 1
    lowest = len(data) + MAX_INSTRUCTION_BYTES  # lowest growable start
    k = len(terminators) - 1  # terminators[k]: the highest at or below p
    next_term = p = terminators[k] if k >= 0 else -1
    while p >= lo:
        chain = None
        bounds = instruction_bounds(data, p) if FIRST_BYTES[data[p]] else None
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
                    chain = tuple.__new__(_Chain, (1, end, *chain[2:]))
        else:
            tail = None if bounds is None else growable[(p + bounds[0]) & mask]
            if tail is not None:
                depth, end, term, class_mask, quality, _, inherited, tail_cost, by_header = tail
                header = data[p : p + bounds[1]]
                facts = by_header.get(header)
                if facts is None:
                    facts = by_header[header] = _body_facts(decode(data, p), term)
                class_bits, cost, head_cost, special = facts
                special |= inherited
                # tuple.__new__ skips the NamedTuple constructor's argument handling.
                chain = tuple.__new__(_Chain, (
                    depth + 1, end, term, class_mask | class_bits, quality + tail_cost + cost,
                    special, special, head_cost, by_header,
                ))
        if chain is not None:
            if p < hi:
                yield p, chain
            if chain.depth < MAX_GADGET_LEN:
                lowest = p
            else:
                chain = None  # full length: nothing extends it
        growable[p & mask] = chain
        p -= 1
        if p + MAX_INSTRUCTION_BYTES < lowest:
            growable = [None] * _SLOTS
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
            terminator=chain.term.terminator,
            class_mask=chain.class_mask,
            quality=chain.quality,
            special_mask=chain.special_mask,
        )
        for p, chain in _sweep(data, 0, len(data))
    )


# A span this large sweeps in 40-100 ms on a 2-vCPU host, against 2-3 ms to fork, run and reap a child.
_CHUNK_MIN = 256 * 1024
_Holders = tuple[tuple[int, int, bytes], ...]
_Piece = tuple[int, int, int]  # a region's index, and the bounds [lo, hi) of the starts swept in it
_chain_of = operator.itemgetter(1)  # the chain of a (start, chain) pair


def _chunk_summaries(data: bytes, lo: int, hi: int, holders: _Holders) -> list[tuple[int, GadgetSummary]]:
    """The summaries of the gadgets that start in [lo, hi), with their holder masks.

    A holder is (mask bit, this region's base less the holder's, its code);
    a gadget's mask has the bit of each holder of its bytes at its address.
    Each run of gadgets with one mask is folded as it comes.
    """
    chains = _sweep(data, lo, hi)
    if not holders:
        return [(0, _fold(map(_chain_of, chains)))]

    def mask(found: tuple[int, _Chain]) -> int:
        p, chain = found
        raw = data[p : chain.end]
        return sum(1 << bit for bit, shift, code in holders if p + shift >= 0 and code.startswith(raw, p + shift))

    return [(m, _fold(map(_chain_of, run))) for m, run in itertools.groupby(chains, mask)]


def _span_summaries(codes: list[bytes], holders: list[_Holders], span: list[_Piece]) -> list[tuple]:
    """The chunk summaries of each piece of the span, as (region index, holder mask, summary)."""
    return [(i, *part) for i, lo, hi in span for part in _chunk_summaries(codes[i], lo, hi, holders[i])]


@contextlib.contextmanager
def _forked_span_summaries(codes: list[bytes], holders: list[_Holders], span: list[_Piece]) -> Iterator[BinaryIO]:
    """A child process that writes _span_summaries(codes, holders, span), marshalled, to the yielded pipe.

    The child leaves by os._exit, so it flushes no stdio buffer and runs no
    atexit handler of the parent's. A child that fails, or cannot be forked,
    leaves the pipe short. On leaving the context the child is reaped, and
    killed first if an exception leaves it.
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
                with open(write_fd, "wb") as out:
                    marshal.dump([(i, m, tuple(s)) for i, m, s in _span_summaries(codes, holders, span)], out)
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


def _plan(sizes: list[int], workers: int) -> list[list[_Piece]]:
    """Regions of these sizes, end to end, cut into `workers` spans of equal size, give or take a byte."""
    total, start = sum(sizes), 0
    spans: list[list[_Piece]] = [[] for _ in range(workers)]
    for i, size in enumerate(sizes):
        for w, span in enumerate(spans):
            lo, hi = max(total * w // workers, start), min(total * (w + 1) // workers, start + size)
            if lo < hi:
                span.append((i, lo - start, hi - start))
        start += size
    return spans


def _summaries(codes: list[bytes], holders: list[_Holders]) -> list[tuple[int, int, GadgetSummary]]:
    """The regions' gadget summaries as (region index, holder mask, summary), built without records.

    The regions, end to end, are cut into one span per CPU this process may
    run on, none under _CHUNK_MIN. This process sweeps the first span while
    forked children sweep the rest, so one call forks fewer children than
    there are CPUs, and none for a total under 2 * _CHUNK_MIN. A span whose
    child wrote no readable record is swept here. The only threads this
    program starts are differ's workers, which have ended before any region
    is summarised, so a child inherits no lock that another thread holds.
    """
    workers = max(1, min(len(os.sched_getaffinity(0)), sum(map(len, codes)) // _CHUNK_MIN))
    first, *rest = _plan([len(code) for code in codes], workers)
    with contextlib.ExitStack() as children:
        pipes = [children.enter_context(_forked_span_summaries(codes, holders, span)) for span in rest]
        parts = _span_summaries(codes, holders, first)
        records = [pipe.read() for pipe in pipes]
    for span, record in zip(rest, records):
        try:
            parts += [(i, mask, GadgetSummary(*s)) for i, mask, s in marshal.loads(record)]
        except (EOFError, ValueError, TypeError):
            parts += _span_summaries(codes, holders, span)
    return parts


def scan_regions(regions: list[CodeRegion]) -> frozenset[Gadget]:
    return frozenset().union(*map(scan_gadgets, regions))


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
        syscall_count += g.special_mask & 1  # bit 0, special type syscall: set iff the terminator is one
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


def build_report(gadgets: set[Gadget] | frozenset[Gadget]) -> GadgetSummary:
    return _fold(gadgets)


def _percent(local: int, total: int) -> float:
    return 100.0 * local / total if total else 0.0


def locality(original: set[Gadget] | frozenset[Gadget], variant: set[Gadget] | frozenset[Gadget]) -> float:
    """Percent of variant gadgets identical (address and bytes) in the original."""
    index = {(g.address, g.raw_bytes) for g in original}
    return _percent(sum((g.address, g.raw_bytes) in index for g in variant), len(variant))


# --- Sides composed from region summaries --------------------------------

def _key(region: CodeRegion) -> tuple[int, bytes]:
    return region.base_address, region.data


def compare_regions(
    original: list[CodeRegion], variants: list[list[CodeRegion]]
) -> tuple[GadgetSummary, list[tuple[GadgetSummary, float]]]:
    """The original's summary, and each variant's summary and locality.

    Each equals what build_report() and locality() give on scan_regions()
    of the sides, yet no gadget record is made. A distinct region's holders
    are the other distinct regions at its base and, if the original lacks
    it, the original regions that overlap it: decoding is a function of the
    bytes, so a holder of a gadget's bytes at its address yields the same
    gadget. Bit j of a mask names the j-th distinct region in (base, bytes)
    order. A side skips masks that name a region it lists earlier at the
    same base, so its union counts each gadget once; a counted gadget is
    local if its region or a holder of it is the original's.
    """
    sides = [original, *variants]
    regions = sorted({_key(r): r for side in sides for r in side}.values(), key=_key)
    index = {_key(r): i for i, r in enumerate(regions)}

    def bits(side: list[CodeRegion]) -> int:
        return sum(1 << i for i in {index[_key(r)] for r in side})

    in_original = bits(original)
    holders, same_base_below = [], []
    for i, r in enumerate(regions):
        foreign = not in_original >> i & 1
        end = r.base_address + len(r.data)
        holders.append(tuple(
            (j, r.base_address - h.base_address, h.data)
            for j, h in enumerate(regions)
            if j != i and (h.base_address == r.base_address or foreign and in_original >> j & 1
                           and h.base_address < end and r.base_address < h.base_address + len(h.data))
        ))
        same_base_below.append(sum(1 << j for j, shift, _ in holders[i] if j < i and shift == 0))
    parts = _summaries([r.data for r in regions], holders)
    results = []
    for side in sides:
        listed = bits(side)
        counted = [
            (summary, (mask | 1 << i) & in_original)
            for i, mask, summary in parts if listed >> i & 1 and not mask & listed & same_base_below[i]
        ]
        total = _combine(summary for summary, _ in counted)
        results.append((total, _percent(sum(s.count for s, local in counted if local), total.count)))
    (original_summary, _), *variant_results = results
    return original_summary, variant_results


# --- Deltas --------------------------------------------------------------

def compare_sets(original: GadgetSummary, variant: GadgetSummary) -> SecurityDelta:
    """Signed deltas, original minus variant.

    Positive expressivity delta: the variant satisfies fewer classes (good).
    Positive quality delta: the variant's gadgets carry fewer side
    constraints on average, i.e. chain more easily (bad). Quality deltas
    below one minor constraint are flagged as not significant.
    """
    if original.syscall_count > 0 and variant.syscall_count == 0:
        event = SyscallEvent.ELIMINATED
    elif original.syscall_count == 0 and variant.syscall_count > 0:
        event = SyscallEvent.INTRODUCED
    else:
        event = SyscallEvent.NONE
    quality_delta = original.mean_quality - variant.mean_quality
    return SecurityDelta(
        expressivity_delta=original.class_mask.bit_count() - variant.class_mask.bit_count(),
        quality_delta=quality_delta,
        sp_types_delta=original.special_mask.bit_count() - variant.special_mask.bit_count(),
        syscall_event=event,
        quality_significant=abs(quality_delta) >= MINOR_CONSTRAINT,
    )
