"""Independent brute-force oracles used to cross-check the fast paths."""

from __future__ import annotations

import base64
import json

from debloateval.comparator import _CONTEXT, EVIDENCE_LIMIT
from debloateval.gadget_analyzer import (
    EXPRESSIVITY_CLASSES,
    MAJOR_CONSTRAINT,
    MAX_GADGET_LEN,
    MINOR_CONSTRAINT,
    SPECIAL_TYPES,
    CodeRegion,
    Gadget,
    _body_special_types,
    _instruction_classes,
    _is_major,
    _terminator_special_types,
)
from debloateval.verdict_engine import CampaignReport, TestVerdict, Verdict
from debloateval.x86 import decode


def _bits(names: set[str], table: tuple[str, ...]) -> int:
    return sum(1 << table.index(name) for name in names)


def gadget_record(region: CodeRegion, start: int, instructions: list) -> Gadget:
    """The full record of the gadget made of instructions, by a plain fold.

    Uses only the per-instruction definitions; the scan's incremental fold
    from the terminator upward is not shared.
    """
    *body, term = instructions
    classes: set[str] = set()
    for idx, ins in enumerate(instructions):
        classes |= _instruction_classes(ins, idx == len(instructions) - 1)
    quality = 0.0
    for idx, ins in enumerate(body):
        if _is_major(ins):
            quality += MAJOR_CONSTRAINT
        elif idx > 0 and ins.mnemonic != "nop":
            quality += MINOR_CONSTRAINT
    special = _terminator_special_types(term, bare=not body)
    for ins in body:
        special |= _body_special_types(ins, term)
    end = term.offset + term.length
    return Gadget(
        address=region.base_address + start,
        raw_bytes=region.data[start:end],
        start=start,
        terminator=term.terminator,
        class_mask=_bits(classes, EXPRESSIVITY_CLASSES),
        quality=quality,
        special_mask=_bits(special, SPECIAL_TYPES),
    )


def brute_force_scan(region: CodeRegion) -> set[Gadget]:
    """Decode forward from every byte offset, no shared state, no shortcuts.

    A start offset yields a gadget iff its decode chain reaches a terminator
    within MAX_GADGET_LEN instructions without an undecodable byte first.
    """
    data = region.data
    gadgets: set[Gadget] = set()
    for start in range(len(data)):
        instructions = []
        off = start
        while len(instructions) < MAX_GADGET_LEN:
            ins = decode(data, off)
            if ins is None or off + ins.length > len(data):
                break
            instructions.append(ins)
            off += ins.length
            if ins.terminator is not None:
                gadgets.add(gadget_record(region, start, instructions))
                break
    return gadgets


_ALU_OPCODES = (0x01, 0x03, 0x09, 0x0B, 0x21, 0x23, 0x29, 0x2B, 0x31, 0x33, 0x39, 0x3B)


def reference_bounds(buf: bytes, offset: int = 0) -> tuple[int, int] | None:
    """(length, header length) of the subset instruction at offset, or None.

    A plain case analysis written from the instruction set. It shares no
    table or helper with x86, so the length pass is checked against it.
    """
    n = len(buf)
    i = offset
    rex = 0
    if i < n and 0x40 <= buf[i] <= 0x4F:
        rex = buf[i]
        i += 1
    if i >= n:
        return None
    op = buf[i]
    i += 1

    def with_modrm(regs=range(8), memory_only=False, imm=0):
        # The ModRM byte at i, then SIB, displacement and the immediate.
        if i >= n:
            return None
        mod, reg, rm = buf[i] >> 6, (buf[i] >> 3) & 7, buf[i] & 7
        if reg not in regs or (mod == 3 and memory_only):
            return None
        header = i + 1
        end = header
        if mod != 3:
            if rm == 4:
                if end >= n:
                    return None
                if mod == 0 and buf[end] & 7 == 5:
                    end += 4
                end += 1
            elif mod == 0 and rm == 5:
                end += 4
            end += {0: 0, 1: 1, 2: 4}[mod]
        return end + imm, header

    found = None  # (end, header end)
    if 0x50 <= op <= 0x5F or op in (0xC3, 0xC9) or (op == 0x90 and not rex):
        found = i, i
    elif op in _ALU_OPCODES or op in (0x85, 0x87, 0x89, 0x8B):
        found = with_modrm()
    elif op in (0x81, 0x83):
        found = with_modrm(regs=(0, 1, 4, 5, 6, 7), imm=4 if op == 0x81 else 1)
    elif op == 0x8D:
        found = with_modrm(memory_only=True)
    elif op == 0xFF:
        found = with_modrm(regs=(0, 1, 2, 4, 6))
    elif 0xB8 <= op <= 0xBF:
        found = i + (8 if rex & 8 else 4), i
    elif op in (0x68, 0x6A):
        found = i + (4 if op == 0x68 else 1), i
    elif 0x70 <= op <= 0x7F:
        found = i + 1, i
    elif op == 0xC2:
        found = i + 2, i
    elif op == 0xCD:
        if i < n and buf[i] == 0x80:
            found = i + 1, i + 1
    elif op == 0x0F and i < n:
        op2 = buf[i]
        i += 1
        if op2 == 0x05:
            found = i, i
        elif 0x80 <= op2 <= 0x8F:
            found = i + 4, i
        elif op2 in (0xB6, 0xB7, 0xBE, 0xBF):
            found = with_modrm()
    if found is None or found[0] > n:
        return None
    return found[0] - offset, found[1] - offset


def reference_verdict(v: TestVerdict) -> dict:
    """A verdicts.jsonl line's fields as first defined, the stdin's base64 among them."""
    return {
        "variant": v.variant_label,
        "feature": v.feature_name,
        "disposition": v.disposition.value,
        "command_index": v.command_index,
        "mutant_index": v.input_used.mutant_index,
        "is_fuzzed": v.input_used.is_fuzzed,
        "verdict": v.value.value,
        "argv": list(v.input_used.argv),
        "stdin_b64": base64.b64encode(v.input_used.stdin).decode("ascii"),
        "comparators": [
            {"comparator": r.config.describe(), "matched": r.matched, "evidence": r.evidence}
            for r in v.evidence.per_comparator
        ],
        "all_matched": v.evidence.all_matched,
    }


def reference_jsonl(report: CampaignReport) -> bytes:
    """verdicts.jsonl as first defined: each line one json.dumps of its whole
    field dict, a list of lines, their join, its encode."""
    lines = []
    for label in sorted(report.per_variant):
        for v in report.per_variant[label]:
            lines.append(json.dumps(reference_verdict(v), sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def reference_summary(per_variant: dict[str, list[TestVerdict]]) -> dict:
    """summary.json's counts and fractions as first computed: one pass over
    each variant's set of verdict values, with the failing sets spelled out."""
    n = len(per_variant)
    error_or_crash = 0
    unremoved = 0
    passed = 0
    for label in per_variant:
        values = {v.value for v in per_variant[label]}
        if values & {Verdict.VARIANT_CRASH, Verdict.VARIANT_TIMEOUT, Verdict.UNEXPECTED_DIFFERENCE}:
            error_or_crash += 1
        if Verdict.UNEXPECTED_MATCH in values:
            unremoved += 1
        if not values & {
            Verdict.UNEXPECTED_DIFFERENCE, Verdict.UNEXPECTED_MATCH, Verdict.VARIANT_CRASH, Verdict.VARIANT_TIMEOUT
        }:
            passed += 1
    return {
        "variants_with_error_or_crash": {"count": error_or_crash, "fraction": error_or_crash / n},
        "variants_with_unremoved_feature": {"count": unremoved, "fraction": unremoved / n},
        "passed": passed,
    }


def reference_hex_escape(data: bytes) -> str:
    """Evidence's escaping as first computed: one byte at a time."""
    out = []
    for b in data:
        if 0x20 <= b <= 0x7E and b != 0x5C:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def reference_first_difference_excerpt(a: bytes, b: bytes) -> str:
    """The stream comparators' evidence as first computed: a loop over the bytes."""
    limit = min(len(a), len(b))
    idx = limit
    for i in range(limit):
        if a[i] != b[i]:
            idx = i
            break
    lo = max(0, idx - _CONTEXT)
    hi = idx + _CONTEXT
    text = (
        f"first difference at byte {idx}: "
        f"{reference_hex_escape(a[lo:hi])!r} vs {reference_hex_escape(b[lo:hi])!r}"
    )
    return text[:EVIDENCE_LIMIT]
