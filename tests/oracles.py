"""Independent brute-force oracles used to cross-check the fast paths."""

from __future__ import annotations

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
