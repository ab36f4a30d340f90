"""The length pass against an independent case analysis, across the subset, and against objdump;
decode's fields against objdump's operand text and a recorded digest."""

from __future__ import annotations

import functools
import hashlib
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from debloateval import x86
from debloateval.elf import executable_segments
from debloateval.x86 import FIRST_BYTES, decode, instruction_bounds

from conftest import LIBC
from oracles import reference_bounds

# No REX, then REX.W, REX.R and REX.B.
_PREFIXES = (b"", b"\x48", b"\x44", b"\x41")
_FILLER = bytes(range(0x11, 0x1A))  # no byte here ends an instruction early


def _full_buffer(prefix: bytes, escape: bytes, op: int, modrm: int) -> bytes:
    """prefix, escape, opcode and ModRM, then a SIB byte and filler.

    Where the ModRM asks for a SIB byte, an odd reg field makes its base 5,
    which takes a 32-bit displacement under mod 0.
    """
    sib = 0x25 if modrm & 8 else 0x24
    return prefix + escape + bytes([op, modrm, sib]) + _FILLER


def _check(buf: bytes, offset: int = 0) -> tuple[int, int] | None:
    """Assert that the length pass, decode and the reference agree at offset;
    return the length pass's (length, header length)."""
    bounds = instruction_bounds(buf, offset)
    if bounds is not None:
        bounds = bounds[:2]
    assert bounds == reference_bounds(buf, offset), (buf.hex(), offset)
    ins = decode(buf, offset)
    assert (ins is None) == (bounds is None), (buf.hex(), offset)
    if ins is not None:
        assert ins.length == bounds[0], (buf.hex(), offset)
    return bounds


def test_every_one_and_two_byte_string():
    for a in range(256):
        _check(bytes([a]))
        for b in range(256):
            _check(bytes([a, b]))


def test_first_bytes_are_the_bytes_an_instruction_can_start_with():
    # The sweep skips the length pass where FIRST_BYTES is 0: whatever
    # follows such a byte, nothing decodes there.
    tails = [bytes([t]) * 15 for t in range(256)]
    for a in range(256):
        decodes = any(instruction_bounds(bytes([a]) + tail, 0) is not None for tail in tails)
        assert FIRST_BYTES[a] == decodes, hex(a)


def _scan_matches(patterns: tuple, buf: bytes) -> bool:
    return any(pattern.match(buf) for pattern in patterns)


def test_the_terminator_patterns_follow_the_rows():
    # A table without jmp in group 5, or without the C3 row, drops those
    # bytes from the scan and keeps the rest.
    patterns = x86._terminator_patterns(x86._FORMS)
    assert all(_scan_matches(patterns, buf) for buf in (b"\xff\xe0", b"\xff\xd0", b"\xc3"))
    group5 = x86._GROUP5[:4] + (None,) + x86._GROUP5[5:]
    no_jmp = x86._terminator_patterns(x86._table(((0xFF,), x86._group(group5)), base=x86._FORMS))
    assert not _scan_matches(no_jmp, b"\xff\xe0") and _scan_matches(no_jmp, b"\xff\xd0")
    no_ret = x86._terminator_patterns(x86._table(((0xC3,), None), base=x86._FORMS))
    assert not _scan_matches(no_ret, b"\xc3") and _scan_matches(no_ret, b"\xc2\x08\x00")


@pytest.mark.parametrize("buf", [b"\x5f\xc3", b"\xc3", b"\x48\x89\xc3\xc3"], ids=bytes.hex)
def test_negative_offset_is_rejected(buf):
    # A negative offset must not index from the end of the buffer.
    for offset in range(-len(buf) - 1, 0):
        assert instruction_bounds(buf, offset) is None, (buf.hex(), offset)
        assert decode(buf, offset) is None, (buf.hex(), offset)
    assert instruction_bounds(buf, len(buf)) is None


@pytest.mark.parametrize("prefix", _PREFIXES, ids=lambda p: p.hex() or "none")
@pytest.mark.parametrize("escape", (b"", b"\x0f"), ids=("one-byte", "0f"))
def test_every_opcode_and_modrm_at_every_truncation(prefix, escape):
    # Bytes past the instruction must not change the result, and any cut
    # inside it must reject. A rejected form is decided by the bytes up to
    # the SIB byte, so it is cut up to there.
    opcode_to_sib = len(prefix + escape) + 3
    for op in range(256):
        for modrm in range(256):
            full = _full_buffer(prefix, escape, op, modrm)
            bounds = _check(full)
            length = opcode_to_sib + 1 if bounds is None else bounds[0]
            for cut in range(1, length):
                assert instruction_bounds(full[:cut], 0) is None, (full[:cut].hex(), bounds)
            if bounds is not None:
                _check(full[:length])


# sha256 of every repr(decode(buf, 0)) over _field_corpus(), one per line.
# It pins every field of DecodedInstruction; a change that means to move a
# decoded field changes this digest and says why. Last moved when 0F B6 and
# 0F BE without REX, ModRM mod 3 and rm 4-7 (the 64 buffers of movzx or
# movsx from ah, ch, dh or bh) came to name rax..rbx, not rsp..rdi.
_FIELD_DIGEST = "23e56b4ea6a8cbcad46f2681b03be642f47c2072d0e72adfe69e5d282601b486"


def _field_corpus():
    """Every 1-2 byte string, then every full buffer of the truncation test."""
    for a in range(256):
        yield bytes([a])
        for b in range(256):
            yield bytes([a, b])
    for prefix in _PREFIXES:
        for escape in (b"", b"\x0f"):
            for op in range(256):
                for modrm in range(256):
                    yield _full_buffer(prefix, escape, op, modrm)


def test_decoded_fields_match_the_recorded_digest():
    digest = hashlib.sha256()
    for buf in _field_corpus():
        digest.update(repr(decode(buf, 0)).encode() + b"\n")
    assert digest.hexdigest() == _FIELD_DIGEST


@pytest.mark.parametrize("path", ["/usr/bin/gzip", "/bin/ls"])
def test_every_offset_of_system_binaries(path):
    if not Path(path).exists():
        pytest.skip(f"{path} not present")
    decoded = 0
    for _, data in executable_segments(Path(path)):
        for offset in range(len(data)):
            decoded += _check(data, offset) is not None
    assert decoded > 0


# --- objdump, an independent disassembler --------------------------------

_LIBC_WINDOW = (0x20000, 0x50000)  # offsets into libc's .text: 192 KB of its code
_INSTRUCTION_LINE = re.compile(r"^ *([0-9a-f]+):\t((?:[0-9a-f]{2} )+) *\t?([^\n]*)", re.M)


@functools.cache
def _objdump_sweep(path: Path, window: tuple[int, int] | None) -> tuple[int, bytes, list[tuple[int, str]]]:
    """(first address, code bytes, (length, text) of each instruction) of objdump's linear sweep of .text.

    The bytes are the ones objdump prints, so the decoder sees exactly what
    objdump decoded, laid end to end. Each binary is disassembled once for
    every test that reads it.
    """
    args = ["objdump", "-d", "-w", "-z", "-M", "intel", "--section=.text"]
    if window is not None:
        headers = subprocess.run(["objdump", "-h", str(path)], capture_output=True, text=True, check=True)
        text_vma = int(re.search(r"^ *\d+ \.text +\S+ +(\S+)", headers.stdout, re.M).group(1), 16)
        args += [f"--start-address={text_vma + window[0]:#x}", f"--stop-address={text_vma + window[1]:#x}"]
    listing = subprocess.run(args + [str(path)], capture_output=True, text=True, check=True).stdout
    first = None
    code = bytearray()
    instructions = []
    for match in _INSTRUCTION_LINE.finditer(listing):
        address, data = int(match.group(1), 16), bytes.fromhex(match.group(2))
        first = address if first is None else first
        assert address == first + len(code), (path, hex(address))  # one gapless sweep
        code += data
        instructions.append((len(data), match.group(3)))
    return first, bytes(code), instructions


def _sweep_of(name: str) -> tuple[int, bytes, list[tuple[int, str]]]:
    if shutil.which("objdump") is None:
        pytest.skip("objdump not installed")
    path = LIBC if name == "libc" else Path(name)
    if path is None or not path.is_file():
        pytest.skip(f"{name} not present")
    return _objdump_sweep(path, _LIBC_WINDOW if name == "libc" else None)


_SWEPT = ["/usr/bin/gzip", "/bin/ls", "libc"]


@pytest.mark.parametrize("name", _SWEPT)
def test_every_accepted_instruction_has_objdumps_length(name):
    first, code, instructions = _sweep_of(name)
    assert len(instructions) > 10_000
    offset = 0
    accepted = 0
    mismatches = []
    for length, _ in instructions:
        bounds = instruction_bounds(code, offset)
        if bounds is not None:
            accepted += 1
            if bounds[0] != length:
                mismatches.append((hex(first + offset), code[offset : offset + length].hex(), bounds[0]))
        offset += length
    assert mismatches == []
    assert accepted > len(instructions) // 2


# How objdump's operand text maps onto the decoder's fields:
# - A register has its 64-bit name: objdump's 8-, 16- and 32-bit names map
#   to the 64-bit register, and ah, ch, dh and bh to rax, rcx, rdx and rbx.
# - objdump's movabs is the decoder's mov.
# - A [...] operand, or an absolute ds:0x... one, is memory; any other
#   operand that names no register is an immediate or a branch target.
# - The mnemonics in _WRITES_FIRST write their first operand; xchg writes
#   both. dest is the first written operand that is a register, and src
#   the last operand if it is a register other than dest; for call and
#   jmp, that register is branch_reg instead, and a memory operand sets
#   branch_mem.
# - A memory operand is read, except by lea, which takes only its address,
#   and as mov's first operand, which mov only writes. It is written if it
#   is a written operand.
# - leave has no operand in objdump's text; it writes rsp.
_REG64 = {
    name: names[0]
    for names in zip(
        ("rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi"),
        ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"),
        ("ax", "cx", "dx", "bx", "sp", "bp", "si", "di"),
        ("al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil"),
    )
    for name in names
}
_REG64.update({f"r{n}{size}": f"r{n}" for n in range(8, 16) for size in ("", "d", "w", "b")})
_REG64.update(ah="rax", ch="rcx", dh="rdx", bh="rbx")
_WRITES_FIRST = frozenset({"mov", "movzx", "movsx", "lea", "pop", "add", "or", "and", "sub", "xor", "inc", "dec", "xchg"})
_MEMORY_OPERAND = re.compile(r"\[.*\]|\bds:0x[0-9a-f]+$")


def _objdump_fields(text: str) -> dict:
    """The decoder's operand fields, derived from objdump's text of one instruction by the rules above."""
    text = re.sub(r"\s*(#.*|<[^>]*>)$", "", text)  # objdump's comment, or a branch target's symbol
    mnemonic, _, rest = text.partition(" ")
    mnemonic = "mov" if mnemonic == "movabs" else mnemonic
    operands = [op.strip() for op in rest.split(",")] if rest.strip() else []
    written = range(len(operands)) if mnemonic == "xchg" else [0] if mnemonic in _WRITES_FIRST else []
    registers = [_REG64.get(op) for op in operands]
    memory = [i for i, op in enumerate(operands) if _MEMORY_OPERAND.search(op)]
    dest_at = next((i for i in written if registers[i] is not None), None)
    src = registers[-1] if operands and len(operands) - 1 != dest_at else None
    branch = mnemonic in ("call", "jmp")
    return {
        "mnemonic": mnemonic,
        "dest": "rsp" if mnemonic == "leave" else None if dest_at is None else registers[dest_at],
        "src": None if branch else src,
        "reads_mem": bool(memory) and mnemonic != "lea" and not (memory == [0] and mnemonic == "mov"),
        "writes_mem": any(i in written for i in memory),
        "branch_reg": src if branch else None,
        "branch_mem": branch and bool(memory),
    }


@pytest.mark.parametrize("name", _SWEPT)
def test_every_accepted_instruction_has_objdumps_operands(name):
    first, code, instructions = _sweep_of(name)
    offset = 0
    accepted = 0
    mismatches = []
    for length, text in instructions:
        ins = decode(code, offset)
        if ins is not None:
            accepted += 1
            wrong = {field: (getattr(ins, field), value) for field, value in _objdump_fields(text).items()
                     if getattr(ins, field) != value}
            if wrong:  # each wrong field as (decoded, objdump's)
                mismatches.append((hex(first + offset), text, wrong))
        offset += length
    assert mismatches == []
    assert accepted > len(instructions) // 2
