"""The length pass against an independent case analysis, across the subset, and against objdump;
decode's fields against a recorded digest."""

from __future__ import annotations

import hashlib
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from debloateval.elf import executable_segments
from debloateval.x86 import FIRST_BYTES, decode, instruction_bounds

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
    """Assert that the length pass, decode and the reference agree at offset."""
    bounds = instruction_bounds(buf, offset)
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


# sha256 of every repr(decode(buf, 0)) over _field_corpus(), one per line,
# taken from the decoder before its semantics became table rows. It pins
# every field of DecodedInstruction; a change that means to move a decoded
# field changes this digest and says why.
_FIELD_DIGEST = "1b991a52cb76f427b1b61ccd3ebb62d44ff4d3781f1f957325a0e9b59d5b45b7"


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

_LIBC_CANDIDATES = ("/lib/x86_64-linux-gnu/libc.so.6", "/usr/lib/x86_64-linux-gnu/libc.so.6", "/lib64/libc.so.6")
_LIBC_WINDOW = (0x20000, 0x50000)  # offsets into libc's .text: 192 KB of its code
_INSTRUCTION_LINE = re.compile(r"^ *([0-9a-f]+):\t((?:[0-9a-f]{2} )+)", re.M)


def _objdump_sweep(path: Path, window: tuple[int, int] | None = None) -> tuple[int, bytes, list[int]]:
    """(first address, code bytes, instruction lengths) of objdump's linear sweep of .text.

    The bytes are the ones objdump prints, so the decoder sees exactly what
    objdump decoded, laid end to end.
    """
    args = ["objdump", "-d", "-w", "-z", "-M", "intel", "--section=.text"]
    if window is not None:
        headers = subprocess.run(["objdump", "-h", str(path)], capture_output=True, text=True, check=True)
        text_vma = int(re.search(r"^ *\d+ \.text +\S+ +(\S+)", headers.stdout, re.M).group(1), 16)
        args += [f"--start-address={text_vma + window[0]:#x}", f"--stop-address={text_vma + window[1]:#x}"]
    listing = subprocess.run(args + [str(path)], capture_output=True, text=True, check=True).stdout
    first = None
    code = bytearray()
    lengths = []
    for match in _INSTRUCTION_LINE.finditer(listing):
        address, data = int(match.group(1), 16), bytes.fromhex(match.group(2))
        first = address if first is None else first
        assert address == first + len(code), (path, hex(address))  # one gapless sweep
        code += data
        lengths.append(len(data))
    return first, bytes(code), lengths


def _binary(name: str) -> Path:
    if shutil.which("objdump") is None:
        pytest.skip("objdump not installed")
    candidates = _LIBC_CANDIDATES if name == "libc" else (name,)
    found = next((Path(p) for p in candidates if Path(p).is_file()), None)
    if found is None:
        pytest.skip(f"{name} not present")
    return found


@pytest.mark.parametrize("name", ["/usr/bin/gzip", "/bin/ls", "libc"])
def test_every_accepted_instruction_has_objdumps_length(name):
    first, code, lengths = _objdump_sweep(_binary(name), _LIBC_WINDOW if name == "libc" else None)
    assert len(lengths) > 10_000
    offset = 0
    accepted = 0
    mismatches = []
    for length in lengths:
        bounds = instruction_bounds(code, offset)
        if bounds is not None:
            accepted += 1
            if bounds[0] != length:
                mismatches.append((hex(first + offset), code[offset : offset + length].hex(), bounds[0]))
        offset += length
    assert mismatches == []
    assert accepted > len(lengths) // 2
