"""Minimal ELF64 little-endian introspection.

Only what the metrics need: executable PT_LOAD segments of x86-64 files
(for gadget scanning) and DT_NEEDED entries of the dynamic section (for
linked-library accounting, on any machine).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

ELF_MAGIC = b"\x7fELF"
ELFCLASS64 = 2
ELFDATA2LSB = 1
EM_X86_64 = 62

PT_LOAD = 1
PT_DYNAMIC = 2
PF_X = 1

DT_NULL = 0
DT_NEEDED = 1
DT_STRTAB = 5

_EHDR = struct.Struct("<16sHHIQQQIHHHHHH")
_PHDR = struct.Struct("<IIQQQQQQ")
_DYN = struct.Struct("<qQ")


class ElfParseError(Exception):
    pass


@dataclass(frozen=True)
class ProgramHeader:
    p_type: int
    p_flags: int
    p_offset: int
    p_vaddr: int
    p_filesz: int
    p_memsz: int


def _read_headers(data: bytes, source: str) -> list[ProgramHeader]:
    if len(data) < _EHDR.size:
        raise ElfParseError(f"{source}: file too small for an ELF header")
    (ident, _etype, _machine, _version, _entry, e_phoff, _shoff, _flags,
     _ehsize, e_phentsize, e_phnum, _shentsize, _shnum, _shstrndx) = _EHDR.unpack_from(data)
    if ident[:4] != ELF_MAGIC:
        raise ElfParseError(f"{source}: not an ELF file")
    if ident[4] != ELFCLASS64 or ident[5] != ELFDATA2LSB:
        raise ElfParseError(f"{source}: only ELF64 little-endian is supported")
    if e_phentsize < _PHDR.size:
        raise ElfParseError(f"{source}: bad program header entry size {e_phentsize}")
    headers = []
    for idx in range(e_phnum):
        off = e_phoff + idx * e_phentsize
        if off + _PHDR.size > len(data):
            raise ElfParseError(f"{source}: program header {idx} beyond end of file")
        p_type, p_flags, p_offset, p_vaddr, _paddr, p_filesz, p_memsz, _align = _PHDR.unpack_from(
            data, off
        )
        if p_offset + p_filesz > len(data):
            raise ElfParseError(f"{source}: segment {idx} data beyond end of file")
        headers.append(ProgramHeader(p_type, p_flags, p_offset, p_vaddr, p_filesz, p_memsz))
    return headers


def program_headers(path: Path) -> list[ProgramHeader]:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ElfParseError(f"{path}: {exc}") from exc
    return _read_headers(data, str(path))


def executable_segments(path: Path) -> list[tuple[int, bytes]]:
    """(vaddr, file bytes) of every executable PT_LOAD segment of an x86-64 ELF."""
    data = path.read_bytes()
    headers = _read_headers(data, str(path))
    machine = _EHDR.unpack_from(data)[2]
    if machine != EM_X86_64:
        raise ElfParseError(
            f"{path}: e_machine {machine} is not x86-64 ({EM_X86_64}); its code cannot be scanned"
        )
    out = []
    for ph in headers:
        if ph.p_type == PT_LOAD and ph.p_flags & PF_X and ph.p_filesz > 0:
            out.append((ph.p_vaddr, data[ph.p_offset : ph.p_offset + ph.p_filesz]))
    return out


def _vaddr_to_offset(headers: list[ProgramHeader], vaddr: int) -> int | None:
    for ph in headers:
        if ph.p_type == PT_LOAD and ph.p_vaddr <= vaddr < ph.p_vaddr + ph.p_filesz:
            return ph.p_offset + (vaddr - ph.p_vaddr)
    return None


def needed_libraries(path: Path) -> list[str]:
    """Ordered DT_NEEDED sonames; empty for statically linked binaries."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ElfParseError(f"{path}: {exc}") from exc
    headers = _read_headers(data, str(path))
    dynamic = next((ph for ph in headers if ph.p_type == PT_DYNAMIC), None)
    if dynamic is None:
        return []

    needed_offsets: list[int] = []
    strtab_vaddr: int | None = None
    pos = dynamic.p_offset
    end = dynamic.p_offset + dynamic.p_filesz
    while pos + _DYN.size <= end:
        tag, value = _DYN.unpack_from(data, pos)
        pos += _DYN.size
        if tag == DT_NULL:
            break
        if tag == DT_NEEDED:
            needed_offsets.append(value)
        elif tag == DT_STRTAB:
            strtab_vaddr = value
    if not needed_offsets:
        return []
    if strtab_vaddr is None:
        raise ElfParseError(f"{path}: dynamic section has DT_NEEDED but no DT_STRTAB")
    strtab_off = _vaddr_to_offset(headers, strtab_vaddr)
    if strtab_off is None:
        raise ElfParseError(f"{path}: DT_STRTAB address {strtab_vaddr:#x} not mapped by any segment")

    names = []
    for str_off in needed_offsets:
        start = strtab_off + str_off
        nul = data.find(b"\x00", start)
        if start >= len(data) or nul < 0:
            raise ElfParseError(f"{path}: DT_NEEDED string offset {str_off} out of range")
        names.append(data[start:nul].decode("utf-8", "replace"))
    return names
