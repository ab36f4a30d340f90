"""Minimal ELF64 little-endian introspection.

Only what the metrics need: executable PT_LOAD segments of x86-64 files
(for gadget scanning) and DT_NEEDED entries of the dynamic section (for
linked-library accounting, on any machine).

Both readers open the file once and ``os.pread`` only the parts they use,
never the whole file. Each reads the ELF header and the program header
table, checking every segment against the file's size. Then
``executable_segments`` reads the executable PT_LOAD segments, and
``needed_libraries`` reads the PT_DYNAMIC segment and, from the PT_LOAD
segment that maps DT_STRTAB, the string table up to that segment's end.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

from . import InputError

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


class ElfParseError(InputError):
    pass


@dataclass(frozen=True)
class ProgramHeader:
    p_type: int
    p_flags: int
    p_offset: int
    p_vaddr: int
    p_filesz: int


def _read_headers(fd: int, size: int, path: Path) -> tuple[int, list[ProgramHeader]]:
    """e_machine and the program headers, each checked against the file's size.

    Reads the ELF header, then the program header table; that read is
    bounded by the file's size, whatever e_phnum * e_phentsize claims.
    """
    head = os.pread(fd, _EHDR.size, 0)
    if len(head) < _EHDR.size:
        raise ElfParseError(f"{path}: file too small for an ELF header")
    (ident, _etype, machine, _version, _entry, e_phoff, _shoff, _flags,
     _ehsize, e_phentsize, e_phnum, _shentsize, _shnum, _shstrndx) = _EHDR.unpack(head)
    if ident[:4] != ELF_MAGIC:
        raise ElfParseError(f"{path}: not an ELF file")
    if ident[4] != ELFCLASS64 or ident[5] != ELFDATA2LSB:
        raise ElfParseError(f"{path}: only ELF64 little-endian is supported")
    if e_phentsize < _PHDR.size:
        raise ElfParseError(f"{path}: bad program header entry size {e_phentsize}")
    table = os.pread(fd, min(e_phnum * e_phentsize, size - e_phoff), e_phoff) if e_phoff < size else b""
    headers = []
    for idx in range(e_phnum):
        if idx * e_phentsize + _PHDR.size > len(table):
            raise ElfParseError(f"{path}: program header {idx} beyond end of file")
        p_type, p_flags, p_offset, p_vaddr, _paddr, p_filesz, _memsz, _align = _PHDR.unpack_from(
            table, idx * e_phentsize
        )
        if p_offset + p_filesz > size:
            raise ElfParseError(f"{path}: segment {idx} data beyond end of file")
        headers.append(ProgramHeader(p_type, p_flags, p_offset, p_vaddr, p_filesz))
    return machine, headers


# (st_dev, st_ino, st_size, st_mtime_ns) -> segments of every file read, with
# no bound: a command holds every side's code until it ends anyway. ELF
# files are read on one thread at a time.
_SEGMENTS: dict[tuple[int, int, int, int], list[tuple[int, bytes]]] = {}


def executable_segments(path: Path) -> list[tuple[int, bytes]]:
    """(vaddr, file bytes) of every executable PT_LOAD segment of an x86-64 ELF.

    The file is read once per process while it keeps its identity, with no
    bound on the number of files: a library that many binaries list is read
    once. Each call returns a new list; an ElfParseError is never kept.
    """
    with open(path, "rb") as file:
        fd = file.fileno()
        st = os.fstat(fd)
        identity = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
        segments = _SEGMENTS.get(identity)
        if segments is None:
            machine, headers = _read_headers(fd, st.st_size, path)
            if machine != EM_X86_64:
                raise ElfParseError(
                    f"{path}: e_machine {machine} is not x86-64 ({EM_X86_64}); its code cannot be scanned"
                )
            segments = _SEGMENTS[identity] = [
                (ph.p_vaddr, os.pread(fd, ph.p_filesz, ph.p_offset))
                for ph in headers
                if ph.p_type == PT_LOAD and ph.p_flags & PF_X and ph.p_filesz > 0
            ]
        return list(segments)


def needed_libraries(path: Path) -> list[str]:
    """Ordered DT_NEEDED sonames; empty for statically linked binaries."""
    with open(path, "rb") as file:
        fd = file.fileno()
        _, headers = _read_headers(fd, os.fstat(fd).st_size, path)
        dynamic = next((ph for ph in headers if ph.p_type == PT_DYNAMIC), None)
        if dynamic is None:
            return []
        needed_offsets: list[int] = []
        strtab_vaddr: int | None = None
        entries = os.pread(fd, dynamic.p_filesz - dynamic.p_filesz % _DYN.size, dynamic.p_offset)
        for tag, value in _DYN.iter_unpack(entries):
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
        load = next((ph for ph in headers if ph.p_type == PT_LOAD
                     and ph.p_vaddr <= strtab_vaddr < ph.p_vaddr + ph.p_filesz), None)
        if load is None:
            raise ElfParseError(f"{path}: DT_STRTAB address {strtab_vaddr:#x} not mapped by any segment")
        skip = strtab_vaddr - load.p_vaddr
        strtab = os.pread(fd, load.p_filesz - skip, load.p_offset + skip)

    names = []
    for str_off in needed_offsets:
        nul = strtab.find(b"\x00", str_off)
        if nul < 0:
            raise ElfParseError(f"{path}: DT_NEEDED string offset {str_off} out of range")
        names.append(strtab[str_off:nul].decode("utf-8", "replace"))
    return names
