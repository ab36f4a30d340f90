from __future__ import annotations

import json
import struct
import textwrap
from pathlib import Path

import pytest

from debloateval.gadget_analyzer import CodeRegion, Gadget, scan_gadgets

ELF_BASE_VADDR = 0x400000

# The C library the system binaries link, where distributions put it; None if absent.
LIBC = next(
    (Path(p) for p in ("/lib/x86_64-linux-gnu/libc.so.6", "/usr/lib/x86_64-linux-gnu/libc.so.6", "/lib64/libc.so.6")
     if Path(p).exists()),
    None,
)


def make_script(directory: Path, name: str, body: str) -> Path:
    """Write an executable /bin/sh script and return its path."""
    path = directory / name
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    path.chmod(0o755)
    return path


def build_elf(code: bytes = b"\xc3", needed: list[str] | None = None) -> bytes:
    """Craft a minimal ELF64 little-endian executable.

    One RX PT_LOAD segment holds the code; if sonames are given, a second
    read-only PT_LOAD plus a PT_DYNAMIC segment carry the dynamic section
    and its string table, and a small section header table (.dynstr,
    .dynamic, .shstrtab) is appended so external tools such as readelf can
    resolve the DT_NEEDED names too.
    """
    needed = needed or []
    ehdr_size = 64
    phdr_size = 56
    shdr_size = 64
    phnum = 1 if not needed else 3
    code_off = ehdr_size + phnum * phdr_size

    strtab = b"\x00"
    name_offsets = []
    for name in needed:
        name_offsets.append(len(strtab))
        strtab += name.encode() + b"\x00"

    dyn_off = code_off + len(code)
    dyn_entries = b""
    strtab_off = 0
    if needed:
        strtab_off = dyn_off + (len(needed) + 2) * 16
        for off in name_offsets:
            dyn_entries += struct.pack("<qQ", 1, off)  # DT_NEEDED
        dyn_entries += struct.pack("<qQ", 5, ELF_BASE_VADDR + strtab_off)  # DT_STRTAB
        dyn_entries += struct.pack("<qQ", 0, 0)  # DT_NULL

    shstrtab = b"\x00.dynstr\x00.dynamic\x00.shstrtab\x00"
    shstrtab_off = dyn_off + len(dyn_entries) + len(strtab)
    shoff = shstrtab_off + len(shstrtab) if needed else 0
    shnum = 4 if needed else 0

    ehdr = struct.pack(
        "<16sHHIQQQIHHHHHH",
        b"\x7fELF" + bytes([2, 1, 1]) + b"\x00" * 9,
        2,  # ET_EXEC
        0x3E,  # EM_X86_64
        1,
        ELF_BASE_VADDR + code_off,
        ehdr_size,
        shoff,
        0,
        ehdr_size,
        phdr_size,
        phnum,
        shdr_size if needed else 0,
        shnum,
        3 if needed else 0,  # e_shstrndx
    )

    def phdr(p_type, flags, off, size):
        return struct.pack(
            "<IIQQQQQQ", p_type, flags, off, ELF_BASE_VADDR + off, 0, size, size, 0x1000
        )

    phdrs = phdr(1, 0x5, 0, code_off + len(code))  # PT_LOAD R+X
    if needed:
        phdrs += phdr(1, 0x4, dyn_off, shstrtab_off - dyn_off)  # PT_LOAD R
        phdrs += phdr(2, 0x4, dyn_off, len(dyn_entries))  # PT_DYNAMIC

    blob = ehdr + phdrs + code + dyn_entries + strtab
    if not needed:
        return blob

    def shdr(name, sh_type, addr, off, size, link=0, entsize=0):
        return struct.pack(
            "<IIQQQQIIQQ", name, sh_type, 2, addr, off, size, link, 0, 1, entsize
        )

    shdrs = bytes(shdr_size)  # index 0 is the null section
    shdrs += shdr(1, 3, ELF_BASE_VADDR + strtab_off, strtab_off, len(strtab))  # .dynstr
    shdrs += shdr(9, 6, ELF_BASE_VADDR + dyn_off, dyn_off, len(dyn_entries),
                  link=1, entsize=16)  # .dynamic
    shdrs += shdr(18, 3, 0, shstrtab_off, len(shstrtab))  # .shstrtab
    return blob + shstrtab + shdrs


def write_elf(directory: Path, name: str, code: bytes = b"\xc3", needed: list[str] | None = None) -> Path:
    path = directory / name
    path.write_bytes(build_elf(code, needed))
    path.chmod(0o755)
    return path


def gadget(code: bytes, base: int = 0x1000) -> Gadget:
    """The gadget starting at the first byte of code (must exist)."""
    found = {g.address: g for g in scan_gadgets(CodeRegion(base, code, "test"))}
    return found[base]


@pytest.fixture
def toy_pair(tmp_path):
    """Original with features A and B, plus three variants.

    no_b: feature B compiled out (errors instead); same: unmodified copy;
    crash_a: feature A's handler dies on SIGSEGV.
    """
    original = make_script(
        tmp_path,
        "original",
        """\
        case "$1" in
          a) echo "feature A: $2";;
          b) echo "feature B: $2";;
          *) echo "usage" >&2; exit 2;;
        esac
        """,
    )
    no_b = make_script(
        tmp_path,
        "no_b",
        """\
        case "$1" in
          a) echo "feature A: $2";;
          b) echo "b: unknown feature" >&2; exit 1;;
          *) echo "usage" >&2; exit 2;;
        esac
        """,
    )
    same = make_script(
        tmp_path,
        "same",
        """\
        case "$1" in
          a) echo "feature A: $2";;
          b) echo "feature B: $2";;
          *) echo "usage" >&2; exit 2;;
        esac
        """,
    )
    crash_a = make_script(
        tmp_path,
        "crash_a",
        """\
        case "$1" in
          a) kill -SEGV $$;;
          b) echo "b: unknown feature" >&2; exit 1;;
          *) echo "usage" >&2; exit 2;;
        esac
        """,
    )
    return {"original": original, "no_b": no_b, "same": same, "crash_a": crash_a}


def toy_spec_doc(binaries: dict, variants: list[str], fuzz_count: int = 0, trials: int = 1) -> dict:
    return {
        "id": "toy",
        "original": {"label": "original", "exe": str(binaries["original"])},
        "variants": [{"label": name, "exe": str(binaries[name])} for name in variants],
        "features": [
            {
                "name": "feature-a",
                "disposition": "retain",
                "anchor": True,
                "commands": [
                    {"argv": ["a", "{{dict:alpha|beta|gamma}}"], "fuzz_count": fuzz_count}
                ],
            },
            {
                "name": "feature-b",
                "disposition": "debloat",
                "commands": [
                    {"argv": ["b", "{{ascii:1..6}}"], "fuzz_count": fuzz_count}
                ],
            },
        ],
        "timeout_seconds": 10,
        "trials": trials,
    }


def write_spec(tmp_path: Path, doc: dict, name: str = "spec.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


@pytest.fixture(autouse=True)
def scratch_env(tmp_path, monkeypatch):
    scratch = tmp_path / "scratch"
    scratch.mkdir(exist_ok=True)
    monkeypatch.setenv("DV_SCRATCH", str(scratch))
    return scratch
