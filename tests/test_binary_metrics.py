from __future__ import annotations

import os
import re
import shutil
import struct
import subprocess
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debloateval import elf
from debloateval.binary_metrics import lib_delta, size_change
from debloateval.elf import ElfParseError, executable_segments, needed_libraries
from debloateval.exec_harness import NotComparableError
from debloateval.spec_model import BinaryRef

from conftest import LIBC, build_elf, write_elf


def ref(path: Path, libs: tuple[Path, ...] = (), static: bool = False) -> BinaryRef:
    return BinaryRef(path.name, exe_path=path, lib_paths=libs, statically_linked=static)


# --- ELF parsing ---------------------------------------------------------

def test_rejects_non_elf(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"\x00" * 100)
    for parse in (executable_segments, needed_libraries):
        with pytest.raises(ElfParseError):
            parse(path)


def test_rejects_truncated_elf(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(build_elf()[:40])
    for parse in (executable_segments, needed_libraries):
        with pytest.raises(ElfParseError):
            parse(path)


def test_rejects_missing_file(tmp_path):
    # An unopenable file is no parse fault: each reader raises the open's OSError.
    for parse in (executable_segments, needed_libraries):
        with pytest.raises(FileNotFoundError):
            parse(tmp_path / "absent")


_DYNAMIC_ELF = build_elf(b"\x5f\xc3", needed=["libc.so.6", "libm.so.6"])


def _flipped(blob: bytes, flips: list[tuple[int, int]]) -> bytes:
    out = bytearray(blob)
    for index, value in flips:
        out[index] = value
    return bytes(out)


# Arbitrary bytes, and copies of a complete dynamic ELF with up to 8 bytes
# overwritten (mostly in the ELF header) and cut at any length.
_ELF_LIKE = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda flips, cut: _flipped(_DYNAMIC_ELF, flips)[:cut],
        st.lists(
            st.tuples(st.integers(0, 63) | st.integers(0, len(_DYNAMIC_ELF) - 1), st.integers(0, 255)),
            max_size=8,
        ),
        st.integers(0, len(_DYNAMIC_ELF)),
    ),
)


@given(_ELF_LIKE)
@settings(max_examples=300, deadline=None)
def test_malformed_elf_raises_only_elf_parse_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("elf") / "blob"
    path.write_bytes(blob)
    for parse in (executable_segments, needed_libraries):
        try:
            parse(path)
        except ElfParseError:
            pass


def test_executable_segment_extraction(tmp_path):
    code = b"\x5f\xc3"
    path = write_elf(tmp_path, "prog", code=code)
    segments = executable_segments(path)
    assert len(segments) == 1
    vaddr, data = segments[0]
    assert vaddr == 0x400000
    assert data.endswith(code)


class _CountingReads:
    """Stands in for os.pread in debloateval.elf and counts the calls and the bytes read."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.bytes = 0
        self._pread = os.pread
        monkeypatch.setattr(elf.os, "pread", self)

    def __call__(self, fd, n, offset):
        self.calls += 1
        data = self._pread(fd, n, offset)
        self.bytes += len(data)
        return data

    def reads(self, parse) -> int:
        before = self.calls
        parse()
        return self.calls - before


def test_executable_segments_reads_a_file_once_while_it_keeps_its_identity(tmp_path, monkeypatch):
    path = write_elf(tmp_path, "prog", code=b"\x5f\xc3")
    reads = _CountingReads(monkeypatch)
    assert reads.reads(lambda: executable_segments(path)) > 0
    first = executable_segments(path)
    assert reads.reads(lambda: executable_segments(path)) == 0
    second = executable_segments(path)
    assert second == first and second is not first  # a new list each call
    second.clear()
    assert executable_segments(path) == first

    # The same size with another mtime, then another size: read again each time.
    stat = path.stat()
    path.write_bytes(build_elf(b"\x5e\xc3"))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))
    assert reads.reads(lambda: executable_segments(path)) > 0
    assert executable_segments(path)[0][1].endswith(b"\x5e\xc3")
    path.write_bytes(build_elf(b"\x5a\x5e\xc3"))
    assert reads.reads(lambda: executable_segments(path)) > 0
    assert executable_segments(path)[0][1].endswith(b"\x5a\x5e\xc3")

    # A copy is another inode, read on its own.
    copy = tmp_path / "copy"
    shutil.copy2(path, copy)
    assert reads.reads(lambda: executable_segments(copy)) > 0
    assert executable_segments(copy) == executable_segments(path)


def test_executable_segments_raises_again_on_a_malformed_file(tmp_path, monkeypatch):
    path = tmp_path / "short"
    path.write_bytes(build_elf()[:40])
    reads = _CountingReads(monkeypatch)
    for _ in range(2):
        before = reads.calls
        with pytest.raises(ElfParseError):
            executable_segments(path)
        assert reads.calls > before


def test_executable_segments_rejects_other_machines(tmp_path):
    image = bytearray(build_elf(b"\x5f\xc3", needed=["libc.so.6"]))
    struct.pack_into("<H", image, 18, 183)  # e_machine = EM_AARCH64
    path = tmp_path / "arm64-prog"
    path.write_bytes(image)
    with pytest.raises(ElfParseError, match=re.escape(str(path))):
        executable_segments(path)
    # Linked libraries do not depend on the machine.
    assert needed_libraries(path) == ["libc.so.6"]


def test_needed_libraries_reads_only_the_headers_and_the_dynamic_data(tmp_path, monkeypatch):
    image = build_elf(b"\x5f\xc3", needed=["libc.so.6", "libm.so.6"])
    path = tmp_path / "prog"
    path.write_bytes(image + bytes(4 << 20))  # a 4 MiB tail that no segment maps
    reads = _CountingReads(monkeypatch)
    assert needed_libraries(path) == ["libc.so.6", "libm.so.6"]
    assert 0 < reads.bytes < len(image)


def test_a_program_header_table_claimed_larger_than_the_file_is_rejected(tmp_path, monkeypatch):
    # e_phnum * e_phentsize claims about 4 GiB; no read may ask for more than the file holds.
    image = bytearray(build_elf(b"\x5f\xc3", needed=["libc.so.6"]).ljust(4096, b"\x00"))
    struct.pack_into("<HH", image, 54, 0xFFFF, 0xFFFF)  # e_phentsize, e_phnum
    path = tmp_path / "huge-table"
    path.write_bytes(image)
    reads = _CountingReads(monkeypatch)
    for parse in (executable_segments, needed_libraries):
        with pytest.raises(ElfParseError, match=re.escape(str(path))):
            parse(path)
    assert reads.bytes <= 2 * len(image)


def test_dynamic_elf_lists_needed_in_order(tmp_path):
    path = write_elf(tmp_path, "prog", needed=["libm.so.6", "libc.so.6"])
    assert needed_libraries(path) == ["libm.so.6", "libc.so.6"]


def test_static_elf_has_no_needed(tmp_path):
    path = write_elf(tmp_path, "prog")
    assert needed_libraries(path) == []


@pytest.mark.skipif(shutil.which("readelf") is None, reason="readelf unavailable")
def test_needed_matches_readelf(tmp_path):
    sonames = ["libm.so.6", "libpthread.so.0", "libc.so.6"]
    path = write_elf(tmp_path, "prog", needed=sonames)
    out = subprocess.run(
        ["readelf", "-d", str(path)], capture_output=True, text=True, check=True
    ).stdout
    reported = re.findall(r"Shared library: \[([^\]]+)\]", out)
    assert needed_libraries(path) == reported == sonames


@pytest.mark.skipif(shutil.which("readelf") is None, reason="readelf unavailable")
@pytest.mark.parametrize("name", ["/bin/ls", "gzip", "base64", "libc.so.6"])
def test_needed_matches_readelf_on_system_binary(name):
    found = str(LIBC) if name == "libc.so.6" and LIBC else shutil.which(name)
    if found is None:
        pytest.skip(f"{name} unavailable")
    path = Path(found)
    out = subprocess.run(
        ["readelf", "-d", str(path)], capture_output=True, text=True, check=True
    ).stdout
    reported = re.findall(r"Shared library: \[([^\]]+)\]", out)
    assert needed_libraries(path) == reported


# --- Size ----------------------------------------------------------------

def test_size_change_basic_pct(tmp_path):
    original = tmp_path / "orig"
    variant = tmp_path / "var"
    original.write_bytes(b"\x00" * 1000)
    variant.write_bytes(b"\x00" * 316)
    report = size_change(ref(original), ref(variant))
    assert report.pct == pytest.approx(31.6)
    assert not report.aggregate_mode
    assert report.original_bytes == 1000
    assert report.variant_bytes == 316


def test_size_change_identity(tmp_path):
    path = tmp_path / "p"
    path.write_bytes(b"x" * 128)
    assert size_change(ref(path), ref(path)).pct == pytest.approx(100.0)


def test_size_change_aggregates_for_static_variant(tmp_path):
    original = tmp_path / "orig"
    lib = tmp_path / "libc.so"
    variant = tmp_path / "var"
    original.write_bytes(b"\x00" * 100)
    lib.write_bytes(b"\x00" * 900)
    variant.write_bytes(b"\x00" * 500)
    report = size_change(ref(original, libs=(lib,)), ref(variant, static=True))
    assert report.aggregate_mode
    assert report.original_bytes == 1000
    assert report.pct == pytest.approx(50.0)


def test_size_change_aggregates_when_variant_ships_libs(tmp_path):
    original = tmp_path / "orig"
    variant = tmp_path / "var"
    vlib = tmp_path / "libmini.so"
    original.write_bytes(b"\x00" * 1000)
    variant.write_bytes(b"\x00" * 300)
    vlib.write_bytes(b"\x00" * 200)
    report = size_change(ref(original), ref(variant, libs=(vlib,)))
    assert report.aggregate_mode
    assert report.variant_bytes == 500


def test_size_change_empty_original_not_comparable(tmp_path):
    original = tmp_path / "orig"
    variant = tmp_path / "var"
    original.write_bytes(b"")
    variant.write_bytes(b"x")
    with pytest.raises(NotComparableError):
        size_change(ref(original), ref(variant))


# --- Library deltas ------------------------------------------------------

def test_lib_delta_eliminated_and_introduced(tmp_path):
    original = write_elf(tmp_path, "orig", needed=["libm.so.6", "libc.so.6"])
    variant = write_elf(tmp_path, "var", needed=["libc.so.6", "libz.so.1"])
    report = lib_delta(ref(original), ref(variant))
    assert report.eliminated == {"libm.so.6"}
    assert report.introduced == {"libz.so.1"}
    assert report.original_needed == ("libm.so.6", "libc.so.6")


def test_lib_delta_static_variant_eliminates_everything(tmp_path):
    original = write_elf(tmp_path, "orig", needed=["libc.so.6"])
    variant = write_elf(tmp_path, "var")
    report = lib_delta(ref(original), ref(variant))
    assert report.eliminated == {"libc.so.6"}
    assert report.introduced == frozenset()
    assert report.variant_needed == ()


def test_lib_delta_reads_each_side_needed(tmp_path):
    path = write_elf(tmp_path, "prog", needed=["liba.so"])
    report = lib_delta(ref(path), ref(path))
    assert report.original_needed == report.variant_needed == ("liba.so",)
    assert report.introduced == report.eliminated == frozenset()


_soname = st.from_regex(r"lib[a-z]{1,8}\.so(\.[0-9])?", fullmatch=True)


@given(st.lists(_soname, max_size=5, unique=True), st.lists(_soname, max_size=5, unique=True))
@settings(max_examples=40, deadline=None)
def test_lib_delta_is_antisymmetric(tmp_path_factory, left, right):
    tmp_path = tmp_path_factory.mktemp("libs")
    a = ref(write_elf(tmp_path, "a", needed=left))
    b = ref(write_elf(tmp_path, "b", needed=right))
    forward = lib_delta(a, b)
    backward = lib_delta(b, a)
    assert forward.introduced == backward.eliminated
    assert forward.eliminated == backward.introduced
    assert forward.introduced.isdisjoint(forward.eliminated)
