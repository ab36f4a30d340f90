from __future__ import annotations

import re
import shutil
import struct
import subprocess
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debloateval.binary_metrics import (
    ElfParseError,
    lib_delta,
    linked_libraries,
    size_change,
)
from debloateval.elf import executable_segments, needed_libraries, program_headers
from debloateval.exec_harness import NotComparableError
from debloateval.spec_model import BinaryRef

from conftest import build_elf, write_elf


def ref(path: Path, libs: tuple[Path, ...] = (), static: bool = False) -> BinaryRef:
    return BinaryRef(path.name, exe_path=path, lib_paths=libs, statically_linked=static)


# --- ELF parsing ---------------------------------------------------------

def test_rejects_non_elf(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(ElfParseError):
        program_headers(path)


def test_rejects_truncated_elf(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(build_elf()[:40])
    with pytest.raises(ElfParseError):
        program_headers(path)


def test_rejects_missing_file(tmp_path):
    with pytest.raises(ElfParseError):
        needed_libraries(tmp_path / "absent")


def test_executable_segment_extraction(tmp_path):
    code = b"\x5f\xc3"
    path = write_elf(tmp_path, "prog", code=code)
    segments = executable_segments(path)
    assert len(segments) == 1
    vaddr, data = segments[0]
    assert vaddr == 0x400000
    assert data.endswith(code)


def test_executable_segments_rejects_other_machines(tmp_path):
    image = bytearray(build_elf(b"\x5f\xc3", needed=["libc.so.6"]))
    struct.pack_into("<H", image, 18, 183)  # e_machine = EM_AARCH64
    path = tmp_path / "arm64-prog"
    path.write_bytes(image)
    with pytest.raises(ElfParseError, match=re.escape(str(path))):
        executable_segments(path)
    # Headers and linked libraries do not depend on the machine.
    assert len(program_headers(path)) == 3
    assert needed_libraries(path) == ["libc.so.6"]


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
def test_needed_matches_readelf_on_system_binary():
    path = Path("/bin/ls")
    if not path.exists():
        pytest.skip("/bin/ls unavailable")
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


def test_linked_libraries_wrapper(tmp_path):
    path = write_elf(tmp_path, "prog", needed=["liba.so"])
    assert linked_libraries(ref(path)) == ["liba.so"]


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
