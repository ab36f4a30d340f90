"""Static binary size change and linked-library accounting.

Size is on-disk file size in bytes. When a variant is statically linked
(or ships its own library copies) both sides are compared in aggregate
mode: executable plus libraries. Library identity is the DT_NEEDED soname
string, not a resolved path.
"""

from __future__ import annotations

from dataclasses import dataclass
from stat import S_ISREG

from . import InputError, NotComparableError, elf
from .spec_model import BinaryRef


@dataclass(frozen=True)
class SizeReport:
    original_bytes: int
    variant_bytes: int
    pct: float
    aggregate_mode: bool


@dataclass(frozen=True)
class LibReport:
    original_needed: tuple[str, ...]
    variant_needed: tuple[str, ...]
    introduced: frozenset[str]
    eliminated: frozenset[str]


def _total_size(ref: BinaryRef, aggregate: bool) -> int:
    """Bytes on disk; a path that is not a regular file, such as a directory, has no size."""
    total = 0
    for path in (ref.exe_path, *ref.lib_paths) if aggregate else (ref.exe_path,):
        info = path.stat()
        if not S_ISREG(info.st_mode):
            raise InputError(f"{path}: not a regular file")
        total += info.st_size
    return total


def size_change(original: BinaryRef, variant: BinaryRef) -> SizeReport:
    """Disk-size delta as a percentage; under 100 means a reduction."""
    aggregate = variant.statically_linked or bool(variant.lib_paths)
    original_bytes = _total_size(original, aggregate)
    variant_bytes = _total_size(variant, aggregate)
    if original_bytes == 0:
        raise NotComparableError("original binary is empty")
    return SizeReport(
        original_bytes=original_bytes,
        variant_bytes=variant_bytes,
        pct=100.0 * variant_bytes / original_bytes,
        aggregate_mode=aggregate,
    )


def lib_delta(original: BinaryRef, variant: BinaryRef) -> LibReport:
    orig = elf.needed_libraries(original.exe_path)
    var = elf.needed_libraries(variant.exe_path)
    return LibReport(
        original_needed=tuple(orig),
        variant_needed=tuple(var),
        introduced=frozenset(var) - frozenset(orig),
        eliminated=frozenset(orig) - frozenset(var),
    )
