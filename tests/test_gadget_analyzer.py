from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debloateval.elf import executable_segments
from debloateval.gadget_analyzer import (
    CodeRegion,
    EXPRESSIVITY_CLASSES,
    MAX_GADGET_LEN,
    SPECIAL_TYPES,
    SecurityDelta,
    SyscallEvent,
    build_report,
    classify_expressivity,
    compare_sets,
    extract_code_regions,
    gadget_classes,
    gadget_special_types,
    locality,
    mean_quality,
    scan_gadgets,
    scan_regions,
    score_quality,
)
from debloateval.spec_model import BinaryRef
from debloateval.x86 import CALL_INDIRECT, JMP_INDIRECT, RET, SYSCALL, decode

from conftest import gadget, write_elf
from oracles import brute_force_scan


# --- Decoder spot checks ------------------------------------------------

@pytest.mark.parametrize(
    "raw,text",
    [
        (b"\xc3", "ret"),
        (b"\xc2\x08\x00", "ret 0x8"),
        (b"\x5f", "pop rdi"),
        (b"\x41\x5f", "pop r15"),
        (b"\x50", "push rax"),
        (b"\x48\x89\xc3", "mov rbx, rax"),
        (b"\x48\x8b\x03", "mov rax, [rbx]"),
        (b"\x48\x89\x03", "mov [rbx], rax"),
        (b"\x48\x01\xd0", "add rax, rdx"),
        (b"\x48\x29\xd8", "sub rax, rbx"),
        (b"\x48\x31\xc0", "xor rax, rax"),
        (b"\x48\x39\xd8", "cmp rax, rbx"),
        (b"\x48\x83\xc4\x08", "add rsp, 0x8"),
        (b"\x48\xc7", None),  # mov r/m, imm32 is outside the subset
        (b"\xb8\x2a\x00\x00\x00", "mov rax, 0x2a"),
        (b"\x48\x8d\x04\x24", "lea rax, [rsp]"),
        (b"\xc9", "leave"),
        (b"\x90", "nop"),
        (b"\x74\x02", "je +0x2"),
        (b"\x0f\x84\x00\x01\x00\x00", "je +0x100"),
        (b"\x0f\x05", "syscall"),
        (b"\xcd\x80", "int 0x80"),
        (b"\xcd\x03", None),  # only the 0x80 vector is a syscall
        (b"\xff\xe0", "jmp rax"),
        (b"\xff\xd0", "call rax"),
        (b"\xff\x20", "jmp [rax]"),
        (b"\xff\xc0", "inc rax"),
        (b"\x0f\xb6\xc3", "movzx rax, rbx"),
        (b"\x06", None),  # not in the subset
    ],
)
def test_decode_subset(raw, text):
    ins = decode(raw, 0)
    if text is None:
        assert ins is None
    else:
        assert ins is not None
        assert ins.text == text
        assert ins.length == len(raw)


def test_decode_terminator_flags():
    assert decode(b"\xc3", 0).terminator == RET
    assert decode(b"\xff\xe0", 0).terminator == JMP_INDIRECT
    assert decode(b"\xff\xd0", 0).terminator == CALL_INDIRECT
    assert decode(b"\x0f\x05", 0).terminator == SYSCALL
    assert decode(b"\x5f", 0).terminator is None


def test_decode_truncated_immediate():
    assert decode(b"\xb8\x01\x02", 0) is None
    assert decode(b"\xc2\x08", 0) is None


def test_decode_rex_extends_registers():
    ins = decode(b"\x4d\x89\xc1", 0)  # mov r9, r8
    assert ins.text == "mov r9, r8"


# --- Discovery ----------------------------------------------------------

def test_single_ret_is_a_gadget():
    gadgets = scan_gadgets(CodeRegion(0x1000, b"\xc3", "t"))
    assert {g.address for g in gadgets} == {0x1000}


def test_one_gadget_per_start_address():
    code = b"\x5f\x5e\xc3"  # pop rdi; pop rsi; ret
    gadgets = scan_gadgets(CodeRegion(0x1000, code, "t"))
    by_addr = {g.address: g for g in gadgets}
    assert set(by_addr) == {0x1000, 0x1001, 0x1002}
    assert by_addr[0x1000].text() == "pop rdi; pop rsi; ret"
    assert by_addr[0x1001].text() == "pop rsi; ret"
    assert by_addr[0x1002].text() == "ret"


def test_unintended_gadgets_from_misaligned_decode():
    # mov rax, 0x5fc30000's immediate hides "pop rdi; ret" at offset 3.
    code = b"\xb8\x00\x00\x5f\xc3"
    gadgets = scan_gadgets(CodeRegion(0, code, "t"))
    assert {g.address for g in gadgets} == {3, 4}


def test_gadget_ends_at_first_terminator():
    code = b"\x5f\xc3\xc3"
    by_addr = {g.address: g for g in scan_gadgets(CodeRegion(0, code, "t"))}
    assert by_addr[0].raw_bytes == b"\x5f\xc3"


def test_gadget_length_cap():
    code = b"\x90" * 20 + b"\xc3"
    gadgets = scan_gadgets(CodeRegion(0, code, "t"))
    assert max(len(g.instructions) for g in gadgets) == MAX_GADGET_LEN
    # Starts further than MAX_GADGET_LEN-1 single-byte instructions away
    # from the ret cannot reach it.
    assert min(g.address for g in gadgets) == 21 - MAX_GADGET_LEN


def test_undecodable_byte_breaks_chain():
    code = b"\x5f\x06\xc3"  # 0x06 is not decodable
    gadgets = scan_gadgets(CodeRegion(0, code, "t"))
    assert {g.address for g in gadgets} == {2}


def test_trailing_terminator_must_fit_in_region():
    assert scan_gadgets(CodeRegion(0, b"\x5f", "t")) == set()


def test_scan_regions_merges():
    found = scan_regions(
        [CodeRegion(0x1000, b"\xc3", "a"), CodeRegion(0x2000, b"\x5f\xc3", "b")]
    )
    assert {g.address for g in found} == {0x1000, 0x2000, 0x2001}


def test_scan_result_cannot_be_changed_by_a_caller():
    # Results are cached per region, so each caller must get an immutable set.
    region = CodeRegion(0x1000, b"\x5f\x5e\xc3", "t")
    with pytest.raises(AttributeError):
        scan_gadgets(region).clear()
    assert len(scan_gadgets(region)) == 3


# --- Oracle equivalence -------------------------------------------------

def test_scan_matches_brute_force_on_fixed_corpus():
    samples = [
        b"\xc3",
        b"\x5f\x5e\xc3",
        b"\xb8\x00\x00\x5f\xc3",
        b"\x48\x89\x03\xff\xe0",
        b"\x90" * 25 + b"\xc3" + b"\x0f\x05",
        bytes(range(256)),
    ]
    for data in samples:
        region = CodeRegion(0x400000, data, "t")
        assert scan_gadgets(region) == brute_force_scan(region)


@given(st.binary(min_size=1, max_size=96))
@settings(max_examples=150, deadline=None)
def test_scan_matches_brute_force_on_random_buffers(data):
    region = CodeRegion(0x1000, data, "t")
    assert scan_gadgets(region) == brute_force_scan(region)


def test_scan_matches_brute_force_on_gadget_dense_buffers():
    rng = random.Random(7)
    dense = bytes(
        rng.choice([0xC3, 0x5F, 0x5E, 0x58, 0x90, 0x48, 0x89, 0xFF, 0xE0, 0x0F, 0x05])
        for _ in range(512)
    )
    region = CodeRegion(0, dense, "t")
    assert scan_gadgets(region) == brute_force_scan(region)


@pytest.mark.parametrize("path", ["/usr/bin/gzip", "/bin/ls"])
def test_scan_matches_brute_force_on_system_binaries(path):
    if not Path(path).exists():
        pytest.skip(f"{path} unavailable")
    for vaddr, data in executable_segments(Path(path)):
        region = CodeRegion(vaddr, data, path)
        assert scan_gadgets(region) == brute_force_scan(region)


# --- Expressivity -------------------------------------------------------

@pytest.mark.parametrize(
    "code,expected",
    [
        (b"\x5f\xc3", {"load_reg_const"}),
        (b"\xb8\x2a\x00\x00\x00\xc3", {"load_reg_const"}),
        (b"\x48\x89\xc3\xc3", {"move_reg_reg"}),
        (b"\x48\x01\xd0\xc3", {"arithmetic_add"}),
        (b"\x48\x29\xd8\xc3", {"arithmetic_sub"}),
        (b"\x48\x31\xc0\xc3", {"logic"}),
        (b"\x48\x8b\x03\xc3", {"memory_read"}),
        (b"\x48\x89\x03\xc3", {"memory_write"}),
        (b"\x48\x39\xd8\xc3", {"compare_flags"}),
        (b"\x74\x02\xc3", {"conditional_control"}),
        (b"\x48\x83\xc4\x08\xc3", {"stack_lift"}),
        (b"\xc2\x08\x00", {"stack_lift"}),
        (b"\x0f\x05", {"syscall_invoke"}),
        (b"\xc3", set()),
        (b"\x90\xc3", set()),
    ],
)
def test_gadget_classes(code, expected):
    assert gadget_classes(gadget(code)) == expected


def test_every_expressivity_class_is_reachable():
    codes = [
        b"\x5f\xc3",
        b"\x48\x89\xc3\xc3",
        b"\x48\x01\xd0\xc3",
        b"\x48\x29\xd8\xc3",
        b"\x48\x31\xc0\xc3",
        b"\x48\x8b\x03\xc3",
        b"\x48\x89\x03\xc3",
        b"\x48\x39\xd8\xc3",
        b"\x74\x02\xc3",
        b"\xc2\x08\x00",
        b"\x0f\x05",
    ]
    gadgets = {gadget(code, base=0x1000 * (i + 1)) for i, code in enumerate(codes)}
    profile = classify_expressivity(gadgets)
    assert profile.satisfied == frozenset(EXPRESSIVITY_CLASSES)
    assert profile.count == 11


def test_classify_empty_set():
    profile = classify_expressivity(set())
    assert profile.count == 0


# --- Quality ------------------------------------------------------------

def test_bare_ret_scores_zero():
    assert score_quality(gadget(b"\xc3")) == 0.0


def test_first_body_instruction_is_free():
    assert score_quality(gadget(b"\x5f\xc3")) == 0.0


def test_later_body_instructions_are_minor():
    # pop rdi; pop rsi; pop rdx; ret -> 0 + 0.5 + 0.5
    assert score_quality(gadget(b"\x5f\x5e\x5a\xc3")) == 1.0


def test_memory_write_is_major_even_first():
    assert score_quality(gadget(b"\x48\x89\x03\xc3")) == 3.0


def test_stack_pointer_change_is_major():
    # pop rdi; add rsp, 8; ret -> 0 + 3.0
    assert score_quality(gadget(b"\x5f\x48\x83\xc4\x08\xc3")) == 3.0


def test_conditional_branch_is_major():
    assert score_quality(gadget(b"\x5f\x74\x02\xc3")) == 3.0


def test_nop_padding_is_not_penalized():
    assert score_quality(gadget(b"\x5f\x90\x90\xc3")) == 0.0


def test_mixed_constraints_sum():
    # pop rdi; pop rsi; mov [rbx], rax; ret -> 0 + 0.5 + 3.0
    assert score_quality(gadget(b"\x5f\x5e\x48\x89\x03\xc3")) == 3.5


def test_mean_quality_of_empty_set_is_zero():
    assert mean_quality(set()) == 0.0


def test_mean_quality_averages():
    gadgets = {gadget(b"\xc3", base=0x1000), gadget(b"\x5f\x5e\x5a\xc3", base=0x2000)}
    assert mean_quality(gadgets) == pytest.approx(0.5)


# --- Special-purpose types ----------------------------------------------

@pytest.mark.parametrize(
    "code,expected",
    [
        (b"\x0f\x05", {"syscall"}),
        (b"\xcd\x80", {"syscall"}),
        (b"\x5c\xc3", {"stack_pivot"}),  # pop rsp; ret
        (b"\xc9\xc3", {"stack_pivot"}),  # leave; ret
        (b"\x48\x87\xe0\xc3", {"stack_pivot"}),  # xchg rsp, rax; ret
        (b"\x48\x83\xc0\x08\xff\xe0", {"jop_dispatcher"}),  # add rax, 8; jmp rax
        (b"\x5e\xff\xe0", {"jop_dataloader"}),  # pop rsi; jmp rax
        (b"\x48\x89\xd8\xff\xe0", {"jop_initializer"}),  # mov rax, rbx; jmp rax
        (b"\xff\x20", {"jop_trampoline"}),  # jmp [rax]
        (b"\x48\x83\xc0\x08\xff\xd0", {"cop_dispatcher"}),
        (b"\x5e\xff\xd0", {"cop_dataloader"}),
        (b"\x48\x89\xd8\xff\xd0", {"cop_initializer"}),
        (b"\xff\x10", {"cop_trampoline"}),  # call [rax]
        (b"\xc3", set()),
        (b"\xff\xe0", set()),  # bare indirect jmp is no scaffold
    ],
)
def test_gadget_special_types(code, expected):
    assert gadget_special_types(gadget(code)) == expected


def test_dataloader_and_initializer_can_coincide():
    # pop rsi; mov rax, rbx; jmp rax
    types = gadget_special_types(gadget(b"\x5e\x48\x89\xd8\xff\xe0"))
    assert types == {"jop_dataloader", "jop_initializer"}


def test_all_special_types_are_reachable():
    codes = [
        b"\x0f\x05",
        b"\x48\x83\xc0\x08\xff\xe0",
        b"\x5e\xff\xe0",
        b"\x48\x89\xd8\xff\xe0",
        b"\xff\x20",
        b"\x48\x83\xc0\x08\xff\xd0",
        b"\x5e\xff\xd0",
        b"\x48\x89\xd8\xff\xd0",
        b"\xff\x10",
        b"\x5c\xc3",
    ]
    gadgets = {gadget(code, base=0x1000 * (i + 1)) for i, code in enumerate(codes)}
    report = build_report(gadgets)
    assert report.special_types == frozenset(SPECIAL_TYPES)
    assert report.syscall_gadget_count == 1


# --- Locality and deltas ------------------------------------------------

def test_locality_identical_sets_is_100():
    original = scan_gadgets(CodeRegion(0x1000, b"\x5f\x5e\xc3", "o"))
    variant = scan_gadgets(CodeRegion(0x1000, b"\x5f\x5e\xc3", "v"))
    assert original == variant  # the label plays no part in the scan
    assert locality(original, variant) == 100.0


def test_locality_empty_variant_is_zero():
    original = scan_gadgets(CodeRegion(0x1000, b"\xc3", "o"))
    assert locality(original, set()) == 0.0


def test_locality_counts_address_and_bytes():
    original = scan_gadgets(CodeRegion(0x1000, b"\x5f\x5e\xc3", "o"))  # 3 gadgets
    moved = scan_gadgets(CodeRegion(0x2000, b"\x5f\x5e\xc3", "v"))
    assert {g.address for g in moved} == {0x2000, 0x2001, 0x2002}  # same bytes, new base
    assert locality(original, moved) == 0.0
    partial = scan_gadgets(CodeRegion(0x1000, b"\x5a\x5e\xc3", "v"))
    # pop rsi; ret and ret survive at the same addresses; pop rdx differs.
    assert locality(original, partial) == pytest.approx(100.0 * 2 / 3)


def test_compare_sets_deltas_and_significance():
    original = build_report(scan_gadgets(CodeRegion(0, b"\x5f\x5e\x5a\xc3\x0f\x05", "o")))
    variant = build_report(scan_gadgets(CodeRegion(0, b"\xc3", "v")))
    delta = compare_sets(original, variant)
    assert delta.expressivity_delta == original.expressivity.count
    assert delta.quality_delta == pytest.approx(original.mean_quality)
    assert delta.sp_types_delta == 1  # syscall eliminated
    assert delta.syscall_event is SyscallEvent.ELIMINATED


def test_compare_sets_syscall_introduced():
    original = build_report(scan_gadgets(CodeRegion(0, b"\xc3", "o")))
    variant = build_report(scan_gadgets(CodeRegion(0, b"\x0f\x05", "v")))
    assert compare_sets(original, variant).syscall_event is SyscallEvent.INTRODUCED


def test_compare_sets_no_syscall_event_when_both_have_some():
    report = build_report(scan_gadgets(CodeRegion(0, b"\x0f\x05", "x")))
    assert compare_sets(report, report).syscall_event is SyscallEvent.NONE


def test_small_quality_delta_not_significant():
    a = build_report(scan_gadgets(CodeRegion(0, b"\x5f\x5e\x5a\xc3", "a")))
    b = build_report(scan_gadgets(CodeRegion(0, b"\x5f\x5e\xc3", "b")))
    delta = compare_sets(a, b)
    assert abs(delta.quality_delta) < 0.5
    assert not delta.quality_significant


def test_identity_delta_is_all_zero():
    report = build_report(scan_gadgets(CodeRegion(0, b"\x5f\x5e\x5a\xc3\x0f\x05", "x")))
    delta = compare_sets(report, report)
    assert delta == SecurityDelta(0, 0.0, 0, SyscallEvent.NONE, False)


# --- ELF extraction -----------------------------------------------------

def test_extract_code_regions_from_crafted_elf(tmp_path):
    code = b"\x5f\xc3"
    path = write_elf(tmp_path, "prog", code=code)
    ref = BinaryRef("prog", exe_path=path)
    regions = extract_code_regions(ref)
    assert len(regions) == 1
    assert code in regions[0].data
    gadgets = scan_regions(regions)
    assert any(g.text() == "pop rdi; ret" for g in gadgets)


def test_extract_code_regions_aggregates_libraries(tmp_path):
    exe = write_elf(tmp_path, "prog", code=b"\xc3")
    lib = write_elf(tmp_path, "libx.so", code=b"\x5f\xc3")
    ref = BinaryRef("prog", exe_path=exe, lib_paths=(lib,))
    alone = extract_code_regions(ref, aggregate_libs=False)
    combined = extract_code_regions(ref, aggregate_libs=True)
    assert len(combined) == len(alone) + 1
    assert any("libx.so" in r.source_label for r in combined)
