from __future__ import annotations

import errno
import os
import random
import re
import statistics
import struct
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debloateval import gadget_analyzer, x86
from debloateval.elf import executable_segments
from debloateval.gadget_analyzer import (
    CodeRegion,
    EXPRESSIVITY_CLASSES,
    GadgetSummary,
    MAX_GADGET_LEN,
    SPECIAL_TYPES,
    SecurityDelta,
    SyscallEvent,
    _body_special_types,
    _instruction_classes,
    _is_major,
    build_report,
    compare_regions,
    compare_sets,
    extract_code_regions,
    locality,
    scan_gadgets,
    scan_regions,
    score_quality,
)
from debloateval.spec_model import BinaryRef
from debloateval.x86 import (
    CALL_INDIRECT,
    JMP_INDIRECT,
    RET,
    SYSCALL,
    DecodedInstruction,
    decode,
    instruction_bounds,
)

from conftest import LIBC, build_elf, gadget, write_elf
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


# Every field of the decoded instruction, for the register and the memory
# form of each ModRM row and for each row without ModRM. Fields left out
# hold their defaults.
@pytest.mark.parametrize(
    "hex_bytes,fields",
    [
        ("50", dict(mnemonic="push", text="push rax", src="rax")),
        ("415f", dict(mnemonic="pop", text="pop r15", dest="r15")),
        ("89c8", dict(mnemonic="mov", text="mov rax, rcx", dest="rax", src="rcx")),
        ("8908", dict(mnemonic="mov", text="mov [rax], rcx", src="rcx", writes_mem=True, mem_base="rax")),
        ("8bc1", dict(mnemonic="mov", text="mov rax, rcx", dest="rax", src="rcx")),
        ("8b0425785634f2", dict(mnemonic="mov", text="mov rax, [disp]", dest="rax", reads_mem=True)),
        ("4c8b05f0ffffff", dict(mnemonic="mov", text="mov r8, [rip]", dest="r8", reads_mem=True,
                                 mem_base="rip")),
        ("0108", dict(mnemonic="add", text="add [rax], rcx", src="rcx", reads_mem=True, writes_mem=True,
                      mem_base="rax", writes_flags=True)),
        ("03c8", dict(mnemonic="add", text="add rcx, rax", dest="rcx", src="rax", writes_flags=True)),
        ("2b4b08", dict(mnemonic="sub", text="sub rcx, [rbx]", dest="rcx", reads_mem=True, mem_base="rbx",
                        writes_flags=True)),
        ("39c8", dict(mnemonic="cmp", text="cmp rax, rcx", src="rcx", writes_flags=True)),
        ("3900", dict(mnemonic="cmp", text="cmp [rax], rax", src="rax", reads_mem=True, mem_base="rax",
                      writes_flags=True)),
        ("3bc1", dict(mnemonic="cmp", text="cmp rax, rcx", src="rcx", writes_flags=True)),
        ("3b00", dict(mnemonic="cmp", text="cmp rax, [rax]", reads_mem=True, mem_base="rax",
                      writes_flags=True)),
        ("85c8", dict(mnemonic="test", text="test rax, rcx", src="rcx", writes_flags=True)),
        ("8500", dict(mnemonic="test", text="test [rax], rax", src="rax", reads_mem=True, mem_base="rax",
                      writes_flags=True)),
        ("8138f0debc9a", dict(mnemonic="cmp", text="cmp [rax], -0x65432110", imm=-0x65432110,
                              reads_mem=True, mem_base="rax", writes_flags=True)),
        ("8100ff000000", dict(mnemonic="add", text="add [rax], 0xff", imm=0xFF, reads_mem=True,
                              writes_mem=True, mem_base="rax", writes_flags=True)),
        ("4883c408", dict(mnemonic="add", text="add rsp, 0x8", dest="rsp", imm=8, writes_flags=True)),
        ("83f8ff", dict(mnemonic="cmp", text="cmp rax, -0x1", imm=-1, writes_flags=True)),
        ("b82a000000", dict(mnemonic="mov", text="mov rax, 0x2a", dest="rax", imm=0x2A)),
        ("49bf0100000000000080", dict(mnemonic="mov", text="mov r15, -0x7fffffffffffffff", dest="r15",
                                      imm=-0x7FFFFFFFFFFFFFFF)),
        ("6878563412", dict(mnemonic="push", text="push 0x12345678", imm=0x12345678)),
        ("6aff", dict(mnemonic="push", text="push -0x1", imm=-1)),
        ("8d0424", dict(mnemonic="lea", text="lea rax, [rsp]", dest="rax", mem_base="rsp")),
        ("87c8", dict(mnemonic="xchg", text="xchg rax, rcx", dest="rax", src="rcx")),
        ("8700", dict(mnemonic="xchg", text="xchg [rax], rax", dest="rax", reads_mem=True, writes_mem=True,
                      mem_base="rax")),
        ("90", dict(mnemonic="nop", text="nop")),
        ("74fe", dict(mnemonic="je", text="je -0x2", imm=-2, is_cond_branch=True)),
        ("0f8f00010000", dict(mnemonic="jg", text="jg +0x100", imm=0x100, is_cond_branch=True)),
        ("c3", dict(mnemonic="ret", text="ret", terminator=RET)),
        ("c20800", dict(mnemonic="ret", text="ret 0x8", imm=8, terminator=RET)),
        ("c2f0ff", dict(mnemonic="ret", text="ret 0xfff0", imm=0xFFF0, terminator=RET)),
        ("c9", dict(mnemonic="leave", text="leave", dest="rsp")),
        ("cd80", dict(mnemonic="int", text="int 0x80", imm=0x80, terminator=SYSCALL)),
        ("0f05", dict(mnemonic="syscall", text="syscall", terminator=SYSCALL)),
        ("ffc0", dict(mnemonic="inc", text="inc rax", dest="rax", writes_flags=True)),
        ("ff08", dict(mnemonic="dec", text="dec [rax]", reads_mem=True, writes_mem=True, mem_base="rax",
                      writes_flags=True)),
        ("ffd0", dict(mnemonic="call", text="call rax", terminator=CALL_INDIRECT, branch_reg="rax")),
        ("ff10", dict(mnemonic="call", text="call [rax]", reads_mem=True, mem_base="rax",
                      terminator=CALL_INDIRECT, branch_mem=True)),
        ("41ffe4", dict(mnemonic="jmp", text="jmp r12", terminator=JMP_INDIRECT, branch_reg="r12")),
        ("41ff2424", dict(mnemonic="jmp", text="jmp [r12]", reads_mem=True, mem_base="r12",
                          terminator=JMP_INDIRECT, branch_mem=True)),
        ("fff0", dict(mnemonic="push", text="push rax", src="rax")),
        ("ff30", dict(mnemonic="push", text="push [rax]", reads_mem=True, mem_base="rax")),
        ("0fb6c3", dict(mnemonic="movzx", text="movzx rax, rbx", dest="rax", src="rbx")),
        ("0fbe00", dict(mnemonic="movsx", text="movsx rax, [rax]", dest="rax", reads_mem=True,
                        mem_base="rax")),
        # Byte registers without REX: 4-7 are ah, ch, dh and bh, so objdump's
        # movzx eax,ah and movsx edi,ch; with REX, spl; a word source, sp.
        ("0fb6c4", dict(mnemonic="movzx", text="movzx rax, rax", dest="rax", src="rax")),
        ("0fbefd", dict(mnemonic="movsx", text="movsx rdi, rcx", dest="rdi", src="rcx")),
        ("400fb6c4", dict(mnemonic="movzx", text="movzx rax, rsp", dest="rax", src="rsp")),
        ("0fb7c4", dict(mnemonic="movzx", text="movzx rax, rsp", dest="rax", src="rsp")),
    ],
)
def test_decode_every_field(hex_bytes, fields):
    raw = bytes.fromhex(hex_bytes)
    expected = DecodedInstruction(0, len(raw), **fields)
    assert decode(raw, 0)._asdict() == expected._asdict()


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
    assert by_addr[0x1000].raw_bytes == b"\x5f\x5e\xc3"
    assert by_addr[0x1001].raw_bytes == b"\x5e\xc3"
    assert by_addr[0x1002].raw_bytes == b"\xc3"


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
    # Each nop is one byte, so the longest gadget's length is its instruction count.
    assert max(len(g.raw_bytes) for g in gadgets) == MAX_GADGET_LEN
    # Starts further than MAX_GADGET_LEN-1 single-byte instructions away
    # from the ret cannot reach it.
    assert min(g.address for g in gadgets) == 21 - MAX_GADGET_LEN


def test_undecodable_byte_breaks_chain():
    code = b"\x5f\x06\xc3"  # 0x06 is not decodable
    gadgets = scan_gadgets(CodeRegion(0, code, "t"))
    assert {g.address for g in gadgets} == {2}


def test_trailing_terminator_must_fit_in_region():
    assert scan_gadgets(CodeRegion(0, b"\x5f", "t")) == set()


def test_empty_region_has_no_gadgets():
    assert scan_gadgets(CodeRegion(0x1000, b"", "t")) == frozenset()
    assert scan_regions([CodeRegion(0x1000, b"", "t")]) == frozenset()


def test_scan_regions_merges():
    found = scan_regions(
        [CodeRegion(0x1000, b"\xc3", "a"), CodeRegion(0x2000, b"\x5f\xc3", "b")]
    )
    assert {g.address for g in found} == {0x1000, 0x2000, 0x2001}


def test_scan_result_cannot_be_changed_by_a_caller():
    # scan_gadgets' set is the region's gadgets as the scan found them;
    # no caller may change it.
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


# Gadget-dense pieces: one-byte body instructions and terminators, FF and
# 0F forms whose ModRM or second byte decide whether they end a gadget, and
# undecodable runs longer than any instruction, so the sweep runs out of
# growable starts and must jump to the next terminator candidate.
_DENSE_PIECES = (
    [bytes([b]) for b in (0xC3, 0x5F, 0x5E, 0x58, 0x5C, 0x90, 0xC9, 0x48, 0x41, 0x0F, 0xFF, 0x05)]
    + [b"\xff" + bytes([modrm]) for modrm in (0xE0, 0xD0, 0x20, 0x10, 0x60, 0x50, 0xC0, 0xC8, 0x30, 0x38)]
    + [b"\xff\x14\x24", b"\xff\x24\x25", b"\xff\x25\x00\x00\x00\x00", b"\xff\x64\x24\x08"]
    + [b"\x0f\x05", b"\x0f\x84\x00\x01\x00\x00", b"\x0f\xb6\xc3", b"\x0f\x0b", b"\xcd\x80", b"\xcd\x03"]
    + [b"\xc2\x08\x00", b"\x48\x89\x03", b"\x48\x83\xc4\x08", b"\x48\x8d\x04\x24", b"\x74\x02"]
    + [b"\x48\xb8" + bytes(8), b"\x48\x81\x84\x24" + bytes(8)]  # 10 and 12 bytes, the longest forms
    + [b"\x06" * 16, b"\x06" * 23]
)


@given(st.lists(st.sampled_from(_DENSE_PIECES), min_size=1, max_size=48).map(b"".join))
@settings(max_examples=200, deadline=None)
def test_scan_matches_brute_force_on_dense_terminator_forms(data):
    region = CodeRegion(0x1000, data, "t")
    assert scan_gadgets(region) == brute_force_scan(region)


# Body instructions that write rax or rcx, and terminators that branch
# through rax, rcx, [rax], [rcx], [rsp] or no register: the facts of one
# body header differ by the terminator's target.
_TARGET_PIECES = (
    [b"\x48\x89\xd8", b"\x48\x89\xd9", b"\x48\x83\xc0\x08", b"\x48\x83\xc1\x08", b"\x48\x8d\x00"]
    + [b"\x48\x8d\x09", b"\x48\x83\xc4\x08", b"\x5e", b"\x90"]
    + [b"\xff" + bytes([modrm]) for modrm in (0xE0, 0xE1, 0x20, 0x21, 0xD0, 0xD1, 0x10, 0x11)]
    + [b"\xff\x14\x24", b"\xff\x24\x25\x00\x00\x00\x00", b"\xc3", b"\x0f\x05"]
)


@given(st.lists(st.sampled_from(_TARGET_PIECES), min_size=1, max_size=32).map(b"".join))
@settings(max_examples=200, deadline=None)
def test_scan_matches_brute_force_when_terminator_targets_differ(data):
    region = CodeRegion(0x1000, data, "t")
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
    assert build_report({gadget(code)}).expressivity == expected


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
    profile = build_report(gadgets).expressivity
    assert profile == frozenset(EXPRESSIVITY_CLASSES)
    assert len(profile) == 11


def test_classify_empty_set():
    profile = build_report(set()).expressivity
    assert len(profile) == 0


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
    assert build_report(set()).mean_quality == 0.0


def test_mean_quality_averages():
    gadgets = {gadget(b"\xc3", base=0x1000), gadget(b"\x5f\x5e\x5a\xc3", base=0x2000)}
    assert build_report(gadgets).mean_quality == pytest.approx(0.5)


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
    assert build_report({gadget(code)}).special_types == expected


def test_dataloader_and_initializer_can_coincide():
    # pop rsi; mov rax, rbx; jmp rax
    types = build_report({gadget(b"\x5e\x48\x89\xd8\xff\xe0")}).special_types
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
    assert report.syscall_count == 1


# ret, jmp rax, call [rbx], jmp [rip], syscall
_FACT_TERMINATORS = [
    decode(raw, 0) for raw in (b"\xc3", b"\xff\xe0", b"\xff\x13", b"\xff\x25\0\0\0\0", b"\x0f\x05")
]
_HEADER_FIELDS = (
    "mnemonic", "dest", "src", "reads_mem", "writes_mem", "writes_flags",
    "terminator", "branch_reg", "branch_mem", "is_cond_branch",
)


def _rows(table) -> list[int]:
    """The bytes that have a row in a decoder table."""
    return [byte for byte, row in enumerate(table) if row is not None]


@st.composite
def _headers(draw) -> bytes:
    """An instruction header the decoder accepts, drawn from its tables.

    An optional REX byte, an opcode with a row, the escape's byte if the row
    has one, and a ModRM byte that the row's ModRM table accepts.
    """
    header = b""
    forms = x86._FORMS
    if draw(st.booleans()):
        rex = draw(st.integers(0x40, 0x4F))
        header += bytes([rex])
        forms = x86._REX_W_FORMS if rex & 8 else x86._REX_FORMS
    op = draw(st.sampled_from(_rows(forms)))
    header += bytes([op])
    form = forms[op]
    if form.escape is not None:
        op = draw(st.sampled_from(_rows(form.escape)))
        header += bytes([op])
        form = form.escape[op]
    if form.modrm is not None:
        header += bytes([draw(st.sampled_from(_rows(form.modrm)))])
    return header


@settings(max_examples=300, deadline=None)
@given(_headers(), st.binary(min_size=12, max_size=12), st.binary(min_size=12, max_size=12))
def test_body_facts_follow_from_the_instruction_header(header, tail_a, tail_b):
    # The sweep keys body facts on the header (REX, opcode bytes, ModRM), so
    # instructions that differ only in SIB, displacement or immediate bytes
    # must give the same facts under every terminator.
    # Given enough bytes after it, the header alone decides that it decodes.
    a = decode(header + tail_a, 0)
    b = decode(header + tail_b, 0)
    assert a is not None and b is not None
    assert instruction_bounds(header + tail_a, 0)[1] == instruction_bounds(header + tail_b, 0)[1] == len(header)
    assert [getattr(a, f) for f in _HEADER_FIELDS] == [getattr(b, f) for f in _HEADER_FIELDS]
    assert (a.imm is None) == (b.imm is None)
    assert _instruction_classes(a, False) == _instruction_classes(b, False)
    assert _is_major(a) == _is_major(b)
    assert (a.mnemonic == "nop") == (b.mnemonic == "nop")
    for term in _FACT_TERMINATORS:
        assert _body_special_types(a, term) == _body_special_types(b, term)


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


# --- Sides composed from region summaries --------------------------------

# Buffers for region pools: gadget-dense ones and one with no gadget at all.
_BUFFERS = (
    st.lists(st.sampled_from(_DENSE_PIECES), min_size=1, max_size=10).map(b"".join)
    | st.just(b"\x06" * 20)
)
# 0x1000 and 0x1008 give overlapping address ranges; 0x2000 a disjoint one.
_BASES = (0x1000, 0x1008, 0x2000)


@st.composite
def _two_sides(draw):
    """An original and a variant side drawn from one pool of regions.

    The pool holds every buffer at every base: buffers that share a prefix
    (same-base regions then share some gadgets), and buffers shifted by 8
    bytes (their gadgets can sit at the addresses of the unshifted
    buffer's at the next base). Sides draw with replacement, so a region
    can be listed twice.
    """
    buffers = draw(st.lists(_BUFFERS, min_size=1, max_size=2))
    buffers += [b[: draw(st.integers(len(b) // 2, len(b)))] + draw(_BUFFERS) for b in buffers]
    buffers += [b[8:] for b in buffers if len(b) > 8]
    pool = [CodeRegion(base, data, "r") for base in _BASES for data in buffers]
    side = st.lists(st.sampled_from(pool), max_size=6)
    return draw(side), draw(side)


@given(_two_sides())
@settings(max_examples=200, deadline=None)
def test_composed_sides_equal_the_set_based_metrics(sides):
    original, variant = sides
    original_set, variant_set = scan_regions(original), scan_regions(variant)
    original_report, results = compare_regions(original, [variant, original])
    assert original_report == build_report(original_set)
    assert results == [
        (build_report(variant_set), locality(original_set, variant_set)),
        (original_report, locality(original_set, original_set)),
    ]
    # The summed quality gives fmean's value exactly.
    assert original_report.count == len(original_set)
    assert original_report.syscall_count == sum(g.terminator == SYSCALL for g in original_set)
    if original_set:
        assert original_report.mean_quality == statistics.fmean(g.quality for g in original_set)


def test_compare_regions_sweeps_each_region_once_and_never_records_a_shared_one(monkeypatch):
    swept, recorded = Counter(), Counter()
    sweep, scan = gadget_analyzer._sweep, gadget_analyzer.scan_gadgets
    monkeypatch.setattr(gadget_analyzer, "_sweep", lambda data, *span: swept.update([data]) or sweep(data, *span))
    monkeypatch.setattr(gadget_analyzer, "scan_gadgets", lambda r: recorded.update([r.data]) or scan(r))
    exe, slim, lib, m, n = b"\x5f\x5e\xc3", b"\x58\x5e\xc3", b"\x5a\x0f\x05", b"\x58\xc3", b"\x59\xc3"
    original = [CodeRegion(0x1000, exe, "o"), CodeRegion(0x4000, lib, "o"),
                CodeRegion(0x8000, m, "o"), CodeRegion(0x8000, n, "o")]
    slimmed = [CodeRegion(0x1000, slim, "v")] + original[1:]
    _, results = compare_regions(original, [slimmed, original[:2]])
    assert swept == Counter([exe, slim, lib, m, n])  # each region once
    # Neither a foreign region nor a region that shares its base is made into records.
    assert recorded == Counter()
    # 2 of slim's 3 gadgets are local, and the 5 of lib, m and n (m and n share a ret).
    assert [pct for _, pct in results] == [100.0 * 7 / 8, 100.0]

    # 40 regions each alone at its base and 40 more that share one base:
    # more of either kind than a fixed cache of 32 entries holds, listed by
    # the original and two variants.
    swept.clear()
    codes = [bytes([0x58 + i % 8]) * (1 + i // 8) + b"\xc3" for i in range(80)]
    singles = [CodeRegion(0x1000 * (i + 1), code, "o") for i, code in enumerate(codes[:40])]
    original = singles + [CodeRegion(0x100000, code, "o") for code in codes[40:]]
    original_report, results = compare_regions(original, [original[::-1], original])
    assert swept == Counter(codes)
    assert recorded == Counter()
    assert results == [(original_report, 100.0)] * 2
    assert original_report == build_report(scan_regions(original))


@given(_two_sides(), st.lists(st.sampled_from((*_BASES, 0x1004)), min_size=1, max_size=3), st.booleans(),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_an_empty_region_on_either_side_changes_no_summary_and_no_locality(sides, bases, on_original, on_variant):
    # 0x1004 lies inside the regions at 0x1000 and is the base of none.
    original, variant = sides
    empty = [CodeRegion(base, b"", "e") for base in bases]
    padded_original = [*empty, *original] if on_original else original
    padded_variant = [*variant, *empty] if on_variant else variant
    assert compare_regions(padded_original, [padded_variant]) == compare_regions(original, [variant])


@given(_two_sides())
@settings(max_examples=100, deadline=None)
def test_compare_regions_builds_no_gadget_record(sides):
    original, variant = sides
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("scan_gadgets", "scan_regions"):
            patch.setattr(gadget_analyzer, name, lambda *args, name=name: calls.append(name))
        compare_regions(original, [variant, original])
    assert calls == []


def test_a_foreign_gadget_that_runs_past_the_original_region_is_not_local():
    # The original holds pop rdi; pop rsi at 0x1000 and a ret right after it,
    # but in two regions: no original region holds the variant's first gadget.
    original = [CodeRegion(0x1000, b"\x5f\x5e", "o"), CodeRegion(0x1002, b"\xc3", "o")]
    variant = [CodeRegion(0x1000, b"\x5f\x5e\xc3", "v")]
    _, [(report, pct)] = compare_regions(original, [variant])
    assert report.count == 3
    assert pct == locality(scan_regions(original), scan_regions(variant)) == pytest.approx(100.0 / 3)


@pytest.mark.skipif(not (Path("/bin/cat").exists() and Path("/bin/tac").exists()), reason="cat or tac unavailable")
def test_compare_regions_on_cat_against_tac_equals_the_set_based_metrics():
    original = extract_code_regions(BinaryRef("cat", exe_path=Path("/bin/cat")))
    variant = extract_code_regions(BinaryRef("tac", exe_path=Path("/bin/tac")))
    original_set, variant_set = scan_regions(original), scan_regions(variant)
    original_report, results = compare_regions(original, [variant])
    assert original_report == build_report(original_set)
    assert results == [(build_report(variant_set), locality(original_set, variant_set))]


# --- Bounded sweeps and forked chunk summaries ----------------------------

def _chain_facts(data: bytes, spans) -> list[tuple]:
    """Each gadget the sweeps of spans yield, with every fact of its chain, sorted by start."""
    return sorted(
        (p, c.end, c.depth, c.term.terminator, c.class_mask, c.quality, c.special_mask)
        for lo, hi in spans
        for p, c in gadget_analyzer._sweep(data, lo, hi)
    )


def _serial_summary(data: bytes):
    return gadget_analyzer._fold(chain for _, chain in gadget_analyzer._sweep(data, 0, len(data)))


def _combined(parts) -> dict:
    """Summary parts, (key..., summary), combined by key."""
    by_key = {}
    for *key, summary in parts:
        by_key.setdefault(tuple(key), []).append(summary)
    return {key: gadget_analyzer._combine(summaries) for key, summaries in by_key.items()}


def _spans(data: bytes, cuts) -> list[tuple[int, int]]:
    cuts = sorted(cuts)
    return list(zip([0] + cuts, cuts + [len(data)]))


# The longest gadget the decoder admits, 116 bytes: nine 12-byte bodies
# (add [rsp+disp32], imm32) and an 8-byte call [rsp+disp32] with REX. The
# terminator's pattern ends 111 bytes after the gadget starts.
_LONGEST = b"\x48\x81\x84\x24" + bytes(8)
_LONGEST = _LONGEST * 9 + b"\x48\xff\x94\x24" + bytes(4)
# Around two of them: REX bytes before terminators, pieces that straddle
# any cut, and undecodable runs the sweep must jump.
_STRADDLES = (
    b"\x06" * 16 + _LONGEST + b"\x06" * 16 + b"\x5f\x41\xff\xe0" + b"\x06" * 16 + b"\x48\xc3"
    + b"\x48\x89\x03\x0f\x05" + _LONGEST + b"\x58\xc2\x08\x00" + b"\x06" * 40 + b"\x5e\xff\x24\x25" + bytes(4)
)


def test_the_longest_gadget_spans_116_bytes():
    starts = {p: c for p, c in gadget_analyzer._sweep(_STRADDLES, 0, len(_STRADDLES))}
    assert starts[16].depth == MAX_GADGET_LEN and starts[16].end - 16 == len(_LONGEST) == 116


def test_a_sweep_cut_anywhere_finds_the_gadgets_of_the_whole_sweep():
    # Every cut: inside instructions, between a REX byte and its
    # terminator, and where a terminator straddles hi + 150. A gadget that
    # starts just below a cut reaches 116 bytes past its start.
    whole = _chain_facts(_STRADDLES, [(0, len(_STRADDLES))])
    summary = _serial_summary(_STRADDLES)
    for cut in range(len(_STRADDLES) + 1):
        spans = _spans(_STRADDLES, [cut])
        assert _chain_facts(_STRADDLES, spans) == whole, cut
        chunks = [gadget_analyzer._chunk_summaries(_STRADDLES, *span, ()) for span in spans]
        assert _combined(part for chunk in chunks for part in chunk) == {(0,): summary}


# The terminator scan as one zero-width alternation: a lookahead hides no
# match behind another. The reference for the literal scans.
_TERMINATOR_ORACLE = re.compile(
    rb"(?=[\xc2\xc3]|\xcd\x80|\x0f\x05"
    rb"|\xff[\x10-\x17\x20-\x27\x50-\x57\x60-\x67\x90-\x97\xa0-\xa7\xd0-\xd7\xe0-\xe7])"
)


def _oracle_terminator_offsets(data: bytes, lo: int, hi: int) -> list[int]:
    offsets = []
    for match in _TERMINATOR_ORACLE.finditer(data, lo, hi + gadget_analyzer._REACH):
        start = match.start()
        if start > lo and 0x40 <= data[start - 1] <= 0x4F:
            offsets.append(start - 1)
        offsets.append(start)
    return offsets


def _rex_terminator_cuts(data: bytes) -> list[int]:
    """The offsets of terminator matches that follow a REX byte."""
    return [p for p in _oracle_terminator_offsets(data, 1, len(data)) if 0x40 <= data[p - 1] <= 0x4F]


@given(st.lists(st.sampled_from(_DENSE_PIECES + [b"\x40", b"\x4f", b"\x80", b"\x06" * 60]), max_size=64).map(b"".join),
       st.data())
@settings(max_examples=300, deadline=None)
def test_terminator_offsets_equal_the_alternation(data, draw):
    # lo just after a REX byte, where the REX byte before a match is not counted.
    after_rex = [p + 1 for p, byte in enumerate(data) if 0x40 <= byte <= 0x4F]
    lo = draw.draw(st.integers(0, len(data)) | (st.sampled_from(after_rex) if after_rex else st.nothing()))
    hi = draw.draw(st.integers(lo, len(data)))
    assert gadget_analyzer._terminator_offsets(data, lo, hi) == _oracle_terminator_offsets(data, lo, hi)


@pytest.mark.skipif(LIBC is None, reason="libc.so.6 unavailable")
def test_terminator_offsets_in_libc_equal_the_alternation():
    (_, data), = executable_segments(LIBC)
    for lo, hi in ((0, len(data)), (1, len(data) // 3), (len(data) // 3, len(data) - 1000)):
        assert gadget_analyzer._terminator_offsets(data, lo, hi) == _oracle_terminator_offsets(data, lo, hi)


def test_the_terminator_scan_finds_exactly_what_decode_calls_a_terminator():
    # The bytes that end a gadget are written twice: in the decoder's rows
    # and in the scan's patterns. A terminator the decoder learns must be
    # taught to the scan too, or the sweep never reaches its gadgets.
    filler = bytes(range(0x11, 0x1A))  # no byte here is a terminator's first byte
    for prefix in (b"", b"\x48", b"\x44", b"\x41"):
        for a in range(256):
            for b in range(256):
                buf = prefix + bytes([a, b]) + filler
                ins = decode(buf, 0)
                is_terminator = ins is not None and ins.terminator is not None
                assert is_terminator == (0 in gadget_analyzer._terminator_offsets(buf, 0, 1)), buf.hex()


@given(st.lists(st.sampled_from(_DENSE_PIECES + [_LONGEST]), min_size=1, max_size=48).map(b"".join), st.data())
@settings(max_examples=200, deadline=None)
def test_chunk_summaries_combine_to_the_serial_summary(data, draw):
    at_rex = _rex_terminator_cuts(data)
    cut = st.integers(0, len(data)) | (st.sampled_from(at_rex) if at_rex else st.nothing())
    spans = _spans(data, draw.draw(st.lists(cut, max_size=6)))
    chunks = [gadget_analyzer._chunk_summaries(data, lo, hi, ()) for lo, hi in spans]
    assert _combined(part for chunk in chunks for part in chunk) == {(0,): _serial_summary(data)}
    assert _chain_facts(data, spans) == _chain_facts(data, [(0, len(data))])


# Gadget-dense, 4 KB: forced into four spans of 1 KB.
_FORKED = bytes(random.Random(11).choices(b"\xc3\x5f\x5e\x58\x90\x48\x89\xff\xe0\x0f\x05", k=4096))
# The same bytes as three regions, so the cuts at 1, 2 and 3 KB fall inside
# the second and third.
_FORKED_REGIONS = [_FORKED[:700], _FORKED[700:2700], _FORKED[2700:]]


@pytest.fixture
def four_cpus(monkeypatch):
    """Four CPUs and 1 KB spans; the os.fork calls made are counted in the yielded list."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(gadget_analyzer, "_CHUNK_MIN", 1024)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("child", ["sweeps", "fails", "cannot be forked"])
def test_forked_chunk_summaries_equal_the_serial_one(four_cpus, monkeypatch, child):
    parent = os.getpid()
    serials = [_serial_summary(code) for code in _FORKED_REGIONS]
    swept_here = []
    sweep = gadget_analyzer._sweep

    def counted(data, lo, hi):
        if os.getpid() == parent:
            swept_here.append((lo, hi))
        return sweep(data, lo, hi)

    monkeypatch.setattr(gadget_analyzer, "_sweep", counted)
    if child == "fails":
        chunk_summaries = gadget_analyzer._chunk_summaries

        def failing(data, lo, hi, holders):
            if os.getpid() != parent:
                raise RuntimeError("a child that fails writes no summary")
            return chunk_summaries(data, lo, hi, holders)

        monkeypatch.setattr(gadget_analyzer, "_chunk_summaries", failing)
    if child == "cannot be forked":

        def no_fork():
            four_cpus.append(parent)
            raise BlockingIOError(errno.EAGAIN, "no process can be made")

        monkeypatch.setattr(os, "fork", no_fork)
    summaries = _combined(gadget_analyzer._summaries(_FORKED_REGIONS, [()] * 3))
    assert summaries == {(i, 0): serial for i, serial in enumerate(serials)}
    assert four_cpus == [parent] * 3
    # A child that wrote its summaries saves this process its span's sweeps.
    first_span, other_spans = [(0, 700), (0, 324)], [(324, 1348), (1348, 2000), (0, 372), (372, 1396)]
    assert swept_here == (first_span if child == "sweeps" else first_span + other_spans)
    _assert_no_child_left()


def _serial_summaries(data: bytes, holders) -> dict:
    """The summaries by holder mask, folded from the region's gadget records."""
    by_mask = {}
    for g in scan_gadgets(CodeRegion(0, data, "t")):
        held = [bit for bit, shift, code in holders if g.start + shift >= 0 and code.startswith(g.raw_bytes, g.start + shift)]
        by_mask.setdefault(sum(1 << bit for bit in held), []).append(g)
    return {mask: gadget_analyzer._fold(gadgets) for mask, gadgets in by_mask.items()}


def test_forked_chunk_summaries_by_holder_mask_equal_the_serial_ones(four_cpus):
    # Holders at the same base with a few bytes changed, one shifted up and
    # one shifted down by 8 bytes, and one that holds a single chunk.
    changed = bytearray(_FORKED)
    for at in range(100, 4096, 700):
        changed[at] = 0x06
    holders = ((0, 0, bytes(changed)), (2, 8, _FORKED[8:]), (3, -8, b"\x06" * 8 + _FORKED), (5, -2048, _FORKED[2048:3072]))
    summaries = _combined(gadget_analyzer._summaries([_FORKED], [holders]))
    assert summaries == {(0, mask): summary for mask, summary in _serial_summaries(_FORKED, holders).items()}
    assert len(summaries) > 4
    assert len(four_cpus) == 3
    _assert_no_child_left()


@pytest.mark.parametrize("cpus, size", [(1, 4096), (4, 1024), (4, 2047)])
def test_a_region_of_one_chunk_forks_nothing(four_cpus, monkeypatch, cpus, size):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert _combined(gadget_analyzer._summaries([_FORKED[:size]], [()])) == {(0, 0): _serial_summary(_FORKED[:size])}
    assert four_cpus == []


def test_an_interrupted_summary_kills_and_reaps_its_children(four_cpus, monkeypatch):
    parent = os.getpid()

    def interrupted(data, lo, hi, holders):
        if os.getpid() != parent:
            time.sleep(60)  # killed long before
        raise KeyboardInterrupt

    monkeypatch.setattr(gadget_analyzer, "_chunk_summaries", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        gadget_analyzer._summaries(_FORKED_REGIONS, [()] * 3)
    assert time.monotonic() - start < 30
    assert len(four_cpus) == 3
    _assert_no_child_left()


@pytest.mark.skipif(LIBC is None, reason="libc.so.6 unavailable")
def test_libc_summary_in_forked_chunks_equals_the_serial_one(four_cpus, monkeypatch):
    monkeypatch.setattr(gadget_analyzer, "_CHUNK_MIN", 256 * 1024)
    (_, data), = executable_segments(LIBC)
    assert _combined(gadget_analyzer._summaries([data], [()])) == {(0, 0): _serial_summary(data)}
    assert len(four_cpus) == 3
    _assert_no_child_left()


@given(st.lists(st.integers(1, 5000), max_size=12), st.integers(1, 16))
def test_a_plan_covers_each_region_once_in_spans_of_equal_size(sizes, workers):
    spans = gadget_analyzer._plan(sizes, workers)
    assert len(spans) == workers
    # End to end, the pieces run through every region from 0 to its size.
    joined: list[tuple[int, int, int]] = []
    for i, lo, hi in (piece for span in spans for piece in span):
        assert lo < hi
        if joined and joined[-1][0] == i and joined[-1][2] == lo:
            joined[-1] = (i, joined[-1][1], hi)
        else:
            joined.append((i, lo, hi))
    assert joined == [(i, 0, size) for i, size in enumerate(sizes)]
    lengths = [sum(hi - lo for _, lo, hi in span) for span in spans]
    assert max(lengths) - min(lengths) <= 1


def test_one_compare_regions_call_forks_one_child_fewer_than_its_workers(four_cpus):
    # Three regions of 4 KB, each once enough for four chunks of its own,
    # and 40 small ones, each at its own base; the variant adds foreign code
    # over the second, whose gadgets are checked against its bytes.
    original = [CodeRegion(0x10000 * (i + 1), _FORKED[i:] + _FORKED[:i], "o") for i in range(3)]
    original += [CodeRegion(0x100000 + 0x1000 * i, _FORKED[i * 97 : i * 97 + 200], "o") for i in range(40)]
    variant = original[::2] + [CodeRegion(0x20008, _FORKED[:3000], "v")]
    original_report, results = compare_regions(original, [variant])
    assert len(four_cpus) == 3
    original_set, variant_set = scan_regions(original), scan_regions(variant)
    assert original_report == build_report(original_set)
    assert results == [(build_report(variant_set), locality(original_set, variant_set))]
    _assert_no_child_left()


def test_sides_with_no_code_have_zero_summaries_and_fork_nothing(four_cpus, tmp_path):
    # The executable's only executable segment holds no file bytes, so it has no code region.
    elf = bytearray(build_elf())
    struct.pack_into("<Q", elf, 64 + 32, 0)  # the first program header's p_filesz
    (tmp_path / "empty").write_bytes(elf)
    empty = extract_code_regions(BinaryRef("empty", exe_path=tmp_path / "empty"))
    assert empty == []
    zero = GadgetSummary(0, 0, 0.0, 0, 0)
    assert compare_regions(empty, [empty, []]) == (zero, [(zero, 0.0), (zero, 0.0)])
    assert four_cpus == []


def test_compare_sets_deltas_and_significance():
    original = build_report(scan_gadgets(CodeRegion(0, b"\x5f\x5e\x5a\xc3\x0f\x05", "o")))
    variant = build_report(scan_gadgets(CodeRegion(0, b"\xc3", "v")))
    delta = compare_sets(original, variant)
    assert delta.expressivity_delta == len(original.expressivity)
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
    assert any(g.raw_bytes == b"\x5f\xc3" for g in gadgets)  # pop rdi; ret


def test_extract_code_regions_aggregates_libraries(tmp_path):
    exe = write_elf(tmp_path, "prog", code=b"\xc3")
    lib = write_elf(tmp_path, "libx.so", code=b"\x5f\xc3")
    ref = BinaryRef("prog", exe_path=exe, lib_paths=(lib,))
    alone = extract_code_regions(ref, aggregate_libs=False)
    combined = extract_code_regions(ref, aggregate_libs=True)
    assert len(combined) == len(alone) + 1
    assert any("libx.so" in r.source_label for r in combined)
