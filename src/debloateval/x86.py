"""Table-driven x86-64 subset decoder for gadget discovery.

Covers the instruction forms that matter for code-reuse gadget semantics:
register moves, push/pop, add/sub/logic/compare, memory loads and stores,
lea, leave, ret/ret-imm16, indirect jmp/call through ModRM, syscall,
int 0x80, and short/near conditional branches. An offset whose bytes do
not decode under this subset cannot be part of a gadget. One optional REX
prefix is recognized; other prefixes are treated as undecodable.

``decode`` reads the optional REX byte and the opcode, then dispatches
through one 256-entry table of handlers (the ``0F`` escape has its own
table for the second byte). An opcode outside the subset costs a single
lookup that finds no handler.
"""

from __future__ import annotations

from typing import NamedTuple

REGS = (
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)

# Terminator kinds
RET = "ret"
JMP_INDIRECT = "jmp_indirect"
CALL_INDIRECT = "call_indirect"
SYSCALL = "syscall"

_CC_NAMES = ("o", "no", "b", "ae", "e", "ne", "be", "a", "s", "ns", "p", "np", "l", "ge", "le", "g")


class DecodedInstruction(NamedTuple):
    offset: int
    length: int
    mnemonic: str
    text: str
    dest: str | None = None          # destination register, if any
    src: str | None = None           # source register, if any
    imm: int | None = None
    reads_mem: bool = False
    writes_mem: bool = False
    mem_base: str | None = None      # base register of the memory operand
    writes_flags: bool = False
    terminator: str | None = None
    branch_reg: str | None = None    # register operand of an indirect branch
    branch_mem: bool = False         # indirect branch through memory
    is_cond_branch: bool = False


class _ModRM(NamedTuple):
    reg: int            # extended reg field
    is_mem: bool
    rm_reg: str | None  # register name for register-direct rm
    mem_base: str | None
    end: int            # offset just past ModRM/SIB/disp


_DISP_SIZE = (0, 1, 4)  # by ModRM mod field, memory forms only


def _parse_modrm(buf: bytes, i: int, rex: int) -> _ModRM | None:
    if i >= len(buf):
        return None
    m = buf[i]
    i += 1
    mod, reg, rm = m >> 6, (m >> 3) & 7, m & 7
    reg += 8 * ((rex >> 2) & 1)  # REX.R
    if mod == 3:
        return _ModRM(reg, False, REGS[rm + 8 * (rex & 1)], None, i)

    base: str | None = None
    disp_size = _DISP_SIZE[mod]
    if rm == 4:  # SIB byte
        if i >= len(buf):
            return None
        sib = buf[i]
        i += 1
        base_bits = sib & 7
        if base_bits == 5 and mod == 0:
            disp_size = 4
        else:
            base = REGS[base_bits + 8 * (rex & 1)]
    elif rm == 5 and mod == 0:  # RIP-relative
        disp_size = 4
        base = "rip"
    else:
        base = REGS[rm + 8 * (rex & 1)]
    if i + disp_size > len(buf):
        return None
    return _ModRM(reg, True, None, base, i + disp_size)


def _imm(buf: bytes, i: int, size: int) -> int | None:
    if i + size > len(buf):
        return None
    return int.from_bytes(buf[i : i + size], "little", signed=True)


def _mem_text(mod: _ModRM) -> str:
    return f"[{mod.mem_base or 'disp'}]"


# Each handler takes (buf, offset, i, rex, op): i is the index just past
# the opcode byte, op the opcode. It returns the instruction or None.

def _push_reg(buf, offset, i, rex, op):
    reg = REGS[(op - 0x50) + 8 * (rex & 1)]
    return DecodedInstruction(offset, i - offset, "push", f"push {reg}", src=reg)


def _pop_reg(buf, offset, i, rex, op):
    reg = REGS[(op - 0x58) + 8 * (rex & 1)]
    return DecodedInstruction(offset, i - offset, "pop", f"pop {reg}", dest=reg)


def _mov_modrm(buf, offset, i, rex, op):  # 89: mov r/m, r; 8B: mov r, r/m
    mod = _parse_modrm(buf, i, rex)
    if mod is None:
        return None
    reg = REGS[mod.reg]
    length = mod.end - offset
    if op == 0x89:
        if mod.is_mem:
            return DecodedInstruction(offset, length, "mov", f"mov {_mem_text(mod)}, {reg}",
                                      src=reg, writes_mem=True, mem_base=mod.mem_base)
        return DecodedInstruction(offset, length, "mov", f"mov {mod.rm_reg}, {reg}",
                                  dest=mod.rm_reg, src=reg)
    if mod.is_mem:
        return DecodedInstruction(offset, length, "mov", f"mov {reg}, {_mem_text(mod)}",
                                  dest=reg, reads_mem=True, mem_base=mod.mem_base)
    return DecodedInstruction(offset, length, "mov", f"mov {reg}, {mod.rm_reg}",
                              dest=reg, src=mod.rm_reg)


# Two-operand ALU opcodes: opcode -> (mnemonic, direction reg->rm?)
_ALU = {
    0x01: ("add", True), 0x29: ("sub", True), 0x21: ("and", True),
    0x09: ("or", True), 0x31: ("xor", True), 0x39: ("cmp", True),
    0x03: ("add", False), 0x2B: ("sub", False), 0x23: ("and", False),
    0x0B: ("or", False), 0x33: ("xor", False), 0x3B: ("cmp", False),
}


def _alu(buf, offset, i, rex, op):
    mnem, to_rm = _ALU[op]
    mod = _parse_modrm(buf, i, rex)
    if mod is None:
        return None
    reg = REGS[mod.reg]
    length = mod.end - offset
    compare_only = mnem == "cmp"
    if mod.is_mem:
        if to_rm:
            return DecodedInstruction(offset, length, mnem, f"{mnem} {_mem_text(mod)}, {reg}",
                                      src=reg, reads_mem=True, writes_mem=not compare_only,
                                      mem_base=mod.mem_base, writes_flags=True)
        return DecodedInstruction(offset, length, mnem, f"{mnem} {reg}, {_mem_text(mod)}",
                                  dest=None if compare_only else reg, reads_mem=True,
                                  mem_base=mod.mem_base, writes_flags=True)
    dst, src = (mod.rm_reg, reg) if to_rm else (reg, mod.rm_reg)
    return DecodedInstruction(offset, length, mnem, f"{mnem} {dst}, {src}",
                              dest=None if compare_only else dst, src=src, writes_flags=True)


def _test(buf, offset, i, rex, op):  # 85: test r/m, r
    mod = _parse_modrm(buf, i, rex)
    if mod is None:
        return None
    reg = REGS[mod.reg]
    length = mod.end - offset
    if mod.is_mem:
        return DecodedInstruction(offset, length, "test", f"test {_mem_text(mod)}, {reg}",
                                  src=reg, reads_mem=True, mem_base=mod.mem_base,
                                  writes_flags=True)
    return DecodedInstruction(offset, length, "test", f"test {mod.rm_reg}, {reg}",
                              src=reg, writes_flags=True)


# Group-1 immediate arithmetic, indexed by the ModRM reg field.
_GRP1 = {0: "add", 1: "or", 4: "and", 5: "sub", 6: "xor", 7: "cmp"}


def _group1(buf, offset, i, rex, op):  # 81: r/m, imm32; 83: r/m, imm8
    mod = _parse_modrm(buf, i, rex)
    if mod is None or mod.reg % 8 not in _GRP1:
        return None
    mnem = _GRP1[mod.reg % 8]
    size = 4 if op == 0x81 else 1
    value = _imm(buf, mod.end, size)
    if value is None:
        return None
    length = mod.end + size - offset
    compare_only = mnem == "cmp"
    if mod.is_mem:
        return DecodedInstruction(offset, length, mnem, f"{mnem} {_mem_text(mod)}, {value:#x}",
                                  imm=value, reads_mem=True, writes_mem=not compare_only,
                                  mem_base=mod.mem_base, writes_flags=True)
    return DecodedInstruction(offset, length, mnem, f"{mnem} {mod.rm_reg}, {value:#x}",
                              dest=None if compare_only else mod.rm_reg, imm=value,
                              writes_flags=True)


def _mov_imm(buf, offset, i, rex, op):  # B8+r: mov r, imm32/imm64
    reg = REGS[(op - 0xB8) + 8 * (rex & 1)]
    size = 8 if rex & 8 else 4
    value = _imm(buf, i, size)
    if value is None:
        return None
    return DecodedInstruction(offset, i + size - offset, "mov", f"mov {reg}, {value:#x}",
                              dest=reg, imm=value)


def _push_imm(buf, offset, i, rex, op):  # 68: imm32; 6A: imm8
    size = 4 if op == 0x68 else 1
    value = _imm(buf, i, size)
    if value is None:
        return None
    return DecodedInstruction(offset, i + size - offset, "push", f"push {value:#x}", imm=value)


def _lea(buf, offset, i, rex, op):
    mod = _parse_modrm(buf, i, rex)
    if mod is None or not mod.is_mem:
        return None
    reg = REGS[mod.reg]
    return DecodedInstruction(offset, mod.end - offset, "lea", f"lea {reg}, {_mem_text(mod)}",
                              dest=reg, mem_base=mod.mem_base)


def _xchg(buf, offset, i, rex, op):  # 87: xchg r/m, r
    mod = _parse_modrm(buf, i, rex)
    if mod is None:
        return None
    reg = REGS[mod.reg]
    length = mod.end - offset
    if mod.is_mem:
        return DecodedInstruction(offset, length, "xchg", f"xchg {_mem_text(mod)}, {reg}",
                                  dest=reg, reads_mem=True, writes_mem=True,
                                  mem_base=mod.mem_base)
    return DecodedInstruction(offset, length, "xchg", f"xchg {mod.rm_reg}, {reg}",
                              dest=mod.rm_reg, src=reg)


def _nop(buf, offset, i, rex, op):
    if rex:
        return None
    return DecodedInstruction(offset, i - offset, "nop", "nop")


def _jcc(buf, offset, i, rex, op):  # 70+cc: rel8; 0F 80+cc: rel32
    size = 1 if op < 0x80 else 4
    value = _imm(buf, i, size)
    if value is None:
        return None
    cc = _CC_NAMES[op & 0xF]
    return DecodedInstruction(offset, i + size - offset, f"j{cc}", f"j{cc} {value:+#x}",
                              imm=value, is_cond_branch=True)


def _ret(buf, offset, i, rex, op):  # C3: ret; C2: ret imm16
    if op == 0xC3:
        return DecodedInstruction(offset, i - offset, "ret", "ret", terminator=RET)
    value = _imm(buf, i, 2)
    if value is None:
        return None
    return DecodedInstruction(offset, i + 2 - offset, "ret", f"ret {value & 0xFFFF:#x}",
                              imm=value & 0xFFFF, terminator=RET)


def _leave(buf, offset, i, rex, op):
    return DecodedInstruction(offset, i - offset, "leave", "leave", dest="rsp")


def _int(buf, offset, i, rex, op):  # only int 0x80; other vectors are outside the subset
    if i >= len(buf) or buf[i] != 0x80:
        return None
    return DecodedInstruction(offset, i + 1 - offset, "int", "int 0x80", imm=0x80,
                              terminator=SYSCALL)


def _group5(buf, offset, i, rex, op):  # FF: inc/dec/call/jmp/push
    mod = _parse_modrm(buf, i, rex)
    if mod is None:
        return None
    ext = mod.reg % 8
    length = mod.end - offset
    if ext == 0 or ext == 1:
        mnem = "inc" if ext == 0 else "dec"
        if mod.is_mem:
            return DecodedInstruction(offset, length, mnem, f"{mnem} {_mem_text(mod)}",
                                      reads_mem=True, writes_mem=True, mem_base=mod.mem_base,
                                      writes_flags=True)
        return DecodedInstruction(offset, length, mnem, f"{mnem} {mod.rm_reg}",
                                  dest=mod.rm_reg, writes_flags=True)
    if ext == 2 or ext == 4:
        kind = CALL_INDIRECT if ext == 2 else JMP_INDIRECT
        mnem = "call" if ext == 2 else "jmp"
        if mod.is_mem:
            return DecodedInstruction(offset, length, mnem, f"{mnem} {_mem_text(mod)}",
                                      terminator=kind, branch_mem=True, mem_base=mod.mem_base,
                                      reads_mem=True)
        return DecodedInstruction(offset, length, mnem, f"{mnem} {mod.rm_reg}",
                                  terminator=kind, branch_reg=mod.rm_reg)
    if ext == 6:
        if mod.is_mem:
            return DecodedInstruction(offset, length, "push", f"push {_mem_text(mod)}",
                                      reads_mem=True, mem_base=mod.mem_base)
        return DecodedInstruction(offset, length, "push", f"push {mod.rm_reg}", src=mod.rm_reg)
    return None


def _syscall(buf, offset, i, rex, op):
    return DecodedInstruction(offset, i - offset, "syscall", "syscall", terminator=SYSCALL)


def _movx(buf, offset, i, rex, op):  # 0F B6/B7: movzx; 0F BE/BF: movsx
    mnem = "movzx" if op in (0xB6, 0xB7) else "movsx"
    mod = _parse_modrm(buf, i, rex)
    if mod is None:
        return None
    reg = REGS[mod.reg]
    length = mod.end - offset
    if mod.is_mem:
        return DecodedInstruction(offset, length, mnem, f"{mnem} {reg}, {_mem_text(mod)}",
                                  dest=reg, reads_mem=True, mem_base=mod.mem_base)
    return DecodedInstruction(offset, length, mnem, f"{mnem} {reg}, {mod.rm_reg}",
                              dest=reg, src=mod.rm_reg)


def _table(entries) -> tuple:
    table = [None] * 256
    for opcodes, handler in entries:
        for op in opcodes:
            table[op] = handler
    return tuple(table)


_TWO_BYTE = _table((
    ((0x05,), _syscall),
    (range(0x80, 0x90), _jcc),
    ((0xB6, 0xB7, 0xBE, 0xBF), _movx),
))


def _two_byte(buf, offset, i, rex, op):  # 0F escape: dispatch on the second byte
    if i >= len(buf):
        return None
    handler = _TWO_BYTE[buf[i]]
    return None if handler is None else handler(buf, offset, i + 1, rex, buf[i])


_OPCODES = _table((
    (range(0x50, 0x58), _push_reg),
    (range(0x58, 0x60), _pop_reg),
    ((0x89, 0x8B), _mov_modrm),
    (_ALU, _alu),
    ((0x85,), _test),
    ((0x81, 0x83), _group1),
    (range(0xB8, 0xC0), _mov_imm),
    ((0x68, 0x6A), _push_imm),
    ((0x8D,), _lea),
    ((0x87,), _xchg),
    ((0x90,), _nop),
    (range(0x70, 0x80), _jcc),
    ((0xC2, 0xC3), _ret),
    ((0xC9,), _leave),
    ((0xCD,), _int),
    ((0xFF,), _group5),
    ((0x0F,), _two_byte),
))


def decode(buf: bytes, offset: int) -> DecodedInstruction | None:
    """Decode one instruction at offset, or None if the subset cannot."""
    n = len(buf)
    if offset >= n:
        return None
    i = offset
    rex = 0
    op = buf[i]
    if 0x40 <= op <= 0x4F:
        rex = op
        i += 1
        if i >= n:
            return None
        op = buf[i]
    handler = _OPCODES[op]
    return None if handler is None else handler(buf, offset, i + 1, rex, op)
