"""Table-driven x86-64 subset decoder for gadget discovery.

Covers the instruction forms that matter for code-reuse gadget semantics:
register moves, push/pop, add/sub/logic/compare, memory loads and stores,
lea, leave, ret/ret-imm16, indirect jmp/call through ModRM, syscall,
int 0x80, and short/near conditional branches. An offset whose bytes do
not decode under this subset cannot be part of a gadget. One optional REX
prefix is recognized; other prefixes are treated as undecodable.
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
    disp_size = {0: 0, 1: 1, 2: 4}[mod]
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


# Group-1 immediate arithmetic, indexed by the ModRM reg field.
_GRP1 = {0: "add", 1: "or", 4: "and", 5: "sub", 6: "xor", 7: "cmp"}
# Two-operand ALU opcodes: opcode -> (mnemonic, direction reg->rm?)
_ALU_RM_R = {0x01: "add", 0x29: "sub", 0x21: "and", 0x09: "or", 0x31: "xor", 0x39: "cmp"}
_ALU_R_RM = {0x03: "add", 0x2B: "sub", 0x23: "and", 0x0B: "or", 0x33: "xor", 0x3B: "cmp"}


def decode(buf: bytes, offset: int) -> DecodedInstruction | None:
    """Decode one instruction at offset, or None if the subset cannot."""
    i = offset
    n = len(buf)
    if i >= n:
        return None
    rex = 0
    if 0x40 <= buf[i] <= 0x4F:
        rex = buf[i]
        i += 1
        if i >= n:
            return None
    op = buf[i]
    i += 1

    def done(length_end: int, **kw) -> DecodedInstruction:
        return DecodedInstruction(offset=offset, length=length_end - offset, **kw)

    # push/pop reg
    if 0x50 <= op <= 0x57:
        reg = REGS[(op - 0x50) + 8 * (rex & 1)]
        return done(i, mnemonic="push", text=f"push {reg}", src=reg)
    if 0x58 <= op <= 0x5F:
        reg = REGS[(op - 0x58) + 8 * (rex & 1)]
        return done(i, mnemonic="pop", text=f"pop {reg}", dest=reg)

    # mov r/m, r and mov r, r/m
    if op in (0x89, 0x8B):
        mod = _parse_modrm(buf, i, rex)
        if mod is None:
            return None
        reg = REGS[mod.reg]
        if op == 0x89:
            if mod.is_mem:
                return done(mod.end, mnemonic="mov", text=f"mov {_mem_text(mod)}, {reg}",
                            src=reg, writes_mem=True, mem_base=mod.mem_base)
            return done(mod.end, mnemonic="mov", text=f"mov {mod.rm_reg}, {reg}",
                        dest=mod.rm_reg, src=reg)
        if mod.is_mem:
            return done(mod.end, mnemonic="mov", text=f"mov {reg}, {_mem_text(mod)}",
                        dest=reg, reads_mem=True, mem_base=mod.mem_base)
        return done(mod.end, mnemonic="mov", text=f"mov {reg}, {mod.rm_reg}",
                    dest=reg, src=mod.rm_reg)

    # two-operand ALU
    if op in _ALU_RM_R or op in _ALU_R_RM:
        mnem = _ALU_RM_R.get(op) or _ALU_R_RM[op]
        to_rm = op in _ALU_RM_R
        mod = _parse_modrm(buf, i, rex)
        if mod is None:
            return None
        reg = REGS[mod.reg]
        compare_only = mnem == "cmp"
        if mod.is_mem:
            if to_rm:
                return done(mod.end, mnemonic=mnem, text=f"{mnem} {_mem_text(mod)}, {reg}",
                            src=reg, reads_mem=True, writes_mem=not compare_only,
                            mem_base=mod.mem_base, writes_flags=True)
            return done(mod.end, mnemonic=mnem, text=f"{mnem} {reg}, {_mem_text(mod)}",
                        dest=None if compare_only else reg, reads_mem=True,
                        mem_base=mod.mem_base, writes_flags=True)
        dst, src = (mod.rm_reg, reg) if to_rm else (reg, mod.rm_reg)
        return done(mod.end, mnemonic=mnem, text=f"{mnem} {dst}, {src}",
                    dest=None if compare_only else dst, src=src, writes_flags=True)

    # test r/m, r
    if op == 0x85:
        mod = _parse_modrm(buf, i, rex)
        if mod is None:
            return None
        reg = REGS[mod.reg]
        if mod.is_mem:
            return done(mod.end, mnemonic="test", text=f"test {_mem_text(mod)}, {reg}",
                        src=reg, reads_mem=True, mem_base=mod.mem_base, writes_flags=True)
        return done(mod.end, mnemonic="test", text=f"test {mod.rm_reg}, {reg}",
                    src=reg, writes_flags=True)

    # group-1 immediate
    if op in (0x81, 0x83):
        mod = _parse_modrm(buf, i, rex)
        if mod is None or mod.reg % 8 not in _GRP1:
            return None
        mnem = _GRP1[mod.reg % 8]
        size = 4 if op == 0x81 else 1
        value = _imm(buf, mod.end, size)
        if value is None:
            return None
        end = mod.end + size
        compare_only = mnem == "cmp"
        if mod.is_mem:
            return done(end, mnemonic=mnem, text=f"{mnem} {_mem_text(mod)}, {value:#x}",
                        imm=value, reads_mem=True, writes_mem=not compare_only,
                        mem_base=mod.mem_base, writes_flags=True)
        return done(end, mnemonic=mnem, text=f"{mnem} {mod.rm_reg}, {value:#x}",
                    dest=None if compare_only else mod.rm_reg, imm=value, writes_flags=True)

    # mov r, imm32/imm64
    if 0xB8 <= op <= 0xBF:
        reg = REGS[(op - 0xB8) + 8 * (rex & 1)]
        size = 8 if rex & 8 else 4
        value = _imm(buf, i, size)
        if value is None:
            return None
        return done(i + size, mnemonic="mov", text=f"mov {reg}, {value:#x}", dest=reg, imm=value)

    # push imm
    if op == 0x68:
        value = _imm(buf, i, 4)
        if value is None:
            return None
        return done(i + 4, mnemonic="push", text=f"push {value:#x}", imm=value)
    if op == 0x6A:
        value = _imm(buf, i, 1)
        if value is None:
            return None
        return done(i + 1, mnemonic="push", text=f"push {value:#x}", imm=value)

    # lea r, m
    if op == 0x8D:
        mod = _parse_modrm(buf, i, rex)
        if mod is None or not mod.is_mem:
            return None
        reg = REGS[mod.reg]
        return done(mod.end, mnemonic="lea", text=f"lea {reg}, {_mem_text(mod)}",
                    dest=reg, mem_base=mod.mem_base)

    # xchg r/m, r
    if op == 0x87:
        mod = _parse_modrm(buf, i, rex)
        if mod is None:
            return None
        reg = REGS[mod.reg]
        if mod.is_mem:
            return done(mod.end, mnemonic="xchg", text=f"xchg {_mem_text(mod)}, {reg}",
                        dest=reg, reads_mem=True, writes_mem=True, mem_base=mod.mem_base)
        return done(mod.end, mnemonic="xchg", text=f"xchg {mod.rm_reg}, {reg}",
                    dest=mod.rm_reg, src=reg)

    if op == 0x90 and rex == 0:
        return done(i, mnemonic="nop", text="nop")

    # short conditional branches
    if 0x70 <= op <= 0x7F:
        value = _imm(buf, i, 1)
        if value is None:
            return None
        return done(i + 1, mnemonic=f"j{_CC_NAMES[op - 0x70]}",
                    text=f"j{_CC_NAMES[op - 0x70]} {value:+#x}", imm=value, is_cond_branch=True)

    # ret / ret imm16 / leave
    if op == 0xC3:
        return done(i, mnemonic="ret", text="ret", terminator=RET)
    if op == 0xC2:
        value = _imm(buf, i, 2)
        if value is None:
            return None
        return done(i + 2, mnemonic="ret", text=f"ret {value & 0xFFFF:#x}",
                    imm=value & 0xFFFF, terminator=RET)
    if op == 0xC9:
        return done(i, mnemonic="leave", text="leave", dest="rsp")

    # int 0x80 (other vectors are outside the subset)
    if op == 0xCD:
        if i >= n or buf[i] != 0x80:
            return None
        return done(i + 1, mnemonic="int", text="int 0x80", imm=0x80, terminator=SYSCALL)

    # FF group: inc/dec/call/jmp/push
    if op == 0xFF:
        mod = _parse_modrm(buf, i, rex)
        if mod is None:
            return None
        ext = mod.reg % 8
        if ext == 0 or ext == 1:
            mnem = "inc" if ext == 0 else "dec"
            if mod.is_mem:
                return done(mod.end, mnemonic=mnem, text=f"{mnem} {_mem_text(mod)}",
                            reads_mem=True, writes_mem=True, mem_base=mod.mem_base,
                            writes_flags=True)
            return done(mod.end, mnemonic=mnem, text=f"{mnem} {mod.rm_reg}",
                        dest=mod.rm_reg, writes_flags=True)
        if ext == 2 or ext == 4:
            kind = CALL_INDIRECT if ext == 2 else JMP_INDIRECT
            mnem = "call" if ext == 2 else "jmp"
            if mod.is_mem:
                return done(mod.end, mnemonic=mnem, text=f"{mnem} {_mem_text(mod)}",
                            terminator=kind, branch_mem=True, mem_base=mod.mem_base,
                            reads_mem=True)
            return done(mod.end, mnemonic=mnem, text=f"{mnem} {mod.rm_reg}",
                        terminator=kind, branch_reg=mod.rm_reg)
        if ext == 6:
            if mod.is_mem:
                return done(mod.end, mnemonic="push", text=f"push {_mem_text(mod)}",
                            reads_mem=True, mem_base=mod.mem_base)
            return done(mod.end, mnemonic="push", text=f"push {mod.rm_reg}", src=mod.rm_reg)
        return None

    # two-byte opcodes
    if op == 0x0F:
        if i >= n:
            return None
        op2 = buf[i]
        i += 1
        if op2 == 0x05:
            return done(i, mnemonic="syscall", text="syscall", terminator=SYSCALL)
        if 0x80 <= op2 <= 0x8F:
            value = _imm(buf, i, 4)
            if value is None:
                return None
            return done(i + 4, mnemonic=f"j{_CC_NAMES[op2 - 0x80]}",
                        text=f"j{_CC_NAMES[op2 - 0x80]} {value:+#x}", imm=value,
                        is_cond_branch=True)
        if op2 in (0xB6, 0xB7, 0xBE, 0xBF):
            mnem = "movzx" if op2 in (0xB6, 0xB7) else "movsx"
            mod = _parse_modrm(buf, i, rex)
            if mod is None:
                return None
            reg = REGS[mod.reg]
            if mod.is_mem:
                return done(mod.end, mnemonic=mnem, text=f"{mnem} {reg}, {_mem_text(mod)}",
                            dest=reg, reads_mem=True, mem_base=mod.mem_base)
            return done(mod.end, mnemonic=mnem, text=f"{mnem} {reg}, {mod.rm_reg}",
                        dest=reg, src=mod.rm_reg)
        return None

    return None
