"""Table-driven x86-64 subset decoder for gadget discovery.

Covers the instruction forms that matter for code-reuse gadget semantics:
register moves, push/pop, add/sub/logic/compare, memory loads and stores,
lea, leave, ret/ret-imm16, indirect jmp/call through ModRM, syscall,
int 0x80, and short/near conditional branches. An offset whose bytes do
not decode under this subset cannot be part of a gadget. One optional REX
prefix is recognized; other prefixes are treated as undecodable.

Decoding has two layers. The length pass, ``instruction_bounds``, is the
one definition of what decodes and how long it is: it reads the optional
REX byte and the opcode, looks up the opcode's form in a 256-entry table
(the ``0F`` and ``CD`` escapes index a second table by the next byte),
and from the form reads the ModRM byte, a SIB byte where ModRM asks for
one, the displacement and the immediate. Truncated bytes, ModRM forms
outside the subset and unknown opcodes are rejected there and nowhere
else. The pass returns the length and the length of the header: REX,
opcode, second opcode byte and ModRM. Every field of the decoded
instruction but its offset, length, text, immediate value and memory base
follows from the header, so a caller can key facts that read only those
fields on it.

``decode`` runs the length pass, then the semantic handler that the same
table row names. Handlers build the ``DecodedInstruction`` and never
reject: every byte they read is known to be there.
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


# --- Length pass ---------------------------------------------------------

_DISP_SIZE = (0, 1, 4)  # by ModRM mod field, memory forms only
_SIB_DECIDES = -1       # mod 0 with a SIB byte: base 5 means a 32-bit displacement


def _modrm_table(regs=range(8), register_rm: bool = True) -> tuple:
    """Bytes after the ModRM byte, by its value; None where the form rejects it.

    regs: the ModRM reg fields the form accepts. register_rm: whether it
    accepts a register operand (mod 3).
    """
    table = []
    for m in range(256):
        mod, reg, rm = m >> 6, (m >> 3) & 7, m & 7
        if reg not in regs or (mod == 3 and not register_rm):
            table.append(None)
        elif mod == 3:
            table.append(0)
        elif rm == 4:
            table.append(_SIB_DECIDES if mod == 0 else 1 + _DISP_SIZE[mod])
        elif rm == 5 and mod == 0:  # RIP-relative
            table.append(4)
        else:
            table.append(_DISP_SIZE[mod])
    return tuple(table)


class _Form(NamedTuple):
    """How the bytes after an opcode are laid out."""

    escape: tuple | None = None  # forms by the next byte, which extends the opcode
    modrm: tuple | None = None   # a _modrm_table; None: no ModRM byte
    imm: int = 0                 # immediate bytes, the last of the instruction


def instruction_bounds(buf: bytes, offset: int) -> tuple[int, int] | None:
    """(length, header length) of the instruction at offset, or None.

    None means the subset cannot decode the bytes there (or offset is not
    in buf), exactly when decode returns None. The header is the REX byte,
    the opcode bytes and the ModRM byte, without SIB, displacement or immediate.
    """
    try:
        op = buf[offset]
        i = offset + 1
        forms = _FORMS
        if 0x40 <= op <= 0x4F:
            forms = _REX_W_FORMS if op & 8 else _REX_FORMS
            op = buf[i]
            i += 1
        form = forms[op]
        if form is None:
            return None
        escape, modrm, imm = form
        if escape is not None:
            form = escape[buf[i]]
            i += 1
            if form is None:
                return None
            escape, modrm, imm = form
        if modrm is None:
            end = i + imm
        else:
            tail = modrm[buf[i]]
            i += 1
            if tail is None:
                return None
            if tail == _SIB_DECIDES:
                tail = 5 if buf[i] & 7 == 5 else 1
            end = i + tail + imm
    except IndexError:  # the bytes end inside the instruction
        return None
    return None if end > len(buf) or offset < 0 else (end - offset, i - offset)


# --- Semantics ---------------------------------------------------------

class _ModRM(NamedTuple):
    reg: int            # extended reg field
    is_mem: bool
    rm_reg: str | None  # register name for register-direct rm
    mem_base: str | None


def _parse_modrm(buf: bytes, i: int, rex: int) -> _ModRM:
    m = buf[i]
    mod, reg, rm = m >> 6, (m >> 3) & 7, m & 7
    reg += 8 * ((rex >> 2) & 1)  # REX.R
    if mod == 3:
        return _ModRM(reg, False, REGS[rm + 8 * (rex & 1)], None)
    if rm == 4:  # SIB byte
        base_bits = buf[i + 1] & 7
        base = None if base_bits == 5 and mod == 0 else REGS[base_bits + 8 * (rex & 1)]
    elif rm == 5 and mod == 0:
        base = "rip"
    else:
        base = REGS[rm + 8 * (rex & 1)]
    return _ModRM(reg, True, None, base)


def _imm(buf: bytes, start: int, end: int) -> int:
    return int.from_bytes(buf[start:end], "little", signed=True)


def _mem_text(mod: _ModRM) -> str:
    return f"[{mod.mem_base or 'disp'}]"


# Each handler takes (buf, offset, length, i, rex, op): length comes from
# the length pass, i is the index just past the opcode byte, op the opcode.

def _push_reg(buf, offset, length, i, rex, op):
    reg = REGS[(op - 0x50) + 8 * (rex & 1)]
    return DecodedInstruction(offset, length, "push", f"push {reg}", src=reg)


def _pop_reg(buf, offset, length, i, rex, op):
    reg = REGS[(op - 0x58) + 8 * (rex & 1)]
    return DecodedInstruction(offset, length, "pop", f"pop {reg}", dest=reg)


def _mov_modrm(buf, offset, length, i, rex, op):  # 89: mov r/m, r; 8B: mov r, r/m
    mod = _parse_modrm(buf, i, rex)
    reg = REGS[mod.reg]
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


def _alu(buf, offset, length, i, rex, op):
    mnem, to_rm = _ALU[op]
    mod = _parse_modrm(buf, i, rex)
    reg = REGS[mod.reg]
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


def _test(buf, offset, length, i, rex, op):  # 85: test r/m, r
    mod = _parse_modrm(buf, i, rex)
    reg = REGS[mod.reg]
    if mod.is_mem:
        return DecodedInstruction(offset, length, "test", f"test {_mem_text(mod)}, {reg}",
                                  src=reg, reads_mem=True, mem_base=mod.mem_base,
                                  writes_flags=True)
    return DecodedInstruction(offset, length, "test", f"test {mod.rm_reg}, {reg}",
                              src=reg, writes_flags=True)


# Group-1 immediate arithmetic, indexed by the ModRM reg field.
_GRP1 = {0: "add", 1: "or", 4: "and", 5: "sub", 6: "xor", 7: "cmp"}


def _group1(buf, offset, length, i, rex, op):  # 81: r/m, imm32; 83: r/m, imm8
    mod = _parse_modrm(buf, i, rex)
    mnem = _GRP1[mod.reg % 8]
    end = offset + length
    value = _imm(buf, end - (4 if op == 0x81 else 1), end)
    compare_only = mnem == "cmp"
    if mod.is_mem:
        return DecodedInstruction(offset, length, mnem, f"{mnem} {_mem_text(mod)}, {value:#x}",
                                  imm=value, reads_mem=True, writes_mem=not compare_only,
                                  mem_base=mod.mem_base, writes_flags=True)
    return DecodedInstruction(offset, length, mnem, f"{mnem} {mod.rm_reg}, {value:#x}",
                              dest=None if compare_only else mod.rm_reg, imm=value,
                              writes_flags=True)


def _mov_imm(buf, offset, length, i, rex, op):  # B8+r: mov r, imm32/imm64
    reg = REGS[(op - 0xB8) + 8 * (rex & 1)]
    value = _imm(buf, i, offset + length)
    return DecodedInstruction(offset, length, "mov", f"mov {reg}, {value:#x}", dest=reg, imm=value)


def _push_imm(buf, offset, length, i, rex, op):  # 68: imm32; 6A: imm8
    value = _imm(buf, i, offset + length)
    return DecodedInstruction(offset, length, "push", f"push {value:#x}", imm=value)


def _lea(buf, offset, length, i, rex, op):
    mod = _parse_modrm(buf, i, rex)
    reg = REGS[mod.reg]
    return DecodedInstruction(offset, length, "lea", f"lea {reg}, {_mem_text(mod)}",
                              dest=reg, mem_base=mod.mem_base)


def _xchg(buf, offset, length, i, rex, op):  # 87: xchg r/m, r
    mod = _parse_modrm(buf, i, rex)
    reg = REGS[mod.reg]
    if mod.is_mem:
        return DecodedInstruction(offset, length, "xchg", f"xchg {_mem_text(mod)}, {reg}",
                                  dest=reg, reads_mem=True, writes_mem=True,
                                  mem_base=mod.mem_base)
    return DecodedInstruction(offset, length, "xchg", f"xchg {mod.rm_reg}, {reg}",
                              dest=mod.rm_reg, src=reg)


def _nop(buf, offset, length, i, rex, op):
    return DecodedInstruction(offset, length, "nop", "nop")


def _jcc(buf, offset, length, i, rex, op):  # 70+cc: rel8; 0F 80+cc: rel32
    value = _imm(buf, i, offset + length)
    cc = _CC_NAMES[op & 0xF]
    return DecodedInstruction(offset, length, f"j{cc}", f"j{cc} {value:+#x}",
                              imm=value, is_cond_branch=True)


def _ret(buf, offset, length, i, rex, op):  # C3: ret; C2: ret imm16
    if op == 0xC3:
        return DecodedInstruction(offset, length, "ret", "ret", terminator=RET)
    value = _imm(buf, i, offset + length) & 0xFFFF
    return DecodedInstruction(offset, length, "ret", f"ret {value:#x}", imm=value, terminator=RET)


def _leave(buf, offset, length, i, rex, op):
    return DecodedInstruction(offset, length, "leave", "leave", dest="rsp")


def _int(buf, offset, length, i, rex, op):  # the length pass admits only the 0x80 vector
    return DecodedInstruction(offset, length, "int", "int 0x80", imm=0x80, terminator=SYSCALL)


# Group 5, indexed by the ModRM reg field.
_GRP5 = {0: "inc", 1: "dec", 2: "call", 4: "jmp", 6: "push"}


def _group5(buf, offset, length, i, rex, op):  # FF: inc/dec/call/jmp/push
    mod = _parse_modrm(buf, i, rex)
    ext = mod.reg % 8
    mnem = _GRP5[ext]
    if ext == 0 or ext == 1:
        if mod.is_mem:
            return DecodedInstruction(offset, length, mnem, f"{mnem} {_mem_text(mod)}",
                                      reads_mem=True, writes_mem=True, mem_base=mod.mem_base,
                                      writes_flags=True)
        return DecodedInstruction(offset, length, mnem, f"{mnem} {mod.rm_reg}",
                                  dest=mod.rm_reg, writes_flags=True)
    if ext == 2 or ext == 4:
        kind = CALL_INDIRECT if ext == 2 else JMP_INDIRECT
        if mod.is_mem:
            return DecodedInstruction(offset, length, mnem, f"{mnem} {_mem_text(mod)}",
                                      terminator=kind, branch_mem=True, mem_base=mod.mem_base,
                                      reads_mem=True)
        return DecodedInstruction(offset, length, mnem, f"{mnem} {mod.rm_reg}",
                                  terminator=kind, branch_reg=mod.rm_reg)
    if mod.is_mem:
        return DecodedInstruction(offset, length, "push", f"push {_mem_text(mod)}",
                                  reads_mem=True, mem_base=mod.mem_base)
    return DecodedInstruction(offset, length, "push", f"push {mod.rm_reg}", src=mod.rm_reg)


def _syscall(buf, offset, length, i, rex, op):
    return DecodedInstruction(offset, length, "syscall", "syscall", terminator=SYSCALL)


def _movx(buf, offset, length, i, rex, op):  # 0F B6/B7: movzx; 0F BE/BF: movsx
    mnem = "movzx" if op in (0xB6, 0xB7) else "movsx"
    mod = _parse_modrm(buf, i, rex)
    reg = REGS[mod.reg]
    if mod.is_mem:
        return DecodedInstruction(offset, length, mnem, f"{mnem} {reg}, {_mem_text(mod)}",
                                  dest=reg, reads_mem=True, mem_base=mod.mem_base)
    return DecodedInstruction(offset, length, mnem, f"{mnem} {reg}, {mod.rm_reg}",
                              dest=reg, src=mod.rm_reg)


# --- Opcode tables -------------------------------------------------------
#
# One row per opcode group: its form for the length pass and its handler.

def _tables(rows) -> tuple[tuple, tuple]:
    forms = [None] * 256
    handlers = [None] * 256
    for opcodes, form, handler in rows:
        for op in opcodes:
            forms[op] = form
            handlers[op] = handler
    return tuple(forms), tuple(handlers)


def _with(forms: tuple, opcodes, form: _Form | None) -> tuple:
    table = list(forms)
    for op in opcodes:
        table[op] = form
    return tuple(table)


_ANY_MODRM = _modrm_table()

_TWO_BYTE_FORMS, _TWO_BYTE_HANDLERS = _tables((
    ((0x05,), _Form(), _syscall),
    (range(0x80, 0x90), _Form(imm=4), _jcc),
    ((0xB6, 0xB7, 0xBE, 0xBF), _Form(modrm=_ANY_MODRM), _movx),
))


def _two_byte(buf, offset, length, i, rex, op):  # 0F escape: dispatch on the second byte
    return _TWO_BYTE_HANDLERS[buf[i]](buf, offset, length, i + 1, rex, buf[i])


_INT_VECTORS = _with((None,) * 256, (0x80,), _Form())  # int takes only the 0x80 vector

_FORMS, _HANDLERS = _tables((
    (range(0x50, 0x58), _Form(), _push_reg),
    (range(0x58, 0x60), _Form(), _pop_reg),
    ((0x89, 0x8B), _Form(modrm=_ANY_MODRM), _mov_modrm),
    (_ALU, _Form(modrm=_ANY_MODRM), _alu),
    ((0x85,), _Form(modrm=_ANY_MODRM), _test),
    ((0x81,), _Form(modrm=_modrm_table(_GRP1), imm=4), _group1),
    ((0x83,), _Form(modrm=_modrm_table(_GRP1), imm=1), _group1),
    (range(0xB8, 0xC0), _Form(imm=4), _mov_imm),
    ((0x68,), _Form(imm=4), _push_imm),
    ((0x6A,), _Form(imm=1), _push_imm),
    ((0x8D,), _Form(modrm=_modrm_table(register_rm=False)), _lea),
    ((0x87,), _Form(modrm=_ANY_MODRM), _xchg),
    ((0x90,), _Form(), _nop),
    (range(0x70, 0x80), _Form(imm=1), _jcc),
    ((0xC2,), _Form(imm=2), _ret),
    ((0xC3,), _Form(), _ret),
    ((0xC9,), _Form(), _leave),
    ((0xCD,), _Form(escape=_INT_VECTORS), _int),
    ((0xFF,), _Form(modrm=_modrm_table(_GRP5)), _group5),
    ((0x0F,), _Form(escape=_TWO_BYTE_FORMS), _two_byte),
))


# After a REX byte: nop (90) does not decode, and REX.W widens mov r, imm to imm64.
_REX_FORMS = _with(_FORMS, (0x90,), None)
_REX_W_FORMS = _with(_REX_FORMS, range(0xB8, 0xC0), _Form(imm=8))


def decode(buf: bytes, offset: int) -> DecodedInstruction | None:
    """Decode one instruction at offset, or None if the subset cannot."""
    bounds = instruction_bounds(buf, offset)
    if bounds is None:
        return None
    i = offset
    rex = 0
    op = buf[i]
    if 0x40 <= op <= 0x4F:
        rex = op
        i += 1
        op = buf[i]
    return _HANDLERS[op](buf, offset, bounds[0], i + 1, rex, op)
