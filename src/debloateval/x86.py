"""Table-driven x86-64 subset decoder for gadget discovery.

Covers the instruction forms that matter for code-reuse gadget semantics:
register moves, push/pop, add/sub/logic/compare, memory loads and stores,
lea, leave, ret/ret-imm16, indirect jmp/call through ModRM, syscall,
int 0x80, and short/near conditional branches. An offset whose bytes do
not decode under this subset cannot be part of a gadget. One optional REX
prefix is recognized; other prefixes are treated as undecodable.
Registers always get their 64-bit names, with or without REX.W: ``89 c8``
decodes as ``mov rax, rcx`` where objdump prints ``mov eax,ecx``. A byte
register is named for the register it is part of: without REX, ``0f b6 c4``
(objdump's ``movzx eax,ah``) decodes as ``movzx rax, rax``.

Each opcode group is one row of a 256-entry table; the ``0F`` and ``CD``
escapes index a second table by the next byte. A row holds the layout of
the bytes after the opcode and a semantic column, ``_Sem``.

The length pass, ``instruction_bounds``, is the one walk from bytes to a
row, and so the one definition of what decodes and how long it is: it
reads the optional REX byte and the opcode, looks up the row, and from its
layout reads the ModRM byte, a SIB byte where ModRM asks for one, the
displacement and the immediate. Truncated bytes, ModRM forms outside the
subset and unknown opcodes are rejected there and nowhere else. The pass
returns the length, the length of the header (REX, opcode, second opcode
byte and ModRM) and the row. Every field of the decoded instruction but
its offset, length, text, immediate value and memory base follows from
the header, so a caller can key facts that read only those fields on it.

``decode`` runs the length pass and builds the ``DecodedInstruction`` from
the row it returns: REX is the first byte, the header's last byte is the
ModRM byte (or the opcode of a row without one), and the SIB byte follows
it. One generic builder reads the row's semantic column; only ``xchg``,
``leave``, ``ret imm16`` and ``int`` have builders of their own. No builder
rejects: every byte it reads is known to be there.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

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


class _Sem(NamedTuple):
    """What an instruction does: the semantic column of its row.

    operands lists the operand kinds, first to last: "r" is the ModRM reg
    field's register, "rm" the ModRM r/m operand (a register or memory),
    "o" the register in the opcode's low three bits, "imm" the immediate
    and "rel" a conditional branch's displacement; "rm8" is a byte r/m
    operand, whose fields 4-7 without REX are ah..bh, named rax..rbx. mem
    says how a memory operand is accessed: read "r", written "w", both
    "rw", or "" when only its address is taken (lea).
    """

    mnemonic: str
    operands: tuple[str, ...] = ()
    writes: bool = False     # the first operand is written
    mem: str = "r"
    flags: bool = False      # flags are written
    terminator: str | None = None


class _Form(NamedTuple):
    """One opcode row: how the bytes after the opcode are laid out, and what it does."""

    escape: tuple | None = None  # rows by the next byte, which extends the opcode
    modrm: tuple | None = None   # a _modrm_table; None: no ModRM byte
    imm: int = 0                 # immediate bytes, the last of the instruction
    # A _Sem; for a group, a tuple of _Sem or None by the ModRM reg field;
    # or a builder of its own, called with (offset, length, reg, rm, base, value).
    sem: _Sem | tuple | Callable | None = None


def instruction_bounds(buf: bytes, offset: int) -> tuple[int, int, _Form] | None:
    """(length, header length, row) of the instruction at offset, or None.

    None means the subset cannot decode the bytes there (or offset is not
    in buf), exactly when decode returns None. The header is the REX byte,
    the opcode bytes and the ModRM byte, without SIB, displacement or
    immediate; the row is the _Form the opcode bytes select, after any escape.
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
        escape, modrm, imm, _ = form
        if escape is not None:
            form = escape[buf[i]]
            i += 1
            if form is None:
                return None
            escape, modrm, imm, _ = form
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
    return None if end > len(buf) or offset < 0 else (end - offset, i - offset, form)


# --- Decoding ------------------------------------------------------------

def decode(buf: bytes, offset: int) -> DecodedInstruction | None:
    """Decode one instruction at offset, or None if the subset cannot."""
    bounds = instruction_bounds(buf, offset)
    if bounds is None:
        return None
    length, header, (_, modrm, imm, sem) = bounds
    rex = buf[offset] if 0x40 <= buf[offset] <= 0x4F else 0
    m = buf[offset + header - 1]  # the ModRM byte, or the opcode if the row has none
    reg = rm = base = None
    is_mem = False
    if modrm is not None:
        mod, rm_bits = m >> 6, m & 7
        if type(sem) is tuple:  # a group: the reg field picks the semantics
            sem = sem[(m >> 3) & 7]
        reg = REGS[((m >> 3) & 7) + 8 * ((rex >> 2) & 1)]  # REX.R
        if mod == 3:
            rm = REGS[rm_bits + 8 * (rex & 1)]
        else:
            is_mem = True
            if rm_bits == 4:  # SIB byte; base 5 under mod 0 means none
                rm_bits = buf[offset + header] & 7
                if rm_bits != 5 or mod != 0:
                    base = REGS[rm_bits + 8 * (rex & 1)]
            elif rm_bits == 5 and mod == 0:
                base = "rip"
            else:
                base = REGS[rm_bits + 8 * (rex & 1)]
    value = None
    if imm:
        end = offset + length
        value = int.from_bytes(buf[end - imm : end], "little", signed=True)
    if type(sem) is not _Sem:
        return sem(offset, length, reg, rm, base, value)

    # The first operand is the destination if written; a register in the
    # last place is the source, or the target of an indirect branch.
    mnemonic, operands, writes, mem, flags, term = sem
    dest = src = None
    text = mnemonic
    last = len(operands) - 1
    for pos, kind in enumerate(operands):
        if kind == "imm":
            operand = f"{value:#x}"
        elif kind == "rel":
            operand = f"{value:+#x}"
        else:
            name = reg if kind == "r" else REGS[(m & 7) + 8 * (rex & 1)] if kind == "o" else rm
            if kind == "rm8" and rm is not None and not rex:
                name = REGS[m & 3]  # al..bl, and ah..bh, which are bytes of rax..rbx
            if name is None:
                operand = f"[{base or 'disp'}]"
            else:
                operand = name
                if pos == 0 and writes:
                    dest = name
                elif pos == last:
                    src = name
        text += (", " if pos else " ") + operand
    return DecodedInstruction(
        offset, length, mnemonic, text, dest,
        None if term else src, value, is_mem and "r" in mem, is_mem and "w" in mem, base, flags,
        term, src if term else None, is_mem and term is not None, operands == ("rel",),
    )


# Builders of their own, for what the semantic column does not describe.

def _xchg(offset, length, reg, rm, base, value):  # 87: xchg r/m, r writes both operands
    if rm is None:
        return DecodedInstruction(offset, length, "xchg", f"xchg [{base or 'disp'}], {reg}",
                                  dest=reg, reads_mem=True, writes_mem=True, mem_base=base)
    return DecodedInstruction(offset, length, "xchg", f"xchg {rm}, {reg}", dest=rm, src=reg)


def _leave(offset, length, reg, rm, base, value):
    return DecodedInstruction(offset, length, "leave", "leave", dest="rsp")


def _ret_imm16(offset, length, reg, rm, base, value):  # C2: the immediate is unsigned
    value &= 0xFFFF
    return DecodedInstruction(offset, length, "ret", f"ret {value:#x}", imm=value, terminator=RET)


def _int(offset, length, reg, rm, base, value):  # the tables admit only the 0x80 vector
    return DecodedInstruction(offset, length, "int", "int 0x80", imm=0x80, terminator=SYSCALL)


# --- Opcode tables -------------------------------------------------------
#
# One row per opcode group: its form and its semantics.

def _table(*rows, base: tuple = (None,) * 256) -> tuple:
    """base with each row's opcodes set to its form."""
    table = list(base)
    for opcodes, form in rows:
        for op in opcodes:
            table[op] = form
    return tuple(table)


def _group(sems: tuple, imm: int = 0) -> _Form:
    """The row of an opcode whose ModRM reg field picks one of sems; None rejects."""
    regs = {reg for reg, sem in enumerate(sems) if sem is not None}
    return _Form(modrm=_modrm_table(regs), imm=imm, sem=sems)


def _jcc(first: int, imm: int) -> list:
    """One row per condition code, from opcode first up."""
    return [((first + cc,), _Form(imm=imm, sem=_Sem(f"j{name}", ("rel",))))
            for cc, name in enumerate(_CC_NAMES)]


_ANY_MODRM = _modrm_table()

# The two-operand ALU opcodes (the name at opcode >> 3) and group 1 (at the
# ModRM reg field) share these names; adc and sbb are outside the subset.
_ALU_NAMES = ("add", "or", None, None, "and", "sub", "xor", "cmp")


def _alu(name: str | None, operands: tuple) -> _Sem | None:
    """cmp only reads its operands; the others write the first."""
    if name is None:
        return None
    writes = name != "cmp"
    return _Sem(name, operands, writes, "rw" if writes and operands[0] == "rm" else "r", flags=True)


def _alu_rows(low_bits: int, operands: tuple) -> list:
    """The row of each ALU name at opcode (index << 3) | low_bits."""
    return [((index << 3 | low_bits,), _Form(modrm=_ANY_MODRM, sem=_alu(name, operands)))
            for index, name in enumerate(_ALU_NAMES) if name is not None]


_GROUP1 = tuple(_alu(name, ("rm", "imm")) for name in _ALU_NAMES)
_GROUP5 = (
    _Sem("inc", ("rm",), writes=True, mem="rw", flags=True),
    _Sem("dec", ("rm",), writes=True, mem="rw", flags=True),
    _Sem("call", ("rm",), terminator=CALL_INDIRECT),
    None,
    _Sem("jmp", ("rm",), terminator=JMP_INDIRECT),
    None,
    _Sem("push", ("rm",)),
    None,
)

_TWO_BYTE_FORMS = _table(
    ((0x05,), _Form(sem=_Sem("syscall", terminator=SYSCALL))),
    *_jcc(0x80, imm=4),
    ((0xB6,), _Form(modrm=_ANY_MODRM, sem=_Sem("movzx", ("r", "rm8"), writes=True))),
    ((0xB7,), _Form(modrm=_ANY_MODRM, sem=_Sem("movzx", ("r", "rm"), writes=True))),
    ((0xBE,), _Form(modrm=_ANY_MODRM, sem=_Sem("movsx", ("r", "rm8"), writes=True))),
    ((0xBF,), _Form(modrm=_ANY_MODRM, sem=_Sem("movsx", ("r", "rm"), writes=True))),
)

_INT_VECTORS = _table(((0x80,), _Form(sem=_int)))  # int takes only the 0x80 vector

_FORMS = _table(
    (range(0x50, 0x58), _Form(sem=_Sem("push", ("o",)))),
    (range(0x58, 0x60), _Form(sem=_Sem("pop", ("o",), writes=True))),
    ((0x89,), _Form(modrm=_ANY_MODRM, sem=_Sem("mov", ("rm", "r"), writes=True, mem="w"))),
    ((0x8B,), _Form(modrm=_ANY_MODRM, sem=_Sem("mov", ("r", "rm"), writes=True))),
    *_alu_rows(0x01, ("rm", "r")),
    *_alu_rows(0x03, ("r", "rm")),
    ((0x85,), _Form(modrm=_ANY_MODRM, sem=_Sem("test", ("rm", "r"), flags=True))),
    ((0x81,), _group(_GROUP1, imm=4)),
    ((0x83,), _group(_GROUP1, imm=1)),
    (range(0xB8, 0xC0), _Form(imm=4, sem=_Sem("mov", ("o", "imm"), writes=True))),
    ((0x68,), _Form(imm=4, sem=_Sem("push", ("imm",)))),
    ((0x6A,), _Form(imm=1, sem=_Sem("push", ("imm",)))),
    ((0x8D,), _Form(modrm=_modrm_table(register_rm=False),
                    sem=_Sem("lea", ("r", "rm"), writes=True, mem=""))),
    ((0x87,), _Form(modrm=_ANY_MODRM, sem=_xchg)),
    ((0x90,), _Form(sem=_Sem("nop"))),
    *_jcc(0x70, imm=1),
    ((0xC2,), _Form(imm=2, sem=_ret_imm16)),
    ((0xC3,), _Form(sem=_Sem("ret", terminator=RET))),
    ((0xC9,), _Form(sem=_leave)),
    ((0xCD,), _Form(escape=_INT_VECTORS)),
    ((0xFF,), _group(_GROUP5)),
    ((0x0F,), _Form(escape=_TWO_BYTE_FORMS)),
)


# After a REX byte: nop (90) does not decode, and REX.W widens mov r, imm to imm64.
_REX_FORMS = _table(((0x90,), None), base=_FORMS)
_REX_W_FORMS = _table((range(0xB8, 0xC0), _FORMS[0xB8]._replace(imm=8)), base=_REX_FORMS)
# FIRST_BYTES[b] is 1 iff an instruction can start with byte b: a REX prefix or an opcode with a row.
FIRST_BYTES = bytes(0x40 <= op <= 0x4F or form is not None for op, form in enumerate(_FORMS))
