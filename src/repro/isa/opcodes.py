"""Opcode table for the MIPS-I-like subset.

Each opcode carries the structural information the rest of the library needs:
its category (:class:`OpcodeKind`), its operand format, and whether it is a
conditional branch, an unconditional jump, or a register-indirect jump.  The
cache and scheduling experiments never interpret instruction *semantics*
beyond register def/use and memory access, so no execution behaviour is
encoded here.  Hot paths look an opcode's properties up by its mnemonic:

>>> INFO_BY_VALUE[Opcode.LW._value_].kind
<OpcodeKind.LOAD: 'load'>
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

__all__ = [
    "Opcode",
    "OpcodeKind",
    "OperandFormat",
    "OpcodeInfo",
    "OPCODE_TABLE",
    "INFO_BY_VALUE",
]


class OpcodeKind(enum.Enum):
    """Coarse instruction category used by the simulators."""

    ALU = "alu"  # register/immediate arithmetic and logic
    LOAD = "load"  # memory -> register
    STORE = "store"  # register -> memory
    BRANCH = "branch"  # conditional PC-relative CTI
    JUMP = "jump"  # unconditional direct CTI
    JUMP_REGISTER = "jump_register"  # register-indirect CTI (jr/jalr)
    NOP = "nop"  # architectural no-operation
    SYSCALL = "syscall"  # operating-system trap


class OperandFormat(enum.Enum):
    """How an instruction's operands are written in assembly."""

    THREE_REG = "rd, rs, rt"  # addu rd, rs, rt
    TWO_REG_IMM = "rt, rs, imm"  # addiu rt, rs, imm
    ONE_REG_IMM = "rt, imm"  # lui rt, imm
    MEM = "rt, offset(base)"  # lw rt, 100(r5)
    BRANCH_TWO = "rs, rt, target"  # beq rs, rt, label
    BRANCH_ONE = "rs, target"  # blez rs, label
    TARGET = "target"  # j label
    REG_TARGET = "rd, rs"  # jalr rd, rs
    ONE_REG = "rs"  # jr rs / mflo rd
    NONE = ""  # nop, syscall


class Opcode(enum.Enum):
    """Mnemonics of the supported subset."""

    # ALU register format
    ADDU = "addu"
    SUBU = "subu"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SLT = "slt"
    SLTU = "sltu"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    # ALU immediate format
    ADDIU = "addiu"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLTI = "slti"
    LUI = "lui"
    # Multiply/divide (modelled as ordinary ALU ops; the paper's pipeline
    # treats them as single-cycle producers for scheduling purposes)
    MULT = "mult"
    DIV = "div"
    # Floating point arithmetic (coprocessor 1), used by the FP benchmarks
    ADD_S = "add.s"
    MUL_S = "mul.s"
    ADD_D = "add.d"
    MUL_D = "mul.d"
    # Loads
    LW = "lw"
    LB = "lb"
    LBU = "lbu"
    LH = "lh"
    LHU = "lhu"
    LWC1 = "lwc1"
    LDC1 = "ldc1"
    # Stores
    SW = "sw"
    SB = "sb"
    SH = "sh"
    SWC1 = "swc1"
    SDC1 = "sdc1"
    # Conditional branches
    BEQ = "beq"
    BNE = "bne"
    BLEZ = "blez"
    BGTZ = "bgtz"
    BLTZ = "bltz"
    BGEZ = "bgez"
    # Jumps
    J = "j"
    JAL = "jal"
    JR = "jr"
    JALR = "jalr"
    # Miscellaneous
    NOP = "nop"
    SYSCALL = "syscall"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of one opcode."""

    opcode: Opcode
    kind: OpcodeKind
    fmt: OperandFormat
    #: Conditional branches may fall through; jumps always transfer control.
    conditional: bool = False
    #: jal/jalr write the return address into a register.
    links: bool = False


def _alu3(op: Opcode) -> OpcodeInfo:
    return OpcodeInfo(op, OpcodeKind.ALU, OperandFormat.THREE_REG)


def _alui(op: Opcode) -> OpcodeInfo:
    return OpcodeInfo(op, OpcodeKind.ALU, OperandFormat.TWO_REG_IMM)


def _load(op: Opcode) -> OpcodeInfo:
    return OpcodeInfo(op, OpcodeKind.LOAD, OperandFormat.MEM)


def _store(op: Opcode) -> OpcodeInfo:
    return OpcodeInfo(op, OpcodeKind.STORE, OperandFormat.MEM)


OPCODE_TABLE: Dict[Opcode, OpcodeInfo] = {
    info.opcode: info
    for info in [
        _alu3(Opcode.ADDU),
        _alu3(Opcode.SUBU),
        _alu3(Opcode.AND),
        _alu3(Opcode.OR),
        _alu3(Opcode.XOR),
        _alu3(Opcode.NOR),
        _alu3(Opcode.SLT),
        _alu3(Opcode.SLTU),
        _alui(Opcode.SLL),
        _alui(Opcode.SRL),
        _alui(Opcode.SRA),
        _alui(Opcode.ADDIU),
        _alui(Opcode.ANDI),
        _alui(Opcode.ORI),
        _alui(Opcode.XORI),
        _alui(Opcode.SLTI),
        OpcodeInfo(Opcode.LUI, OpcodeKind.ALU, OperandFormat.ONE_REG_IMM),
        _alu3(Opcode.MULT),
        _alu3(Opcode.DIV),
        _alu3(Opcode.ADD_S),
        _alu3(Opcode.MUL_S),
        _alu3(Opcode.ADD_D),
        _alu3(Opcode.MUL_D),
        _load(Opcode.LW),
        _load(Opcode.LB),
        _load(Opcode.LBU),
        _load(Opcode.LH),
        _load(Opcode.LHU),
        _load(Opcode.LWC1),
        _load(Opcode.LDC1),
        _store(Opcode.SW),
        _store(Opcode.SB),
        _store(Opcode.SH),
        _store(Opcode.SWC1),
        _store(Opcode.SDC1),
        OpcodeInfo(Opcode.BEQ, OpcodeKind.BRANCH, OperandFormat.BRANCH_TWO, conditional=True),
        OpcodeInfo(Opcode.BNE, OpcodeKind.BRANCH, OperandFormat.BRANCH_TWO, conditional=True),
        OpcodeInfo(Opcode.BLEZ, OpcodeKind.BRANCH, OperandFormat.BRANCH_ONE, conditional=True),
        OpcodeInfo(Opcode.BGTZ, OpcodeKind.BRANCH, OperandFormat.BRANCH_ONE, conditional=True),
        OpcodeInfo(Opcode.BLTZ, OpcodeKind.BRANCH, OperandFormat.BRANCH_ONE, conditional=True),
        OpcodeInfo(Opcode.BGEZ, OpcodeKind.BRANCH, OperandFormat.BRANCH_ONE, conditional=True),
        OpcodeInfo(Opcode.J, OpcodeKind.JUMP, OperandFormat.TARGET),
        OpcodeInfo(Opcode.JAL, OpcodeKind.JUMP, OperandFormat.TARGET, links=True),
        OpcodeInfo(Opcode.JR, OpcodeKind.JUMP_REGISTER, OperandFormat.ONE_REG),
        OpcodeInfo(Opcode.JALR, OpcodeKind.JUMP_REGISTER, OperandFormat.REG_TARGET, links=True),
        OpcodeInfo(Opcode.NOP, OpcodeKind.NOP, OperandFormat.NONE),
        OpcodeInfo(Opcode.SYSCALL, OpcodeKind.SYSCALL, OperandFormat.NONE),
    ]
}

#: :data:`OPCODE_TABLE` keyed by mnemonic, for lookups on hot paths with
#: ``opcode._value_``: an :class:`Opcode` key runs ``Enum.__hash__`` (Python
#: code) on every lookup and ``Enum.value`` is a Python-level descriptor,
#: while ``_value_`` is the plain attribute holding the mnemonic.
INFO_BY_VALUE: Dict[str, OpcodeInfo] = {
    op.value: info for op, info in OPCODE_TABLE.items()
}
