"""A MIPS-I-like instruction-set substrate.

The paper's experiments were driven by MIPS R2000 object code.  This package
provides the subset of that ISA the experiments actually depend on:

* 32 general-purpose registers with the MIPS software conventions
  (``$gp``-relative global addressing and ``$sp``-relative locals matter for
  the load-delay analysis of Section 3.2);
* instruction categories — ALU, load, store, and control-transfer
  instructions (CTIs), with CTIs subdivided into conditional branches,
  direct jumps, and register-indirect jumps (whose delay slots can never be
  filled from the target, Section 3.1);
* def/use information per instruction, which drives both the delay-slot
  scheduler and the load-use slack (epsilon) measurements;
* a small two-pass assembler that tests build blocks from, and a
  disassembler that renders ``str(instruction)``.
"""

from repro.isa.registers import Register, REGISTER_COUNT, GP, SP, RA, ZERO
from repro.isa.opcodes import Opcode, OpcodeKind, OPCODE_TABLE, opcode_info
from repro.isa.instruction import Instruction, nop
from repro.isa.assembler import assemble, assemble_block
from repro.isa.disassembler import disassemble, disassemble_program

__all__ = [
    "Register",
    "REGISTER_COUNT",
    "GP",
    "SP",
    "RA",
    "ZERO",
    "Opcode",
    "OpcodeKind",
    "OPCODE_TABLE",
    "opcode_info",
    "Instruction",
    "nop",
    "assemble",
    "assemble_block",
    "disassemble",
    "disassemble_program",
]
