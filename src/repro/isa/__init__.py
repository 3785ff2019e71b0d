"""A MIPS-I-like instruction-set substrate.

The paper's experiments were driven by MIPS R2000 object code.  This package
provides the subset of that ISA the experiments actually depend on:

* 32 general-purpose registers with the MIPS software conventions
  (``$gp``-relative global addressing and ``$sp``-relative locals matter for
  the load-delay analysis of Section 3.2);
* instruction categories — ALU, load, store, and control-transfer
  instructions (CTIs), with CTIs subdivided into conditional branches,
  direct jumps, and register-indirect jumps (whose delay slots can never be
  filled from the target, Section 3.1), read from the opcode table;
* the :class:`Instruction` value: the read view of one row of a
  program's columns (:class:`~repro.program.columns.ProgramColumns`).
  The lowering's dependence scans read the register fields of those rows
  (:mod:`repro.program.dependence`), which drive both the delay-slot
  scheduler and the load-use slack (epsilon) measurements.

The text assembler and disassembler tests build blocks from live under
``tests/isa``.
"""

from repro.isa.registers import Register, REGISTER_COUNT, GP, SP, RA, ZERO
from repro.isa.opcodes import Opcode, OpcodeKind, OPCODE_TABLE
from repro.isa.instruction import Instruction

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
    "Instruction",
]
