"""MIPS general-purpose register file and software conventions.

The load-delay analysis of the paper (Section 3.2) leans on two MIPS software
conventions:

* most global static data lives in a 64 KB region addressed off the dedicated
  ``$gp`` register, which is set once at program start;
* local automatic variables are addressed off ``$sp``, which changes only at
  procedure entry/exit.

Because those base registers are written so rarely, the distance ``c`` from
the last write of a load's address register to the load itself is usually
large, which is why over 80 % of loads have scheduling slack epsilon >= 3
(Figure 6).  The workload generator reproduces this by routing the paper's
measured share of references through ``$gp``/``$sp``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Register",
    "REGISTER_COUNT",
    "ZERO",
    "AT",
    "GP",
    "SP",
    "FP",
    "RA",
    "TEMP_REGISTERS",
    "SAVED_REGISTERS",
    "ARG_REGISTERS",
    "RESULT_REGISTERS",
]

#: Number of general purpose registers in the MIPS ISA.
REGISTER_COUNT = 32

_NAMES = (
    ["zero", "at", "v0", "v1", "a0", "a1", "a2", "a3"]
    + [f"t{i}" for i in range(8)]
    + [f"s{i}" for i in range(8)]
    + ["t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra"]
)


@dataclass(frozen=True, order=True)
class Register:
    """A general-purpose register, identified by its number (0-31).

    Registers are value objects: two ``Register(4)`` instances compare and
    hash equal, so they can be used in def/use sets.

    >>> Register(29) == SP
    True
    >>> str(SP)
    '$sp'
    """

    number: int

    def __post_init__(self) -> None:
        if not 0 <= self.number < REGISTER_COUNT:
            raise ValueError(f"register number out of range: {self.number}")

    @property
    def name(self) -> str:
        """The conventional assembler name, e.g. ``$t0``."""
        return "$" + _NAMES[self.number]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Register({self.number}:{self.name})"

    def __str__(self) -> str:
        return self.name


ZERO = Register(0)
AT = Register(1)
GP = Register(28)
SP = Register(29)
FP = Register(30)
RA = Register(31)

#: Caller-saved temporaries, the scheduler's favourite scratch space.
TEMP_REGISTERS = tuple(Register(n) for n in list(range(8, 16)) + [24, 25])
#: Callee-saved registers.
SAVED_REGISTERS = tuple(Register(n) for n in range(16, 24))
#: Argument-passing registers.
ARG_REGISTERS = tuple(Register(n) for n in range(4, 8))
#: Function-result registers.
RESULT_REGISTERS = (Register(2), Register(3))
