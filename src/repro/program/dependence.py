"""Within-block data-dependence analysis.

Both delay-slot schedulers ask the same kinds of questions:

* the branch scheduler (Section 3.1, step 2) needs to know how far the
  terminating CTI can be hoisted over its predecessors — limited by the
  instructions that define the CTI's condition/target registers;
* the load scheduler (Section 3.2) needs, for each load, the number of
  *independent* instructions around it that could fill its delay slots, and
  the distance to the first consumer of its result.

Dependences considered are true (flow) dependences through registers plus a
memory ordering constraint: a load may move past a store only when their
addresses provably differ.  The paper's "best static scheduling" assumes
*perfect memory disambiguation*, which we model by comparing (base register,
offset) pairs symbolically — identical pairs conflict, anything else is
assumed disjoint.  Output dependences through registers are ignored for the
CTI hoist (the CTI writes at most the link register) and respected where
they matter in the load analysis.

The hoist and slack scans run over :class:`BlockFacts`: each
instruction's kind, registers and symbolic address, computed once per
block, with register sets as bitmasks (bit ``n`` is register ``n``), so a
dependence test is an integer AND.  The lowering builds one per block and
asks it for the CTI hoist distance, every load's slack, the block's
category counts and its terminator; the per-instruction functions below
answer single queries through the same scans.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instruction import CTI_KINDS, Instruction
from repro.isa.opcodes import INFO_BY_VALUE, OpcodeKind
from repro.isa.registers import RA, Register

__all__ = [
    "BlockFacts",
    "EPSILON_CAP",
    "flow_dependences",
    "cti_hoist_distance",
    "independent_prefix_length",
    "load_epsilons",
    "memory_conflict",
    "use_distance",
]

#: Slack beyond this many cycles never matters (the paper studies at most
#: three load delay slots); epsilon values are capped here for histograms.
EPSILON_CAP = 8

_ALU = OpcodeKind.ALU
_LOAD = OpcodeKind.LOAD
_STORE = OpcodeKind.STORE
_SYSCALL = OpcodeKind.SYSCALL
#: Instructions no other instruction moves across: CTIs and syscalls.
_BARRIERS = CTI_KINDS + (OpcodeKind.SYSCALL,)
#: ``$gp``/``$sp``/``$fp`` (:attr:`Register.is_stable_base`) as a bitmask.
_STABLE_BASES = (1 << 28) | (1 << 29) | (1 << 30)


class BlockFacts:
    """The dependence facts of a block's instructions, computed once.

    Parallel lists, one entry per instruction:

    * ``kinds``: its :class:`~repro.isa.opcodes.OpcodeKind`;
    * ``defs`` / ``uses``: :attr:`Instruction.defs` / :attr:`Instruction.uses`
      as register bitmasks;
    * ``addresses``: the symbolic address ``(base, offset)`` of a memory
      instruction (base -1 when it has none), None for the rest.

    And per block, from the same pass:

    * ``loads`` / ``stores`` / ``ctis`` / ``syscalls``: how many
      instructions are of each category;
    * ``links``: whether the last instruction writes the return address
      (``jal``/``jalr``);
    * ``last_base``: the number of the last instruction's base register,
      -1 when it has none (a ``jr``/``jalr``'s target register).
    """

    __slots__ = (
        "kinds", "defs", "uses", "addresses",
        "loads", "stores", "ctis", "syscalls", "links", "last_base",
    )

    def __init__(self, instructions: Sequence[Instruction]) -> None:
        kinds: List[OpcodeKind] = []
        defs: List[int] = []
        uses: List[int] = []
        addresses: List[Optional[Tuple[int, int]]] = []
        loads = stores = ctis = syscalls = 0
        links = False
        base_number = -1
        for inst in instructions:
            info = INFO_BY_VALUE[inst.opcode._value_]
            kind = info.kind
            dest = inst.dest
            base = inst.base
            links = info.links
            base_number = -1 if base is None else base.number
            written = 0 if dest is None or dest.number == 0 else 1 << dest.number
            if links:
                written |= 1 << (RA.number if dest is None else dest.number)
            read = 0 if base is None else 1 << base_number
            for source in inst.sources:
                read |= 1 << source.number
            kinds.append(kind)
            defs.append(written)
            uses.append(read & ~1)  # reads of $zero are no dependence
            if kind is _ALU:
                addresses.append(None)
            elif kind is _LOAD:
                loads += 1
                addresses.append((base_number, inst.offset))
            elif kind is _STORE:
                stores += 1
                addresses.append((base_number, inst.offset))
            else:
                addresses.append(None)
                if kind is _SYSCALL:
                    syscalls += 1
                elif kind in CTI_KINDS:
                    ctis += 1
        self.kinds = kinds
        self.defs = defs
        self.uses = uses
        self.addresses = addresses
        self.loads = loads
        self.stores = stores
        self.ctis = ctis
        self.syscalls = syscalls
        self.links = links
        self.last_base = base_number

    def __len__(self) -> int:
        return len(self.kinds)

    def conflict(self, i: int, j: int) -> bool:
        """:func:`memory_conflict` of instructions ``i`` and ``j``."""
        address = self.addresses[i]
        return (
            address is not None
            and address == self.addresses[j]
            and not (self.kinds[i] is _LOAD and self.kinds[j] is _LOAD)
        )

    def hoist_distance(self) -> int:
        """:func:`cti_hoist_distance` of the block."""
        kinds = self.kinds
        if not kinds or kinds[-1] not in CTI_KINDS:
            return 0
        needed = self.uses[-1]
        defs = self.defs
        distance = 0
        for i in range(len(kinds) - 2, -1, -1):
            if kinds[i] in _BARRIERS or defs[i] & needed:
                break
            distance += 1
        return distance

    def independent_prefix(self, position: int) -> int:
        """:func:`independent_prefix_length` of instruction ``position``."""
        kinds = self.kinds
        defs = self.defs
        needed = self.uses[position]
        count = 0
        for i in range(position - 1, -1, -1):
            if kinds[i] in _BARRIERS or defs[i] & needed or self.conflict(i, position):
                break
            count += 1
        return count

    def use_distance(self, position: int, horizon: int) -> int:
        """:func:`use_distance` of instruction ``position``."""
        produced = self.defs[position]
        if not produced:
            return horizon
        defs = self.defs
        uses = self.uses
        for index in range(position + 1, min(position + horizon, len(defs) - 1) + 1):
            if uses[index] & produced:
                return index - position - 1
            if defs[index] & produced:
                # Result dead before use within the window: no consumer.
                return horizon
        return horizon

    def writer_distance(self, position: int) -> int:
        """Instructions between the last writer of a load's base register
        and the load: the dynamic ``c``.

        :data:`EPSILON_CAP` when the base is a stable register
        (``$gp``/``$sp``/``$fp``, written at program or procedure entry) or
        is written in an earlier block (or never): far away, as far as load
        slack is concerned.
        """
        address = self.addresses[position]
        if address is None or address[0] < 0 or _STABLE_BASES >> address[0] & 1:
            return EPSILON_CAP
        base = 1 << address[0]
        defs = self.defs
        for back in range(1, position + 1):
            if defs[position - back] & base:
                return back - 1
        return EPSILON_CAP

    def load_epsilons(self, position: int) -> Tuple[int, int]:
        """:func:`load_epsilons` of instruction ``position``."""
        c_static = self.independent_prefix(position)
        d_static = self.use_distance(position, len(self.kinds) - 1 - position)
        c_dynamic = self.writer_distance(position)
        d_dynamic = self.use_distance(position, EPSILON_CAP)
        return (
            min(EPSILON_CAP, c_static + d_static),
            min(EPSILON_CAP, c_dynamic + d_dynamic),
        )


def memory_conflict(a: Instruction, b: Instruction) -> bool:
    """True if two memory instructions may touch the same word.

    With perfect disambiguation, accesses conflict only when both are memory
    operations, at least one is a store, and the symbolic addresses (base
    register + offset) are identical.
    """
    return BlockFacts((a, b)).conflict(0, 1)


def flow_dependences(instructions: Sequence[Instruction]) -> List[Tuple[int, int]]:
    """Return all (producer, consumer) index pairs with a true dependence.

    A pair (i, j), i < j, is reported when instruction j reads a register
    that instruction i is the most recent writer of, or when i and j have a
    memory conflict.
    """
    deps: List[Tuple[int, int]] = []
    last_writer: Dict[Register, int] = {}
    memory_ops: List[int] = []
    for j, inst in enumerate(instructions):
        for reg in inst.uses:
            if reg in last_writer:
                deps.append((last_writer[reg], j))
        if inst.is_memory:
            for i in memory_ops:
                if memory_conflict(instructions[i], inst):
                    deps.append((i, j))
            memory_ops.append(j)
        for reg in inst.defs:
            last_writer[reg] = j
    return sorted(set(deps))


def cti_hoist_distance(instructions: Sequence[Instruction]) -> int:
    """How many predecessors the terminating CTI can be hoisted over.

    This is the paper's ``r``: the number of instructions immediately before
    the CTI that (a) do not define a register the CTI reads and (b) are safe
    to execute in a delay slot — i.e. are not CTIs or syscalls themselves.
    Only the CTI moves; the other instructions keep their relative order
    (Section 3.1, step 2: "No attempt is made to rearrange the ordering of
    any other instructions").

    Returns 0 when the block does not end in a CTI.
    """
    return BlockFacts(instructions).hoist_distance()


def independent_prefix_length(
    instructions: Sequence[Instruction], position: int
) -> int:
    """Number of instructions before ``position`` independent of it.

    Counts the maximal run of instructions immediately preceding
    ``instructions[position]`` that the instruction at ``position`` does not
    depend on (registers or memory).  This is the within-block scheduling
    headroom ``c`` available for moving a load earlier.
    """
    return BlockFacts(instructions).independent_prefix(position)


def use_distance(
    instructions: Sequence[Instruction], position: int, horizon: int
) -> int:
    """Distance from ``position`` to the first consumer of its result.

    Scans forward up to ``horizon`` instructions.  Returns the number of
    instructions strictly between the producer and its first consumer (the
    paper's ``d``); returns ``horizon`` when no consumer (or overwrite of
    the produced register) is found within the window.
    """
    return BlockFacts(instructions).use_distance(position, horizon)


def load_epsilons(instructions: Sequence[Instruction], position: int) -> Tuple[int, int]:
    """The (static, dynamic) slack ``epsilon = c + d`` of one load.

    Static: ``c`` and ``d`` truncated at the block boundary (what
    within-block compile-time scheduling can use).  Dynamic: ``c`` is the
    true distance to the address-register writer, where stable bases
    (``$gp``/``$sp``/``$fp``), written at program or procedure entry, are
    effectively infinitely far away.  Both are capped at
    :data:`EPSILON_CAP`.
    """
    return BlockFacts(instructions).load_epsilons(position)
