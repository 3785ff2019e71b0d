"""The per-block dependence scans the lowering replaced, kept as its oracle.

:class:`BlockFacts` computes each instruction's kind, defs and uses (as
register bitmasks) and symbolic address once per block, then answers the
CTI hoist distance and every load's slack by scanning those lists; the
lowering used to build one per block.  :func:`lowering_reference` is that
per-block lowering loop: the same arrays as
:meth:`~repro.trace.compiled.CompiledProgram.as_arrays`, built block by
block from the instruction lists, which the vectorized lowering must
equal array for array.  The frozenset walks these scans replaced live in
:mod:`tests.sched.oracles`.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.instruction import CTI_KINDS, Instruction
from repro.isa.opcodes import INFO_BY_VALUE, OpcodeKind
from repro.isa.registers import RA
from repro.program.cfg import Program
from repro.program.dependence import EPSILON_CAP
from repro.trace.compiled import BlockKind, unfillable_jumps

_ALU = OpcodeKind.ALU
_LOAD = OpcodeKind.LOAD
_STORE = OpcodeKind.STORE
_SYSCALL = OpcodeKind.SYSCALL
#: Instructions no other instruction moves across: CTIs and syscalls.
_BARRIERS = CTI_KINDS + (OpcodeKind.SYSCALL,)
#: The stable base registers ``$gp``/``$sp``/``$fp`` as a bitmask.
_STABLE_BASES = (1 << 28) | (1 << 29) | (1 << 30)


class BlockFacts:
    """The dependence facts of a block's instructions, computed once.

    Parallel lists, one entry per instruction:

    * ``kinds``: its :class:`~repro.isa.opcodes.OpcodeKind`;
    * ``defs`` / ``uses``: the registers it writes (its destination, or
      ``$ra`` for a linking jump without one; never ``$zero``) and reads
      (its sources and base; never ``$zero``), as register bitmasks;
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
        """True if instructions ``i`` and ``j`` may touch the same word.

        With perfect disambiguation, accesses conflict only when both are
        memory operations, at least one is a store, and the symbolic
        addresses (base register + offset) are identical.
        """
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
        """Instructions immediately before ``position`` it does not depend on.

        The maximal run, up to a barrier, of instructions that write no
        register ``position`` reads and have no memory conflict with it:
        the within-block scheduling headroom ``c`` of a load.
        """
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
        """Distance from ``position`` to the first consumer of its result.

        Scans forward up to ``horizon`` instructions.  Returns the number
        of instructions strictly between the producer and its first
        consumer (the paper's ``d``); returns ``horizon`` when no
        consumer (or overwrite of the produced register) is found within
        the window.
        """
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
        """The (static, dynamic) slack ``epsilon = c + d`` of the load at
        ``position``.

        Static: ``c`` and ``d`` truncated at the block boundary (what
        within-block compile-time scheduling can use).  Dynamic: ``c`` is
        the true distance to the address-register writer, where stable
        bases (``$gp``/``$sp``/``$fp``), written at program or procedure
        entry, are effectively infinitely far away.  Both are capped at
        :data:`EPSILON_CAP`.
        """
        c_static = self.independent_prefix(position)
        d_static = self.use_distance(position, len(self.kinds) - 1 - position)
        c_dynamic = self.writer_distance(position)
        d_dynamic = self.use_distance(position, EPSILON_CAP)
        return (
            min(EPSILON_CAP, c_static + d_static),
            min(EPSILON_CAP, c_dynamic + d_dynamic),
        )


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


def block_kind(facts: BlockFacts, indirect_targets: List[str]) -> BlockKind:
    """A block's :class:`BlockKind`, from its last instruction's facts."""
    last = facts.kinds[-1] if facts.kinds else None
    if last is OpcodeKind.BRANCH:
        return BlockKind.CONDITIONAL
    if last is OpcodeKind.JUMP:
        return BlockKind.CALL if facts.links else BlockKind.JUMP
    if last is OpcodeKind.JUMP_REGISTER:
        if facts.links:
            return BlockKind.INDIRECT_CALL
        if facts.last_base == RA.number and not indirect_targets:
            return BlockKind.RETURN
        return BlockKind.COMPUTED_GOTO
    return BlockKind.FALLTHROUGH


def lowering_reference(program: Program) -> Dict[str, np.ndarray]:
    """The lowered arrays of ``program``, one :class:`BlockFacts` per block."""
    blocks = list(program.blocks())
    names = [block.name for block in blocks]
    index = {name: i for i, name in enumerate(names)}
    unfillable = unfillable_jumps(np.arange(len(blocks))).tolist()
    columns: Dict[str, list] = {
        name: []
        for name in (
            "lengths", "kinds", "taken_ids", "fall_ids", "biases", "load_counts",
            "store_counts", "cti_counts", "syscall_counts", "hoist_limits",
            "load_blocks", "load_eps_static", "load_eps_dynamic",
        )
    }
    indirect_ids: List[List[int]] = []
    for i, block in enumerate(blocks):
        facts = BlockFacts(block.instructions)
        for position, opcode_kind in enumerate(facts.kinds):
            if opcode_kind is _LOAD:
                eps_static, eps_dynamic = facts.load_epsilons(position)
                columns["load_blocks"].append(i)
                columns["load_eps_static"].append(eps_static)
                columns["load_eps_dynamic"].append(eps_dynamic)
        kind = block_kind(facts, block.indirect_targets)
        if kind == BlockKind.FALLTHROUGH or (
            kind in (BlockKind.JUMP, BlockKind.CALL) and unfillable[i]
        ):
            hoist = 0
        else:
            hoist = facts.hoist_distance()
        for name, value in (
            ("lengths", len(facts)),
            ("kinds", kind),
            ("taken_ids", -1 if block.taken_target is None else index[block.taken_target]),
            ("fall_ids", -1 if block.fallthrough is None else index[block.fallthrough]),
            ("biases", block.taken_bias),
            ("load_counts", facts.loads),
            ("store_counts", facts.stores),
            ("cti_counts", facts.ctis),
            ("syscall_counts", facts.syscalls),
            ("hoist_limits", hoist),
        ):
            columns[name].append(value)
        indirect_ids.append([index[t] for t in block.indirect_targets])
    dtypes = {
        "lengths": np.int32, "kinds": np.int8, "taken_ids": np.int32,
        "fall_ids": np.int32, "biases": np.float64, "load_counts": np.int32,
        "store_counts": np.int32, "cti_counts": np.int32,
        "syscall_counts": np.int32, "hoist_limits": np.int32,
        "load_blocks": np.int32, "load_eps_static": np.int8,
        "load_eps_dynamic": np.int8,
    }
    arrays = {name: np.array(values, dtype=dtypes[name]) for name, values in columns.items()}
    offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum([len(t) for t in indirect_ids], out=offsets[1:])
    arrays["indirect_offsets"] = offsets
    arrays["indirect_flat"] = np.array(
        [t for targets in indirect_ids for t in targets], dtype=np.int32
    )
    kinds = arrays["kinds"]
    taken = arrays["taken_ids"]
    is_cti = kinds != BlockKind.FALLTHROUGH
    backward = (taken >= 0) & (taken <= np.arange(len(blocks)))
    arrays["predicted_taken"] = is_cti & ((kinds != BlockKind.CONDITIONAL) | backward)
    arrays["indirect"] = np.isin(
        kinds, (BlockKind.RETURN, BlockKind.COMPUTED_GOTO, BlockKind.INDIRECT_CALL)
    )
    arrays["names"] = np.array(names, dtype=str)
    arrays["name"] = np.array([program.name], dtype=str)
    arrays["entry_id"] = np.array([index[program.entry]], dtype=np.int64)
    arrays["text_base"] = np.array([program.text_base], dtype=np.int64)
    return arrays
