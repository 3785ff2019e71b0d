"""Instruction-level reference implementations of the lowered analyses.

The runtime computes delay-slot translations and load-slack histograms
from arrays lowered once per program (:class:`~repro.trace.compiled.
CompiledProgram`), and the lowering runs its dependence scans over the
program's columns (:mod:`repro.program.dependence`).  These are the
per-block and per-instruction loops those replaced, kept as oracles:
they walk a :class:`~repro.program.cfg.Program`'s instruction lists and
ask each instruction for its ``defs``/``uses`` sets
(:mod:`tests.isa.defuse`).  The single-query dependence functions
(:func:`memory_conflict`, :func:`independent_prefix_length`,
:func:`flow_dependences`) ask the per-block scans of
:class:`tests.program.oracles.BlockFacts` one question at a time.
"""

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ScheduleError
from repro.isa.opcodes import OpcodeKind
from repro.isa.instruction import Instruction
from repro.isa.registers import FP, GP, SP, Register
from repro.program.cfg import Program
from repro.sched.branch_schedule import CtiSchedule
from repro.sched.load_schedule import EPSILON_CAP, LoadSlackAnalysis
from repro.trace.compiled import JUMP_UNFILLABLE_FRAC
from repro.utils.units import WORD_BYTES
from tests.isa.defuse import (
    defs,
    is_conditional_branch,
    is_load,
    is_memory,
    is_register_indirect,
    kind,
    uses,
)
from tests.program.oracles import BlockFacts

#: The seven per-block arrays of a translation file.
TRANSLATION_ARRAYS = (
    "new_lengths",
    "new_addresses",
    "skip_words",
    "s_values",
    "r_values",
    "predicted_taken",
    "indirect",
)


#: Registers that change rarely: loads addressed off them have a large
#: address-ready distance ``c`` in the epsilon analysis.
STABLE_BASES = frozenset({GP, SP, FP})


def growth_words(schedule: CtiSchedule) -> int:
    """Static code growth of a CTI's block: its ``s`` slots for a
    predicted-taken or register-indirect CTI, else 0."""
    return schedule.s if (schedule.predicted_taken or schedule.indirect) else 0


def skip_words(schedule: CtiSchedule) -> int:
    """Target words a predicted-taken direct CTI's fetch skips: the
    ``s`` slots filled from its target path."""
    return schedule.s if (schedule.predicted_taken and not schedule.indirect) else 0


def address_register(instruction) -> Optional[Register]:
    """The base register of a memory access, or None."""
    return instruction.base if is_memory(instruction) else None


def jump_is_unfillable(block_id: int) -> bool:
    """Step 1's Knuth-hash choice for one block, in Python integers."""
    return ((block_id * 2654435761) & 0xFFFFFFFF) / 2**32 < JUMP_UNFILLABLE_FRAC


def schedule_reference(program: Program, slots: int) -> Dict[int, CtiSchedule]:
    """The Section 3.1 procedure, block by block over the instruction lists."""
    blocks = list(program.blocks())
    index = {block.name: i for i, block in enumerate(blocks)}
    schedules: Dict[int, CtiSchedule] = {}
    for block_id, block in enumerate(blocks):
        cti = block.terminator
        if cti is None:
            continue
        if kind(cti) is OpcodeKind.JUMP and jump_is_unfillable(block_id):
            hoist = 0  # step 1
        else:
            hoist = cti_hoist_distance_reference(block.instructions)  # step 2
        r = min(slots, hoist)
        schedules[block_id] = CtiSchedule(
            block_id,
            r=r,
            s=slots - r,
            # Step 3: backward conditionals and every other CTI.
            predicted_taken=(
                not is_conditional_branch(cti) or index[block.taken_target] <= block_id
            ),
            indirect=is_register_indirect(cti),
        )
    return schedules


def translation_reference(program: Program, slots: int) -> Dict[str, np.ndarray]:
    """A translation file's arrays, built from :func:`schedule_reference`."""
    schedules = schedule_reference(program, slots)
    lengths = np.array([len(block) for block in program.blocks()], dtype=np.int32)
    n = len(lengths)
    arrays = {
        "s_values": np.zeros(n, dtype=np.int32),
        "r_values": np.zeros(n, dtype=np.int32),
        "skip_words": np.zeros(n, dtype=np.int32),
        "predicted_taken": np.zeros(n, dtype=bool),
        "indirect": np.zeros(n, dtype=bool),
    }
    growth = np.zeros(n, dtype=np.int32)
    for block_id, schedule in schedules.items():
        arrays["s_values"][block_id] = schedule.s
        arrays["r_values"][block_id] = schedule.r
        arrays["skip_words"][block_id] = skip_words(schedule)
        arrays["predicted_taken"][block_id] = schedule.predicted_taken
        arrays["indirect"][block_id] = schedule.indirect
        growth[block_id] = growth_words(schedule)
    arrays["new_lengths"] = lengths + growth
    starts = np.concatenate(([0], np.cumsum(arrays["new_lengths"])[:-1]))
    arrays["new_addresses"] = (
        program.text_base + starts * WORD_BYTES
    ).astype(np.int64)
    return arrays


def load_slack_reference(
    program: Program, block_counts: Optional[np.ndarray] = None
) -> LoadSlackAnalysis:
    """The per-instruction epsilon loop (dict order = insertion order)."""
    blocks = list(program.blocks())
    if block_counts is None:
        block_counts = np.ones(len(blocks), dtype=np.int64)
    if len(block_counts) != len(blocks):
        raise ScheduleError("block_counts must have one entry per block")

    dynamic_histogram: Dict[int, int] = {}
    static_histogram: Dict[int, int] = {}
    total_loads = 0
    total_instructions = 0

    for block_id, block in enumerate(blocks):
        weight = int(block_counts[block_id])
        if weight == 0:
            continue
        instructions = block.instructions
        total_instructions += weight * len(instructions)
        for position, inst in enumerate(instructions):
            if not is_load(inst):
                continue
            total_loads += weight

            eps_static, eps_dynamic = load_epsilons_reference(instructions, position)
            static_histogram[eps_static] = (
                static_histogram.get(eps_static, 0) + weight
            )
            dynamic_histogram[eps_dynamic] = (
                dynamic_histogram.get(eps_dynamic, 0) + weight
            )

    loads_per_instruction = total_loads / total_instructions if total_instructions else 0.0
    return LoadSlackAnalysis(
        dynamic_histogram=dynamic_histogram,
        static_histogram=static_histogram,
        loads_per_instruction=loads_per_instruction,
    )


def suite_load_slack_reference(programs, block_counts, loads, instructions):
    """The session's suite aggregation over per-benchmark oracle analyses."""
    dynamic: Dict[int, int] = {}
    static: Dict[int, int] = {}
    for program, counts in zip(programs, block_counts):
        analysis = load_slack_reference(program, counts)
        for eps, count in analysis.dynamic_histogram.items():
            dynamic[eps] = dynamic.get(eps, 0) + count
        for eps, count in analysis.static_histogram.items():
            static[eps] = static.get(eps, 0) + count
    return LoadSlackAnalysis(
        dynamic_histogram=dynamic,
        static_histogram=static,
        loads_per_instruction=loads / instructions,
    )


def memory_conflict_reference(a, b) -> bool:
    """Both memory operations, not both loads, same (base, offset)."""
    if not (is_memory(a) and is_memory(b)):
        return False
    if is_load(a) and is_load(b):
        return False
    return a.base == b.base and a.offset == b.offset


def cti_hoist_distance_reference(instructions) -> int:
    """The CTI hoist distance ``r``, over per-instruction def/use sets."""
    if not instructions or not instructions[-1].is_cti:
        return 0
    cti = instructions[-1]
    needed: Set[Register] = set(uses(cti))
    distance = 0
    for inst in reversed(instructions[:-1]):
        if inst.is_cti or kind(inst) is OpcodeKind.SYSCALL:
            break
        if defs(inst) & needed:
            break
        distance += 1
    return distance


def independent_prefix_length_reference(instructions, position: int) -> int:
    """Instructions immediately before ``position`` that it does not depend on."""
    target = instructions[position]
    needed: Set[Register] = set(uses(target))
    count = 0
    for inst in reversed(instructions[:position]):
        if inst.is_cti or kind(inst) is OpcodeKind.SYSCALL:
            break
        if defs(inst) & needed:
            break
        if memory_conflict_reference(inst, target):
            break
        count += 1
    return count


def use_distance_reference(instructions, position: int, horizon: int) -> int:
    """Instructions strictly between ``position`` and its first consumer."""
    produced = defs(instructions[position])
    if not produced:
        return horizon
    for ahead in range(1, horizon + 1):
        index = position + ahead
        if index >= len(instructions):
            return horizon
        inst = instructions[index]
        if uses(inst) & produced:
            return ahead - 1
        if defs(inst) & produced:
            # Result dead before use within the window: no consumer.
            return horizon
    return horizon


def load_epsilons_reference(instructions, position: int) -> Tuple[int, int]:
    """The (static, dynamic) slack of one load, instruction by instruction."""
    # Static view: c and d truncated at the block boundary.
    c_static = independent_prefix_length_reference(instructions, position)
    remaining = len(instructions) - 1 - position
    d_static = use_distance_reference(instructions, position, horizon=remaining)

    # Dynamic view: c is the true distance to the address-register
    # writer.  Stable bases ($gp/$sp/$fp) are written at program or
    # procedure entry, effectively infinitely far away.
    base = address_register(instructions[position])
    if base in STABLE_BASES:
        c_dynamic = EPSILON_CAP
    else:
        c_dynamic = _distance_to_writer(instructions, position)
    d_dynamic = use_distance_reference(instructions, position, horizon=EPSILON_CAP)
    return (
        min(EPSILON_CAP, c_static + d_static),
        min(EPSILON_CAP, c_dynamic + d_dynamic),
    )


def _distance_to_writer(instructions, position: int) -> int:
    """Instructions between the last writer of the base register and the load."""
    base = address_register(instructions[position])
    if base is None:
        return EPSILON_CAP
    for back in range(1, position + 1):
        if base in defs(instructions[position - back]):
            return back - 1
    return EPSILON_CAP  # written in an earlier block (or never): far away


def memory_conflict(a: Instruction, b: Instruction) -> bool:
    """True if two memory instructions may touch the same word."""
    return BlockFacts((a, b)).conflict(0, 1)


def independent_prefix_length(instructions: Sequence[Instruction], position: int) -> int:
    """Instructions before ``position`` that it does not depend on (the
    within-block scheduling headroom ``c`` of a load)."""
    return BlockFacts(instructions).independent_prefix(position)


def flow_dependences(instructions: Sequence[Instruction]) -> List[Tuple[int, int]]:
    """Every (producer, consumer) index pair with a true dependence.

    A pair (i, j), i < j, is reported when instruction j reads a register
    that instruction i is the most recent writer of, or when i and j have a
    memory conflict.
    """
    deps: List[Tuple[int, int]] = []
    last_writer: Dict[Register, int] = {}
    memory_ops: List[int] = []
    for j, inst in enumerate(instructions):
        for reg in uses(inst):
            if reg in last_writer:
                deps.append((last_writer[reg], j))
        if is_memory(inst):
            for i in memory_ops:
                if memory_conflict(instructions[i], inst):
                    deps.append((i, j))
            memory_ops.append(j)
        for reg in defs(inst):
            last_writer[reg] = j
    return sorted(set(deps))
