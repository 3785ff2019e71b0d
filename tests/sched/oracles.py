"""Instruction-level reference implementations of the lowered analyses.

The runtime computes delay-slot translations and load-slack histograms
from arrays lowered once per program (:class:`~repro.trace.compiled.
CompiledProgram`).  These are the per-block and per-instruction loops
those arrays replaced, kept verbatim as oracles: each walks the program's
instruction lists, so it needs a ``CompiledProgram`` built from its
program.
"""

from typing import Dict, Optional

import numpy as np

from repro.errors import ScheduleError
from repro.program.dependence import independent_prefix_length, use_distance
from repro.sched.branch_schedule import schedule_ctis
from repro.sched.load_schedule import EPSILON_CAP, LoadSlackAnalysis
from repro.trace.compiled import JUMP_UNFILLABLE_FRAC, CompiledProgram
from repro.utils.units import WORD_BYTES

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


def jump_is_unfillable(block_id: int) -> bool:
    """Step 1's Knuth-hash choice for one block, in Python integers."""
    return ((block_id * 2654435761) & 0xFFFFFFFF) / 2**32 < JUMP_UNFILLABLE_FRAC


def translation_reference(compiled: CompiledProgram, slots: int) -> Dict[str, np.ndarray]:
    """A translation file's arrays, built from :func:`schedule_ctis`."""
    schedules = schedule_ctis(compiled, slots)
    n = len(compiled)
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
        arrays["skip_words"][block_id] = schedule.skip
        arrays["predicted_taken"][block_id] = schedule.predicted_taken
        arrays["indirect"][block_id] = schedule.indirect
        growth[block_id] = schedule.growth
    arrays["new_lengths"] = compiled.lengths + growth
    starts = np.concatenate(([0], np.cumsum(arrays["new_lengths"])[:-1]))
    arrays["new_addresses"] = (
        compiled.program.text_base + starts * WORD_BYTES
    ).astype(np.int64)
    return arrays


def load_slack_reference(
    compiled: CompiledProgram, block_counts: Optional[np.ndarray] = None
) -> LoadSlackAnalysis:
    """The per-instruction epsilon loop (dict order = insertion order)."""
    if block_counts is None:
        block_counts = np.ones(len(compiled), dtype=np.int64)
    if len(block_counts) != len(compiled):
        raise ScheduleError("block_counts must have one entry per block")

    dynamic_histogram: Dict[int, int] = {}
    static_histogram: Dict[int, int] = {}
    total_loads = 0
    total_instructions = 0

    for block_id in range(len(compiled)):
        weight = int(block_counts[block_id])
        if weight == 0:
            continue
        instructions = compiled.block_instructions(block_id)
        total_instructions += weight * len(instructions)
        for position, inst in enumerate(instructions):
            if not inst.is_load:
                continue
            total_loads += weight

            # Static view: c and d truncated at the block boundary.
            c_static = independent_prefix_length(instructions, position)
            remaining = len(instructions) - 1 - position
            d_static = use_distance(instructions, position, horizon=remaining)
            eps_static = min(EPSILON_CAP, c_static + d_static)

            # Dynamic view: c is the true distance to the address-register
            # writer.  Stable bases ($gp/$sp/$fp) are written at program or
            # procedure entry, effectively infinitely far away.
            base = inst.address_register
            if base is not None and base.is_stable_base:
                c_dynamic = EPSILON_CAP
            else:
                c_dynamic = _distance_to_writer(instructions, position)
            d_dynamic = use_distance(instructions, position, horizon=EPSILON_CAP)
            eps_dynamic = min(EPSILON_CAP, c_dynamic + d_dynamic)

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


def suite_load_slack_reference(compiled_programs, block_counts, loads, instructions):
    """The session's suite aggregation over per-benchmark oracle analyses."""
    dynamic: Dict[int, int] = {}
    static: Dict[int, int] = {}
    for compiled, counts in zip(compiled_programs, block_counts):
        analysis = load_slack_reference(compiled, counts)
        for eps, count in analysis.dynamic_histogram.items():
            dynamic[eps] = dynamic.get(eps, 0) + count
        for eps, count in analysis.static_histogram.items():
            static[eps] = static.get(eps, 0) + count
    return LoadSlackAnalysis(
        dynamic_histogram=dynamic,
        static_histogram=static,
        loads_per_instruction=loads / instructions,
    )


def _distance_to_writer(instructions, position: int) -> int:
    """Instructions between the last writer of the base register and the load."""
    base = instructions[position].address_register
    if base is None:
        return EPSILON_CAP
    for back in range(1, position + 1):
        if base in instructions[position - back].defs:
            return back - 1
    return EPSILON_CAP  # written in an earlier block (or never): far away
