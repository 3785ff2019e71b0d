"""Reference implementation the trace executor is tested against.

:func:`run_reference` is the original block-at-a-time walk: one loop
iteration per executed block, one uniform per conditional branch or
indirect transfer.  The production path (:meth:`TraceExecutor.run` /
:meth:`TraceExecutor.iter_chunks`) walks whole precomputed decision
edges instead, and must produce exactly this walk's arrays.  The oracle
shares only the seeding contract with it: uniforms come from
``spawn_rng(seed, name, "control")``, read in order.
"""

from array import array

import numpy as np

from repro.errors import TraceError
from repro.trace.compiled import BlockKind, CompiledProgram
from repro.trace.executor import ExecutionTrace
from repro.utils.rng import spawn_rng

#: Uniforms drawn per ``Generator.random`` call.  The batch size never
#: changes the values: each float64 consumes one 64-bit draw.
_UNIFORM_BATCH = 1 << 16

#: Longest call stack the walk keeps: a call made at this depth pushes
#: no return address.
_MAX_CALL_DEPTH = 256


def run_reference(program, budget: int, seed: int) -> ExecutionTrace:
    """Walk ``program`` block by block until ``budget`` instructions ran."""
    if budget <= 0:
        raise TraceError("instruction budget must be positive")
    compiled = (
        program if isinstance(program, CompiledProgram) else CompiledProgram(program)
    )
    rng = spawn_rng(seed, compiled.name, "control")
    uniforms = np.empty(0)
    cursor = 0

    def uniform() -> float:
        nonlocal uniforms, cursor
        if cursor >= len(uniforms):
            uniforms = rng.random(_UNIFORM_BATCH)
            cursor = 0
        cursor += 1
        return uniforms[cursor - 1]

    lengths = compiled.lengths.tolist()
    kinds = compiled.kinds.tolist()
    taken_ids = compiled.taken_ids.tolist()
    fall_ids = compiled.fall_ids.tolist()
    biases = compiled.biases.tolist()
    offsets = compiled.indirect_offsets.tolist()
    flat = compiled.indirect_flat.tolist()
    indirect_ids = [flat[offsets[i] : offsets[i + 1]] for i in range(len(compiled))]

    block_ids = array("i")
    went_taken = array("b")
    call_stack: list = []
    restarts = 0
    current = compiled.entry_id
    executed = 0

    while executed < budget:
        block_ids.append(current)
        executed += lengths[current]
        kind = kinds[current]
        taken = 1
        if kind == BlockKind.FALLTHROUGH:
            nxt = fall_ids[current]
            taken = 0
        elif kind == BlockKind.CONDITIONAL:
            if uniform() < biases[current]:
                nxt = taken_ids[current]
            else:
                nxt = fall_ids[current]
                taken = 0
        elif kind == BlockKind.JUMP:
            nxt = taken_ids[current]
        elif kind == BlockKind.CALL:
            if len(call_stack) < _MAX_CALL_DEPTH:
                call_stack.append(fall_ids[current])
            nxt = taken_ids[current]
        elif kind == BlockKind.RETURN:
            nxt = call_stack.pop() if call_stack else -1
        elif kind == BlockKind.COMPUTED_GOTO:
            candidates = indirect_ids[current]
            nxt = candidates[int(uniform() * len(candidates))]
        else:  # BlockKind.INDIRECT_CALL
            candidates = indirect_ids[current]
            if len(call_stack) < _MAX_CALL_DEPTH:
                call_stack.append(fall_ids[current])
            nxt = candidates[int(uniform() * len(candidates))]
        went_taken.append(taken)
        if nxt < 0:
            restarts += 1
            call_stack.clear()
            nxt = compiled.entry_id
        current = nxt

    return ExecutionTrace(
        compiled=compiled,
        block_ids=np.frombuffer(block_ids, dtype=np.int32).copy(),
        went_taken=np.frombuffer(went_taken, dtype=np.int8).copy(),
        restarts=restarts,
    )
